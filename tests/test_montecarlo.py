import concurrent.futures
import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtri

from seqclt import montecarlo
from seqclt.montecarlo import (
    DyadicPoint,
    birkhoff_samples,
    draw_numerator,
    ks_statistic,
    normal_cdf,
    orbit_birkhoff,
    report_from_samples,
    required_bits,
    sample_birkhoff,
)
from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples, generate
from seqclt.trigpoly import cosine, evaluate


def test_required_bits_examples():
    assert required_bits(Constant(2), 1000) == 1064
    assert required_bits(Constant(3), 100) == math.ceil(100 * math.log2(3)) + 64 == 223
    assert required_bits(Blocks(4), 5) == 70


def _log2_closed_form(spec, n):
    """log2(a_1*...*a_n) by the float closed forms the width was once the
    ceil of, one per kind; the oracle for the exact width."""
    if isinstance(spec, Constant):
        return n * math.log2(spec.b)
    if isinstance(spec, Periodic):
        logs = [math.log2(v) for v in spec.values]
        full, rest = divmod(n, len(spec.values))
        return full * math.fsum(logs) + math.fsum(logs[:rest])
    if isinstance(spec, Explicit):
        head = math.fsum(math.log2(v) for v in spec.values[:n])
        if n <= len(spec.values):
            return head
        return head + _log2_closed_form(spec.tail, n - len(spec.values))
    if isinstance(spec, Triples):
        spiked = sum(min(3, n - p + 1) for p in spec.spike_positions(n))
        return spiked * math.log2(spec.B) + (n - spiked) * math.log2(spec.b0)
    threes, l = 0, 1
    while (d := spec.block_start(l)) <= n:
        threes += min(l, n - d + 1)
        l += 1
    return threes * math.log2(3.0) + (n - threes)


WIDTH_SPECS = {
    "constant5": Constant(5),
    "periodic2325": Periodic((2, 3, 2, 5)),
    "triples11": Triples(b0=2, B=11, p0=4, r=2),
    "blocks1.7": Blocks(1.7),
    "explicit729-periodic23": Explicit((7, 2, 9), Periodic((2, 3))),
    "triples80": Triples(b0=2, B=80, p0=10, r=2),  # demo cos_triples80
    "blocks2.5": Blocks(2.5),
    "constant2": Constant(2),  # demo cos_constant2, workload mc-cos-const2
    "blocks4": Blocks(4),  # demo f1_blocks4, workload an-rand64-blocks4
    "periodic23": Periodic((2, 3)),  # workload mc-f1-p23-w2
}


GUARD = 64  # the guard bits required_bits adds to ceil(log2(a_1*...*a_n))


def _prod_width(spec, n):
    # the left-to-right product the tree in required_bits replaced
    return (math.prod(itertools.islice(spec.iter_values(), n)) - 1).bit_length()


@pytest.mark.parametrize("spec", WIDTH_SPECS.values(), ids=WIDTH_SPECS.keys())
def test_required_bits_equals_float_closed_form(spec):
    for n in [*range(1, 301), 1024, 2000, 4096]:
        assert required_bits(spec, n) == math.ceil(_log2_closed_form(spec, n)) + GUARD


@pytest.mark.parametrize(
    "spec, n, bits",
    [
        (Constant(2**40), 3, 120),
        (Periodic((2, 4, 8)), 3, 6),
        (Explicit((3, 5), Constant(2)), 2, 4),  # product 15
        (Explicit((2, 8), Constant(2)), 2, 4),  # product 16
        (Explicit((17,), Constant(2)), 1, 5),
    ],
)
def test_required_bits_exact_cases(spec, n, bits):
    assert required_bits(spec, n) - GUARD == bits == math.ceil(_log2_closed_form(spec, n))
    assert bits == _prod_width(spec, n)


def test_required_bits_equals_left_to_right_product():
    for spec in WIDTH_SPECS.values():
        for n in (1, 2, 3, 1023, 4097):
            assert required_bits(spec, n) == _prod_width(spec, n) + GUARD
    assert required_bits(Periodic((2, 3)), 10**5) == _prod_width(Periodic((2, 3)), 10**5) + GUARD


def test_required_bits_rejects_empty_horizon():
    with pytest.raises(ValueError):
        required_bits(Constant(2), 0)


def test_dyadic_point_validation():
    with pytest.raises(ValueError):
        DyadicPoint(bits=8, numerator=256)
    with pytest.raises(ValueError):
        DyadicPoint(bits=0, numerator=0)


def test_orbit_single_step():
    x0 = DyadicPoint(bits=120, numerator=1 << 118)  # x0 = 1/4
    assert orbit_birkhoff(cosine(1), Constant(2), 1, x0) == pytest.approx(-1.0, abs=1e-14)


def test_orbit_two_steps_cancel():
    x0 = DyadicPoint(bits=120, numerator=1 << 118)
    assert orbit_birkhoff(cosine(1), Constant(2), 2, x0) == pytest.approx(0.0, abs=1e-14)


def test_orbit_rejects_insufficient_bits():
    x0 = DyadicPoint(bits=64, numerator=123)
    with pytest.raises(ValueError):
        orbit_birkhoff(cosine(1), Constant(2), 100, x0)


def test_orbit_telescopes_for_coboundary(f1):
    # S_n = v(T^{n+1} x) - v(T x) with v = cos(2 pi .); check against an
    # independent exact computation of the two orbit points
    n = 200
    bits = required_bits(Constant(2), n)
    rng = np.random.default_rng(51)
    for _ in range(5):
        num = int(rng.integers(1, 1 << 62)) << (bits - 62)
        num |= int(rng.integers(0, 1 << 53))
        num %= 1 << bits
        x0 = DyadicPoint(bits=bits, numerator=num)
        s = orbit_birkhoff(f1, Constant(2), n, x0)
        top = (num << (n + 1)) % (1 << bits)
        first = (num << 1) % (1 << bits)
        v = cosine(1)
        expected = evaluate(v, (top >> (bits - 53)) * 2.0**-53) - evaluate(
            v, (first >> (bits - 53)) * 2.0**-53
        )
        assert abs(s) <= 2.0
        assert s == pytest.approx(expected, abs=1e-10)


def test_truncation_does_not_leak():
    # same real point carried at guard 128 and truncated to guard 64: the
    # Birkhoff sums agree to 1e-9
    n = 300
    spec = Periodic((2, 3))
    b64 = required_bits(spec, n)
    b128 = b64 + 64
    rng = np.random.default_rng(52)
    for _ in range(3):
        num128 = int.from_bytes(rng.bytes(b128 // 8 + 1), "big") % (1 << b128)
        x128 = DyadicPoint(bits=b128, numerator=num128)
        x64 = DyadicPoint(bits=b64, numerator=num128 >> (b128 - b64))
        s1 = orbit_birkhoff(cosine(1), spec, n, x128)
        s2 = orbit_birkhoff(cosine(1), spec, n, x64)
        assert abs(s1 - s2) <= 1e-9


def test_orbit_against_materialized_birkhoff_sum():
    # evaluate S_n both as an orbit accumulation and as one big polynomial
    from seqclt.trigpoly import koopman, linear_combine, make_trigpoly

    f = make_trigpoly([(1, 0.3 - 0.1j), (3, 0.25j)])
    spec = Periodic((2, 3))
    n = 6
    terms = []
    for k in range(1, n + 1):
        g = f
        for j in range(1, k + 1):
            g = koopman(generate(spec, j), g)
        terms.append(g)
    s_n = linear_combine([(1.0, t) for t in terms])
    bits = required_bits(spec, n)
    rng = np.random.default_rng(53)
    for _ in range(5):
        num = int.from_bytes(rng.bytes(bits // 8 + 1), "big") % (1 << bits)
        x0 = DyadicPoint(bits=bits, numerator=num)
        assert orbit_birkhoff(f, spec, n, x0) == pytest.approx(
            evaluate(s_n, x0.as_float()), abs=1e-9
        )


def test_ks_statistic_matches_scipy():
    from scipy import stats

    rng = np.random.default_rng(54)
    z = [float(v) for v in rng.normal(size=500)]
    assert ks_statistic(z) == pytest.approx(stats.kstest(z, "norm").statistic, abs=1e-12)


def test_draw_numerator_is_counter_based():
    a = draw_numerator(7, 123, 1000)
    b = draw_numerator(7, 123, 1000)
    assert a == b
    assert 0 <= a < (1 << 1000)
    assert draw_numerator(7, 124, 1000) != a
    assert draw_numerator(8, 123, 1000) != a


def test_ks_statistic_on_normal_quantiles():
    m = 1000
    samples = [float(ndtri(i / (m + 1))) for i in range(1, m + 1)]
    assert ks_statistic(samples) <= 2.0 / (m + 1)


def test_ks_statistic_single_zero():
    assert ks_statistic([0.0]) == pytest.approx(0.5)


def test_ks_statistic_far_right_mass():
    assert ks_statistic([10.0] * 50) >= 0.999


def test_ks_statistic_empty_rejected():
    with pytest.raises(ValueError):
        ks_statistic([])


def test_normal_cdf_accuracy():
    from scipy.special import ndtr

    for x in np.linspace(-8, 8, 161):
        assert abs(normal_cdf(float(x)) - float(ndtr(x))) <= 1e-7


def test_sample_birkhoff_smoke_two_samples():
    rep = sample_birkhoff(cosine(1), Constant(2), 16, 2, seed=1)
    assert rep.m == 2 and rep.n == 16
    assert 0.0 <= rep.ks <= 1.0
    assert sum(rep.histogram) <= 2


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_seeds_outside_64_bits_are_rejected(seed):
    # a Philox key word is 64 bits: such a seed would draw another's samples
    with pytest.raises(ValueError, match="seed must be in"):
        birkhoff_samples(cosine(1), Constant(2), 8, 4, seed)
    with pytest.raises(ValueError, match="seed must be in"):
        sample_birkhoff(cosine(1), Constant(2), 8, 4, seed=seed)
    with pytest.raises(ValueError, match="seed must be in"):
        draw_numerator(seed, 0, 100)
    with pytest.raises(ValueError, match="seed must be in"):
        montecarlo.counter_generator(seed, 0)


@pytest.mark.parametrize("index", [-1, 2**64])
def test_indices_outside_64_bits_are_rejected(index):
    with pytest.raises(ValueError, match="index must be in"):
        draw_numerator(7, index, 100)
    with pytest.raises(ValueError, match="index must be in"):
        montecarlo.counter_generator(7, index)


def test_largest_seed_is_accepted():
    # the edge of the rule: 2^64 - 1 is a key word of its own
    assert len(birkhoff_samples(cosine(1), Constant(2), 8, 4, 2**64 - 1)) == 4


def test_sample_birkhoff_reproducible_across_threads():
    kwargs = dict(n=64, m=241, seed=99)
    r1 = sample_birkhoff(cosine(1), Constant(2), **kwargs)
    r2 = sample_birkhoff(cosine(1), Constant(2), **kwargs, threads=3)
    assert r1 == r2


@pytest.mark.parametrize(
    "threads, cpus, m, workers",
    [
        pytest.param(10_000, 4, 50, 4, id="cpu-count"),
        pytest.param(3, 4, 50, 3, id="threads"),
        pytest.param(8, 4, 2, 2, id="samples"),
        pytest.param(8, 1, 50, None, id="one-cpu-inline"),
        pytest.param(8, None, 50, None, id="unknown-cpus-inline"),
    ],
)
def test_birkhoff_samples_bounds_worker_count(monkeypatch, threads, cpus, m, workers):
    # the pool is a fake that records its size and runs the tasks here:
    # no process is ever started
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    args = (cosine(1), Periodic((2, 3)), 16, m, 7)
    assert birkhoff_samples(*args, threads) == birkhoff_samples(*args, 1)
    assert pools == ([] if workers is None else [workers])


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_rejected(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        birkhoff_samples(cosine(1), Constant(2), 8, 4, 1, threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sample_birkhoff(cosine(1), Constant(2), 8, 4, 1, threads=threads)


def test_sample_birkhoff_variance_near_exact():
    rep = sample_birkhoff(cosine(1), Constant(2), 256, 10**4, seed=2024,
                          standardization="exact")
    assert rep.var_hat == pytest.approx(128.0, rel=0.05)
    assert rep.ks <= 0.05


def test_sample_birkhoff_coboundary_bounded(f1):
    sums = birkhoff_samples(f1, Constant(2), 256, 10**4, seed=7)
    assert max(abs(s) for s in sums) <= 2.0
    rep = report_from_samples(sums, f1, Constant(2), 256, seed=7,
                              standardization="exact")
    assert rep.var_hat == pytest.approx(1.0, rel=0.10)


def test_histogram_window():
    sums = [float(v) for v in np.linspace(-3, 3, 101)] + [99.0]
    rep = report_from_samples(sums, cosine(1), Constant(2), 4, seed=0)
    assert sum(rep.histogram) <= len(sums)
    assert len(rep.histogram) == 41


def test_report_requires_two_samples():
    with pytest.raises(ValueError):
        report_from_samples([1.0], cosine(1), Constant(2), 4, seed=0)
