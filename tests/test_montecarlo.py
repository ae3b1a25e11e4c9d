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
from seqclt.sequences import Blocks, Constant, Periodic, generate
from seqclt.trigpoly import cosine, evaluate


def test_required_bits_examples():
    assert required_bits(Constant(2), 1000) == 1064
    assert required_bits(Constant(3), 100) == math.ceil(100 * math.log2(3)) + 64 == 223
    assert required_bits(Blocks(4), 5) == 70


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
    bits = required_bits(Constant(2), n, 0) + 64
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
    b128 = required_bits(spec, n, 128)
    b64 = required_bits(spec, n, 64)
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
    bits = required_bits(spec, n, 0) + 64
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

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    args = (cosine(1), Periodic((2, 3)), 16, m, 7)
    assert birkhoff_samples(*args, threads) == birkhoff_samples(*args, 1)
    assert pools == ([] if workers is None else [workers])


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
