import math

import numpy as np
import pytest

from conftest import random_poly
from seqclt import analysis
from seqclt.analysis import (
    AngleRecord,
    accumulated_transversality,
    angle_profile,
    block_shadowing_check,
    example1_threshold,
    neumann_sum,
    separation_bound_check,
    u_at,
    u_sequence,
    variance_covariance,
    variance_covariance_curve,
    variance_martingale,
    variance_martingale_curve,
    variance_report,
    verify_decay,
)
from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples, generate
from seqclt.trigpoly import (
    ZERO,
    c1_norm,
    cosine,
    l2_inner,
    linear_combine,
    make_trigpoly,
    transfer,
)

COS = cosine(1)


def _direct_u(f, spec, k):
    # term-by-term evaluation of the backward sum defining u_k: the term for
    # index i is f pushed through the transfer operators of a_{i+1}, ..., a_k
    terms = []
    for i in range(1, k + 1):
        t = f
        for j in range(i + 1, k + 1):
            t = transfer(generate(spec, j), t)
        terms.append(t)
    return linear_combine([(1.0, t) for t in terms])


# Reference walks: the covariance curve and the Neumann sum written out as
# explicit loops, independent of the shared backward-walk generator.  The
# library must reproduce them bit for bit.
def _reference_covariance_curve(f, spec, n):
    norm_sq = l2_inner(f, f)
    deg = f.degree
    curve = []
    total = 0.0
    comp = 0.0
    for k in range(1, n + 1):
        step = norm_sq
        g = f
        mult = 1
        j = k
        while j >= 2:
            a = generate(spec, j)
            mult *= a
            if mult > deg:
                break
            g = transfer(a, g)
            if g.is_zero:
                break
            step += 2.0 * l2_inner(g, f)
            j -= 1
        y = step - comp
        t = total + y
        comp = (t - total) - y
        total = t
        curve.append(total)
    return curve


# The plain u-recursion and angle records, one full step per index: the
# window-memoised versions must reproduce them bit for bit.
def _reference_u_sequence(f, spec, n):
    us = []
    u = ZERO
    for k in range(1, n + 1):
        u = linear_combine([(1.0, f), (1.0, transfer(generate(spec, k), u))])
        us.append(u)
    return us


def _reference_angle_profile(f, spec, n):
    records = []
    for k, u in enumerate(_reference_u_sequence(f, spec, n), start=1):
        a_next = generate(spec, k + 1)
        u_norm_sq = l2_inner(u, u)
        proj_norm_sq = math.fsum(
            2.0 * (c.real * c.real + c.imag * c.imag) for q, c in u.coeffs if q % a_next == 0
        )
        cos_sq = min(proj_norm_sq / u_norm_sq, 1.0) if u_norm_sq > 0.0 else 1.0
        records.append(AngleRecord(u_norm_sq, proj_norm_sq, cos_sq, 1.0 - cos_sq))
    return records


# The martingale curve as one Kahan loop over the records: Var(S_k) is the
# compensated sum of the first k - 1 defects plus ||u_k||^2.
def _reference_martingale_curve(profile, n):
    curve = []
    defects = 0.0
    comp = 0.0
    for k in range(1, n + 1):
        curve.append(defects + profile[k - 1].u_norm_sq)
        y = (profile[k - 1].u_norm_sq - profile[k - 1].proj_norm_sq) - comp
        t = defects + y
        comp = (t - defects) - y
        defects = t
    return curve


def _reference_neumann_sum(f, b):
    terms = [f]
    g = f
    while True:
        g = transfer(b, g)
        if g.is_zero:
            break
        terms.append(g)
    return linear_combine([(1.0, t) for t in terms])


ALL_KINDS = [
    Constant(2),
    Periodic((2, 3, 2, 5)),
    Explicit((5, 2, 3), Periodic((2, 2, 3))),
    Triples(b0=2, B=9, p0=4, r=2),
    Blocks(1.7),
]


_rng = np.random.default_rng(40)
RANDOM_CASES = tuple(
    (random_poly(_rng, max_degree=max_degree, density=0.9), n)
    for max_degree, n in ((32, 2000), (9, 300))
)
# Walks that rarely repeat: a dense degree-300 observable on a random word.
RANDOM_WORD = Explicit(
    tuple(int(b) for b in np.random.default_rng(43).integers(2, 30, size=1200)), Constant(2)
)
DEGREE_300 = random_poly(np.random.default_rng(44), max_degree=300, density=1.0)
# Frequencies 3^i: any even multiplier annihilates the images long before the
# product of multipliers reaches the degree.
POWERS_OF_3 = make_trigpoly([(3**i, complex(0.5**i, 0.25 * i)) for i in range(6)])

WALK_CASES = [pytest.param(spec, RANDOM_CASES, id=spec.kind) for spec in ALL_KINDS] + [
    pytest.param(RANDOM_WORD, ((DEGREE_300, 1200),), id="random-word-degree-300"),
    pytest.param(Periodic((3, 2, 3, 5)), ((POWERS_OF_3, 400),), id="zero-images-periodic"),
    pytest.param(Blocks(1.7), ((POWERS_OF_3, 400),), id="zero-images-blocks"),
]


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_covariance_curve_matches_reference_walk(spec, cases):
    for f, n in cases:
        assert variance_covariance_curve(f, spec, n) == _reference_covariance_curve(f, spec, n)


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_martingale_curve_matches_reference_loop(spec, cases):
    for f, n in cases:
        profile = _reference_angle_profile(f, spec, n)
        assert variance_martingale_curve(f, spec, n) == _reference_martingale_curve(profile, n)
        # a profile longer than the horizon: only its first records count
        short = variance_martingale_curve(f, spec, n - 1, profile)
        assert short == _reference_martingale_curve(profile, n - 1)


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_memoised_u_recursion_matches_plain_recursion(spec, cases):
    for f, n in cases:
        assert u_sequence(f, spec, n) == _reference_u_sequence(f, spec, n)
        assert angle_profile(f, spec, n) == _reference_angle_profile(f, spec, n)


def test_neumann_sum_matches_reference_walk():
    rng = np.random.default_rng(41)
    for _ in range(20):
        f = random_poly(rng, max_degree=64, density=0.5)
        for b in (2, 3, 5, 7):
            assert neumann_sum(f, b) == _reference_neumann_sum(f, b)


def test_u_sequence_cos_constant2(f1):
    us = u_sequence(COS, Constant(2), 5)
    assert all(u == COS for u in us)


def test_u_sequence_f1_constant2(f1):
    us = u_sequence(f1, Constant(2), 4)
    assert us[0] == f1
    assert all(u == cosine(2) for u in us[1:])


def test_u_sequence_first_element_is_f(f1):
    assert u_sequence(f1, Blocks(4), 1) == [f1]


def test_u_sequence_matches_direct_sum_exactly():
    rng = np.random.default_rng(21)
    specs = [Constant(2), Periodic((2, 3)), Blocks(2.0), Triples(b0=2, B=9, p0=4, r=2)]
    for spec in specs:
        for _ in range(6):
            f = random_poly(rng, max_degree=16, density=0.7)
            us = u_sequence(f, spec, 8)
            for k in (1, 3, 8):
                assert us[k - 1] == _direct_u(f, spec, k)


def test_u_at_matches_recursion():
    # random access against the plain recursion, not against u_sequence,
    # which shares u_at's summation code
    for param in WALK_CASES:
        spec, cases = param.values
        for f, n in cases:
            us = _reference_u_sequence(f, spec, n)
            for k in (1, 2, 3, n // 3, n - 1, n):
                assert u_at(f, spec, k) == us[k - 1]


def test_degree_never_grows():
    rng = np.random.default_rng(23)
    f = random_poly(rng, max_degree=16, density=0.8)
    for u in u_sequence(f, Periodic((2, 3, 5)), 50):
        assert u.degree <= f.degree


def test_angle_profile_cos_constant2():
    prof = angle_profile(COS, Constant(2), 10)
    for rec in prof:
        assert rec.u_norm_sq == pytest.approx(0.5)
        assert rec.proj_norm_sq == 0.0
        assert rec.cos_sq == 0.0 and rec.sin_sq == 1.0


def test_angle_profile_f1_constant2(f1):
    prof = angle_profile(f1, Constant(2), 6)
    assert prof[0].u_norm_sq == pytest.approx(1.0)
    assert prof[0].cos_sq == pytest.approx(0.5)
    for rec in prof[1:]:
        assert rec.cos_sq == 1.0 and rec.sin_sq == 0.0


def test_angle_profile_zero_observable_degenerate_convention():
    zero = make_trigpoly([])
    prof = angle_profile(zero, Constant(2), 3)
    for rec in prof:
        assert rec.u_norm_sq == 0.0
        assert rec.cos_sq == 1.0 and rec.sin_sq == 0.0


def test_accumulated_transversality_cos():
    prof = angle_profile(COS, Constant(2), 101)
    assert accumulated_transversality(prof, 100) == pytest.approx(100.0)


def test_accumulated_transversality_f1(f1):
    prof = angle_profile(f1, Constant(2), 101)
    assert accumulated_transversality(prof, 100) == 0.0


def test_accumulated_transversality_empty():
    assert accumulated_transversality([], 0) == 0.0


def test_accumulated_transversality_short_profile_errors():
    prof = angle_profile(COS, Constant(2), 3)
    with pytest.raises(ValueError):
        accumulated_transversality(prof, 5)


def test_accumulated_transversality_nondecreasing(f1):
    prof = angle_profile(f1, Blocks(2.0), 60)
    vals = [accumulated_transversality(prof, N) for N in range(0, 59)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [1, 7, 100])
def test_variance_cos_constant2_is_n_over_2(n):
    assert variance_covariance(COS, Constant(2), n) == pytest.approx(n / 2, abs=1e-12 * n)
    assert variance_martingale(COS, Constant(2), n) == pytest.approx(n / 2, abs=1e-12 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_variance_f1_constant2_telescopes_to_one(f1, n):
    assert variance_covariance(f1, Constant(2), n) == 1.0
    assert variance_martingale(f1, Constant(2), n) == 1.0


def test_variance_n1_is_l2_norm():
    rng = np.random.default_rng(24)
    f = random_poly(rng, max_degree=12, density=0.6)
    assert variance_covariance(f, Blocks(4), 1) == pytest.approx(l2_inner(f, f))
    assert variance_martingale(f, Blocks(4), 1) == pytest.approx(l2_inner(f, f))


def test_variance_routes_cross_validate(f1):
    rng = np.random.default_rng(25)
    scenarios = [
        (f1, Blocks(4), 300),
        (COS, Triples(b0=2, B=70, p0=10, r=2), 200),
        (random_poly(rng, max_degree=8, density=1.0), Periodic((2, 3, 2, 5)), 250),
    ]
    for f, spec, n in scenarios:
        cov = variance_covariance(f, spec, n)
        mart = variance_martingale(f, spec, n)
        assert abs(cov - mart) <= 1e-9 * max(1.0, abs(cov))


def test_variance_routes_against_materialized_birkhoff_sum():
    # ground truth for small n: build S_n itself as a trigonometric
    # polynomial (frequencies up to degree(f) * prod a_k) and integrate
    from seqclt.trigpoly import koopman

    rng = np.random.default_rng(32)
    for spec in (Constant(2), Periodic((2, 3)), Blocks(2.0)):
        f = random_poly(rng, max_degree=5, density=0.8)
        for n in (1, 2, 5, 8):
            terms = []
            for k in range(1, n + 1):
                g = f
                for j in range(1, k + 1):
                    g = koopman(generate(spec, j), g)
                terms.append(g)
            s_n = linear_combine([(1.0, t) for t in terms])
            truth = l2_inner(s_n, s_n)
            assert variance_covariance(f, spec, n) == pytest.approx(truth, rel=1e-12)
            assert variance_martingale(f, spec, n) == pytest.approx(truth, rel=1e-12)


def test_variance_report_fields(f1):
    rep = variance_report(f1, Blocks(4), 80)
    assert rep.n == 80
    assert len(rep.per_step) == 80
    assert rep.consistent()
    prof = list(rep.per_step)
    assert rep.acc_transversality == pytest.approx(
        accumulated_transversality(prof, 79)
    )


def test_variance_report_curves(f1):
    spec = Blocks(2.0)
    rep = variance_report(f1, spec, 60)
    assert rep.cov_curve == tuple(variance_covariance_curve(f1, spec, 60))
    assert rep.mart_curve == tuple(variance_martingale_curve(f1, spec, 60))
    assert (rep.var_cov, rep.var_mart) == (rep.cov_curve[-1], rep.mart_curve[-1])
    acc, running = 0.0, []
    for a, b in zip(rep.per_step, rep.per_step[1:]):
        acc += min(a.sin_sq, b.sin_sq)
        running.append(acc)
    assert rep.acc_curve == tuple(running)
    assert rep.acc_transversality == running[-1]


def test_variance_report_reads_the_three_module_functions(f1, monkeypatch):
    # bench/layers.py times the CLI alone by replacing these three names
    spec, n = Blocks(4), 5
    profile = analysis.angle_profile(f1, spec, n)
    calls = []

    def stub(name, value):
        def fn(*args):
            calls.append(name)
            return value
        monkeypatch.setattr(analysis, name, fn)

    stub("angle_profile", profile)
    stub("variance_covariance_curve", [1.0, 2.0, 3.0, 4.0, 5.0])
    stub("variance_martingale_curve", [1.5, 2.5, 3.5, 4.5, 5.5])
    rep = variance_report(f1, spec, n)
    assert sorted(calls) == ["angle_profile", "variance_covariance_curve",
                             "variance_martingale_curve"]
    assert rep.per_step == tuple(profile)
    assert rep.cov_curve == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert rep.mart_curve == (1.5, 2.5, 3.5, 4.5, 5.5)


def test_variance_report_single_step_has_no_pairs(f1):
    rep = variance_report(f1, Blocks(4), 1)
    assert rep.n == 1 and rep.acc_curve == ()
    assert rep.acc_transversality == 0.0


def test_acc_transversality_running_sum_close_to_fsum():
    # the running sum and the fsum reference differ only by rounding:
    # at most (n - 1) half-ulps of the total
    rng = np.random.default_rng(42)
    f = random_poly(rng, max_degree=64, density=1.0, quantize=7)
    n = 2000
    rep = variance_report(f, Blocks(4), n)
    reference = accumulated_transversality(list(rep.per_step), n - 1)
    assert reference > 0.0
    assert abs(rep.acc_transversality - reference) <= n * 2.0**-52 * reference


def test_blocks4_variance_grows_like_log_squared(f1):
    # Var(S_{4^l}) = l(l-1)/2 + 2 on the D=4 schedule: far below the cap
    # 8 * 4^(l-1) of the suppression criterion.  The accumulated
    # transversality over k < 4^l grows beside it as ((l-1)^2 + 2)/2, so
    # Var - Acc = (l+1)/2: both grow like (log n)^2 / 2.  One report to 4^10.
    rep = variance_report(f1, Blocks(4), 4**10)
    for l in range(3, 11):
        assert abs(rep.cov_curve[4**l - 1] - (l * (l - 1) / 2 + 2)) <= 1e-9
        assert abs(rep.acc_curve[4**l - 2] - ((l - 1) ** 2 + 2) / 2) <= 1e-9


def test_variance_curves_are_prefixes(f1):
    spec = Blocks(2.0)
    curve = variance_covariance_curve(f1, spec, 40)
    for n in (1, 17, 40):
        assert curve[n - 1] == variance_covariance(f1, spec, n)
    mcurve = variance_martingale_curve(f1, spec, 40)
    for n in (1, 17, 40):
        assert mcurve[n - 1] == pytest.approx(variance_martingale(f1, spec, n))


def test_uniform_bound_on_u_norm():
    rng = np.random.default_rng(26)
    f = random_poly(rng, max_degree=12, density=0.8)
    bound = 4.0 * c1_norm(f).value
    for spec in (Constant(2), Periodic((2, 3)), Blocks(2.0)):
        for u in u_sequence(f, spec, 30):
            assert c1_norm(u).value <= bound


def test_verify_decay_single_step_example():
    f = linear_combine([(1.0, cosine(1)), (1.0, cosine(3))])
    rep = verify_decay(f, [3])
    assert rep.passed
    assert rep.step_norms[0].value == pytest.approx(1 + 2 * math.pi, rel=1e-3)
    # bound is 2*2^-1*||f||; the norm is below the coefficient bound 2 + 8*pi
    assert rep.bounds[0] == c1_norm(f).grid_estimate
    assert 1 + 2 * math.pi <= rep.bounds[0] <= 2 + 8 * math.pi


def test_verify_decay_annihilation():
    rep = verify_decay(COS, [2])
    assert rep.passed
    assert rep.step_norms[0].value == 0.0


def test_verify_decay_degree_collapse():
    rng = np.random.default_rng(27)
    f = random_poly(rng, max_degree=15, density=1.0)
    rep = verify_decay(f, [2, 2, 2, 2])
    assert rep.passed
    assert rep.step_norms[3].value == 0.0


def test_verify_decay_random_words():
    rng = np.random.default_rng(28)
    f = random_poly(rng, max_degree=16, density=0.9)
    for _ in range(25):
        word = [int(b) for b in rng.integers(2, 11, size=12)]
        rep = verify_decay(f, word)
        assert rep.passed
        assert max(rep.ratios) <= 1.0


def test_verify_decay_rejects_zero():
    with pytest.raises(ValueError):
        verify_decay(make_trigpoly([]), [2])


def test_verify_decay_effective_tau():
    rng = np.random.default_rng(31)
    f = random_poly(rng, max_degree=16, density=1.0)
    rep = verify_decay(f, [2, 2, 2])
    tau = rep.effective_tau()
    assert tau is not None and 0.0 < tau < 1.0


def test_pair_correlation_decay_diagnostic():
    # |<T*_word f, f>| <= 2^(1-k) ||f||_C1^2 along any word of length k
    rng = np.random.default_rng(29)
    f = random_poly(rng, max_degree=16, density=0.9)
    norm = c1_norm(f).value
    for _ in range(20):
        word = [int(b) for b in rng.integers(2, 11, size=6)]
        g = f
        for j, b in enumerate(word, start=1):
            g = transfer(b, g)
            assert abs(l2_inner(g, f)) <= 2.0 ** (1 - j) * norm * norm


def test_neumann_sum_examples(f1):
    assert neumann_sum(f1, 2) == cosine(2)
    assert neumann_sum(f1, 3) == f1
    assert neumann_sum(make_trigpoly([]), 2).is_zero


def test_block_shadowing_constant3_is_exact(f1):
    assert block_shadowing_check(f1, Constant(3), 10, 12) == 0.0


def test_block_shadowing_requires_constant_run(f1):
    with pytest.raises(ValueError):
        block_shadowing_check(f1, Blocks(4), 3, 5)  # a_5 = 2 but a_4 = 3


def test_block_shadowing_inside_long_run(f1):
    spec = Explicit((2,) * 5 + (3,) * 20, Constant(2))
    value = block_shadowing_check(f1, spec, 17, 23)
    assert value <= 1e-3


def test_block_shadowing_deep_block_random_access(f1):
    # the l=20 block of the D=4 schedule starts at 4^20 ~ 1.1e12; u_k there
    # must be reachable without iterating the sequence from the start
    spec = Blocks(4)
    d20 = spec.block_start(20)
    assert d20 == 4**20
    k = d20 + 17
    value = block_shadowing_check(f1, spec, 17, k)
    assert value <= 1e-3


def test_u_at_deep_index_is_fast(f1):
    spec = Blocks(4)
    u = u_at(f1, spec, 4**20 + 5)  # inside a run of 3s
    assert u == f1  # transfer by 3 kills both frequencies of f1


def test_block_shadowing_partial_run_bound():
    # degree-16 observable, short run: the distance is nonzero but within the
    # geometric envelope C * 2^-K with a generous C
    rng = np.random.default_rng(30)
    f = random_poly(rng, max_degree=16, density=1.0)
    spec = Explicit((3,) * 1 + (2,) * 30, Constant(2))
    K = 2
    k = K + 2  # run [2, 6] of twos around k=4
    value = block_shadowing_check(f, spec, K, k)
    assert value <= 8.0 * 2.0**-K * c1_norm(f).value


def test_example1_threshold_cosine():
    cert = example1_threshold(COS)
    assert cert.delta >= 1.8
    assert cert.L <= 66
    assert cert.eps in [2.0**-e for e in range(1, 11)]
    # the qualifying arc passes through the maximum at 0, the other through 1/2
    assert cert.x + cert.eps >= 1.0 or cert.x == 0.0
    assert cert.y <= 0.5 <= cert.y + cert.eps
    assert cert.L > max(16 * c1_norm(COS).grid_estimate / cert.delta, 2 / cert.eps) - 1


def test_example1_threshold_certificate_is_sound():
    from seqclt.trigpoly import grid_values

    for f in (COS, cosine(2), linear_combine([(1.0, cosine(1)), (0.3, cosine(3))])):
        cert = example1_threshold(f)
        pts = 10**6
        vals = grid_values(f, pts)
        xs = np.arange(pts) / pts
        on_x = ((xs - cert.x) % 1.0) <= cert.eps
        on_y = ((xs - cert.y) % 1.0) <= cert.eps
        assert vals[on_x].min() > cert.delta + vals[on_y].max()


def test_example1_threshold_halved_arcs_for_double_frequency():
    cert = example1_threshold(cosine(2))
    assert cert.delta >= 1.8
    assert cert.L >= 1


def test_example1_threshold_rejects_zero():
    with pytest.raises(ValueError):
        example1_threshold(make_trigpoly([]))


def test_separation_bound_at_spikes():
    cert = example1_threshold(COS)
    spec = Triples(b0=2, B=cert.L + 10, p0=10, r=2)
    for p in (10, 20, 40):
        assert separation_bound_check(COS, spec, cert, p)
        assert separation_bound_check(COS, spec, cert, p + 1)


def test_separation_bound_constant_large_multiplier():
    cert = example1_threshold(COS)
    spec = Constant(cert.L + 20)
    for k in (1, 5, 33):
        assert separation_bound_check(COS, spec, cert, k)


def test_separation_bound_precondition_enforced():
    cert = example1_threshold(COS)
    with pytest.raises(ValueError):
        separation_bound_check(COS, Constant(2), cert, 1)
