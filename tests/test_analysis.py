import functools
import itertools
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECS, random_poly, reference_value
from seqclt import analysis
from seqclt._strict import InputError
from seqclt.analysis import (
    AngleRecord,
    DecayReport,
    accumulated_transversality,
    angle_profile,
    DECAY_LETTERS,
    block_shadowing_check,
    decay_certificate,
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
    evaluate,
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


# Exact arithmetic for the references: a function as {frequency: complex
# Fraction pair}, its inner product, and f's dyadic exponent, all written
# out here, apart from the library's integer primitive.
def _fractions(g):
    return {n: (Fraction(c.real), Fraction(c.imag)) for n, c in g.coeffs}


def _inner(g, h, a=1):
    return sum(2 * (re * h[n][0] + im * h[n][1])
               for n, (re, im) in g.items() if n in h and n % a == 0)


@functools.cache  # a pure function of two values: each distinct pair is summed once
def _exact_inner(g, h):
    return _inner(_fractions(g), _fractions(h))


def _exponent(f):
    # the least e >= 0 with every part of every coefficient in 2^-e Z
    return max((x.denominator.bit_length() - 1 for pair in _fractions(f).values() for x in pair),
               default=0)


# Reference walks: the covariance curve and the Neumann sum written out as
# explicit loops, independent of the shared backward-walk generator.  The
# covariance curve sums each step's covariances in Fractions and rounds
# each row once; the library must reproduce it bit for bit.
def _covariance_steps(f, spec, n, floats=False):
    # Var(S_k) - Var(S_{k-1}) for k = 1..n: ||f||^2 + 2 sum_j <T*_{[j+1..k]} f, f>,
    # in Fractions, or in floats through l2_inner
    inner = l2_inner if floats else _exact_inner
    norm_sq = inner(f, f)
    deg = f.degree
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
            step += 2 * inner(g, f)
            j -= 1
        yield step


def _reference_covariance_curve(f, spec, n):
    return [float(total) for total in itertools.accumulate(_covariance_steps(f, spec, n))]


# The float route it replaced, a Kahan loop over float steps, kept as a
# second oracle: it rounds per step, so it agrees to n * 2^-52 relative.
def _kahan_covariance_curve(f, spec, n):
    curve = []
    total = 0.0
    comp = 0.0
    for step in _covariance_steps(f, spec, n, floats=True):
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


# The angle records from the plain u-recursion in Fractions, u_k = f +
# T*_{a_k} u_{k-1}: each norm exact, each float rounded once from it.
# Several tests compare with the same cases, so each is computed once.
@functools.cache
def _reference_angle_profile(f, spec, n):
    records = []
    scale = 4 ** _exponent(f)
    f_exact, u = _fractions(f), {}
    for k in range(1, n + 1):
        a, prev, u = generate(spec, k), u, dict(f_exact)
        for q, (re, im) in prev.items():
            if q % a == 0:
                old = u.get(q // a, (0, 0))
                u[q // a] = (old[0] + re, old[1] + im)
        norm, proj = _inner(u, u), _inner(u, u, generate(spec, k + 1))
        assert (norm * scale).denominator == (proj * scale).denominator == 1
        cos_sq = float(proj / norm) if norm else 1.0
        records.append(AngleRecord(float(norm), float(proj), cos_sq, 1.0 - cos_sq,
                                   (int(norm * scale), int(proj * scale))))
    return tuple(records)


# The martingale curve in Fractions over the records' exact norms: Var(S_k)
# is the sum of the first k - 1 defects plus ||u_k||^2, rounded once.
def _reference_martingale_curve(profile, n, e):
    curve = []
    defects = Fraction(0)
    for rec in profile[:n]:
        norm, proj = (Fraction(x, 4**e) for x in rec.exact)
        curve.append(float(defects + norm))
        defects += norm - proj
    return curve


# The float route it replaced, one Kahan loop over the records' floats,
# kept as a second oracle, to n * 2^-52 relative.
def _kahan_martingale_curve(profile, n):
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


def _close(curve, oracle, n):
    return all(abs(x - y) <= n * 2.0**-52 * abs(x) for x, y in zip(curve, oracle, strict=True))


# The Neumann sum transfers until the image is zero and adds the terms
# deepest-first, the order in which u_k sums its backward images.
def _reference_neumann_sum(f, b):
    terms = [f]
    g = f
    while True:
        g = transfer(b, g)
        if g.is_zero:
            break
        terms.append(g)
    return linear_combine([(1.0, t) for t in reversed(terms)])


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


def _reference_walks(spec, degree, n):
    # (walk_k, a_{k+1}) for k = 1..n, one index at a time: the scan the
    # segments of analysis._walks replace
    walk = ()
    for k in range(1, n + 1):
        a_next = reference_value(spec, k + 1)
        yield walk, a_next
        walk, mult = (a_next, *walk), 1
        for i, b in enumerate(walk):
            mult *= b
            if mult > degree:
                walk = walk[:i]
                break


def _expanded(segments):
    return [(walk, a) for walk, a, count in segments for _ in range(count)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SPECS, st.integers(1, 64), st.integers(1, 400))
def test_walk_segments_expand_to_the_reference_walks(spec, degree, n):
    segments = list(analysis._walks(spec, degree, n))
    assert all(count >= 1 for _, _, count in segments)
    assert _expanded(segments) == list(_reference_walks(spec, degree, n))


@pytest.mark.parametrize("spec, n, runs", [(Blocks(4), 20_000, 15), (Constant(2), 10**6, 1)])
def test_a_run_costs_a_few_segments(spec, n, runs):
    # inside a run the walk settles within depth + 1 steps (depth 6 for b = 2
    # at degree 64), and the rest of the run is one segment
    segments = list(analysis._walks(spec, 64, n))
    assert sum(count for *_, count in segments) == n
    assert len(segments) <= 8 * runs
    if n <= 20_000:
        assert _expanded(segments) == list(_reference_walks(spec, 64, n))


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_covariance_curve_matches_reference_walk(spec, cases):
    for f, n in cases:
        curve = variance_covariance_curve(f, spec, n)
        assert curve == _reference_covariance_curve(f, spec, n)
        assert _close(curve, _kahan_covariance_curve(f, spec, n), n)


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_martingale_curve_matches_reference_loop(spec, cases):
    for f, n in cases:
        profile, e = _reference_angle_profile(f, spec, n), _exponent(f)
        curve = variance_martingale_curve(f, spec, n)
        assert curve == _reference_martingale_curve(profile, n, e)
        assert _close(curve, _kahan_martingale_curve(profile, n), n)
        # a profile longer than the horizon: only its first records count
        short = variance_martingale_curve(f, spec, n - 1, profile)
        assert short == _reference_martingale_curve(profile, n - 1, e)


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_the_two_routes_agree_row_for_row(spec, cases):
    # both round the same rational once per row
    for f, n in cases:
        assert variance_covariance_curve(f, spec, n) == variance_martingale_curve(f, spec, n)


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_scalar_variances_are_the_curves_last_values(spec, cases):
    # the scalars stream the curves' values and keep the last: the same bits
    for f, n in cases:
        for m in (1, n // 2, n):
            assert struct.pack("<d", variance_covariance(f, spec, m)) == struct.pack(
                "<d", variance_covariance_curve(f, spec, m)[-1])
            assert struct.pack("<d", variance_martingale(f, spec, m)) == struct.pack(
                "<d", variance_martingale_curve(f, spec, m)[-1])


def _traced(fn, *args):
    # (result, live bytes, peak bytes) of one call, counted from its start
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, live - held, peak - held


@pytest.mark.parametrize(
    "fn, curve",
    [(variance_covariance, variance_covariance_curve),
     (variance_martingale, variance_martingale_curve)],
    ids=["covariance", "martingale"],
)
def test_scalar_variances_hold_no_curve(f1, fn, curve):
    # a curve of 10^5 floats alone takes 3.2 MB
    value, _, peak = _traced(fn, f1, Blocks(4), 10**5)
    assert value == curve(f1, Blocks(4), 10**5)[-1]
    assert peak < 0.5e6


@pytest.mark.parametrize("spec, cases", WALK_CASES)
def test_memoised_u_recursion_matches_plain_recursion(spec, cases):
    for f, n in cases:
        assert u_sequence(f, spec, n) == _reference_u_sequence(f, spec, n)
        assert angle_profile(f, spec, n) == list(_reference_angle_profile(f, spec, n))


def _counting(monkeypatch, name):
    # the walks that analysis.name is called on, its last argument
    calls = []
    real = getattr(analysis, name)

    def counted(*args):
        *rest, walk = args
        calls.append(tuple(walk))
        return real(*rest, walk)

    monkeypatch.setattr(analysis, name, counted)
    return calls


def test_each_memo_is_keyed_by_what_its_value_depends_on(monkeypatch):
    # u_k and the k-th covariance step depend on walk_k alone, the k-th angle
    # record on (walk_k, a_{k+1}); on a random word one walk meets many a_{k+1}
    f, spec, n = DEGREE_300, RANDOM_WORD, 1200
    index_pairs = list(_reference_walks(spec, f.degree, n))
    pairs = set(index_pairs)
    walks = {walk for walk, _ in pairs}
    assert len(walks) < len(pairs)
    u_calls = _counting(monkeypatch, "_u_of_walk")
    u_sequence(f, spec, n)
    assert sorted(u_calls) == sorted(walks)
    exact_calls = _counting(monkeypatch, "_exact_u")
    profile = angle_profile(f, spec, n)
    assert sorted(exact_calls) == sorted(walks)
    # one record object per pair, held by every index with that pair
    record_of = {}
    for pair, record in zip(index_pairs, profile):
        assert record_of.setdefault(pair, record) is record
    assert len({id(record) for record in profile}) == len(pairs)
    image_calls = _counting(monkeypatch, "_backward_images")
    variance_covariance_curve(f, spec, n)
    assert sorted(image_calls) == sorted(walks)


def test_neumann_sum_matches_reference_walk():
    # 17 of these 800 cases round differently when the terms are summed
    # shallowest-first
    rng = np.random.default_rng(41)
    for _ in range(200):
        f = random_poly(rng, max_degree=64, density=0.5)
        for b in (2, 3, 5, 7):
            assert neumann_sum(f, b) == _reference_neumann_sum(f, b)


def test_neumann_sum_is_the_saturated_u():
    # inside a run of b deeper than the walk, u_k is the Neumann sum bit for bit
    rng = np.random.default_rng(41)
    for _ in range(200):
        f = random_poly(rng, max_degree=64, density=0.5)
        for b in (2, 3, 5, 7):
            assert neumann_sum(f, b) == u_sequence(f, Constant(b), 40)[-1]


def test_block_shadowing_is_zero_inside_a_saturated_run():
    # a_2 .. a_43 are all 2 and 2^7 > 64: u_40 and u_41 are the Neumann sum itself
    f = random_poly(np.random.default_rng(5), max_degree=64, density=1.0)
    spec = Explicit((3,) + (2,) * 60, Constant(2))
    assert block_shadowing_check(f, spec, 20, 40) == 0.0


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
    assert tuple(rep.cov_curve) == tuple(variance_covariance_curve(f1, spec, 60))
    assert tuple(rep.mart_curve) == tuple(variance_martingale_curve(f1, spec, 60))
    assert (rep.var_cov, rep.var_mart) == (rep.cov_curve[-1], rep.mart_curve[-1])
    acc, running = 0.0, []
    for a, b in zip(rep.per_step, rep.per_step[1:]):
        acc += min(a.sin_sq, b.sin_sq)
        running.append(acc)
    assert tuple(rep.acc_curve) == tuple(running)
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
    assert tuple(rep.cov_curve) == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert tuple(rep.mart_curve) == (1.5, 2.5, 3.5, 4.5, 5.5)


def test_variance_report_single_step_has_no_pairs(f1):
    rep = variance_report(f1, Blocks(4), 1)
    assert rep.n == 1 and tuple(rep.acc_curve) == ()
    assert rep.acc_transversality == 0.0


@pytest.mark.parametrize("spec", [Blocks(4), Periodic((2, 3))], ids=["blocks4", "periodic23"])
def test_variance_report_holds_float64_columns(f1, spec):
    # a record reference and three 8-byte running sums per index; building it
    # holds at most one n-long list of floats beside the columns made so far
    n = 80_000
    rep, live, peak = _traced(variance_report, f1, spec, n)
    assert rep.n == n and len(rep.acc_curve) == n - 1
    assert live <= 40 * n and peak <= 64 * n


def test_accumulated_transversality_is_the_reports_running_sum():
    # one sum, left to right, for the report's curve and the function alike
    rng = np.random.default_rng(42)
    f = random_poly(rng, max_degree=64, density=1.0, quantize=7)
    n = 2000
    rep = variance_report(f, Blocks(4), n)
    profile = list(rep.per_step)
    assert rep.acc_transversality > 0.0
    assert accumulated_transversality(profile, 0) == 0.0
    for N in range(1, n):
        assert struct.pack("<d", accumulated_transversality(profile, N)) == struct.pack(
            "<d", rep.acc_curve[N - 1])


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


def test_verify_decay_zero_images_past_an_underflowed_bound():
    # 2 * 2^-j * ||f|| is 0.0 from j = 1075 on: a zero image's ratio is
    # still 0.0, not 0.0 / 0.0
    rep = verify_decay(COS, [2] * 1080)
    assert rep.ratios == (0.0,) * 1080 and rep.passed
    assert rep.bounds[-1] == 0.0


def _reference_verify_decay(f, maps):
    # the oracle: transfer along every letter of the word, past the end of the
    # walk too, where every image is zero
    ref = c1_norm(f)
    images = itertools.accumulate(maps, lambda g, b: transfer(b, g), initial=f)
    norms = tuple(map(c1_norm, itertools.islice(images, 1, None)))
    bounds = tuple(2.0 * 2.0**-j * ref.grid_estimate for j in range(1, len(norms) + 1))
    ratios = tuple(nrm.value / bound for nrm, bound in zip(norms, bounds))
    return DecayReport(ref, norms, bounds, ratios, all(r <= 1.0 for r in ratios))


@st.composite
def _decay_observables(draw, max_degree=256):
    # degree 1..max_degree with its top frequency always set; density 0 leaves it alone
    degree = draw(st.integers(1, max_degree))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    body = random_poly(rng, degree - 1, draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    top = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return make_trigpoly([*body.coeffs, (degree, top)])


_DECAY_WORDS = st.lists(st.one_of(st.integers(2, 10), st.sampled_from([97, 2**11])), max_size=40)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_decay_observables(), _DECAY_WORDS)
def test_verify_decay_matches_the_walk_over_every_letter(f, word):
    assert verify_decay(f, word) == _reference_verify_decay(f, word)


def test_verify_decay_checks_letters_past_the_walk():
    # cos 2 pi x vanishes after the first letter, yet the third is still read
    with pytest.raises(InputError, match="got 1"):
        verify_decay(COS, [2, 2, 1])


def _every_word_ratios(f, k):
    """{word: ratio} for every word of 1..k letters in 2..10, each walked
    letter by letter with transfer: the oracle does not use products."""
    ref = c1_norm(f).grid_estimate
    ratios, level, norms = {}, [((), f)], {}  # norms: image -> its certified norm
    for j in range(1, k + 1):
        level = [(word + (b,), transfer(b, g)) for word, g in level for b in range(2, 11)]
        for word, g in level:
            if g not in norms:
                norms[g] = c1_norm(g).value
            norm = norms[g]
            ratios[word] = norm / (2.0 * 2.0**-j * ref) if norm else 0.0
    return ratios


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_decay_observables(max_degree=40))
def test_decay_certificate_is_the_max_over_every_word(f):
    ratios = _every_word_ratios(f, 4)
    for k in range(1, 5):
        worst, witness = decay_certificate(f, k)
        assert worst == max(r for word, r in ratios.items() if len(word) <= k)
        assert 1 <= len(witness) <= k and set(witness) <= set(DECAY_LETTERS)
        assert ratios[witness] == worst


@pytest.mark.parametrize("degree", [1, 8, 64, 300])
def test_decay_certificate_witness_reproduces_the_worst_ratio(degree):
    f = random_poly(np.random.default_rng(degree), degree, 1.0)
    for k in (1, 3, 20, 10**11):
        worst, witness = decay_certificate(f, k)
        assert verify_decay(f, witness).ratios[-1] == worst


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_decay_observables(max_degree=300), st.integers(0, 2**32 - 1))
def test_sampled_words_never_beat_the_decay_certificate(f, seed):
    rng = np.random.default_rng(seed)
    worst, _ = decay_certificate(f, 20)
    for _ in range(30):
        word = rng.integers(2, 11, size=20).tolist()
        assert max(verify_decay(f, word).ratios) <= worst


def test_decay_certificate_finds_a_word_sampling_can_miss():
    # cos 16 pi x: only the word 2, 2, 2 reaches its deepest image
    f = make_trigpoly([(8, 0.5 + 0.25j)])
    worst, witness = decay_certificate(f, 20)
    assert witness == (2, 2, 2)
    assert worst == verify_decay(f, [2, 2, 2]).ratios[2] > verify_decay(f, [2]).ratios[0]


def test_decay_certificate_rejects_k_below_one():
    with pytest.raises(InputError, match="k must be >= 1"):
        decay_certificate(COS, 0)


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


def test_example1_threshold_doubles_its_grid_past_degree_2047():
    # degree 3000 needs more than 2^12 points: the search grid doubles to 2^13
    # and reads every other point
    f = make_trigpoly([(1, 0.5), (3000, 0.0005)])
    cert = example1_threshold(f)
    assert cert.L == 218
    pts = 4096  # about 85 points per period of the degree-3000 term
    on_x = [evaluate(f, (cert.x + cert.eps * j / pts) % 1.0) for j in range(pts + 1)]
    on_y = [evaluate(f, (cert.y + cert.eps * j / pts) % 1.0) for j in range(pts + 1)]
    assert min(on_x) - max(on_y) >= cert.delta > 0.0


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
