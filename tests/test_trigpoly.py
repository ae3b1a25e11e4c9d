import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_canonical, random_poly
from seqclt.trigpoly import (
    ZERO,
    _dyadic_exponent,
    _dyadic_float,
    _dyadic_inner,
    _dyadic_poly,
    _dyadic_sum,
    c1_norm,
    cosine,
    cosine_terms,
    derivative,
    evaluate,
    grid_values,
    koopman,
    l2_inner,
    linear_combine,
    make_trigpoly,
    project_measurable,
    slope_bound,
    transfer,
    trigpoly_from_obj,
    trigpoly_to_obj,
)


def test_make_trigpoly_cosine():
    g = make_trigpoly([(1, 0.5 + 0j)])
    assert g.coeffs == ((1, 0.5 + 0j),)
    assert g.degree == 1
    assert g == cosine(1)


def test_make_trigpoly_zero():
    g = make_trigpoly([])
    assert g.is_zero
    assert g.degree == 0


def test_make_trigpoly_rejects_zero_frequency():
    with pytest.raises(ValueError):
        make_trigpoly([(0, 1.0)])


def test_make_trigpoly_rejects_duplicates():
    with pytest.raises(ValueError):
        make_trigpoly([(3, 1.0), (3, 2.0)])


@pytest.mark.parametrize("coef", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_make_trigpoly_rejects_non_finite_coefficients(coef):
    with pytest.raises(ValueError, match="not finite"):
        make_trigpoly([(1, coef)])


@pytest.mark.parametrize("freq", [True, 2.5, "2"])
def test_make_trigpoly_rejects_non_integer_frequency(freq):
    with pytest.raises(ValueError, match="frequency must be an integer"):
        make_trigpoly([(freq, 1.0)])


def test_make_trigpoly_drops_exact_zeros():
    g = make_trigpoly([(1, 0.5), (4, 0.0)])
    assert g.coeffs == ((1, 0.5 + 0j),)


def test_evaluate_cosine_quarter():
    assert evaluate(cosine(1), 0.25) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(cosine(1), 0.5) == pytest.approx(-1.0, abs=1e-15)


def test_evaluate_difference_at_zero(f1):
    assert evaluate(f1, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_koopman_doubles_frequency():
    assert koopman(2, cosine(1)) == cosine(2)


def test_koopman_multiple_terms():
    g = linear_combine([(1.0, cosine(1)), (1.0, cosine(2))])
    assert koopman(3, g) == linear_combine([(1.0, cosine(3)), (1.0, cosine(6))])


def test_koopman_zero():
    assert koopman(5, make_trigpoly([])).is_zero


def _transfer_oracle(a, g, x):
    # preimage average (1/a) sum_j g((x+j)/a), the defining quadrature form
    return math.fsum(evaluate(g, ((x + j) / a) % 1.0) for j in range(a)) / a


@pytest.mark.parametrize(
    "a,g_entries,expected_entries",
    [
        (2, [(1, 0.5)], []),
        (3, [(1, 0.5), (3, 0.5)], [(1, 0.5)]),
        (2, [(2, 0.5), (1, -0.5)], [(1, 0.5)]),
    ],
)
def test_transfer_examples_match_quadrature_oracle(a, g_entries, expected_entries):
    g = make_trigpoly(g_entries)
    out = transfer(a, g)
    assert out == make_trigpoly(expected_entries)
    for i in range(4 * g.degree + 1):
        x = i / (4 * g.degree + 1)
        assert evaluate(out, x) == pytest.approx(_transfer_oracle(a, g, x), abs=1e-10)


def test_transfer_quadrature_equivalence_random():
    rng = np.random.default_rng(101)
    for _ in range(25):
        g = random_poly(rng, max_degree=24)
        a = int(rng.integers(2, 8))
        out = transfer(a, g)
        pts = 4 * max(g.degree, 1) + 1
        for i in range(0, pts, 3):
            x = i / pts
            assert evaluate(out, x) == pytest.approx(_transfer_oracle(a, g, x), abs=1e-10)


def test_project_measurable_examples():
    g = linear_combine([(1.0, cosine(1)), (1.0, cosine(2))])
    assert project_measurable(2, g) == cosine(2)
    assert project_measurable(3, cosine(2)).is_zero
    assert project_measurable(2, cosine(2)) == cosine(2)


def test_l2_inner_examples(f1):
    assert l2_inner(cosine(1), cosine(1)) == pytest.approx(0.5)
    assert l2_inner(cosine(1), cosine(2)) == 0.0
    assert l2_inner(f1, f1) == pytest.approx(1.0)


def test_c1_norm_cosine_certified_window():
    exact = 1.0 + 2.0 * math.pi
    res = c1_norm(cosine(1))
    assert exact <= res.value <= exact * (1.0 + 1e-3)
    assert res.grid_estimate <= res.value


def test_c1_norm_zero():
    res = c1_norm(make_trigpoly([]))
    assert res.value == 0.0 and res.grid_estimate == 0.0


def test_c1_norm_against_dense_grid_oracle(f1):
    # oracle: plain sup over 10^6 equispaced points, no correction
    pts = 10**6
    oracle = float(np.max(np.abs(grid_values(f1, pts)))) + float(
        np.max(np.abs(grid_values(derivative(f1), pts)))
    )
    res = c1_norm(f1)
    assert oracle <= res.value <= oracle * 1.002


def test_linear_combine_cancellation():
    assert linear_combine([(1.0, cosine(1)), (-1.0, cosine(1))]).is_zero


def test_linear_combine_f1(f1):
    assert f1.coeffs == ((1, -0.5 + 0j), (2, 0.5 + 0j))


def test_linear_combine_zero_scaling():
    assert linear_combine([(2.0, make_trigpoly([]))]).is_zero


def test_adjointness_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = random_poly(rng)
        h = random_poly(rng)
        a = int(rng.integers(2, 8))
        lhs = l2_inner(koopman(a, g), h)
        rhs = l2_inner(g, transfer(a, h))
        scale = math.fsum(abs(c) for _, c in g.coeffs) * math.fsum(abs(c) for _, c in h.coeffs)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-30)


def test_left_inverse_exact():
    rng = np.random.default_rng(8)
    for _ in range(40):
        g = random_poly(rng)
        a = int(rng.integers(2, 8))
        assert transfer(a, koopman(a, g)) == g


_POLYS = st.dictionaries(
    st.integers(1, 200),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    max_size=12,
).map(lambda entries: make_trigpoly(entries.items()))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_POLYS, st.integers(2, 12))
def test_operator_identities_hold_exactly(g, a):
    # the operators relabel coefficients, so both identities hold bit for bit
    assert transfer(a, koopman(a, g)) == g
    assert koopman(a, transfer(a, g)) == project_measurable(a, g)


def test_koopman_is_isometry():
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = random_poly(rng)
        a = int(rng.integers(2, 8))
        assert l2_inner(koopman(a, g), koopman(a, g)) == l2_inner(g, g)


def test_projection_idempotent_and_contracting():
    rng = np.random.default_rng(10)
    for _ in range(40):
        g = random_poly(rng)
        a = int(rng.integers(2, 8))
        p = project_measurable(a, g)
        assert project_measurable(a, p) == p
        assert l2_inner(p, p) <= l2_inner(g, g)


def test_operations_preserve_canonical_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_poly(rng)
        h = random_poly(rng)
        a = int(rng.integers(2, 8))
        for out in (
            koopman(a, g),
            transfer(a, g),
            project_measurable(a, g),
            linear_combine([(0.7, g), (-1.3, h)]),
            derivative(g),
        ):
            assert_canonical(out)


def test_evaluate_accuracy_contract():
    rng = np.random.default_rng(12)
    g = random_poly(rng, max_degree=40, density=0.9)
    # FFT values are an independent evaluation route
    pts = 1 << 12
    vals = grid_values(g, pts)
    budget = max(g.degree, 1) * 2.0**-50 * math.fsum(abs(c) for _, c in g.coeffs)
    for i in range(0, pts, 97):
        assert abs(evaluate(g, i / pts) - vals[i]) <= max(budget, 1e-12)


def test_cosine_terms_reproduce_evaluate():
    # the orbit kernel's form sum amp*cos(w*x + ph) is g, to the accuracy
    # contract of evaluate
    assert cosine_terms(ZERO) == ()
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_poly(rng, max_degree=40, density=0.6)
        terms = cosine_terms(g)
        assert [w for _, w, _ in terms] == [2.0 * math.pi * n for n, _ in g.coeffs]
        budget = max(g.degree, 1) * 2.0**-50 * math.fsum(abs(c) for _, c in g.coeffs)
        for x in rng.random(16):
            total = 0.0
            for amp, w, ph in terms:
                total += amp * math.cos(w * x + ph)
            assert abs(total - evaluate(g, x)) <= max(budget, 1e-12)


def test_slope_bound_bounds_the_derivative():
    assert slope_bound(ZERO) == 0.0
    assert slope_bound(cosine(3)) == pytest.approx(6.0 * math.pi)  # sup|(cos 2 pi 3x)'|
    rng = np.random.default_rng(15)
    for _ in range(20):
        g = random_poly(rng, max_degree=40, density=0.6)
        grid_max = float(np.max(np.abs(grid_values(derivative(g), 1 << 12))))
        assert grid_max <= slope_bound(g)


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_poly(rng)
        assert trigpoly_from_obj(trigpoly_to_obj(g)) == g


def test_serialization_order_is_irrelevant():
    forward = trigpoly_from_obj(
        [{"freq": 2, "re": 0.5, "im": 0.0}, {"freq": 7, "re": -0.25, "im": 0.125}]
    )
    shuffled = trigpoly_from_obj(
        [{"freq": 7, "re": -0.25, "im": 0.125}, {"freq": 2, "re": 0.5, "im": 0.0}]
    )
    assert forward == shuffled


def test_serialization_rejects_duplicates():
    with pytest.raises(ValueError):
        trigpoly_from_obj(
            [{"freq": 1, "re": 0.5, "im": 0.0}, {"freq": 1, "re": 0.25, "im": 0.0}]
        )


def _fraction_coeffs(polys):
    out = {}
    for g in polys:
        for n, c in g.coeffs:
            re, im = out.get(n, (0, 0))
            out[n] = (re + Fraction(c.real), im + Fraction(c.imag))
    return out


def test_dyadic_exponent_is_the_finest_grid_of_the_coefficients():
    assert _dyadic_exponent(ZERO) == 0
    assert _dyadic_exponent(make_trigpoly([(1, 3.0), (4, complex(2.0**600, -5.0))])) == 0
    assert _dyadic_exponent(make_trigpoly([(1, 0.75), (2, complex(0.5, 2.0**-9))])) == 9
    assert _dyadic_exponent(make_trigpoly([(3, 5e-324)])) == 1074
    assert _dyadic_exponent(make_trigpoly([(3, 0.1)])) == 55  # 0.1 = 3602879701896397 / 2^55


def test_dyadic_sums_and_inner_products_are_exact():
    rng = np.random.default_rng(50)
    for _ in range(100):
        polys = [random_poly(rng, max_degree=24, density=0.6) for _ in range(3)]
        polys.append(linear_combine([(2.0**-1000, polys[0])]))  # a subnormal tail
        e = max(map(_dyadic_exponent, polys))
        exact = _dyadic_sum(polys, e)
        reference = _fraction_coeffs(polys)
        assert exact.keys() == reference.keys()
        assert all(Fraction(re, 2**e) == reference[n][0] and Fraction(im, 2**e) == reference[n][1]
                   for n, (re, im) in exact.items())
        h = _dyadic_sum(polys[1:2], e)
        for a in (1, 2, 3):
            total = sum(2 * (x[0] * h[n][0] + x[1] * h[n][1])
                        for n, x in exact.items() if n in h and n % a == 0)
            assert _dyadic_inner(exact, h, a) == total


def _fraction_float(num, s):
    try:
        return float(Fraction(num, 2**s))
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def test_dyadic_float_rounds_once_and_overflows_to_inf():
    rng = np.random.default_rng(51)
    top, _ = sys.float_info.max.as_integer_ratio()
    cases = [(0, 0), (1, 1074), (1, 1075), (3, 1075), (-1, 1076), (-5, 1076), (top, 0),
             (-top, 0), (top << 70, 70), ((top << 70) + (1 << 1040), 70),
             ((2 * top + 1) << 969, 970), ((2 * top + 1) << 969, 969), (-(top + 1) << 10, 10)]
    for _ in range(500):
        num = int.from_bytes(rng.bytes(int(rng.integers(1, 300))), "little")
        cases.append((num * int(rng.choice([-1, 1])), int(rng.integers(0, 2400))))
    for num, s in cases:
        value = _dyadic_float(num, s)
        assert value == _fraction_float(num, s), (num, s)
        assert math.copysign(1.0, value) == math.copysign(1.0, _fraction_float(num, s))
    assert _dyadic_float(top, 0) == sys.float_info.max
    assert _dyadic_float(top + 2**970, 0) == math.inf  # the halfway point rounds up to inf


def test_dyadic_poly_rounds_each_part_once():
    pairs = {1: (3, -1), 2: (0, 0), 5: (0, 2**1100), 7: (-(2**1100), 1)}
    g = _dyadic_poly(pairs, 2)
    assert g.coeffs == ((1, complex(0.75, -0.25)), (5, complex(0.0, math.inf)),
                        (7, complex(-math.inf, 0.25)))
