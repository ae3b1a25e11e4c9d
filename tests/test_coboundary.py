import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from seqclt.coboundary import CoboundaryResult, result_to_obj, solve, verify
from seqclt.analysis import variance_covariance
from seqclt.sequences import Constant
from seqclt.trigpoly import cosine, koopman, l2_inner, linear_combine, make_trigpoly


def test_solve_f1_base2_gives_cosine(f1):
    res = solve(f1, 2)
    assert res.solvable
    assert res.solution == cosine(1)


def test_solve_f1_base3_gives_certificate(f1):
    res = solve(f1, 3)
    assert not res.solvable
    assert res.root == 1
    assert res.residual == pytest.approx(-0.5 + 0j)


def test_solve_zero_is_trivially_solvable():
    res = solve(make_trigpoly([]), 5)
    assert res.solvable and res.solution.is_zero


def test_solve_rejects_bad_base(f1):
    with pytest.raises(ValueError):
        solve(f1, 1)


def test_verify_accepts_both_branches(f1):
    assert verify(f1, 2, solve(f1, 2))
    assert verify(f1, 3, solve(f1, 3))


def test_verify_rejects_wrong_solution(f1):
    wrong = CoboundaryResult("solution", cosine(3), None, None)
    assert not verify(f1, 2, wrong)


def test_verify_rejects_wrong_solution_at_small_scale():
    # every coefficient of the residual is 5e-14, below any absolute 1e-12,
    # yet as large as f's own coefficients
    f = make_trigpoly([(1, -0.5e-13), (2, 0.5e-13)])
    assert verify(f, 2, solve(f, 2))
    assert not verify(f, 2, CoboundaryResult("solution", make_trigpoly([(3, 0.5e-13)]), None, None))


def _chain_totals(f, b):
    """Every chain's total in Fractions, by root: the exact obstruction of f."""
    totals = {}
    for n, c in f.coeffs:
        r = n
        while r % b == 0:
            r //= b
        re, im = totals.get(r, (0, 0))
        totals[r] = (re + Fraction(c.real), im + Fraction(c.imag))
    return totals


# six powers of two from the subnormal band up to 2^996
POWERS = [-1040, -500, -20, 0, 500, 996]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(POWERS),
    st.dictionaries(
        st.integers(1, 30),
        st.tuples(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20)),
        min_size=1,
        max_size=12,
    ),
)
def test_verify_accepts_valid_solutions_at_every_scale(b, s, coeffs):
    # f = (g o T_b) - g with g on the grid 2^(s-20) and of modulus up to 2^s,
    # so every float operation is exact: solve's u is g itself and passes,
    # and the same u scaled by 2 must not, unless f is 0
    g = make_trigpoly([(k, complex(math.ldexp(re, s - 20), math.ldexp(im, s - 20)))
                       for k, (re, im) in coeffs.items()])
    f = linear_combine([(1.0, koopman(b, g)), (-1.0, g)])
    res = solve(f, b)
    assert res.solvable and res.solution == g
    assert verify(f, b, res)
    if not f.is_zero:
        doubled = linear_combine([(2.0, res.solution)])
        assert not verify(f, b, CoboundaryResult("solution", doubled, None, None))


# six bands from the subnormal range up to near the largest double
SCALES = [1e-320, 1e-200, 1e-3, 1e6, 1e150, 1e300]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(SCALES),
    st.dictionaries(
        st.integers(1, 30),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=12,
    ),
)
def test_float_drawn_coboundaries_are_decided_by_their_exact_totals(b, scale, coeffs):
    # f = (g o T_b) - g for g of modulus about scale, rounded in floats: f as
    # given is a coboundary exactly when every chain total is 0 in Fractions
    g = make_trigpoly([(k, complex(re * scale, im * scale)) for k, (re, im) in coeffs.items()])
    f = linear_combine([(1.0, koopman(b, g)), (-1.0, g)])
    res = solve(f, b)
    assert verify(f, b, res)
    assert res.solvable == all(total == (0, 0) for total in _chain_totals(f, b).values())


def test_near_cancelling_chains_are_decided_exactly():
    # c e_1 + (-c + 2^k) e_b: the chain from 1 totals 2^k when -c + 2^k is
    # exact, and 0 or a rounding error of c when it is not
    rng = np.random.default_rng(33)
    obstructions = 0
    for _ in range(2000):
        c, k, b = float(rng.uniform(-1.0, 1.0)), int(rng.integers(-60, -29)), int(rng.choice([2, 3, 5]))
        f = make_trigpoly([(1, c), (b, -c + 2.0**k)])
        total, _ = _chain_totals(f, b)[1]
        res = solve(f, b)
        assert verify(f, b, res)
        assert res.solvable == (total == 0), (c, k, b)
        if not res.solvable:
            obstructions += 1
            assert (res.root, res.residual) == (1, complex(float(total), 0.0))
    assert 1000 < obstructions < 2000


def test_a_total_below_any_tolerance_is_an_obstruction():
    f = make_trigpoly([(1, 0.5), (2, -0.5 + 2.0**-42)])
    res = solve(f, 2)
    assert (res.status, res.root, res.residual) == ("obstruction", 1, 2.0**-42)
    assert verify(f, 2, res)
    assert not verify(f, 2, CoboundaryResult("solution", make_trigpoly([(1, -0.5)]), None, None))


def test_a_rounded_coboundary_is_the_obstruction_it_is():
    # koopman(2, u) - u rounds 0.75 + 0.3 at frequency 2, so the chain from 1
    # totals 2^-54: the function as given is no coboundary
    u = make_trigpoly([(1, 0.75), (2, -0.3)])
    f = linear_combine([(1.0, koopman(2, u)), (-1.0, u)])
    res = solve(f, 2)
    assert (res.status, res.root, res.residual) == ("obstruction", 1, 2.0**-54)
    assert verify(f, 2, res)


def test_verify_rejects_wrong_certificate(f1):
    assert not verify(f1, 2, CoboundaryResult("obstruction", None, 1, -0.5 + 0j))


def test_verify_rejects_malformed_results():
    f = make_trigpoly([(1, 0.25), (3, 0.5)])
    obstruction = solve(f, 3)
    assert (obstruction.root, obstruction.residual) == (1, 0.75 + 0j)
    # the chain from 3 totals 0.5: only the root rule rejects root 3
    assert verify(f, 3, CoboundaryResult("obstruction", None, 1, 0.75 + 0j))
    for result in (
        CoboundaryResult("solution", None, None, None),
        CoboundaryResult("obstruction", None, 3, 0.5 + 0j),
        CoboundaryResult("obstruction", None, 1, None),
        CoboundaryResult("undecided", None, 1, 0.75 + 0j),
    ):
        assert not verify(f, 3, result), result


def test_soundness_on_random_inputs():
    rng = np.random.default_rng(41)
    for _ in range(120):
        f = random_poly(rng, max_degree=64, density=0.4)
        b = int(rng.integers(2, 8))
        assert verify(f, b, solve(f, b))


def test_round_trip_recovers_u_exactly():
    # dyadic-grid coefficients make every float operation exact, so the
    # chain elimination must return the generating u bit for bit
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = random_poly(rng, max_degree=32, density=0.5, quantize=20)
        b = int(rng.integers(2, 8))
        f = linear_combine([(1.0, koopman(b, u)), (-1.0, u)])
        res = solve(f, b)
        assert res.solvable
        assert res.solution == u


def test_round_trip_general_floats_verifies():
    rng = np.random.default_rng(43)
    for _ in range(100):
        u = random_poly(rng, max_degree=48, density=0.5)
        b = int(rng.integers(2, 8))
        f = linear_combine([(1.0, koopman(b, u)), (-1.0, u)])
        res = solve(f, b)
        assert res.solvable
        assert verify(f, b, res)


def test_solution_branch_bounds_variance(f1):
    # coboundary for the constant sequence: Var stays below 4 ||u||_2^2
    res = solve(f1, 2)
    cap = 4.0 * l2_inner(res.solution, res.solution)
    for n in (1, 10, 100, 1000):
        assert variance_covariance(f1, Constant(2), n) <= cap + 1e-12


def test_obstruction_branch_means_growing_variance(f1):
    assert not solve(f1, 3).solvable
    vals = [variance_covariance(f1, Constant(3), n) for n in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 1000.0


def test_result_serialization_shapes(f1):
    sol = result_to_obj(solve(f1, 2))
    assert sol["status"] == "solution"
    assert sol["u"] == [{"freq": 1, "re": 0.5, "im": -0.0}]
    assert sol["root"] is None and sol["residual"] is None
    obs = result_to_obj(solve(f1, 3))
    assert obs["status"] == "obstruction"
    assert obs["u"] is None
    assert obs["root"] == 1
    assert obs["residual"] == {"re": -0.5, "im": 0.0}
