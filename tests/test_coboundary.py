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
def test_verify_accepts_valid_solutions_at_every_scale(b, scale, coeffs):
    # f = (g o T_b) - g for g of modulus about scale: solve's u must pass,
    # and the same u scaled by 2 must not, unless f is 0
    g = make_trigpoly([(k, complex(re * scale, im * scale)) for k, (re, im) in coeffs.items()])
    f = linear_combine([(1.0, koopman(b, g)), (-1.0, g)])
    res = solve(f, b)
    assert verify(f, b, res)
    if not f.is_zero:
        doubled = linear_combine([(2.0, res.solution)])
        assert not verify(f, b, CoboundaryResult("solution", doubled, None, None))


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
