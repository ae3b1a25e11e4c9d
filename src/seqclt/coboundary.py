"""Solvability of f = (g o T_b) - g over mean-zero square-integrable functions.

Under the composition operator of x -> b*x mod 1 the frequencies split into
chains {r, r*b, r*b^2, ...} with b not dividing the root r, and the equation
decouples chain by chain: matching coefficients forces

    u_hat(r * b^j) = -(f_hat(r) + f_hat(r*b) + ... + f_hat(r*b^j)).

Past degree(f) the partial sums freeze at the chain total, so a square-
summable solution exists precisely when every chain total vanishes, in which
case u is itself a trigonometric polynomial.  A nonzero chain total is a
compact non-solvability certificate: any candidate u would need infinitely
many coefficients of that fixed modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._strict import check_multiplier
from .trigpoly import TrigPoly, koopman, linear_combine, make_trigpoly

__all__ = ["CoboundaryResult", "solve", "verify", "result_to_obj"]

# Inputs are dyadic-representable doubles, so true chain cancellations are
# exact; the tolerance only absorbs accumulated rounding.
RESIDUAL_RTOL = 1e-12
SOLUTION_ATOL = 1e-12


@dataclass(frozen=True)
class CoboundaryResult:
    status: str  # "solution" | "obstruction"
    solution: TrigPoly | None
    root: int | None
    residual: complex | None

    @property
    def solvable(self) -> bool:
        return self.status == "solution"


def _chain_root(n: int, b: int) -> int:
    while n % b == 0:
        n //= b
    return n


def solve(f: TrigPoly, b: int) -> CoboundaryResult:
    """Solve f = (u o T_b) - u or certify that no L2 solution exists.

    Returns the explicit trigonometric-polynomial solution when every
    frequency chain sums to zero; otherwise the smallest violating chain
    root together with its nonzero total.
    """
    check_multiplier(b, "base")
    coeffs = f.as_dict()
    deg = f.degree
    tol = RESIDUAL_RTOL * f.abs_coeff_sum()
    roots = sorted({_chain_root(n, b) for n in coeffs})
    solution_entries = []
    for r in roots:
        partial = 0j
        m = r
        while m <= deg:
            partial += coeffs.get(m, 0j)
            solution_entries.append((m, -partial))
            m *= b
        if abs(partial) > tol:
            return CoboundaryResult("obstruction", None, r, partial)
    return CoboundaryResult("solution", make_trigpoly(solution_entries), None, None)


def verify(f: TrigPoly, b: int, result: CoboundaryResult) -> bool:
    """Independent check of either branch of a coboundary result.

    Solution branch: (u o T_b) - u must reproduce f coefficientwise to
    1e-12 absolute.  Obstruction branch: the chain total is recomputed by
    brute force over the powers r*b^i <= degree(f) and must be nonzero
    (which rules out any square-summable solution).
    """
    if result.status == "solution":
        if result.solution is None:
            return False
        diff = linear_combine(
            [(1.0, koopman(b, result.solution)), (-1.0, result.solution), (-1.0, f)]
        )
        return all(abs(c) <= SOLUTION_ATOL for _, c in diff.coeffs)
    if result.status == "obstruction":
        r = result.root
        if r is None or result.residual is None or r < 1 or r % b == 0:
            return False
        coeffs = f.as_dict()
        total = 0j
        m = r
        while m <= f.degree:
            total += coeffs.get(m, 0j)
            m *= b
        tol = RESIDUAL_RTOL * f.abs_coeff_sum()
        return abs(total) > tol and abs(total - result.residual) <= tol
    return False


def result_to_obj(result: CoboundaryResult) -> dict:
    """JSON-ready form of a coboundary result."""
    from .trigpoly import trigpoly_to_obj

    return {
        "status": result.status,
        "u": trigpoly_to_obj(result.solution) if result.solution is not None else None,
        "root": result.root,
        "residual": (
            {"re": result.residual.real, "im": result.residual.imag}
            if result.residual is not None
            else None
        ),
    }
