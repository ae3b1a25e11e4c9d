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

The coefficients of f are doubles, so every partial sum is an integer times
2^-e, with e the dyadic exponent of f.  Both functions sum in those integers:
a chain total is zero or it is not, with no tolerance, for the function as
given.  The residual and u's coefficients are the exact sums rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._strict import check_multiplier
from .trigpoly import (TrigPoly, _dyadic_complex, _dyadic_exponent, _dyadic_poly, _dyadic_sum,
                       trigpoly_to_obj)

__all__ = ["CoboundaryResult", "solve", "verify", "result_to_obj"]


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
    frequency chain sums to exactly zero; otherwise the smallest violating
    chain root together with its nonzero total, rounded once.
    """
    b = check_multiplier(b, "base")
    e = _dyadic_exponent(f)
    coeffs = _dyadic_sum([f], e)
    partials = {}
    for r in sorted({_chain_root(n, b) for n in coeffs}):
        re = im = 0
        m = r
        while m <= f.degree:
            dre, dim = coeffs.get(m, (0, 0))
            re, im = re + dre, im + dim
            partials[m] = (-re, -im)
            m *= b
        if re or im:
            return CoboundaryResult("obstruction", None, r, _dyadic_complex((re, im), e))
    return CoboundaryResult("solution", _dyadic_poly(partials, e), None, None)


def verify(f: TrigPoly, b: int, result: CoboundaryResult) -> bool:
    """Independent check of either branch of a coboundary result.

    Each partial sum is recomputed exactly from f by its own downward walk
    m, m/b, m/b^2, ... to the chain's root, and each chain total is the
    partial sum at its first element past degree(f).  Solution branch: every
    chain total is zero and u equals the negated partial sums, rounded,
    exactly.  Obstruction branch: the root's chain total is nonzero (which
    rules out any square-summable solution) and rounds to the residual.
    """
    b = check_multiplier(b, "base")
    e = _dyadic_exponent(f)
    coeffs = _dyadic_sum([f], e)

    def partial(m: int) -> tuple[int, int]:
        parts = [coeffs.get(m, (0, 0))]
        while m % b == 0:
            m //= b
            parts.append(coeffs.get(m, (0, 0)))
        return sum(re for re, _ in parts), sum(im for _, im in parts)

    u, totals = {}, {}  # by frequency up to degree(f), and by chain root
    for m in coeffs:
        while m <= f.degree:
            re, im = partial(m)
            u[m] = (-re, -im)
            m *= b
        totals[_chain_root(m, b)] = partial(m)
    if result.status == "solution":
        return all(t == (0, 0) for t in totals.values()) and result.solution == _dyadic_poly(u, e)
    if result.status == "obstruction":  # a root of no chain of f, or no root, has total 0
        total = totals.get(result.root, (0, 0))
        return total != (0, 0) and _dyadic_complex(total, e) == result.residual
    return False


def result_to_obj(result: CoboundaryResult) -> dict:
    """JSON-ready form of a coboundary result."""
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
