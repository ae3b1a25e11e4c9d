"""Exact arithmetic for mean-zero real trigonometric polynomials on the circle.

A function g on S^1 = [0, 1) is stored through its positive-frequency Fourier
coefficients only,

    g(x) = sum_{n >= 1} 2 * Re(c_n * exp(2*pi*i*n*x)),

the negative frequencies being implied by Hermitian symmetry (g is real) and
the zero frequency being excluded (g has zero mean).  On this class the three
operators of interest are exact coefficient relabelings, free of any
discretisation error:

* Koopman composition with x -> a*x mod 1 moves c_n to frequency a*n.
* Its L2 adjoint (the transfer operator, averaging over the a preimages)
  keeps only frequencies divisible by a and shifts them down to n/a.
* Their product projects orthogonally onto the functions measurable with
  respect to the preimage sigma-algebra, i.e. keeps frequencies divisible
  by a in place.

Coefficients are double precision complex numbers; entries that are exactly
zero are dropped, so degree bookkeeping is exact and every value has one
canonical representation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._strict import check_multiplier, strict_float, strict_int

__all__ = [
    "TrigPoly",
    "C1Norm",
    "make_trigpoly",
    "cosine",
    "evaluate",
    "koopman",
    "transfer",
    "project_measurable",
    "l2_inner",
    "linear_combine",
    "derivative",
    "c1_norm",
    "grid_values",
    "trigpoly_to_obj",
    "trigpoly_from_obj",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrigPoly:
    """Canonical immutable value: sorted (frequency, coefficient) pairs.

    Build instances through :func:`make_trigpoly` (or the operators below),
    never directly; the constructor does not re-canonicalise.
    """

    coeffs: tuple[tuple[int, complex], ...]

    @property
    def degree(self) -> int:
        """Largest stored frequency; 0 for the zero polynomial by convention."""
        return self.coeffs[-1][0] if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    def abs_coeff_sum(self) -> float:
        """sum_n |c_n| over stored (positive) frequencies."""
        return math.fsum(abs(c) for _, c in self.coeffs)


ZERO = TrigPoly(())


def _canonical(entries: dict[int, complex]) -> TrigPoly:
    items = tuple(
        (n, complex(c)) for n, c in sorted(entries.items()) if complex(c) != 0
    )
    return TrigPoly(items)


def make_trigpoly(entries) -> TrigPoly:
    """Build a canonical TrigPoly from (frequency, coefficient) pairs.

    Frequencies must be distinct integers >= 1 (frequency 0 would carry a
    nonzero mean and is rejected) and coefficients finite.  Coefficients
    that are exactly zero are dropped.
    """
    out: dict[int, complex] = {}
    for freq, c in entries:
        n = strict_int(freq, "frequency")
        if n < 1:
            raise ValueError(f"frequency {n} < 1 (zero mean requires n >= 1)")
        if n in out:
            raise ValueError(f"duplicate frequency {n}")
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient at frequency {n} is not finite: {c!r}")
        out[n] = c
    return _canonical(out)


def cosine(n: int, amplitude: float = 1.0) -> TrigPoly:
    """amplitude * cos(2*pi*n*x) as a TrigPoly (coefficient amplitude/2 at n)."""
    return make_trigpoly([(n, amplitude / 2.0)])


def evaluate(g: TrigPoly, x: float) -> float:
    """Pointwise value g(x) = sum_n 2*Re(c_n e^{2 pi i n x})."""
    total = 0.0
    for n, c in g.coeffs:
        t = TWO_PI * n * x
        total += 2.0 * (c.real * math.cos(t) - c.imag * math.sin(t))
    return total


def koopman(a: int, g: TrigPoly) -> TrigPoly:
    """Composition operator for x -> a*x mod 1: coefficient c_n moves to a*n.

    Exact for any TrigPoly; the degree multiplies by a.
    """
    check_multiplier(a)
    return TrigPoly(tuple((a * n, c) for n, c in g.coeffs))


def transfer(a: int, g: TrigPoly) -> TrigPoly:
    """Preimage-averaging adjoint of :func:`koopman`.

    Output coefficient at n is g's coefficient at a*n; frequencies of g not
    divisible by a are annihilated.  Equivalent to the quadrature form
    (1/a) * sum_{j<a} g((x+j)/a), but exact.
    """
    check_multiplier(a)
    return TrigPoly(tuple((n // a, c) for n, c in g.coeffs if n % a == 0))


def project_measurable(a: int, g: TrigPoly) -> TrigPoly:
    """Orthogonal projection onto frequencies divisible by a (koopman o transfer)."""
    check_multiplier(a)
    return TrigPoly(tuple((n, c) for n, c in g.coeffs if n % a == 0))


def l2_inner(g: TrigPoly, h: TrigPoly) -> float:
    """Lebesgue inner product: integral of g*h = sum_n 2*Re(c_n(g) conj(c_n(h)))."""
    hd = dict(h.coeffs)
    terms = []
    for n, c in g.coeffs:
        d = hd.get(n)
        if d is not None:
            terms.append(2.0 * (c.real * d.real + c.imag * d.imag))
    return math.fsum(terms)


def linear_combine(terms) -> TrigPoly:
    """Coefficientwise sum of scalar multiples, re-canonicalised.

    Accumulation per frequency follows the list order, which callers rely on
    for bit-reproducible sums.
    """
    out: dict[int, complex] = {}
    for scalar, g in terms:
        s = float(scalar)
        for n, c in g.coeffs:
            prev = out.get(n)
            out[n] = s * c if prev is None else prev + s * c
    return _canonical(out)


def derivative(g: TrigPoly) -> TrigPoly:
    """g' as a TrigPoly: coefficient 2*pi*i*n*c_n at frequency n."""
    return TrigPoly(tuple((n, complex(0.0, TWO_PI * n) * c) for n, c in g.coeffs))


def grid_values(g: TrigPoly, size: int) -> np.ndarray:
    """Values of g at the equispaced points j/size, j = 0..size-1.

    Uses an inverse real FFT; size must exceed 2*degree+1 so that no stored
    frequency aliases.
    """
    if size < 2 * g.degree + 2:
        raise ValueError(f"grid of {size} points cannot resolve degree {g.degree}")
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for n, c in g.coeffs:
        spectrum[n] = c * size
    return np.fft.irfft(spectrum, size)


@dataclass(frozen=True)
class C1Norm:
    """sup|g| + sup|g'| with a certified upper bound alongside the raw grid value.

    ``value`` is an upper bound on the true norm; ``grid_estimate`` is the
    plain grid maximum (a lower bound).  Checks of the form "norm <= bound"
    should use ``value`` on the left so a pass is trustworthy.
    """

    value: float
    grid_estimate: float


def c1_norm(g: TrigPoly) -> C1Norm:
    """Certified C1 norm sup|g| + sup|g'|.

    Both sups are taken over G = max(64*degree, 4096) equispaced points
    and corrected by half a grid step times a coefficient bound on the next
    derivative, which makes the reported value a true upper bound:

        sup|g|  <= grid max + (1/(2G)) * 4*pi  * sum n   |c_n|
        sup|g'| <= grid max + (1/(2G)) * 8*pi^2 * sum n^2 |c_n|
    """
    if g.is_zero:
        return C1Norm(0.0, 0.0)
    size = max(64 * g.degree, 4096)
    vals = grid_values(g, size)
    dvals = grid_values(derivative(g), size)
    sup_val = float(np.max(np.abs(vals)))
    sup_der = float(np.max(np.abs(dvals)))
    lip_val = 4.0 * math.pi * math.fsum(n * abs(c) for n, c in g.coeffs)
    lip_der = 8.0 * math.pi**2 * math.fsum(n * n * abs(c) for n, c in g.coeffs)
    grid_estimate = sup_val + sup_der
    value = (sup_val + lip_val / (2.0 * size)) + (sup_der + lip_der / (2.0 * size))
    return C1Norm(value, grid_estimate)


def trigpoly_to_obj(g: TrigPoly) -> list[dict]:
    """JSON-ready form: list of {"freq": n, "re": ..., "im": ...}."""
    return [{"freq": n, "re": c.real, "im": c.imag} for n, c in g.coeffs]


def trigpoly_from_obj(obj) -> TrigPoly:
    """Parse the serialized form; duplicate or invalid frequencies are rejected."""
    if not isinstance(obj, list):
        raise ValueError("function must be an array of {freq, re, im} objects")
    entries = []
    for item in obj:
        if not isinstance(item, dict) or not {"freq", "re", "im"} <= set(item):
            raise ValueError(f"bad coefficient entry {item!r}")
        re, im = strict_float(item["re"], "re"), strict_float(item["im"], "im")
        entries.append((item["freq"], complex(re, im)))
    return make_trigpoly(entries)
