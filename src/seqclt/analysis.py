"""Operator-side analysis of Birkhoff sums over a time-dependent map sequence.

For an observable f and a sequence of multipliers a_1, a_2, ... this module
computes, exactly in the Fourier domain:

* the backward-averaged observables u_k = f + T*_{a_k} u_{k-1} (u_0 = 0),
  which collect every preimage-average of f reaching step k;
* the transversality profile: the squared L2 angle between u_k and the
  subspace of functions measurable for the next map's preimage algebra,
  together with the accumulated sum of min-pair sines that drives variance
  growth;
* Var(S_n) of the Birkhoff sum S_n(x) = sum_{k<=n} f(a_k...a_1 x mod 1) by
  two independent exact routes (pair covariances with a sharp cutoff, and
  the martingale-defect decomposition), cross-checkable to 1e-9;
* certified geometric decay of iterated transfer operators, truncated
  Neumann sums, shadowing distances inside constant runs, and the
  large-multiplier separation machinery (threshold certificates).

Everything here is pure; per-index work may be distributed at will as long
as reductions keep a fixed summation order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .sequences import SequenceSpec
from .trigpoly import (
    C1Norm,
    TrigPoly,
    c1_norm,
    grid_values,
    l2_inner,
    linear_combine,
    transfer,
)

__all__ = [
    "AngleRecord",
    "VarianceReport",
    "ThresholdCert",
    "DecayReport",
    "u_sequence",
    "u_at",
    "angle_profile",
    "accumulated_transversality",
    "variance_covariance",
    "variance_covariance_curve",
    "variance_martingale",
    "variance_martingale_curve",
    "variance_report",
    "verify_decay",
    "neumann_sum",
    "block_shadowing_check",
    "example1_threshold",
    "separation_bound_check",
]

CROSS_CHECK_RTOL = 1e-9

# Resolution of the arc search grid for threshold certificates.
_ARC_GRID = 1 << 12
_ARC_EPS_EXPONENTS = range(1, 11)


@dataclass(frozen=True)
class AngleRecord:
    """Transversality data of one index k; a profile holds it at position k-1.

    cos_sq is ||P u_k||^2 / ||u_k||^2 with P the projection onto functions
    measurable for the (k+1)-th map's preimage algebra; when u_k = 0 the
    angle is undefined and we take cos_sq = 1 (zero transversality), the
    conservative convention.  A record depends only on (walk_k, a_{k+1}), so
    indices that share the pair share one record object.
    """

    u_norm_sq: float
    proj_norm_sq: float
    cos_sq: float
    sin_sq: float


@dataclass(frozen=True)
class VarianceReport:
    """Per-step records and the three curves over k = 1..n.

    cov_curve and mart_curve are Var(S_k) by the two routes; acc_curve is
    the running (left-to-right) sum of min-pair sines for k = 1..n-1.
    """

    per_step: tuple[AngleRecord, ...]
    cov_curve: tuple[float, ...]
    mart_curve: tuple[float, ...]
    acc_curve: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.per_step)

    @property
    def var_cov(self) -> float:
        return self.cov_curve[-1]

    @property
    def var_mart(self) -> float:
        return self.mart_curve[-1]

    @property
    def acc_transversality(self) -> float:
        return self.acc_curve[-1] if self.acc_curve else 0.0

    def consistent(self) -> bool:
        """Do the two independent variance routes agree to CROSS_CHECK_RTOL?"""
        return abs(self.var_cov - self.var_mart) <= CROSS_CHECK_RTOL * max(1.0, abs(self.var_cov))


@dataclass(frozen=True)
class ThresholdCert:
    """Separated arcs and the induced multiplier threshold.

    The certificate asserts  min_{[x, x+eps]} f  >  delta + max_{[y, y+eps]} f
    (delta already includes the grid correction, so the margin is certified)
    and L > max(16*||f||/delta, 2/eps) with ||f|| the certified C1 norm.
    """

    x: float
    y: float
    eps: float
    delta: float
    L: int


@dataclass(frozen=True)
class DecayReport:
    """Certified norms of iterated transfer images against the 2*2^-j envelope."""

    f_norm: C1Norm
    step_norms: tuple[C1Norm, ...]
    bounds: tuple[float, ...]
    ratios: tuple[float, ...]
    passed: bool

    def effective_tau(self) -> float | None:
        """Geometric-mean per-step contraction over the nonzero prefix."""
        prev = self.f_norm.grid_estimate
        factors = []
        for nrm in self.step_norms:
            if nrm.value == 0.0 or prev == 0.0:
                break
            factors.append(nrm.value / prev)
            prev = nrm.value
        if not factors:
            return None
        return math.exp(math.fsum(math.log(r) for r in factors) / len(factors))


def _backward_images(f: TrigPoly, mults: Iterable[int]) -> Iterator[TrigPoly]:
    """T*_{b_i} ... T*_{b_1} f for i = 1, 2, ... along mults = b_1, b_2, ...

    Stops before the product b_1 ... b_i exceeds degree(f), past which every
    image is annihilated exactly, or at the first zero image.  mults is read
    lazily, so it may be infinite or expensive to evaluate deep down.
    """
    deg = f.degree
    g = f
    mult = 1
    for b in mults:
        mult *= b
        if mult > deg:
            return
        g = transfer(b, g)
        if g.is_zero:
            return
        yield g


def _walks(spec: SequenceSpec, degree: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(walk_k, a_{k+1}) for k = 1..n, reading the sequence once.

    walk_k = (a_k, ..., a_2) cut before the running product exceeds degree.
    u_k, the k-th covariance increment and (with a_{k+1}) the k-th angle
    record depend on f only through walk_k: deeper multipliers reach no
    stored frequency, and a walk that ends at index 2 uncut adds the same
    terms as one cut there, because u_0 = 0.
    """
    if n < 1:
        raise ValueError("horizon n must be >= 1")
    values = spec.iter_values()
    next(values)  # a_1 is in no walk
    walk: tuple[int, ...] = ()
    for _ in range(n):
        a_next = next(values)
        yield walk, a_next
        walk, mult = (a_next, *walk), 1
        for i, b in enumerate(walk):
            mult *= b
            if mult > degree:
                walk = walk[:i]
                break


def _u_of_walk(f: TrigPoly, walk: Iterable[int]) -> TrigPoly:
    """u_k: f plus its backward images along walk = (a_k, ..., a_2).

    Only the part of the walk whose running product stays within degree(f)
    contributes; deeper terms are annihilated exactly.  Terms are summed
    deepest-first, which reproduces the float arithmetic of the recursion
    u_k = f + T*_{a_k} u_{k-1}, u_0 = 0, bit for bit.
    """
    terms = [f, *_backward_images(f, walk)]
    return linear_combine([(1.0, t) for t in reversed(terms)])


def _by_window(f: TrigPoly, spec: SequenceSpec, n: int, compute: Callable) -> Iterator:
    """compute(walk_k, a_{k+1}) for k = 1..n: once per distinct pair, one object per pair."""
    memo: dict[tuple[tuple[int, ...], int], object] = {}
    for key in _walks(spec, f.degree, n):
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(*key)
        yield value


def _kahan_prefix(values: Iterable[float]) -> Iterator[float]:
    """The running compensated (Kahan) sums of values, one per value."""
    total = comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        yield total


def u_sequence(f: TrigPoly, spec: SequenceSpec, n: int) -> list[TrigPoly]:
    """u_1 ... u_n, each computed once per distinct (window, a_{k+1}) pair.

    The u_k are exact and degree(u_k) <= degree(f) for every k, since
    transfer operators never raise the degree.
    """
    return list(_by_window(f, spec, n, lambda walk, _: _u_of_walk(f, walk)))


def u_at(f: TrigPoly, spec: SequenceSpec, k: int) -> TrigPoly:
    """u_k without scanning from the start: reads a_k, a_{k-1}, ... lazily."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    return _u_of_walk(f, (spec.value_at(j) for j in range(k, 1, -1)))


def _angle_record(u: TrigPoly, a_next: int) -> AngleRecord:
    """The angle between u and the functions measurable for x -> a_next x.

    Both norms are fsums of the terms l2_inner(u, u) sums, squared once.
    """
    sq = [2.0 * (c.real * c.real + c.imag * c.imag) for _, c in u.coeffs]
    u_norm_sq = math.fsum(sq)
    proj_norm_sq = math.fsum(t for (n, _), t in zip(u.coeffs, sq) if n % a_next == 0)
    if u_norm_sq > 0.0:
        cos_sq = min(proj_norm_sq / u_norm_sq, 1.0)
    else:
        cos_sq = 1.0
    return AngleRecord(u_norm_sq, proj_norm_sq, cos_sq, 1.0 - cos_sq)


def angle_profile(f: TrigPoly, spec: SequenceSpec, n: int) -> list[AngleRecord]:
    """Transversality records for k = 1..n (uses a_{k+1} for the projection).

    A record is a function of (walk_k, a_{k+1}): it is computed once per
    distinct pair, and every index with that pair holds the same object.
    """
    return list(_by_window(f, spec, n, lambda walk, a: _angle_record(_u_of_walk(f, walk), a)))


def accumulated_transversality(profile: list[AngleRecord], N: int) -> float:
    """sum_{k=1}^{N} min(sin^2 chi_k, sin^2 chi_{k+1}); needs records 1..N+1."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if len(profile) < N + 1 and N > 0:
        raise ValueError(f"profile of length {len(profile)} too short for N={N}")
    return math.fsum(
        min(profile[k - 1].sin_sq, profile[k].sin_sq) for k in range(1, N + 1)
    )


def variance_covariance_curve(f: TrigPoly, spec: SequenceSpec, n: int) -> list[float]:
    """Var(S_k) for k = 1..n from pair covariances.

    cov(j, k) = <T*_{[j+1..k]} f, f> depends only on the product of the
    multipliers between the two indices and vanishes exactly once that
    product exceeds degree(f), so each new index contributes only a short
    backward walk, computed once per distinct (window, a_{k+1}) pair.
    """
    norm_sq = l2_inner(f, f)

    def step(walk: tuple[int, ...], _) -> float:
        total = norm_sq
        for g in _backward_images(f, walk):
            total += 2.0 * l2_inner(g, f)
        return total

    return list(_kahan_prefix(_by_window(f, spec, n, step)))


def variance_covariance(f: TrigPoly, spec: SequenceSpec, n: int) -> float:
    """Exact Var(S_n) as n*||f||^2 + 2 sum_{j<k} cov(j, k)."""
    return variance_covariance_curve(f, spec, n)[-1]


def variance_martingale_curve(
    f: TrigPoly,
    spec: SequenceSpec,
    n: int,
    profile: list[AngleRecord] | None = None,
) -> list[float]:
    """Var(S_k) for k = 1..n from the martingale decomposition.

    Var(S_k) = sum_{i<k} (||u_i||^2 - ||P_{a_{i+1}} u_i||^2) + ||u_k||^2;
    the composition operators are L2 isometries, so every statistic of the
    approximating martingale is a statistic of u_i.
    """
    if profile is None:
        profile = angle_profile(f, spec, n)
    if len(profile) < n:
        raise ValueError("profile too short for requested horizon")
    defects = itertools.chain((0.0,), _kahan_prefix(r.u_norm_sq - r.proj_norm_sq for r in profile))
    return [d + r.u_norm_sq for r, d in zip(itertools.islice(profile, n), defects)]


def variance_martingale(f: TrigPoly, spec: SequenceSpec, n: int) -> float:
    return variance_martingale_curve(f, spec, n)[-1]


def variance_report(f: TrigPoly, spec: SequenceSpec, n: int) -> VarianceReport:
    """The transversality profile, both variance curves and the running sum
    of min-pair sines (accumulated transversality) for k = 1..n."""
    profile = angle_profile(f, spec, n)
    pairs = (min(a.sin_sq, b.sin_sq) for a, b in itertools.pairwise(profile))
    return VarianceReport(
        tuple(profile),
        tuple(variance_covariance_curve(f, spec, n)),
        tuple(variance_martingale_curve(f, spec, n, profile)),
        tuple(itertools.accumulate(pairs)),
    )


def verify_decay(f: TrigPoly, maps: list[int]) -> DecayReport:
    """Certified norms of iterated transfer images of f along a word of maps.

    The j-th image must satisfy ||image|| <= 2 * 2^-j * ||f||; the left side
    uses the certified upper bound and the right side the plain grid
    estimate of ||f||, so a reported pass is conservative.
    """
    if f.is_zero:
        raise ValueError("decay verification needs a nonzero observable")
    ref = c1_norm(f)
    g = f
    norms = []
    bounds = []
    ratios = []
    for j, b in enumerate(maps, start=1):
        g = transfer(b, g)
        nrm = c1_norm(g)
        bound = 2.0 * 2.0**-j * ref.grid_estimate
        norms.append(nrm)
        bounds.append(bound)
        ratios.append(nrm.value / bound)
    passed = all(r <= 1.0 for r in ratios)
    return DecayReport(ref, tuple(norms), tuple(bounds), tuple(ratios), passed)


def neumann_sum(f: TrigPoly, b: int) -> TrigPoly:
    """sum_{i>=0} (T*_b)^i f, exact: terms vanish once b^i exceeds degree(f)."""
    terms = [f, *_backward_images(f, itertools.repeat(b))]
    return linear_combine([(1.0, t) for t in terms])


def block_shadowing_check(
    f: TrigPoly, spec: SequenceSpec, K: int, k: int
) -> float:
    """Distance of u_k, u_{k+1} from the constant-run Neumann limit.

    Requires a_{k-K} = ... = a_{k+2} = b; returns the larger certified C1
    norm of u_j - sum_i (T*_b)^i f over j in {k, k+1}.
    """
    if K < 1:
        raise ValueError("run length K must be >= 1")
    if k - K < 1:
        raise ValueError("run must start at index >= 1")
    b = spec.value_at(k)
    for j in range(k - K, k + 3):
        if spec.value_at(j) != b:
            raise ValueError(
                f"sequence is not constant on [{k - K}, {k + 2}]: a_{j} != {b}"
            )
    target = neumann_sum(f, b)
    return max(
        c1_norm(linear_combine([(1.0, u_at(f, spec, j)), (-1.0, target)])).value
        for j in (k, k + 1)
    )


def _circular_window(vals: np.ndarray, win: int, reducer) -> np.ndarray:
    """reducer (min/max) of vals over each circular window of length win."""
    out = vals
    p = 1
    while 2 * p <= win:
        out = reducer(out, np.roll(out, -p))
        p *= 2
    if p < win:
        out = reducer(out, np.roll(out, -(win - p)))
    return out


def example1_threshold(f: TrigPoly) -> ThresholdCert:
    """Search separated arcs for f and derive the multiplier threshold L.

    Scans arc starts on a 2^12-point grid and dyadic arc lengths 2^-1..2^-10,
    certifying the arc min/max with the Lipschitz grid correction, and keeps
    the certificate whose threshold L = 1 + floor(max(16||f||/delta, 2/eps))
    is smallest (ties broken toward larger delta).
    """
    if f.is_zero:
        raise ValueError("threshold search needs a nonconstant observable")
    size = _ARC_GRID
    while size < 2 * f.degree + 2:
        size *= 2
    vals = grid_values(f, size)[:: size // _ARC_GRID]
    lip = 4.0 * math.pi * math.fsum(n * abs(c) for n, c in f.coeffs)
    corr = lip / (2.0 * _ARC_GRID)
    fnorm = c1_norm(f).value
    best = None
    for e in _ARC_EPS_EXPONENTS:
        eps = 2.0**-e
        win = (_ARC_GRID >> e) + 1
        arc_min = _circular_window(vals, win, np.minimum)
        arc_max = _circular_window(vals, win, np.maximum)
        xi = int(np.argmax(arc_min))
        yi = int(np.argmin(arc_max))
        delta = (float(arc_min[xi]) - corr) - (float(arc_max[yi]) + corr)
        if delta <= 0.0:
            continue
        L = 1 + math.floor(max(16.0 * fnorm / delta, 2.0 / eps))
        key = (L, -delta, eps)
        if best is None or key < best[0]:
            best = (key, ThresholdCert(xi / _ARC_GRID, yi / _ARC_GRID, eps, delta, L))
    if best is None:
        raise ValueError("no separated arc pair found")
    return best[1]


def separation_bound_check(
    f: TrigPoly, spec: SequenceSpec, cert: ThresholdCert, k: int
) -> bool:
    """Check ||u_k||^2 sin^2(chi_k) >= delta^2 * eps / 64 above the threshold.

    Only meaningful (and only allowed) when min(a_k, a_{k+1}) > cert.L.
    """
    a_k = spec.value_at(k)
    a_next = spec.value_at(k + 1)
    if min(a_k, a_next) <= cert.L:
        raise ValueError(
            f"separation bound needs min(a_k, a_k+1) > L={cert.L}, got {min(a_k, a_next)}"
        )
    rec = _angle_record(u_at(f, spec, k), a_next)
    return rec.u_norm_sq - rec.proj_norm_sq >= cert.delta**2 * cert.eps / 64.0
