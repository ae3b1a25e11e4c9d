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
  the martingale-defect decomposition), which give the same rational, so
  the cross-check between them is an equality;
* certified geometric decay of iterated transfer operators, truncated
  Neumann sums, shadowing distances inside constant runs, and the
  large-multiplier separation machinery (threshold certificates).

Every coefficient is a double, so a dyadic rational, and the transfer
operators and projections only relabel coefficients.  So the variances and
the angle records' norms are integers at the scale 2^-2e, with e the dyadic
exponent of f alone: both routes sum them exactly and round each reported
value once.  The u_k themselves are float sums, deepest term first.

Everything here is pure; per-index work may be distributed at will as long
as reductions keep a fixed summation order.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from ._strict import InputError, check_horizon, check_multiplier, strict_int
from .sequences import SequenceSpec
from .trigpoly import (
    ZERO,
    C1Norm,
    TrigPoly,
    _dyadic_exponent,
    _dyadic_float,
    _dyadic_inner,
    _dyadic_sum,
    c1_norm,
    grid_values,
    linear_combine,
    slope_bound,
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
    "decay_certificate",
    "neumann_sum",
    "block_shadowing_check",
    "example1_threshold",
    "separation_bound_check",
]

# Resolution of the arc search grid for threshold certificates.
_ARC_GRID = 1 << 12
_ARC_EPS_EXPONENTS = range(1, 11)

# The letters of the words that decay_certificate checks: the maps x -> b x mod 1.
DECAY_LETTERS = range(2, 11)


@dataclass(frozen=True)
class AngleRecord:
    """Transversality data of one index k; a profile holds it at position k-1.

    cos_sq is ||P u_k||^2 / ||u_k||^2 with P the projection onto functions
    measurable for the (k+1)-th map's preimage algebra; when u_k = 0 the
    angle is undefined and we take cos_sq = 1 (zero transversality), the
    conservative convention.  exact holds 2^2e ||u_k||^2 and 2^2e ||P u_k||^2
    as integers, e the dyadic exponent of f; u_norm_sq, proj_norm_sq and
    cos_sq are each rounded once from them, and sin_sq is 1.0 - cos_sq.  A
    record depends only on (walk_k, a_{k+1}), so indices that share the pair
    share one record object.
    """

    u_norm_sq: float
    proj_norm_sq: float
    cos_sq: float
    sin_sq: float
    exact: tuple[int, int]


@dataclass(frozen=True)
class VarianceReport:
    """Per-step records and the three curves over k = 1..n.

    cov_curve and mart_curve are Var(S_k) by the two routes, each value
    rounded once from its exact rational; acc_curve is the running
    (left-to-right) float sum of min-pair sines for k = 1..n-1.
    variance_report builds the curves as array('d') columns, 8 bytes a
    value, which hold each double bit for bit; per_step holds references to
    shared records.
    """

    per_step: tuple[AngleRecord, ...]
    cov_curve: Sequence[float]
    mart_curve: Sequence[float]
    acc_curve: Sequence[float]

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
        """Do the two independent variance routes agree?  Both round the same
        rational once, so they agree only when they are equal."""
        return self.var_cov == self.var_mart


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


def _backward_images(f: TrigPoly, mults: Iterable[int]) -> Iterator[TrigPoly]:
    """T*_{b_i} ... T*_{b_1} f for i = 1, 2, ... along mults = b_1, b_2, ...

    Stops at the first zero image, which comes at the latest once the product
    b_1 ... b_i exceeds degree(f).  mults is read lazily, so it may be
    infinite or expensive to evaluate deep down.
    """
    g = f
    for b in mults:
        g = transfer(b, g)
        if g.is_zero:
            return
        yield g


def _walks(spec: SequenceSpec, degree: int, n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Segments (walk_k, a_{k+1}, count) covering k = 1..n in order, from spec.runs().

    walk_k = (a_k, ..., a_2) cut before the running product exceeds degree.
    u_k, the k-th covariance increment and (with a_{k+1}) the k-th angle
    record depend on f only through walk_k: deeper multipliers reach no
    stored frequency, and a walk that ends at index 2 uncut adds the same
    terms as one cut there, because u_0 = 0.  A segment is count
    consecutive indices with one walk and one a_{k+1}.  Inside a run of b
    the walk stops changing within depth + 1 steps, once prepending b and
    cutting gives it back; the rest of the run is then one segment.
    """
    n = check_horizon(n)
    walk: tuple[int, ...] = ()
    skip = True  # a_1 is in no walk: drop one index, not one run (a run may be empty)
    for a_next, length in spec.runs():
        if skip:
            skip, length = length == 0, length - 1
        while length > 0:
            nxt = (a_next, *walk)
            while nxt and math.prod(nxt) > degree:  # the running product only grows
                nxt = nxt[:-1]
            count = min(length, n) if nxt == walk else 1
            yield walk, a_next, count
            n -= count
            if n == 0:
                return
            walk, length = nxt, length - count


def _u_of_walk(f: TrigPoly, walk: Iterable[int]) -> TrigPoly:
    """u_k: f plus its backward images along walk = (a_k, ..., a_2).

    Only the part of the walk whose running product stays within degree(f)
    contributes; deeper terms are annihilated exactly.  Terms are summed
    deepest-first, which reproduces the float arithmetic of the recursion
    u_k = f + T*_{a_k} u_{k-1}, u_0 = 0, bit for bit.
    """
    terms = [f, *_backward_images(f, walk)]
    return linear_combine([(1.0, t) for t in reversed(terms)])


def _exact_u(f: TrigPoly, e: int, walk: Iterable[int]) -> dict:
    """u_k exactly, at the scale 2^-e: f plus its backward images along walk."""
    return _dyadic_sum([f, *_backward_images(f, walk)], e)


def _by_window(f: TrigPoly, spec: SequenceSpec, n: int, compute: Callable) -> Iterator:
    """Segments (compute(walk_k), a_{k+1}, count) covering k = 1..n in order:
    compute runs once per distinct walk_k, all that u_k and the k-th covariance
    step depend on, and every segment with that walk holds the same object."""
    memo: dict = {}
    for walk, a_next, count in _walks(spec, f.degree, n):
        value = memo.get(walk)
        if value is None:
            value = memo[walk] = compute(walk)
        yield value, a_next, count


def _per_index(segments: Iterable) -> Iterator:
    """The value of each segment, count times over: one entry per index."""
    return itertools.chain.from_iterable(itertools.repeat(v, count) for v, _, count in segments)


def _last(values: Iterable[float]) -> float:
    """The last of values, holding no other."""
    (last,) = collections.deque(values, maxlen=1)
    return last


def u_sequence(f: TrigPoly, spec: SequenceSpec, n: int) -> list[TrigPoly]:
    """u_1 ... u_n, each computed once per distinct window.

    The u_k are exact and degree(u_k) <= degree(f) for every k, since
    transfer operators never raise the degree.
    """
    return list(_per_index(_by_window(f, spec, n, lambda walk: _u_of_walk(f, walk))))


def u_at(f: TrigPoly, spec: SequenceSpec, k: int) -> TrigPoly:
    """u_k without scanning from the start: reads a_k, a_{k-1}, ... lazily."""
    k = strict_int(k, "sequence index", 1)
    return _u_of_walk(f, (spec.value_at(j) for j in range(k, 1, -1)))


def _angle_record(u: dict, e: int, a_next: int) -> AngleRecord:
    """The angle between u, held exactly at 2^-e, and the functions measurable
    for x -> a_next x.

    ||P u||^2 = <P u, u>, since P is an orthogonal projection, and it is at
    most ||u||^2 exactly, so cos_sq, one int division, is at most 1.
    """
    norm, proj = _dyadic_inner(u, u), _dyadic_inner(u, u, a_next)
    cos_sq = proj / norm if norm else 1.0
    return AngleRecord(_dyadic_float(norm, 2 * e), _dyadic_float(proj, 2 * e), cos_sq,
                       1.0 - cos_sq, (norm, proj))


def _angle_records(f: TrigPoly, spec: SequenceSpec, n: int) -> Iterator[AngleRecord]:
    """The records of angle_profile, one per index, as a stream."""
    e = _dyadic_exponent(f)

    def record(entry: tuple[dict, dict], a_next: int, count: int) -> Iterator[AngleRecord]:
        u, by_next = entry  # u_k of one walk, and its record for each a_{k+1} met so far
        if a_next not in by_next:
            by_next[a_next] = _angle_record(u, e, a_next)
        return itertools.repeat(by_next[a_next], count)

    segments = _by_window(f, spec, n, lambda walk: (_exact_u(f, e, walk), {}))
    return itertools.chain.from_iterable(itertools.starmap(record, segments))


def angle_profile(f: TrigPoly, spec: SequenceSpec, n: int) -> list[AngleRecord]:
    """Transversality records for k = 1..n (uses a_{k+1} for the projection).

    u_k is computed once per distinct walk_k, and a record once per distinct
    pair (walk_k, a_{k+1}): every index with that pair holds the same object.
    """
    return list(_angle_records(f, spec, n))


def _acc_prefix(profile: Iterable[AngleRecord]) -> Iterator[float]:
    """sum_{k=1}^{N} min(sin^2 chi_k, sin^2 chi_{k+1}) for N = 1, 2, ...,
    each the float sum of its terms from left to right."""
    return itertools.accumulate(min(a.sin_sq, b.sin_sq) for a, b in itertools.pairwise(profile))


def accumulated_transversality(profile: list[AngleRecord], N: int) -> float:
    """sum_{k=1}^{N} min(sin^2 chi_k, sin^2 chi_{k+1}); needs records 1..N+1.

    The sum is variance_report's acc_curve[N - 1] bit for bit.
    """
    N = strict_int(N, "N", 0)
    if len(profile) < N + 1 and N > 0:
        raise InputError(f"profile of length {len(profile)} too short for N={N}")
    return _last(itertools.chain((0.0,), _acc_prefix(itertools.islice(profile, N + 1))))


def _covariance_prefix(f: TrigPoly, spec: SequenceSpec, n: int) -> Iterator[float]:
    """Var(S_k) for k = 1..n from pair covariances, as a stream: each the
    exact sum of its steps at 2^-2e, rounded once."""
    e = _dyadic_exponent(f)
    f_exact = _dyadic_sum([f], e)
    norm_sq = _dyadic_inner(f_exact, f_exact)

    def step(walk: tuple[int, ...]) -> int:
        return norm_sq + 2 * sum(_dyadic_inner(_dyadic_sum([g], e), f_exact)
                                 for g in _backward_images(f, walk))

    steps = _per_index(_by_window(f, spec, n, step))
    return map(_dyadic_float, itertools.accumulate(steps), itertools.repeat(2 * e))


def variance_covariance_curve(f: TrigPoly, spec: SequenceSpec, n: int) -> list[float]:
    """Var(S_k) for k = 1..n from pair covariances.

    cov(j, k) = <T*_{[j+1..k]} f, f> depends only on the product of the
    multipliers between the two indices and vanishes exactly once that
    product exceeds degree(f), so each new index contributes only a short
    backward walk, computed once per distinct window.
    """
    return list(_covariance_prefix(f, spec, n))


def variance_covariance(f: TrigPoly, spec: SequenceSpec, n: int) -> float:
    """Exact Var(S_n) as n*||f||^2 + 2 sum_{j<k} cov(j, k): the last value of
    the covariance curve's stream, without the curve."""
    return _last(_covariance_prefix(f, spec, n))


def _martingale_prefix(records: Iterable[AngleRecord], e: int) -> Iterator[float]:
    """Var(S_k) for k = 1, 2, ... from records 1, 2, ...: the running defect
    sum over i < k plus ||u_k||^2, exact at 2^-2e and rounded once.  records
    is iterated once: the defect sum reads each record one step after the
    curve does, so tee holds one."""
    records, ahead = itertools.tee(records)
    defects = itertools.chain((0,), itertools.accumulate(r.exact[0] - r.exact[1] for r in ahead))
    return (_dyadic_float(d + r.exact[0], 2 * e) for r, d in zip(records, defects))


def variance_martingale_curve(
    f: TrigPoly,
    spec: SequenceSpec,
    n: int,
    profile: Sequence[AngleRecord] | None = None,
) -> list[float]:
    """Var(S_k) for k = 1..n from the martingale decomposition.

    Var(S_k) = sum_{i<k} (||u_i||^2 - ||P_{a_{i+1}} u_i||^2) + ||u_k||^2;
    the composition operators are L2 isometries, so every statistic of the
    approximating martingale is a statistic of u_i.
    """
    n = check_horizon(n)
    if profile is None:
        profile = angle_profile(f, spec, n)
    if len(profile) < n:
        raise InputError("profile too short for requested horizon")
    return list(_martingale_prefix(itertools.islice(profile, n), _dyadic_exponent(f)))


def variance_martingale(f: TrigPoly, spec: SequenceSpec, n: int) -> float:
    """Var(S_n) from the martingale decomposition: the last value of the
    martingale curve's stream, without the curve or the profile."""
    return _last(_martingale_prefix(_angle_records(f, spec, n), _dyadic_exponent(f)))


def variance_report(f: TrigPoly, spec: SequenceSpec, n: int) -> VarianceReport:
    """The transversality profile, both variance curves and the running sum
    of min-pair sines (accumulated transversality) for k = 1..n.

    Each curve comes from its module-level function, so that a caller may
    replace one, and becomes its column at once: no two n-long lists are
    alive together.
    """
    # a shared library on common builds: simulate, which builds no report, never loads it
    from array import array

    profile = tuple(angle_profile(f, spec, n))
    cov = array("d", variance_covariance_curve(f, spec, n))
    mart = array("d", variance_martingale_curve(f, spec, n, profile))
    return VarianceReport(profile, cov, mart, array("d", _acc_prefix(profile)))


def verify_decay(f: TrigPoly, maps: list[int]) -> DecayReport:
    """Certified norms of the transfer images of f along a word of maps.

    The j-th image T*_{b_j} ... T*_{b_1} f must satisfy
    ||image|| <= 2 * 2^-j * ||f||; the left side uses the certified upper
    bound and the right side the plain grid estimate of ||f||, so a reported
    pass is conservative.  The images are those of _backward_images, which
    ends at the first zero image; every later image is exactly zero, with
    norm C1Norm(0.0, 0.0).  So the letters past that end are not walked, but
    each of them is still checked.  A zero image has ratio 0.0, also where
    the bound has underflowed to 0.0.
    """
    if f.is_zero:
        raise InputError("decay verification needs a nonzero observable")
    maps = [check_multiplier(b) for b in maps]
    ref = c1_norm(f)
    norms = tuple(map(c1_norm, _backward_images(f, maps)))
    norms += (C1Norm(0.0, 0.0),) * (len(maps) - len(norms))
    bounds = tuple(2.0 * 2.0**-j * ref.grid_estimate for j in range(1, len(norms) + 1))
    ratios = tuple(nrm.value / bound if nrm.value else 0.0 for nrm, bound in zip(norms, bounds))
    return DecayReport(ref, norms, bounds, ratios, all(r <= 1.0 for r in ratios))


def decay_certificate(f: TrigPoly, k: int) -> tuple[float, tuple[int, ...]]:
    """The worst verify_decay ratio over every word of at most k letters in
    DECAY_LETTERS, and a word whose last ratio it is.

    The image after b_1, ..., b_j keeps the coefficients of f at multiples
    of B = b_1 ... b_j: it is T*_B f, which depends on the product alone
    and vanishes once B > degree(f).  So the max runs over the pairs (j, B)
    with B <= degree(f), found level by level with one word kept per
    product, and one certified norm is taken per distinct B.  The bound
    2 * 2^-j * ||f|| only falls as j grows, so B's worst ratio is at its
    deepest word.  Each ratio is verify_decay's bit for bit, and no word
    reaches past degree(f).bit_length() letters, whatever k is.
    """
    k = strict_int(k, "k", 1)
    if f.is_zero:
        raise InputError("decay certificate needs a nonzero observable")
    ref = c1_norm(f)
    words: dict[int, tuple[int, ...]] = {1: ()}  # B -> one word of j letters with product B
    deepest: dict[int, tuple[int, ...]] = {}  # B -> its word of the most letters
    for _ in range(min(k, f.degree.bit_length())):  # a product of j letters is >= 2^j
        words = {B * b: word + (b,) for B, word in words.items() for b in DECAY_LETTERS
                 if B * b <= f.degree}
        deepest.update(words)
    ratios = (  # T*_B f is the one-letter walk along B; 2^j <= B keeps the bound above 0.0
        (c1_norm(next(_backward_images(f, (B,)), ZERO)).value
         / (2.0 * 2.0**-len(word) * ref.grid_estimate), word)
        for B, word in deepest.items())
    # with no B <= degree(f), the ratio of every word is 0.0, as is this one's
    return max(ratios, key=lambda pair: pair[0], default=(0.0, (DECAY_LETTERS[0],)))


def neumann_sum(f: TrigPoly, b: int) -> TrigPoly:
    """sum_{i>=0} (T*_b)^i f, exact: terms vanish once b^i exceeds degree(f).
    It is u_k along the walk (b, b, ...), summed deepest-first as u_k is."""
    return _u_of_walk(f, itertools.repeat(b))


def block_shadowing_check(f: TrigPoly, spec: SequenceSpec, K: int, k: int) -> float:
    """Distance of u_k, u_{k+1} from the constant-run Neumann limit.

    Requires a_{k-K} = ... = a_{k+2} = b; returns the larger certified C1
    norm of u_j - sum_i (T*_b)^i f over j in {k, k+1}.
    """
    K = strict_int(K, "run length K", 1)
    k = strict_int(k, "index k", K + 1)  # the run starts at k - K >= 1
    b = spec.value_at(k)
    for j in range(k - K, k + 3):
        if spec.value_at(j) != b:
            raise InputError(f"sequence is not constant on [{k - K}, {k + 2}]: a_{j} != {b}")
    target = neumann_sum(f, b)
    return max(
        c1_norm(linear_combine([(1.0, u_at(f, spec, j)), (-1.0, target)])).value
        for j in (k, k + 1)
    )


def _circular_extremes(vals: np.ndarray, win: int) -> tuple[np.ndarray, np.ndarray]:
    """min and max of vals over each circular window of length win."""
    import numpy as np  # here, not at import time: only this search and c1_norm use it
    lo = hi = vals
    p = 1
    while 2 * p <= win:
        lo, hi = np.minimum(lo, np.roll(lo, -p)), np.maximum(hi, np.roll(hi, -p))
        p *= 2
    if p < win:
        lo, hi = np.minimum(lo, np.roll(lo, p - win)), np.maximum(hi, np.roll(hi, p - win))
    return lo, hi


def example1_threshold(f: TrigPoly) -> ThresholdCert:
    """Search separated arcs for f and derive the multiplier threshold L.

    Scans arc starts on a 2^12-point grid and dyadic arc lengths 2^-1..2^-10,
    certifying the arc min/max with the Lipschitz grid correction, and keeps
    the certificate whose threshold L = 1 + floor(max(16||f||/delta, 2/eps))
    is smallest (ties broken toward larger delta).
    """
    if f.is_zero:
        raise InputError("threshold search needs a nonconstant observable")
    size = _ARC_GRID
    while size < 2 * f.degree + 2:
        size *= 2
    vals = grid_values(f, size)[:: size // _ARC_GRID]
    corr = slope_bound(f) / (2.0 * _ARC_GRID)
    fnorm = c1_norm(f).value
    best = None
    for e in _ARC_EPS_EXPONENTS:
        eps = 2.0**-e
        win = (_ARC_GRID >> e) + 1
        arc_min, arc_max = _circular_extremes(vals, win)
        xi, yi = int(arc_min.argmax()), int(arc_max.argmin())
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


def separation_bound_check(f: TrigPoly, spec: SequenceSpec, cert: ThresholdCert, k: int) -> bool:
    """Check ||u_k||^2 sin^2(chi_k) >= delta^2 * eps / 64 above the threshold.

    Only meaningful (and only allowed) when min(a_k, a_{k+1}) > cert.L.
    """
    u = u_at(f, spec, k)  # which reads k
    a_k, a_next = spec.value_at(k), spec.value_at(k + 1)
    if min(a_k, a_next) <= cert.L:
        raise InputError(
            f"separation bound needs min(a_k, a_k+1) > L={cert.L}, got {min(a_k, a_next)}"
        )
    e = _dyadic_exponent(u)
    rec = _angle_record(_dyadic_sum([u], e), e, a_next)
    return rec.u_norm_sq - rec.proj_norm_sq >= cert.delta**2 * cert.eps / 64.0
