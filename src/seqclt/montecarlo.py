"""Exact-orbit Monte Carlo for Birkhoff sums and normality checks.

Multiply-by-a maps lose one to two mantissa bits per step, so floating-point
orbit iteration is meaningless after a few dozen steps.  Initial points are
therefore dyadic rationals num / 2^B with B = ceil(log2(a_1*...*a_n)) + guard
bits, read exactly off the integer product of the multipliers: the map
x -> a*x mod 1 acts exactly on the numerator as num -> (a*num) mod 2^B, and
after n steps the top 53 bits of the point are still untouched by the
initial truncation.  The observable is evaluated at that 53-bit truncation
and accumulated with compensated summation, leaving S_n exact to evaluation
precision.

Sampling is counter-based: each sample's initial numerator is drawn from a
Philox stream keyed by (seed, sample index), so results are reproducible
and independent of how samples are distributed over workers.  Aggregation
(moment sums, sorting for the Kolmogorov-Smirnov distance, histogramming)
is deterministic by construction.

One orbit kernel, `_orbit_sums`, computes every S_n, a tile of at most
_TILE_SAMPLES orbits at a time:

1. the Philox4x64-10 words of the whole tile come from `_philox_words` in
   uint64 numpy, equal word for word to numpy.random.Philox, which is never
   imported on this path;
2. each orbit steps exactly in Python integers, but only at events: a
   step by a power of two only shifts the numerator, so it folds into the
   next event's multiplier.  `_plan` lays out once per run where each
   step finds its top 53 bits: in the 63-bit window that each event writes
   into an int64 array, if the run's shifts since the event fit its 10
   spare bits, or else in an export of the last exact numerator as big-endian
   uint64 words, taken once when the run starts and kept across blocks.
   For each block of _TILE_STEPS steps, numpy gathers every step's window
   row and shifts out its top 53 bits, or joins its two export words;
3. numpy scales those by 2^-53, adds amp*cos(w*x + ph) to 0.0 term by
   term in coefficient order, then runs the Kahan update across samples,
   one step at a time.

Each sample thus sees the operations of the scalar loop in its order, and
numpy's cos equals math.cos on these arguments (a tier-1 test guards this),
so every S_n is bit-identical to a pure-Python loop.  The tile holds four
_TILE_STEPS x _TILE_SAMPLES arrays (2 MB), whatever n and m are, and the
widest export.  A run of powers of two costs no bigint step, whatever its
length, and the float work is most of the kernel's cost on doubling words;
odd multipliers still pay one bigint step each, which is then most of it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis
from .sequences import SequenceSpec
from .trigpoly import TrigPoly

__all__ = [
    "DyadicPoint",
    "MCReport",
    "required_bits",
    "orbit_birkhoff",
    "birkhoff_samples",
    "report_from_samples",
    "sample_birkhoff",
    "ks_statistic",
    "normal_cdf",
    "counter_generator",
    "draw_numerator",
    "mcreport_to_obj",
]

HISTOGRAM_BINS = 41
HISTOGRAM_RANGE = 5.0
_U64 = 0xFFFFFFFFFFFFFFFF
_LO32 = 0xFFFFFFFF
# Philox4x64 round multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# One orbit tile: _TILE_STEPS x _TILE_SAMPLES floats, whatever n and m are
_TILE_SAMPLES = 256
_TILE_STEPS = 256


@dataclass(frozen=True)
class DyadicPoint:
    """x = numerator / 2^bits in [0, 1), exactly representable."""

    bits: int
    numerator: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not 0 <= self.numerator < (1 << self.bits):
            raise ValueError("numerator out of range for bit width")

    def as_float(self) -> float:
        """Double nearest the top 53 bits (exact when bits <= 53)."""
        if self.bits <= 53:
            return self.numerator / (1 << self.bits)
        return (self.numerator >> (self.bits - 53)) * 2.0**-53


@dataclass(frozen=True)
class MCReport:
    n: int
    m: int
    seed: int
    mean: float
    var_hat: float
    ks: float
    histogram: tuple[int, ...]
    standardization: str


def required_bits(spec: SequenceSpec, n: int, guard: int = 64) -> int:
    """Numerator width that keeps the top 53 orbit bits exact for n steps:
    ceil(log2(a_1*...*a_n)) + guard, read off the exact product P as the
    bit length of P - 1 (so a power of two 2^w gives w, not w + 1).
    """
    return _log2_ceil(_multipliers(spec, n)) + guard


def _multipliers(spec: SequenceSpec, n: int) -> list[int]:
    if n < 1:
        raise ValueError("horizon n must be >= 1")
    return list(itertools.islice(spec.iter_values(), n))


def _log2_ceil(mults: list[int]) -> int:
    """ceil(log2(a_1*...*a_n)), exactly, from a balanced product tree: its
    products pair factors of equal size, where math.prod's left-to-right
    sweep is quadratic in n."""
    while len(mults) > 1:
        pairs = [a * b for a, b in zip(mults[::2], mults[1::2])]
        mults = pairs + mults[len(pairs) * 2 :]
    return (mults[0] - 1).bit_length()


def counter_generator(seed: int, index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, index); order-independent streams."""
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the low and high words of m * x, from 32-bit halves (no carry is lost)
    m_lo, m_hi = np.uint64(m & _LO32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> 32
    p01, p10 = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> 32) + (p01 & _LO32) + (p10 & _LO32)
    return np.uint64(m) * x, m_hi * x_hi + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _philox_words(seed: int, indices: np.ndarray, nwords: int) -> np.ndarray:
    """(len(indices), nwords) uint64: row i equals
    np.random.Philox(key=[seed, indices[i]]).random_raw(nwords).

    Philox4x64-10 over the counters 1, 2, ... of each key (numpy increments
    the counter before it generates), vectorised over keys and blocks.
    """
    nblocks = -(-nwords // 4)
    shape = (len(indices), nblocks)
    c0 = np.broadcast_to(np.arange(1, nblocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed & _U64, indices.astype(np.uint64).reshape(-1, 1)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W0) & _U64
            k1 = k1 + np.uint64(_PHILOX_W1)
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(shape[0], 4 * nblocks)[:, :nwords]


def _draw_numerators(seed: int, indices: np.ndarray, bits: int) -> list[int]:
    """Uniform bits-wide integers, one per index: the top bits of its stream."""
    nwords = (bits + 63) // 64
    drop = 64 * nwords - bits
    raw = _philox_words(seed, indices, nwords).astype(">u8").tobytes()
    size = 8 * nwords
    return [
        int.from_bytes(raw[i : i + size], "big") >> drop for i in range(0, len(raw), size)
    ]


def draw_numerator(seed: int, index: int, bits: int) -> int:
    """Uniform bits-wide integer from the (seed, index) counter stream.

    The one-index case of the tile draw in `birkhoff_samples`: one index
    costs about 0.5 ms, a tile of 256 about 1.3 ms.
    """
    return _draw_numerators(seed, np.array([index & _U64], dtype=np.uint64), bits)[0]


def _coef_table(f: TrigPoly) -> tuple[tuple[float, float, float], ...]:
    # 2*Re(c e^{i t}) = 2|c| cos(t + arg c)
    return tuple(
        (2.0 * abs(c), 2.0 * math.pi * n, math.atan2(c.imag, c.real))
        for n, c in f.coeffs
    )


@dataclass(frozen=True)
class _Block:
    """The plan of one block of at most _TILE_STEPS steps (see `_plan`).

    Each orbit works through parts in order: for each, it takes the export
    (drop, words) if there is one, then steps by the event multipliers.
    windows are the step ranges [i0, i1) that read an event window, with
    per step its row and right shift.  heads are the step ranges that read
    their head, the top 53 bits, from an export: whether the range reads
    the block's next export (fresh) or the one carried in from an earlier
    block, then per step the hi and lo word rows and the left and right
    shifts.
    """

    steps: int
    parts: tuple[tuple[tuple[int, int] | None, tuple[int, ...]], ...]
    windows: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    heads: tuple[tuple[bool, int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class _Plan:
    """Where every step of a run reads its top 53 bits; shared by its tiles."""

    bits: int
    blocks: tuple[_Block, ...]


def _plan(mults: list[int], bits: int) -> _Plan:
    """Plan the orbit of bits-wide numerators under mults, once per run.

    A step by 2^t only shifts the numerator left, so only the other steps
    are events, exact bigint steps whose multiplier is the product of the
    steps since the previous event (`a << dz`).  After an event, or at the
    start, comes a run of power-of-two steps; at shift dz into it, the
    state's top 53 bits sit dz bits into the last exact state s.  If the
    run's total shift D fits the spare = width - 53 low bits of the width =
    min(63, bits) bit event window, each of its steps reads the window row
    of s (0: the state the block starts from, e: after the block's e-th
    event) shifted right by spare - dz, as every event does at dz = 0.
    Otherwise the whole run reads one export of s, taken when the run
    starts and kept across block edges: the top keep = min(bits, D + 53)
    bits of s, dropping bits - keep, as words = ceil(keep / 64) big-endian
    uint64 words behind pad = 64 * words - keep zero bits, then a zero
    word.  The step at shift dz reads the 64 bits at offset o = pad + dz
    from words hi = o // 64 and lo = hi + 1 as (hi << r) | (lo >> (64 - r)),
    r = o % 64.  At r = 0, lo is the zero word shifted by 0, so no shift
    reaches 64; rows past the export read the zero word, as do the bits a
    too narrow numerator shifts in from below.
    """
    width = min(63, bits)
    spare = width - 53
    run_of, dzs, starts, totals = [], [], [0], [0]  # run 0 follows the start
    scaled = {}  # step -> event multiplier
    for i, a in enumerate(mults):
        t = a.bit_length() - 1
        if a == 1 << t:
            totals[-1] += t
            run_of.append(len(totals) - 1)
            dzs.append(totals[-1])
        else:
            scaled[i] = a << totals[-1]
            run_of.append(-1)
            dzs.append(0)
            starts.append(i + 1)
            totals.append(0)
    # per step: the run whose export it reads, or -1 if it reads a window
    source = [-1 if r < 0 or totals[r] <= spare else r for r in run_of]
    blocks = []
    for lo in range(0, len(mults), _TILE_STEPS):
        steps = range(lo, min(lo + _TILE_STEPS, len(mults)))
        rows = list(itertools.accumulate(run_of[i] < 0 for i in steps))
        events = [scaled[i] for i in steps if run_of[i] < 0]
        # parts: the events before the block's first export, then each export
        # with the events after it, cut at the event counts in cuts
        cuts, exports, windows, heads = [0], [None], [], []
        for run, group in itertools.groupby(steps, source.__getitem__):
            span = list(group)
            i0, i1 = span[0] - lo, span[-1] + 1 - lo
            if run < 0:
                shifts = np.array([spare - dzs[i] for i in span], dtype=np.int64)
                windows.append((i0, i1, np.array(rows[i0:i1], dtype=np.intp), shifts[:, None]))
                continue
            keep = min(bits, totals[run] + 53)
            words = -(-keep // 64)
            fresh = starts[run] >= lo
            if fresh:
                cuts.append(rows[i0])
                exports.append((bits - keep, words))
            offsets = [64 * words - keep + dzs[i] for i in span]
            hi = np.array([min(o >> 6, words) for o in offsets], dtype=np.intp)
            low = [min((o >> 6) + 1, words) if o & 63 else words for o in offsets]
            left = np.array([o & 63 for o in offsets], dtype=np.uint64)[:, None]
            heads.append((fresh, i0, i1, hi, np.array(low, dtype=np.intp), left, (64 - left) & 63))
        cuts.append(len(events))
        parts = tuple((x, tuple(events[a:b])) for x, a, b in zip(exports, cuts, cuts[1:]))
        blocks.append(_Block(len(steps), parts, tuple(windows), tuple(heads)))
    return _Plan(bits, tuple(blocks))


def _orbit_sums(coef, plan: _Plan, nums: list[int]) -> list[float]:
    """S_n from each initial numerator in nums (at most _TILE_SAMPLES).

    For each block of the plan, every orbit steps exactly in Python
    integers over the block's events only, writes the top width =
    min(63, bits) bits of the state after each into its column of `win`
    (row 0 holds the last exact state before the block) and, where a long
    power-of-two run follows, the top bits of the state into a list of
    big-endian bytes.  numpy reads each step's top 53 bits: from a window
    row shifted right by spare - dz and masked, or from two words of the
    current export `words` (a (words + 1) x samples uint64 array) shifted
    and or-ed, as `_plan` lays out.  For a state s of bits bits, both are
    the top 53 bits of s * 2^dz mod 2^bits, the state dz shifted bits
    after s.  numpy then evaluates f on the whole block, step-major, and
    runs one Kahan update per step across the samples: per sample, the
    operations of the scalar loop in its order, so every sum is
    bit-identical to it.
    """
    bits = plan.bits
    mask = (1 << bits) - 1
    shift = bits - min(63, bits)
    count = len(nums)
    nums = list(nums)
    win = np.empty((_TILE_STEPS + 1, count), dtype=np.int64)
    win[0] = [num >> shift for num in nums]
    x, term, value = np.empty((3, _TILE_STEPS, count))
    tops = term.view(np.int64)  # the gathers reuse term's and x's memory
    heads, lows = term.view(np.uint64), x.view(np.uint64)
    total, comp, y, t = np.zeros((4, count))
    with np.errstate(all="ignore"):  # overflow and nan pass silently, as in Python floats
        for block in plan.blocks:
            end = sum(len(chunk) for _, chunk in block.parts)
            snaps = [[] for _ in block.parts]
            if end or len(snaps) > 1:
                for j in range(count):
                    num, row = nums[j], 1
                    for (export, chunk), snap in zip(block.parts, snaps):
                        if export:
                            snap.append((num >> export[0]).to_bytes(8 * export[1], "big"))
                        if chunk:
                            win[row : row + len(chunk), j] = [
                                (num := (a * num) & mask) >> shift for a in chunk
                            ]
                            row += len(chunk)
                    nums[j] = num
            exported = ((e, snap) for (e, _), snap in zip(block.parts, snaps) if e)
            for fresh, i0, i1, hi, lo, left, right in block.heads:
                if fresh:  # the block's next export replaces the last one
                    (_, size), snap = next(exported)
                    raw = np.frombuffer(b"".join(snap), dtype=">u8").reshape(count, size)
                    words = np.zeros((size + 1, count), dtype=np.uint64)
                    words[:size] = raw.T
                head, low = heads[i0:i1], lows[i0:i1]
                np.take(words, hi, axis=0, out=head, mode="clip")  # "raise" would buffer out
                np.take(words, lo, axis=0, out=low, mode="clip")
                head <<= left
                low >>= right
                head |= low
                head >>= 11
            for i0, i1, rows, shifts in block.windows:
                top = tops[i0:i1]
                np.take(win, rows, axis=0, out=top, mode="clip")
                np.right_shift(top, shifts, out=top)
                top &= (1 << 53) - 1
            win[0] = win[end]
            xs, v, fx = x[: block.steps], term[: block.steps], value[: block.steps]
            np.multiply(tops[: block.steps], 2.0**-53, out=xs)
            fx.fill(0.0)
            for amp, w, ph in coef:
                np.multiply(xs, w, out=v)
                v += ph
                np.cos(v, out=v)
                v *= amp
                fx += v
            for vk in fx:
                np.subtract(vk, comp, out=y)
                np.add(total, y, out=t)
                np.subtract(t, total, out=comp)
                comp -= y
                total, t = t, total
    return total.tolist()


def orbit_birkhoff(f: TrigPoly, spec: SequenceSpec, n: int, x0: DyadicPoint) -> float:
    """S_n(x0) = sum_{k=1}^n f(a_k ... a_1 x0 mod 1), first summand f(a_1 x0).

    The numerator is iterated exactly; x0 must carry enough bits that the
    truncation of the initial point cannot reach the evaluated 53 bits.
    """
    mults = _multipliers(spec, n)
    need = _log2_ceil(mults) + 53
    if x0.bits < need:
        raise ValueError(f"x0 has {x0.bits} bits, needs >= {need} for n={n}")
    return _orbit_sums(_coef_table(f), _plan(mults, x0.bits), [x0.numerator])[0]


def _sum_range(args) -> list[float]:
    coef, plan, seed, lo, hi = args
    out: list[float] = []
    for start in range(lo, hi, _TILE_SAMPLES):
        indices = np.arange(start, min(start + _TILE_SAMPLES, hi), dtype=np.uint64)
        out.extend(_orbit_sums(coef, plan, _draw_numerators(seed, indices, plan.bits)))
    return out


def birkhoff_samples(
    f: TrigPoly,
    spec: SequenceSpec,
    n: int,
    m: int,
    seed: int,
    threads: int = 1,
) -> list[float]:
    """m values of S_n at counter-seeded uniform dyadic initial points.

    The result is a pure function of (f, spec, n, m, seed): worker count
    only affects wall time, never bytes.  At most min(threads, cpu count, m)
    worker processes start; with one, the samples are drawn in this process.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    mults = _multipliers(spec, n)
    plan = _plan(mults, _log2_ceil(mults) + 64)
    coef = _coef_table(f)
    workers = min(threads, os.cpu_count() or 1, m)
    if workers <= 1:
        return _sum_range((coef, plan, seed, 0, m))
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-m // (4 * workers))
    tasks = [
        (coef, plan, seed, lo, min(lo + chunk, m)) for lo in range(0, m, chunk)
    ]
    out: list[float] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_sum_range, tasks):
            out.extend(part)
    return out


def report_from_samples(
    sums: list[float],
    f: TrigPoly,
    spec: SequenceSpec,
    n: int,
    seed: int,
    standardization: str = "empirical",
) -> MCReport:
    """Summarise Birkhoff sums: moments, KS distance, histogram.

    "empirical" standardises by the sample mean and variance (what a
    practitioner sees); "exact" divides the raw sums by sqrt(Var(S_n)) from
    the analysis module, the scaling a central limit statement prescribes.
    """
    m = len(sums)
    if m < 2:
        raise ValueError("need at least 2 samples")
    if standardization not in ("empirical", "exact"):
        raise ValueError(f"unknown standardization {standardization!r}")
    mean = math.fsum(sums) / m
    try:
        var_hat = math.fsum((s - mean) ** 2 for s in sums) / (m - 1)
    except OverflowError:  # a squared deviation, or their sum, beyond float range
        var_hat = math.inf
    if standardization == "exact":
        sd = math.sqrt(analysis.variance_covariance(f, spec, n))
        z = [s / sd for s in sums]
    else:
        sd = math.sqrt(var_hat)
        z = [(s - mean) / sd for s in sums] if sd > 0.0 else [0.0] * m
    return MCReport(
        n=n,
        m=m,
        seed=seed,
        mean=mean,
        var_hat=var_hat,
        ks=ks_statistic(z),
        histogram=_histogram(z),
        standardization=standardization,
    )


def sample_birkhoff(
    f: TrigPoly,
    spec: SequenceSpec,
    n: int,
    m: int,
    seed: int,
    standardization: str = "empirical",
    threads: int = 1,
) -> MCReport:
    """Draw m exact orbits, return the statistical summary."""
    if m < 2:
        raise ValueError("sample count must be >= 2")
    sums = birkhoff_samples(f, spec, n, m, seed, threads)
    return report_from_samples(sums, f, spec, n, seed, standardization)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_statistic(standardized: list[float]) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance to the standard normal."""
    if not standardized:
        raise ValueError("KS statistic needs at least one sample")
    xs = sorted(standardized)
    m = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        phi = normal_cdf(x)
        lo = phi - i / m
        hi = (i + 1) / m - phi
        if lo > d:
            d = lo
        if hi > d:
            d = hi
    return d


def _histogram(z: list[float]) -> tuple[int, ...]:
    bins = [0] * HISTOGRAM_BINS
    w = HISTOGRAM_BINS / (2.0 * HISTOGRAM_RANGE)
    for v in z:
        if -HISTOGRAM_RANGE <= v <= HISTOGRAM_RANGE:
            idx = int((v + HISTOGRAM_RANGE) * w)
            bins[idx if idx < HISTOGRAM_BINS else HISTOGRAM_BINS - 1] += 1
    return tuple(bins)


def mcreport_to_obj(report: MCReport) -> dict:
    """JSON-ready form with fixed field order."""
    return {
        "n": report.n,
        "m": report.m,
        "seed": report.seed,
        "mean": report.mean,
        "var_hat": report.var_hat,
        "ks": report.ks,
        "histogram": list(report.histogram),
        "standardization": report.standardization,
    }
