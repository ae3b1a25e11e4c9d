"""Exact-orbit Monte Carlo for Birkhoff sums and normality checks.

Multiply-by-a maps lose one to two mantissa bits per step, so floating-point
orbit iteration is meaningless after a few dozen steps.  Initial points are
therefore dyadic rationals num / 2^B with B = ceil(log2(a_1*...*a_n)) + 64
guard bits (_GUARD_BITS), read exactly off the integer product: the map
x -> a*x mod 1 acts exactly on the numerator as num -> (a*num) mod 2^B, and
after n steps the top 53 bits of the point are still untouched by the
initial truncation.  The observable is evaluated at that 53-bit truncation
and accumulated with compensated summation, leaving S_n exact to evaluation
precision.

Sampling is counter-based: each sample's initial numerator is drawn from a
Philox stream keyed by (seed, sample index), so results are reproducible
and independent of how samples are distributed over workers; a seed or
index outside [0, 2^64) is rejected, since it would alias one inside.
Aggregation (moment sums, sorting for the Kolmogorov-Smirnov distance,
histogramming) is deterministic by construction.

One orbit kernel, `_orbit_sums`, computes every S_n, a tile of at most
_TILE_SAMPLES orbits at a time:

1. the Philox4x64-10 words of the whole tile come from `_philox_words` in
   uint64 numpy, equal word for word to numpy.random.Philox, which is never
   imported on this path;
2. each orbit steps exactly in Python integers, but only at events: a
   step by a power of two only shifts the numerator, so it folds into the
   next event's multiplier.  `_blocks` cuts the steps, once per run, into
   blocks that read only their own states.  Each exact state writes its
   top bits, left-aligned, into its block's frame of uint64 words, and
   numpy joins two frame words into the top 53 bits of every step;
3. numpy scales those by 2^-53, adds amp*cos(w*x + ph) to 0.0 term by
   term in coefficient order, then runs the Kahan update across samples,
   one step at a time.

Each sample thus sees the operations of the scalar loop in its order, and
numpy's cos equals math.cos on these arguments (a tier-1 test guards this),
so every S_n is bit-identical to a pure-Python loop.  The tile holds three
_TILE_STEPS x _TILE_SAMPLES arrays (1.5 MB), whatever n and m are, and one
block's frame.  A run of powers of two costs one bigint shift per block
it spans, and the float work is most of the kernel's cost on doubling words;
odd multipliers still pay one bigint step each, which is then most of it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis
from ._strict import check_u64
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
]

HISTOGRAM_BINS = 41
HISTOGRAM_RANGE = 5.0
_U64 = 0xFFFFFFFFFFFFFFFF
_LO32 = 0xFFFFFFFF
_GUARD_BITS = 64  # orbit bits below the 53 read at step n: they absorb the truncation
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


def required_bits(spec: SequenceSpec, n: int) -> int:
    """Numerator width that keeps the top 53 orbit bits exact for n steps:
    ceil(log2(a_1*...*a_n)) + _GUARD_BITS, read off the exact product P as
    the bit length of P - 1 (so a power of two 2^w gives w, not w + 1).
    """
    return _log2_ceil(_multipliers(spec, n)) + _GUARD_BITS


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
    key = np.array([check_u64(seed, "seed"), check_u64(index, "index")], dtype=np.uint64)
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
    k0, k1 = seed, indices.astype(np.uint64).reshape(-1, 1)
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
    index = np.array([check_u64(index, "index")], dtype=np.uint64)
    return _draw_numerators(check_u64(seed, "seed"), index, bits)[0]


def _coef_table(f: TrigPoly) -> tuple[tuple[float, float, float], ...]:
    # 2*Re(c e^{i t}) = 2|c| cos(t + arg c)
    return tuple(
        (2.0 * abs(c), 2.0 * math.pi * n, math.atan2(c.imag, c.real))
        for n, c in f.coeffs
    )


def _blocks(mults: list[int], bits: int) -> tuple:
    """Cut the orbit of bits-wide numerators under mults into blocks, once
    per run, each reading only its own exact states.

    A step by 2^t only shifts the numerator left, so only the other steps
    are events, exact bigint steps.  A block starts every _TILE_STEPS steps
    and at each event whose following power-of-two run shifts by more than
    64 - 53 = 11 bits.  A block is

        ((a0, t0), size, events, (hi, lo, left, right))

    Its first step makes one exact state s = ((a0 * num) << t0) & mask, a0
    the step's odd factor and t0 its power of two plus the shift of the
    previous block's steps after its last exact state.  The block's frame
    holds the top bits of its exact states as left-aligned uint64 words: s
    in size = ceil((D + 53) / 64) words, D the shift up to the first event,
    then one word per event, then a zero word.  A step at shift dz from the
    state in row r joins words hi = r + dz // 64 and lo = hi + 1, or the
    zero word at left = dz % 64 = 0, as (hi << left) | (lo >> right): no
    shift reaches 64.  After an event dz <= 11, or that event would have
    started a block.  An event's multiplier is the product of the steps
    since the last exact state (`a << dz`).
    """
    starts, run = [], 0  # run: the shift of the power-of-two run after step i
    for i in reversed(range(len(mults))):
        a = mults[i]
        if i % _TILE_STEPS == 0 or (a & (a - 1) and run > 11):
            starts.append(i)
        run = 0 if a & (a - 1) else run + a.bit_length() - 1
    starts.reverse()
    blocks, dz = [], 0
    for s, e in zip(starts, starts[1:] + [len(mults)]):
        t = (mults[s] & -mults[s]).bit_length() - 1
        first, dz = (mults[s] >> t, dz + t), 0
        events, reads = [], [(0, 0)]  # per step: the block's events so far, dz
        for a in mults[s + 1 : e]:
            if a & (a - 1):
                events.append(a << dz)
                dz = 0
            else:
                dz += a.bit_length() - 1
            reads.append((len(events), dz))
        size = (max(d for k, d in reads if not k) + 116) // 64  # ceil((D + 53) / 64)
        hi = [(size + k - 1 if k else 0) + d // 64 for k, d in reads]
        lo = [h + 1 if d % 64 else size + len(events) for h, (_, d) in zip(hi, reads)]
        left = np.array([d % 64 for _, d in reads], dtype=np.uint64)[:, None]
        reader = (np.array(hi, dtype=np.intp), np.array(lo, dtype=np.intp), left, (64 - left) & 63)
        blocks.append((first, size, tuple(events), reader))
    return tuple(blocks)


def _orbit_sums(coef, bits: int, blocks: tuple, nums: list[int]) -> list[float]:
    """S_n from each initial numerator in nums (at most _TILE_SAMPLES) of
    bits bits, block by block as `_blocks(mults, bits)` lays them out.

    Every orbit makes the block's first exact state, then steps over its
    events, writing each state's top bits into its column of the block's
    frame; numpy joins two frame words into each step's top 53 bits.
    Every _TILE_STEPS steps and at the end, it evaluates f on them,
    step-major, and runs one Kahan update per step across the samples: per
    sample, the operations of the scalar loop in its order, so every sum is
    bit-identical to it.
    """
    mask = (1 << bits) - 1
    shift = max(0, bits - 64)  # an event's word: its state's top 64 bits
    count, nums = len(nums), list(nums)
    x, term, value = np.empty((3, _TILE_STEPS, count))
    heads, lows = term.view(np.uint64), x.view(np.uint64)  # the gathers reuse their memory
    total, comp, y, t = np.zeros((4, count))
    at = 0  # the steps of the tile read so far
    with np.errstate(all="ignore"):  # overflow and nan pass silently, as in Python floats
        for b, ((a0, t0), size, events, (hi, lo, left, right)) in enumerate(blocks, 1):
            frame = np.zeros((size + len(events) + 1, count), dtype=np.uint64)
            snap, drop, fit = [], bits - 64 * size, mask >> t0  # fit: the bits that stay
            for j in range(count):
                num = nums[j]  # a0 = 1 is skipped: 1 * num copies a bigint
                num = ((a0 * num if a0 > 1 else num) & fit) << t0
                snap.append((num >> drop if drop >= 0 else num << -drop).to_bytes(8 * size, "big"))
                if events:
                    frame[size:-1, j] = [(num := (a * num) & mask) >> shift for a in events]
                nums[j] = num
            frame[:size] = np.frombuffer(b"".join(snap), dtype=">u8").reshape(count, size).T
            if bits < 64:  # left-align the event words of a narrow numerator
                frame[size:-1] <<= 64 - bits
            head, low = heads[at : at + len(hi)], lows[at : at + len(hi)]
            np.take(frame, hi, axis=0, out=head, mode="clip")  # "raise" would buffer out
            np.take(frame, lo, axis=0, out=low, mode="clip")
            head <<= left
            low >>= right
            head |= low
            head >>= 11
            at += len(hi)
            if at < _TILE_STEPS and b < len(blocks):
                continue
            xs, v, fx = x[:at], term[:at], value[:at]
            np.multiply(heads[:at], 2.0**-53, out=xs)
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
            at = 0
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
    blocks = _blocks(mults, x0.bits)
    return _orbit_sums(_coef_table(f), x0.bits, blocks, [x0.numerator])[0]


def _sum_range(args) -> list[float]:
    coef, bits, blocks, seed, lo, hi = args
    out: list[float] = []
    for start in range(lo, hi, _TILE_SAMPLES):
        indices = np.arange(start, min(start + _TILE_SAMPLES, hi), dtype=np.uint64)
        out.extend(_orbit_sums(coef, bits, blocks, _draw_numerators(seed, indices, bits)))
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
    if m < 1 or threads < 1:
        raise ValueError(f"sample count and threads must be >= 1, got {m} and {threads}")
    check_u64(seed, "seed")
    mults = _multipliers(spec, n)
    bits = _log2_ceil(mults) + _GUARD_BITS
    coef, blocks = _coef_table(f), _blocks(mults, bits)
    workers = min(threads, os.cpu_count() or 1, m)
    if workers <= 1:
        return _sum_range((coef, bits, blocks, seed, 0, m))
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-m // (4 * workers))
    tasks = [
        (coef, bits, blocks, seed, lo, min(lo + chunk, m)) for lo in range(0, m, chunk)
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
        if sd == 0.0:
            raise ValueError("the exact variance Var(S_n) is 0.0; cannot standardise by it")
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
