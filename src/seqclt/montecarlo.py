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
and independent of which worker runs which tile; a seed or index outside
[0, 2^64) is rejected, since it would alias one inside.  The one unit of
work is a tile of _TILE_SAMPLES samples, `_tile_sums`: `birkhoff_samples`
runs the tiles in order in this process, or hands the same tiles to a
worker pool.
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
   numpy joins two adjacent frame words into the top 53 bits of every
   step;
3. before the next block is read, numpy takes the block's steps in strips
   of _STRIP_STEPS: it joins each strip's frame words, scales its steps by
   2^-53, adds amp*cos(w*x + ph) to 0.0 term by term over
   `trigpoly.cosine_terms` (coefficient order), then runs the Kahan update
   across samples, one step at a time.

Numerators are at least 64 bits wide, so that an event's word is its
state's top 64 bits; `orbit_birkhoff` widens a narrower x0 by shifting its
numerator left, which leaves the point and its orbit's top bits as they are.

Each sample thus sees the operations of the scalar loop in its order, and
numpy's cos equals math.cos on these arguments (a tier-1 test guards this),
so every S_n is bit-identical to a pure-Python loop.  The tile holds three
_STRIP_STEPS x _TILE_SAMPLES arrays (192 KB), whatever n and m are, and one
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
from ._strict import InputError, check_horizon, check_standardization, check_u64, strict_int
from .sequences import SequenceSpec
from .trigpoly import TrigPoly, cosine_terms

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
# One orbit tile: _STRIP_STEPS x _TILE_SAMPLES floats, whatever n and m are
_TILE_SAMPLES = 256
_TILE_STEPS = 256  # the longest block
_STRIP_STEPS = 32


@dataclass(frozen=True)
class DyadicPoint:
    """x = numerator / 2^bits in [0, 1), exactly representable."""

    bits: int
    numerator: int

    def __post_init__(self):
        object.__setattr__(self, "bits", strict_int(self.bits, "bits", 1))
        top = (1 << self.bits) - 1
        object.__setattr__(self, "numerator", strict_int(self.numerator, "numerator", 0, top))

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
    return list(itertools.islice(spec.iter_values(), check_horizon(n)))


def _log2_ceil(mults: list[int]) -> int:
    """ceil(log2(a_1*...*a_n)), exactly, from a balanced product tree: its
    products pair factors of equal size, where math.prod's left-to-right
    sweep is quadratic in n."""
    while len(mults) > 1:
        pairs = [a * b for a, b in zip(mults[::2], mults[1::2])]
        mults = pairs + mults[len(pairs) * 2 :]
    return (mults[0] - 1).bit_length()


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

    The one-index case of the tile draw in `birkhoff_samples`.  At 1088
    bits (n = 1024 on Constant(2)), one index costs about 0.31 ms and a
    tile of 256 about 0.64 ms (best of 7; 2-core shared host, Python
    3.11.7, numpy 2.4.6).
    """
    index = np.array([check_u64(index, "index")], dtype=np.uint64)
    return _draw_numerators(check_u64(seed, "seed"), index, strict_int(bits, "bits", 1))[0]


def _blocks(mults: list[int]) -> tuple:
    """Cut the orbit under mults into blocks, once per run, each reading
    only its own exact states.

    A step by 2^t only shifts the numerator left, so only the other steps
    are events, exact bigint steps.  A block starts every _TILE_STEPS steps
    and at each event whose following power-of-two run shifts by more than
    64 - 53 = 11 bits.  A block is

        ((a0, t0), size, events, (hi, left, right))

    Its first step makes one exact state s = ((a0 * num) << t0) & mask, a0
    the step's odd factor and t0 its power of two plus the shift of the
    previous block's steps after its last exact state.  The block's frame
    holds the top bits of its exact states as left-aligned uint64 words: s
    in size = ceil((D + 53) / 64) words, D the shift up to the first event,
    then one word per event.  A step at shift dz from the state in row r
    joins rows hi = r + dz // 64 and hi + 1 at left = dz % 64, as
    (w[hi] << left) | ((w[hi + 1] >> 1) >> right), right = 63 - left: no
    shift reaches 64.  Row hi + 1 feeds only the 11 bits dropped below the
    53 read unless left > 11, and then the 53 bits cross into the next word
    of the same first state: after an event dz <= 11, or that event would
    have started a block.  An event's multiplier is the product of the
    steps since the last exact state (`a << dz`).
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
        hi = np.array([(size + k - 1 if k else 0) + d // 64 for k, d in reads], dtype=np.intp)
        left = np.array([d % 64 for _, d in reads], dtype=np.uint64)[:, None]
        blocks.append((first, size, tuple(events), (hi, left, 63 - left)))
    return tuple(blocks)


def _orbit_sums(coef, bits: int, blocks: tuple, nums: list[int]) -> list[float]:
    """S_n from each initial numerator in nums (at most _TILE_SAMPLES) of
    bits >= 64 bits, block by block as `_blocks(mults)` lays them out.

    Every orbit makes the block's first exact state, then steps over its
    events, writing each state's top bits into its column of the block's
    frame.  Then, a strip of _STRIP_STEPS steps at a time, numpy joins two
    frame words into each step's top 53 bits, evaluates f on the strip's
    steps, step-major, and runs one Kahan update per step across the
    samples: per sample, the operations of the scalar loop in its order, so
    every sum is bit-identical to it.
    """
    mask, shift = (1 << bits) - 1, bits - 64  # an event's word: its state's top 64 bits
    count, nums = len(nums), list(nums)
    x, term, value = np.empty((3, _STRIP_STEPS, count))
    heads, lows = term.view(np.uint64), x.view(np.uint64)  # the gathers reuse their memory
    total, comp, y, t = np.zeros((4, count))
    with np.errstate(all="ignore"):  # overflow and nan pass silently, as in Python floats
        for (a0, t0), size, events, (hi, left, right) in blocks:
            frame = np.empty((size + len(events), count), dtype=np.uint64)
            snap, drop, fit = [], bits - 64 * size, mask >> t0  # fit: the bits that stay
            for j in range(count):
                num = nums[j]  # a0 = 1 is skipped: 1 * num copies a bigint
                num = ((a0 * num if a0 > 1 else num) & fit) << t0
                snap.append((num >> drop if drop >= 0 else num << -drop).to_bytes(8 * size, "big"))
                if events:
                    frame[size:, j] = [(num := (a * num) & mask) >> shift for a in events]
                nums[j] = num
            frame[:size] = np.frombuffer(b"".join(snap), dtype=">u8").reshape(count, size).T
            for s in range(0, len(hi), _STRIP_STEPS):
                rows, steps = hi[s : s + _STRIP_STEPS], min(_STRIP_STEPS, len(hi) - s)  # views
                head, low = heads[:steps], lows[:steps]
                np.take(frame, rows, axis=0, out=head, mode="clip")  # "raise" would buffer out
                np.take(frame, rows + 1, axis=0, out=low, mode="clip")  # the last row reads itself
                head <<= left[s : s + steps]
                low >>= 1
                low >>= right[s : s + steps]
                head |= low
                head >>= 11
                xs, v, fx = x[:steps], term[:steps], value[:steps]
                np.multiply(head, 2.0**-53, out=xs)
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
    truncation of the initial point cannot reach the evaluated 53 bits.  A
    narrower x0 than 64 bits is widened to 64 bits, the same point.
    """
    mults = _multipliers(spec, n)
    need = _log2_ceil(mults) + 53
    if x0.bits < need:
        raise InputError(f"x0 has {x0.bits} bits, needs >= {need} for n={n}")
    bits = max(x0.bits, 64)
    num = x0.numerator << (bits - x0.bits)
    return _orbit_sums(cosine_terms(f), bits, _blocks(mults), [num])[0]


def _tile_sums(args) -> list[float]:
    """S_n of the samples lo..hi-1 of one tile: lo a multiple of _TILE_SAMPLES."""
    coef, bits, blocks, seed, lo, hi = args
    indices = np.arange(lo, hi, dtype=np.uint64)
    return _orbit_sums(coef, bits, blocks, _draw_numerators(seed, indices, bits))


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
    only affects wall time, never bytes.  The samples are cut into tiles of
    _TILE_SAMPLES, the one task, run here or by at most min(threads, usable
    CPUs, number of tiles) worker processes; with one, none starts.
    """
    m, threads = strict_int(m, "sample count", 1), strict_int(threads, "threads", 1)
    seed = check_u64(seed, "seed")
    mults = _multipliers(spec, n)
    bits = _log2_ceil(mults) + _GUARD_BITS
    coef, blocks = cosine_terms(f), _blocks(mults)
    tiles = [(coef, bits, blocks, seed, lo, min(lo + _TILE_SAMPLES, m))
             for lo in range(0, m, _TILE_SAMPLES)]
    # the CPUs this process may run on: cpu_count() also counts those taskset excludes
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1, len(tiles))
    if workers <= 1:
        return list(itertools.chain.from_iterable(map(_tile_sums, tiles)))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(itertools.chain.from_iterable(pool.map(_tile_sums, tiles)))


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
        raise InputError("need at least 2 samples")
    n, seed = check_horizon(n), check_u64(seed, "seed")
    check_standardization(standardization)
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
    m = strict_int(m, "sample count", 2)
    check_standardization(standardization)
    sums = birkhoff_samples(f, spec, n, m, seed, threads)
    return report_from_samples(sums, f, spec, n, seed, standardization)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_statistic(standardized: list[float]) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance to the standard normal."""
    if not standardized:
        raise InputError("KS statistic needs at least one sample")
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
