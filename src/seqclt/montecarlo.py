"""Exact-orbit Monte Carlo for Birkhoff sums and normality checks.

Multiply-by-a maps lose one to two mantissa bits per step, so floating-point
orbit iteration is meaningless after a few dozen steps.  Initial points are
therefore dyadic rationals num / 2^B with B about log2(a_1*...*a_n) + guard
bits: the map x -> a*x mod 1 acts exactly on the numerator as
num -> (a*num) mod 2^B, and after n steps the top 53 bits of the point are
still untouched by the initial truncation.  The observable is evaluated at
that 53-bit truncation and accumulated with compensated summation, leaving
S_n exact to evaluation precision.

Sampling is counter-based: each sample's initial numerator is drawn from a
Philox stream keyed by (seed, sample index), so results are reproducible
and independent of how samples are distributed over workers.  Aggregation
(moment sums, sorting for the Kolmogorov-Smirnov distance, histogramming)
is deterministic by construction.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    """Numerator width that keeps the top 53 orbit bits exact for n steps."""
    if n < 1:
        raise ValueError("horizon n must be >= 1")
    return math.ceil(spec.log2_multiplier(n)) + guard


def counter_generator(seed: int, index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, index); order-independent streams."""
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_numerator(seed: int, index: int, bits: int) -> int:
    """Uniform bits-wide integer from the (seed, index) counter stream."""
    nwords = (bits + 63) // 64
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(nwords)
    value = 0
    for w in words:
        value = (value << 64) | int(w)
    return value >> (64 * nwords - bits)


def _coef_table(f: TrigPoly) -> tuple[tuple[float, float, float], ...]:
    # 2*Re(c e^{i t}) = 2|c| cos(t + arg c)
    return tuple(
        (2.0 * abs(c), 2.0 * math.pi * n, math.atan2(c.imag, c.real))
        for n, c in f.coeffs
    )


def _birkhoff_sum(num: int, bits: int, mults: list[int], coef) -> float:
    mask = (1 << bits) - 1
    shift = bits - 53
    scale = 2.0**-53
    cos = math.cos
    total = 0.0
    comp = 0.0
    if len(coef) == 1:
        amp, w, ph = coef[0]
        for a in mults:
            num = (a * num) & mask
            v = amp * cos(w * ((num >> shift) * scale) + ph)
            y = v - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total
    for a in mults:
        num = (a * num) & mask
        x = (num >> shift) * scale
        v = 0.0
        for amp, w, ph in coef:
            v += amp * cos(w * x + ph)
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def orbit_birkhoff(f: TrigPoly, spec: SequenceSpec, n: int, x0: DyadicPoint) -> float:
    """S_n(x0) = sum_{k=1}^n f(a_k ... a_1 x0 mod 1), first summand f(a_1 x0).

    The numerator is iterated exactly; x0 must carry enough bits that the
    truncation of the initial point cannot reach the evaluated 53 bits.
    """
    need = required_bits(spec, n, 0) + 53
    if x0.bits < need:
        raise ValueError(f"x0 has {x0.bits} bits, needs >= {need} for n={n}")
    mults = list(itertools.islice(spec.iter_values(), n))
    return _birkhoff_sum(x0.numerator, x0.bits, mults, _coef_table(f))


def _sum_range(args) -> list[float]:
    coef, mults, bits, seed, lo, hi = args
    return [
        _birkhoff_sum(draw_numerator(seed, i, bits), bits, mults, coef)
        for i in range(lo, hi)
    ]


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
    bits = required_bits(spec, n, 64)
    mults = list(itertools.islice(spec.iter_values(), n))
    coef = _coef_table(f)
    workers = min(threads, os.cpu_count() or 1, m)
    if workers <= 1:
        return _sum_range((coef, mults, bits, seed, 0, m))
    chunk = -(-m // (4 * workers))
    tasks = [
        (coef, mults, bits, seed, lo, min(lo + chunk, m)) for lo in range(0, m, chunk)
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
    var_hat = math.fsum((s - mean) ** 2 for s in sums) / (m - 1)
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
