"""The tiled orbit kernel against the scalar loop it replaced, bit for bit.

`_reference_birkhoff_sum` and `_reference_draw` are the pure-Python orbit
loop and the `numpy.random.Philox` draw that `montecarlo` used before the
kernel worked on tiles of samples.  Every comparison here is `==` on floats
(`repr` where a value may be nan), because the kernel promises the same
operations in the same order, not merely the same values to a tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_poly
from seqclt import montecarlo
from seqclt.montecarlo import (
    DyadicPoint,
    birkhoff_samples,
    draw_numerator,
    orbit_birkhoff,
    required_bits,
)
from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples
from seqclt.trigpoly import cosine, linear_combine, make_trigpoly

TILE_SAMPLES = montecarlo._TILE_SAMPLES
TILE_STEPS = montecarlo._TILE_STEPS
SEED = 2718


def _reference_birkhoff_sum(num: int, bits: int, mults: list[int], coef) -> float:
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


def _reference_draw(seed: int, index: int, bits: int) -> int:
    nwords = (bits + 63) // 64
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(nwords)
    value = 0
    for w in words:
        value = (value << 64) | int(w)
    return value >> (64 * nwords - bits)


def _reference_samples(f, spec, n: int, seed: int, indices) -> list[float]:
    bits = required_bits(spec, n, 64)
    mults = list(itertools.islice(spec.iter_values(), n))
    coef = montecarlo._coef_table(f)
    return [
        _reference_birkhoff_sum(_reference_draw(seed, i, bits), bits, mults, coef)
        for i in indices
    ]


RAND5 = random_poly(np.random.default_rng(70), 5, density=1.0)
F1 = linear_combine([(1.0, cosine(2)), (-1.0, cosine(1))])
WORD = Explicit(tuple(int(v) for v in np.random.default_rng(71).integers(2, 10, 90)), Constant(3))

CASES = [
    pytest.param(cosine(1), Constant(2), id="cos-constant2"),
    pytest.param(F1, Periodic((2, 3)), id="f1-periodic23"),
    pytest.param(RAND5, Blocks(4), id="rand5-blocks4"),
    pytest.param(RAND5, Triples(b0=2, B=80, p0=10, r=2), id="rand5-triples80"),
    pytest.param(RAND5, WORD, id="rand5-explicit"),
]

SHAPES = [
    pytest.param(TILE_STEPS + 44, 1, id="one-sample"),
    pytest.param(50, 37, id="under-a-tile"),
    pytest.param(TILE_STEPS + 44, TILE_SAMPLES + 45, id="ragged-tiles"),
    pytest.param(1, 5, id="one-step"),
]


@pytest.mark.parametrize("n, m", SHAPES)
@pytest.mark.parametrize("f, spec", CASES)
def test_samples_match_scalar_loop(f, spec, n, m):
    assert birkhoff_samples(f, spec, n, m, SEED) == _reference_samples(f, spec, n, SEED, range(m))


@pytest.mark.parametrize("f, spec", CASES)
def test_task_range_off_tile_boundaries(f, spec):
    # a worker's task starts and ends inside tiles
    n, lo, hi = 40, TILE_SAMPLES - 3, 2 * TILE_SAMPLES + 5
    bits = required_bits(spec, n, 64)
    mults = list(itertools.islice(spec.iter_values(), n))
    task = (montecarlo._coef_table(f), mults, bits, SEED, lo, hi)
    assert montecarlo._sum_range(task) == _reference_samples(f, spec, n, SEED, range(lo, hi))


@pytest.mark.parametrize("f, spec", CASES)
def test_orbit_birkhoff_matches_scalar_loop(f, spec):
    n = TILE_STEPS + 44
    mults = list(itertools.islice(spec.iter_values(), n))
    coef = montecarlo._coef_table(f)
    rng = np.random.default_rng(72)
    for extra in (0, 1, 77):
        bits = required_bits(spec, n, 0) + 53 + extra
        num = int.from_bytes(rng.bytes(bits // 8 + 1), "big") % (1 << bits)
        x0 = DyadicPoint(bits=bits, numerator=num)
        assert orbit_birkhoff(f, spec, n, x0) == _reference_birkhoff_sum(num, bits, mults, coef)


@pytest.mark.parametrize("re", [1e300, 1e308], ids=["huge", "infinite-amplitude"])
def test_non_finite_values_flow_as_with_python_floats(re):
    # amplitude 2e300 stays finite; 2e308 is inf, and Kahan turns it into nan
    f = make_trigpoly([(1, complex(re, 0.0)), (3, 0.25j)])
    got = birkhoff_samples(f, Periodic((2, 3)), 20, 9, SEED)
    ref = _reference_samples(f, Periodic((2, 3)), 20, SEED, range(9))
    assert [repr(v) for v in got] == [repr(v) for v in ref]


@pytest.mark.parametrize("seed", [0, 2718, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2**63, 2**64 - 1])
def test_philox_words_match_numpy(seed, index):
    for nwords in (1, 3, 4, 6, 17):
        words = montecarlo._philox_words(seed, np.array([index], dtype=np.uint64), nwords)
        key = np.array([seed, index], dtype=np.uint64)
        assert words.tolist() == [np.random.Philox(key=key).random_raw(nwords).tolist()]


def test_philox_words_vectorise_over_indices():
    indices = np.array([5, 0, 2**64 - 1, 17, 5], dtype=np.uint64)
    words = montecarlo._philox_words(99, indices, 7)
    for row, index in zip(words.tolist(), indices.tolist()):
        key = np.array([99, index], dtype=np.uint64)
        assert row == np.random.Philox(key=key).random_raw(7).tolist()


@pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 2**64 - 1), (7, 123)])
def test_draw_numerator_matches_reference_draw(seed, index):
    for bits in (1, 53, 63, 64, 65, 1000, 1088):
        assert draw_numerator(seed, index, bits) == _reference_draw(seed, index, bits)


def _simd_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def test_numpy_cos_equals_math_cos():
    # the kernel's bytes rest on np.cos == math.cos for its arguments
    # w * x + ph: x a 53-bit dyadic in [0, 1), w = 2 pi n, ph = arg c
    rng = np.random.default_rng(73)
    size = 20_000
    x = rng.integers(0, 1 << 53, size, dtype=np.int64) * 2.0**-53
    freqs = np.concatenate([np.arange(1, 65), rng.integers(65, 1 << 20, 64)])
    w = 2.0 * math.pi * rng.choice(freqs, size).astype(np.float64)
    re, im = rng.uniform(-1.0, 1.0, (2, size))
    ph = np.arctan2(im, re)
    args = w * x + ph
    got = np.cos(args)
    want = np.array([math.cos(a) for a in args.tolist()])
    bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    assert bad == 0, (
        f"np.cos differs from math.cos on {bad} of {size} arguments with numpy "
        f"{np.__version__} and SIMD features {_simd_features()}; simulate's "
        "output bytes would differ from other hosts"
    )
