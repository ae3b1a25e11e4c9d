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
from hypothesis import given, settings
from hypothesis import strategies as st

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
GUARD = 64  # the guard bits required_bits adds to ceil(log2(a_1*...*a_n))


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
    bits = required_bits(spec, n)
    mults = list(itertools.islice(spec.iter_values(), n))
    coef = montecarlo._coef_table(f)
    return [
        _reference_birkhoff_sum(_reference_draw(seed, i, bits), bits, mults, coef)
        for i in indices
    ]


RAND5 = random_poly(np.random.default_rng(70), 5, density=1.0)
F1 = linear_combine([(1.0, cosine(2)), (-1.0, cosine(1))])
WORD = Explicit(tuple(int(v) for v in np.random.default_rng(71).integers(2, 10, 90)), Constant(3))
# steps 245..274 double: a run of folded steps across the 256-step block edge
STRADDLE = Explicit((3, 5) * 122 + (2,) * 30, Constant(9))
# an odd step, then a doubling run longer than a block, split between the
# first states of two blocks
ODD_THEN_RUN = Explicit((3,) + (2,) * 300, Constant(5))
# a block edge inside a run read from an event's word (256), then an event
# right after a run read from a block's first state (512)
EDGES = Explicit((3,) * 250 + (2,) * 10 + (3,) * 196 + (2,) * 56, Constant(7))

CASES = [
    pytest.param(cosine(1), Constant(2), id="cos-constant2"),
    pytest.param(F1, Periodic((2, 3)), id="f1-periodic23"),
    pytest.param(RAND5, Blocks(4), id="rand5-blocks4"),
    pytest.param(RAND5, Triples(b0=2, B=80, p0=10, r=2), id="rand5-triples80"),
    pytest.param(RAND5, WORD, id="rand5-explicit"),
    pytest.param(cosine(1), Constant(2**10), id="cos-constant1024"),
    pytest.param(cosine(1), Constant(2**11), id="cos-constant2048"),
    pytest.param(F1, Periodic((4, 2, 8, 3)), id="f1-periodic4283"),
    pytest.param(RAND5, STRADDLE, id="rand5-doubling-across-blocks"),
    pytest.param(cosine(1), Constant(2**40), id="cos-constant2pow40"),
    pytest.param(RAND5, ODD_THEN_RUN, id="rand5-odd-then-long-run"),
    pytest.param(F1, EDGES, id="f1-edges"),
    pytest.param(RAND5, Periodic((3, 2**11)), id="rand5-periodic3-2048"),
    pytest.param(RAND5, Periodic((3, 2**12)), id="rand5-periodic3-4096"),
]

SHAPES = [
    pytest.param(TILE_STEPS + 44, 1, id="one-sample"),
    pytest.param(50, 37, id="under-a-tile"),
    pytest.param(TILE_STEPS + 44, TILE_SAMPLES + 45, id="ragged-tiles"),
    pytest.param(1, 5, id="one-step"),
    pytest.param(2 * TILE_STEPS + 88, 3, id="two-block-edges"),
]


@pytest.mark.parametrize("n, m", SHAPES)
@pytest.mark.parametrize("f, spec", CASES)
def test_samples_match_scalar_loop(f, spec, n, m):
    assert birkhoff_samples(f, spec, n, m, SEED) == _reference_samples(f, spec, n, SEED, range(m))


@pytest.mark.parametrize("f, spec", CASES)
def test_task_range_off_tile_boundaries(f, spec):
    # a worker's task starts and ends inside tiles
    n, lo, hi = 40, TILE_SAMPLES - 3, 2 * TILE_SAMPLES + 5
    bits = required_bits(spec, n)
    mults = list(itertools.islice(spec.iter_values(), n))
    task = (montecarlo._coef_table(f), bits, montecarlo._blocks(mults, bits), SEED, lo, hi)
    assert montecarlo._sum_range(task) == _reference_samples(f, spec, n, SEED, range(lo, hi))


@pytest.mark.parametrize("f, spec", CASES)
def test_orbit_birkhoff_matches_scalar_loop(f, spec):
    n = TILE_STEPS + 44
    mults = list(itertools.islice(spec.iter_values(), n))
    coef = montecarlo._coef_table(f)
    rng = np.random.default_rng(72)
    for extra in (0, 1, 77):
        bits = required_bits(spec, n) - GUARD + 53 + extra
        num = int.from_bytes(rng.bytes(bits // 8 + 1), "big") % (1 << bits)
        x0 = DyadicPoint(bits=bits, numerator=num)
        assert orbit_birkhoff(f, spec, n, x0) == _reference_birkhoff_sum(num, bits, mults, coef)


def test_orbit_birkhoff_on_narrow_numerators():
    # bits = n + 53 < 64: the frame holds the whole numerator and zeros below it
    spec = Constant(2)
    coef = montecarlo._coef_table(RAND5)
    rng = np.random.default_rng(74)
    for n in range(1, 10):
        bits = required_bits(spec, n) - GUARD + 53
        num = int(rng.integers(0, 1 << bits))
        x0 = DyadicPoint(bits=bits, numerator=num)
        assert orbit_birkhoff(RAND5, spec, n, x0) == _reference_birkhoff_sum(num, bits, [2] * n, coef)


def test_narrow_numerators_through_the_export():
    # bits 53..62: the run of 70 after the 3 exceeds the 11 spare bits of an
    # event's word, so the 3 starts a block, and each block's doubling run
    # reads its first state from a frame of 2 words, wider than the whole
    # numerator; past bits doublings the state is 0, as in the loop
    coef = montecarlo._coef_table(RAND5)
    rng = np.random.default_rng(75)
    mults = [2] * 20 + [3] + [2] * 70
    for bits in range(53, 63):
        blocks = montecarlo._blocks(mults, bits)
        assert [(first, size, events) for first, size, events, _ in blocks] == [
            ((1, 1), 2, ()),
            ((3, 19), 2, ()),
        ]
        nums = [int(v) for v in rng.integers(0, 1 << bits, 3)]
        got = montecarlo._orbit_sums(coef, bits, blocks, nums)
        assert got == [_reference_birkhoff_sum(num, bits, mults, coef) for num in nums]


def _frame_offsets(block):
    # the bit offset into the block's frame that each of its steps reads
    _, size, events, (hi, lo, left, right) = block
    offsets = [64 * h + int(r) for h, r in zip(hi.tolist(), left.ravel())]
    zero = size + len(events)  # the frame's last row
    assert lo.tolist() == [o // 64 + 1 if o % 64 else zero for o in offsets]
    assert right.ravel().tolist() == [(64 - o % 64) % 64 for o in offsets]
    return offsets


@pytest.mark.parametrize("spec", [Constant(3), Periodic((3, 5))], ids=["constant3", "periodic35"])
def test_odd_word_blocks_step_exactly_after_their_first_step(spec):
    # no step folds: each block's first step reads its first state, one
    # word, and every later one is an event that reads its own word
    n = 2 * TILE_STEPS + 10
    mults = list(itertools.islice(spec.iter_values(), n))
    bits = required_bits(spec, n)
    blocks = montecarlo._blocks(mults, bits)
    assert len(blocks) == 3
    for k, block in enumerate(blocks):
        steps = mults[k * TILE_STEPS : (k + 1) * TILE_STEPS]
        assert block[:3] == ((steps[0], 0), 1, tuple(steps[1:]))
        assert _frame_offsets(block) == [64 * row for row in range(len(steps))]


def test_doubling_word_has_one_export_per_block_and_no_events():
    # Constant(2) at n = 1024: each of the 4 blocks writes the state its
    # first step makes, 256 doublings after the last one, into its frame
    # and reads all its steps from it
    n = 4 * TILE_STEPS
    bits = required_bits(Constant(2), n)
    blocks = montecarlo._blocks([2] * n, bits)
    size = -(-(TILE_STEPS - 1 + 53) // 64)
    assert [block[:3] for block in blocks] == [((1, 1), size, ())] + [
        ((1, TILE_STEPS), size, ())
    ] * 3
    for block in blocks:
        assert _frame_offsets(block) == list(range(TILE_STEPS))


def test_event_before_a_long_shift_starts_a_block():
    # Periodic((3, 2**12)): the shift of 12 after each 3 exceeds the 11 spare
    # bits of an event's word, so every 3 starts a block that reads both its
    # steps from its first state
    spec = Periodic((3, 2**12))
    n = 4 * TILE_STEPS
    mults = list(itertools.islice(spec.iter_values(), n))
    blocks = montecarlo._blocks(mults, required_bits(spec, n))
    assert len(blocks) == n // 2
    assert [block[:3] for block in blocks] == [((3, 0), 2, ())] + [((3, 12), 2, ())] * (
        n // 2 - 1
    )
    for block in blocks:
        assert _frame_offsets(block) == [0, 12]


def test_event_before_an_eleven_bit_shift_stays_in_its_block():
    # Periodic((3, 2**11)): an event's word holds 11 bits beyond the 53 read,
    # so a shift of 11 starts no block and each tile is one block; each 2**11
    # reads the word of the 3 before it at offset 11
    n = 4 * TILE_STEPS
    spec = Periodic((3, 2**11))
    mults = list(itertools.islice(spec.iter_values(), n))
    blocks = montecarlo._blocks(mults, required_bits(spec, n))
    assert len(blocks) == n // TILE_STEPS
    events = (3 << 11,) * (TILE_STEPS // 2 - 1)
    assert [block[:3] for block in blocks] == [((3, 0), 1, events)] + [((3, 11), 1, events)] * 3
    offsets = [64 * row + dz for row in range(TILE_STEPS // 2) for dz in (0, 11)]
    for block in blocks:
        assert _frame_offsets(block) == offsets


ALPHABET = [2, 3, 4, 5, 6, 7, 8, 9, 16, 1024, 2048, 2**12, 2**40]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_scalar_loop_on_random_words(data):
    # words drawn as runs, so that runs of powers of two cross block edges,
    # some of them two
    runs = data.draw(
        st.lists(st.tuples(st.sampled_from(ALPHABET), st.integers(1, 400)), min_size=1, max_size=12)
    )
    mults = [a for a, length in runs for _ in range(length)][:1200]
    bits = (math.prod(mults) - 1).bit_length() + 53 + data.draw(st.integers(0, 80))
    nums = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=4))
    coef = montecarlo._coef_table(F1)
    blocks = montecarlo._blocks(mults, bits)
    # no uint64 shift reaches 64, whose result C leaves undefined
    shifts = [s for block in blocks for s in block[3][2:]]
    assert all(s.max(initial=0) < 64 for s in shifts)
    got = montecarlo._orbit_sums(coef, bits, blocks, nums)
    assert got == [_reference_birkhoff_sum(num, bits, mults, coef) for num in nums]


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
