import numpy as np
import pytest
from hypothesis import strategies as st

from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples
from seqclt.trigpoly import TrigPoly, cosine, linear_combine, make_trigpoly


@pytest.fixture
def f1() -> TrigPoly:
    """cos(4 pi x) - cos(2 pi x), the workhorse coboundary-for-2 observable."""
    return linear_combine([(1.0, cosine(2)), (-1.0, cosine(1))])


def random_poly(rng: np.random.Generator, max_degree: int = 32, density: float = 0.5,
                quantize: int | None = None) -> TrigPoly:
    """Random mean-zero trigonometric polynomial with coefficients in [-1, 1].

    With quantize=q the real and imaginary parts are multiples of 2^-q, which
    keeps downstream float arithmetic exact.
    """
    entries = []
    for n in range(1, max_degree + 1):
        if rng.random() < density:
            re, im = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if quantize is not None:
                scale = float(1 << quantize)
                re = round(re * scale) / scale
                im = round(im * scale) / scale
            entries.append((n, complex(re, im)))
    return make_trigpoly(entries)


def assert_canonical(g: TrigPoly) -> None:
    """Structural Hermitian-canonical-form check used after every operation."""
    freqs = [n for n, _ in g.coeffs]
    assert freqs == sorted(freqs)
    assert len(set(freqs)) == len(freqs)
    assert all(isinstance(n, int) and n >= 1 for n in freqs)
    assert all(isinstance(c, complex) and c != 0 for _, c in g.coeffs)


def reference_value(spec, k: int) -> int:
    """a_k of spec, each kind's schedule written out per index in closed form.

    The library states every schedule once, as runs; this oracle does not
    read them.  The triples and blocks loops are the random-access rules the
    library used before its runs.
    """
    if isinstance(spec, Constant):
        return spec.b
    if isinstance(spec, Periodic):
        return spec.values[(k - 1) % len(spec.values)]
    if isinstance(spec, Explicit):
        head = spec.values
        return head[k - 1] if k <= len(head) else reference_value(spec.tail, k - len(head))
    if isinstance(spec, Triples):
        p = spec.p0
        while p <= k:
            if k <= p + 2:
                return spec.B
            p *= spec.r
        return spec.b0
    assert isinstance(spec, Blocks)
    l = 1
    while True:
        d = spec.block_start(l)
        if d > k:
            return 2
        if k < d + l:
            return 3
        l += 1


_SMALL = st.integers(2, 9)


@st.composite
def _triples(draw):
    b0, r = draw(_SMALL), draw(st.integers(2, 5))
    p0 = draw(st.integers(-(-3 // (r - 1)), 40))  # p0 = 1 when r >= 4
    return Triples(b0, b0 + draw(st.integers(1, 80)), p0, r)


_LEAF = st.one_of(
    st.builds(Constant, _SMALL),
    st.builds(Periodic, st.lists(_SMALL, min_size=1, max_size=5).map(tuple)),
    _triples(),
    st.builds(Blocks, st.sampled_from([1.7, 2.5, 4.0]) | st.floats(2.0, 16.0)),
)
_HEAD = st.lists(_SMALL, min_size=1, max_size=3).map(tuple)
# Every kind, small multipliers, and explicit heads of one to three values
# over any of them, nested up to twice.
SPECS = st.one_of(
    _LEAF,
    st.builds(Explicit, _HEAD, _LEAF),
    st.builds(Explicit, _HEAD, st.builds(Explicit, _HEAD, _LEAF)),
)
