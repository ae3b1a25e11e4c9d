import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECS, reference_value
from seqclt.sequences import (
    Blocks,
    Constant,
    Explicit,
    Periodic,
    Triples,
    generate,
    sequence_from_obj,
)


def test_blocks_d4_placement():
    spec = Blocks(4)
    assert generate(spec, 4) == 3  # l=1 block [4, 5)
    assert generate(spec, 5) == 2
    assert generate(spec, 16) == 3  # l=2 block [16, 18)
    assert generate(spec, 17) == 3
    assert generate(spec, 18) == 2
    assert [generate(spec, k) for k in (64, 65, 66, 67)] == [3, 3, 3, 2]


def test_constant_everywhere():
    spec = Constant(2)
    assert all(generate(spec, k) == 2 for k in (1, 17, 1000, 2**31))


def test_triples_spike_placement():
    spec = Triples(b0=2, B=70, p0=10, r=2)
    assert [generate(spec, k) for k in (20, 21, 22, 23)] == [70, 70, 70, 2]
    assert [generate(spec, k) for k in (10, 11, 12, 13)] == [70, 70, 70, 2]
    assert generate(spec, 9) == 2


def test_triples_spike_positions_up_to_an_integer_limit():
    spec = Triples(b0=2, B=70, p0=10, r=2)
    assert list(spec.spike_positions(0)) == list(spec.spike_positions(9)) == []
    assert list(spec.spike_positions(159)) == [10, 20, 40, 80]
    assert list(spec.spike_positions(160.0)) == [10, 20, 40, 80, 160]


def test_triples_every_spike_is_three_long():
    spec = Triples(b0=2, B=9, p0=5, r=3)
    run = 0
    for k in range(1, 2000):
        if generate(spec, k) == 9:
            run += 1
        else:
            assert run in (0, 3)
            run = 0


def test_explicit_head_then_tail():
    spec = Explicit((4, 5), Periodic((2, 3)))
    assert [generate(spec, k) for k in range(1, 7)] == [4, 5, 2, 3, 2, 3]


@pytest.mark.parametrize(
    "spec",
    [
        Constant(3),
        Periodic((2, 3, 2, 5)),
        Explicit((5, 2, 3), Blocks(4)),
        Triples(b0=2, B=9, p0=4, r=2),
        Triples(b0=2, B=9, p0=625, r=2),  # spike 5000..5002 straddles the horizon
        Blocks(4),
        Blocks(2.5),  # non-integral D: ceil boundaries
        Blocks(1.7),
    ],
    ids=repr,
)
def test_iter_values_matches_value_at(spec):
    horizon = 5000
    expected = [reference_value(spec, k) for k in range(1, horizon + 1)]
    assert [spec.value_at(k) for k in range(1, horizon + 1)] == expected
    assert list(itertools.islice(spec.iter_values(), horizon)) == expected


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SPECS, st.integers(1, 400))
def test_runs_give_the_reference_values(spec, horizon):
    expected = [reference_value(spec, k) for k in range(1, horizon + 1)]
    assert [spec.value_at(k) for k in range(1, horizon + 1)] == expected
    assert list(itertools.islice(spec.iter_values(), horizon)) == expected
    # a run is a value and a nonnegative length
    for value, length in itertools.islice(spec.runs(), 20):
        assert value >= 2 and length >= 0


@pytest.mark.parametrize(
    "spec, long_from",
    [
        (Blocks(1e19), 10**19),
        (Explicit((3,), Blocks(1e19)), 10**19 + 1),
        (Triples(b0=2, B=3, p0=2**64 + 1, r=2), 2**64 + 1),
        (Constant(5), 2**80),
    ],
    ids=repr,
)
def test_runs_longer_than_maxsize(spec, long_from):
    # a run may be longer than any count itertools accepts
    for k in (long_from - 1, long_from, long_from + 2):
        assert spec.value_at(k) == reference_value(spec, k)
    head = list(itertools.islice(spec.iter_values(), 100))
    assert head == [reference_value(spec, k) for k in range(1, 101)]


@pytest.mark.parametrize("D", [1.7, 1.9, 2.5, 4.0, math.e], ids=repr)
def test_block_starts_are_exact(D):
    # ceil(D^l) of the float's exact value, up to the first start beyond
    # 2^48, far past the levels Blocks checks
    spec = Blocks(D)
    for l in itertools.count(1):
        exact = math.ceil(Fraction(D) ** l)
        assert spec.block_start(l) == exact, l
        if exact > 1 << 48:
            break


@pytest.mark.parametrize("D, levels", [(4.0, 1), (2.5, 1), (1.9, 3), (1.7, 5)], ids=repr)
def test_blocks_checks_only_the_levels_before_its_proof(monkeypatch, D, levels):
    # construction reads block starts only until the no-overlap proof takes
    # over, not up to a fixed depth: Blocks(4) once, not 25 times
    calls = []
    block_start = Blocks.block_start
    monkeypatch.setattr(Blocks, "block_start",
                        lambda self, l: calls.append(l) or block_start(self, l))
    Blocks(D)
    assert calls == list(range(1, levels + 1))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.floats(1.0, 4.0, exclude_min=True))
def test_accepted_blocks_never_overlap(D):
    # brute-force guard of the proof: a D that Blocks accepts has no block
    # starting before its predecessor ends, far beyond the levels it checked
    try:
        spec = Blocks(D)
    except ValueError:
        return
    end = 0
    for l in range(1, 201):
        d = spec.block_start(l)
        assert d >= end, l
        end = d + l


def test_deep_block_indices():
    # D**l as a float would overflow long before these levels
    assert Blocks(4).value_at(4**600) == 3  # the start of block l = 600
    assert Blocks(2.5).value_at(10**400) == 2


def test_generate_values_always_at_least_two():
    specs = [
        Constant(2),
        Periodic((2, 9)),
        Triples(b0=3, B=80, p0=10, r=2),
        Blocks(4),
        Explicit((6,), Constant(2)),
    ]
    for spec in specs:
        assert all(generate(spec, k) >= 2 for k in range(1, 500))


def test_generate_is_pure():
    spec = Blocks(2.5)
    vals = [generate(spec, k) for k in range(1, 200)]
    assert vals == [generate(spec, k) for k in range(1, 200)]


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Constant(1),
        lambda: Periodic(()),
        lambda: Periodic((2, 1)),
        lambda: Explicit((), Constant(2)),
        lambda: Triples(b0=2, B=2, p0=10, r=2),
        lambda: Triples(b0=2, B=5, p0=1, r=2),  # spikes would overlap
        lambda: Blocks(1.0),
        lambda: Blocks(math.inf),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_serialization_round_trips():
    specs = [
        Constant(2),
        Periodic((2, 3, 2, 5)),
        Triples(b0=2, B=80, p0=10, r=2),
        Blocks(4.0),
        Explicit((4, 5, 6), Explicit((2,), Blocks(1.9))),
    ]
    for spec in specs:
        assert sequence_from_obj(spec.to_obj()) == spec


@pytest.mark.parametrize(
    "spec, obj",
    [
        (Constant(2), {"kind": "constant", "b": 2}),
        (Periodic((2, 3, 2, 5)), {"kind": "periodic", "values": [2, 3, 2, 5]}),
        (Triples(b0=2, B=80, p0=10, r=2), {"kind": "triples", "b0": 2, "B": 80, "p0": 10, "r": 2}),
        (Blocks(4), {"kind": "blocks", "D": 4.0}),
        (
            Explicit((4, 5, 6), Explicit((2,), Blocks(1.9))),
            {"kind": "explicit", "values": [4, 5, 6], "tail": {
                "kind": "explicit", "values": [2], "tail": {"kind": "blocks", "D": 1.9}}},
        ),
    ],
    ids=["constant", "periodic", "triples", "blocks", "explicit-explicit-tail"],
)
def test_to_obj_writes_kind_then_each_field_in_order(spec, obj):
    assert spec.to_obj() == obj
    assert json.dumps(spec.to_obj()) == json.dumps(obj)  # key order, and D as a float


def test_serialization_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sequence_from_obj({"kind": "fancy"})

