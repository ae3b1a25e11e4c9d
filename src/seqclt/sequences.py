"""Generators for the map sequence a_1, a_2, ... stated as runs.

Each spec kind is a small immutable rule for the integer multipliers >= 2
(the slopes of the circle maps), stated once, as ``runs()``: pairs
(value, length) that cover a_1, a_2, ... in order, each a run of
``length`` consecutive indices with multiplier ``value``.  A length may be
0, or larger than any count ``itertools`` accepts; a run that never ends
has length ``math.inf`` and comes last (a constant is that one run).  The
paper's schedules are runs: blocks of 3 on a background of 2, spike
triples on a constant background.  The backward walks of the analysis
step over runs, since a multiplier window stops changing inside a long
run.

From the runs the base class derives both readers: ``iter_values``, the
scan from the start at O(1) per index, and ``value_at``, random access by
a scan over the runs before k.  Periodic and explicit words keep an O(1)
``value_at`` of their own: deep random access (spike neighbourhoods, block
interiors, indices such as 4^20) would otherwise scan one run per letter.
Prefix aggregates (the product that sizes an exact orbit) are taken over
``iter_values``.

Kinds
-----
constant    one multiplier forever.
periodic    a finite word repeated.
explicit    a finite head, then any other spec for the remaining indices.
triples     background value with spikes of three consecutive large values
            at geometrically spaced positions p0 * r^l, l = 0, 1, ...
blocks      background 2 with runs of 3 of length l starting at ceil(D^l),
            l = 1, 2, ...  (the variance-suppression schedule).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ._strict import InputError, check_keys, check_multiplier, shown, strict_float, strict_int

__all__ = [
    "SequenceSpec",
    "Constant",
    "Periodic",
    "Explicit",
    "Triples",
    "Blocks",
    "generate",
    "sequence_from_obj",
]

class SequenceSpec:
    """Base class; kinds are frozen dataclasses that implement runs and may override value_at."""

    kind: str = "?"

    def runs(self) -> Iterable[tuple[int, int | float]]:
        """(value, length) runs covering a_1, a_2, ... in order, without end."""
        raise NotImplementedError

    def iter_values(self) -> Iterator[int]:
        """a_1, a_2, ... in order, endlessly: the runs expanded."""
        for value, length in self.runs():
            while length > 0:  # repeat() counts at most sys.maxsize
                chunk = min(length, sys.maxsize)
                yield from itertools.repeat(value, chunk)
                length -= chunk

    def value_at(self, k: int) -> int:
        """a_k, by a scan over the runs up to index k."""
        k = strict_int(k, "sequence index", 1)
        for value, length in self.runs():
            if k <= length:
                return value
            k -= length

    def to_obj(self) -> dict:
        """{"kind": ..., each field in order}: the form sequence_from_obj reads."""
        obj = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, SequenceSpec):
                value = value.to_obj()
            obj[field.name] = list(value) if isinstance(value, tuple) else value
        return obj


@dataclass(frozen=True)
class Constant(SequenceSpec):
    b: int

    kind = "constant"

    def __post_init__(self):
        object.__setattr__(self, "b", check_multiplier(self.b))
        # built once, as value_at reads it at every index
        object.__setattr__(self, "_runs", ((self.b, math.inf),))

    def runs(self) -> Iterable[tuple[int, float]]:
        return self._runs


def _word(values, need: str) -> tuple[int, ...]:
    """values, an iterable of at least one multiplier, as a tuple of ints; anything else
    raises InputError, before a non-iterable is iterated."""
    word = tuple(map(check_multiplier, values)) if isinstance(values, Iterable) else ()
    if not word:
        raise InputError(f"{need}, got {shown(values)}")
    return word


@dataclass(frozen=True)
class Periodic(SequenceSpec):
    values: tuple[int, ...]

    kind = "periodic"

    def __post_init__(self):
        object.__setattr__(self, "values", _word(
            self.values, "periodic spec needs a nonempty word"))

    def runs(self) -> Iterator[tuple[int, int]]:
        return itertools.cycle(zip(self.values, itertools.repeat(1)))

    def value_at(self, k: int) -> int:
        k = strict_int(k, "sequence index", 1)
        return self.values[(k - 1) % len(self.values)]


@dataclass(frozen=True)
class Explicit(SequenceSpec):
    values: tuple[int, ...]
    tail: SequenceSpec

    kind = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "values", _word(
            self.values, "explicit spec needs a nonempty head"))
        if not isinstance(self.tail, SequenceSpec):
            raise InputError("explicit tail must be a SequenceSpec")

    def runs(self) -> Iterator[tuple[int, int | float]]:
        return itertools.chain(zip(self.values, itertools.repeat(1)), self.tail.runs())

    def value_at(self, k: int) -> int:
        k = strict_int(k, "sequence index", 1)
        if k <= len(self.values):
            return self.values[k - 1]
        return self.tail.value_at(k - len(self.values))


@dataclass(frozen=True)
class Triples(SequenceSpec):
    """Background b0 with a_p = a_{p+1} = a_{p+2} = B at p = p0 * r^l, l >= 0."""

    b0: int
    B: int
    p0: int
    r: int

    kind = "triples"

    def __post_init__(self):
        object.__setattr__(self, "b0", check_multiplier(self.b0))
        object.__setattr__(self, "B", check_multiplier(self.B))
        if self.B <= self.b0:
            raise InputError("spike value must exceed the background value")
        object.__setattr__(self, "p0", strict_int(self.p0, "first spike position p0", 1))
        object.__setattr__(self, "r", check_multiplier(self.r, "position ratio r"))
        if self.p0 * (self.r - 1) < 3:
            raise InputError("spikes overlap: need p0*(r-1) >= 3")

    def _spike_starts(self) -> Iterator[int]:
        """p0 * r^l for l = 0, 1, ...: every spike start, in increasing order."""
        return itertools.accumulate(itertools.repeat(self.r), operator.mul, initial=self.p0)

    def spike_positions(self, limit: int) -> Iterator[int]:
        """Spike start positions p <= limit, in increasing order."""
        limit = strict_int(limit, "spike position limit", 0)
        return itertools.takewhile(lambda p: p <= limit, self._spike_starts())

    def runs(self) -> Iterator[tuple[int, int]]:
        k = 1
        for p in self._spike_starts():
            yield self.b0, p - k
            yield self.B, 3
            k = p + 3


@dataclass(frozen=True)
class Blocks(SequenceSpec):
    """a_k = 3 on the runs [d_l, d_l + l), l >= 1, with d_l = ceil(D^l); else 2."""

    D: float

    kind = "blocks"

    def __post_init__(self):
        object.__setattr__(self, "D", strict_float(self.D, "block growth D"))
        if not self.D > 1.0:
            raise InputError(f"block schedule needs a growth D > 1, got {self.D!r}")
        # D = p/q exactly, so that every block start is an exact integer
        object.__setattr__(self, "_ratio", self.D.as_integer_ratio())
        # No block may overlap its predecessor, at any level.  With
        # g_l = D^(l-1) (D-1), the gap d_l - d_(l-1) exceeds g_l - 1; and
        # g_(l+1) = g_l + (D-1) g_l, so once g_L >= L and (D-1) g_L >= 1
        # both hold at every later level, and no block from L on overlaps.
        # The levels up to the first such L are checked one by one, the
        # two conditions exactly, on g_l = p^(l-1) (p-q) / q^l.
        p, q = self._ratio
        prev_end = 0
        for l in itertools.count(1):
            d = self.block_start(l)
            if d < prev_end:
                raise InputError(f"blocks overlap at l={l}: start {d} < previous end {prev_end}")
            prev_end = d + l
            if p ** (l - 1) * (p - q) >= l * q**l and p ** (l - 1) * (p - q) ** 2 >= q ** (l + 1):
                break

    def block_start(self, l: int) -> int:
        """ceil(D^l), exactly, for a level l >= 1."""
        l = strict_int(l, "block level l", 1)
        p, q = self._ratio
        return -(-(p**l) // q**l)

    def runs(self) -> Iterator[tuple[int, int]]:
        p, q = self._ratio
        k = 1  # the blocks never overlap: __post_init__ proves it
        for l in itertools.count(1):
            d = -(-(p**l) // q**l)  # block_start(l), inlined: value_at scans the levels per call
            yield 2, d - k
            yield 3, l
            k = d + l


def generate(spec: SequenceSpec, k: int) -> int:
    """Value a_k; pure and random-access (same (spec, k) always agree)."""
    return spec.value_at(k)


def sequence_from_obj(obj) -> SequenceSpec:
    """Parse the serialized {"kind": ..., ...} form: the kind's fields are its keys, all required.

    The field names are the JSON keys, and each kind's constructor reads its
    own numbers, once, as it reads them from a library caller."""
    check_keys(obj, ("kind",), "sequence", optional=obj)  # the kind names the other keys
    kind = obj["kind"]
    cls = next((c for c in (Constant, Periodic, Explicit, Triples, Blocks) if c.kind == kind), None)
    if cls is None:
        raise InputError(f"unknown sequence kind {shown(kind)}")
    names = [f.name for f in dataclasses.fields(cls)]
    check_keys(obj, ("kind", *names), f"{kind} sequence")
    args = []
    for name in names:  # a loop, so that each explicit tail costs one stack frame
        args.append(sequence_from_obj(obj[name]) if name == "tail" else obj[name])
    return cls(*args)
