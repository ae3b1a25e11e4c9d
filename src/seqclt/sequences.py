"""Random-access generators for the map sequence a_1, a_2, ...

Each spec kind is a small immutable rule mapping an index k >= 1 to an
integer multiplier >= 2 (the slope of the k-th circle map).  Random access
matters: downstream analyses jump to arbitrary indices (spike neighbourhoods,
block interiors) without iterating from the start, and Monte Carlo workers
evaluate the same sequence concurrently.  Scans from the start use
``iter_values`` instead, which costs O(1) per index for every kind; prefix
aggregates (the product that sizes an exact orbit) are taken over that scan.

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

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from ._strict import check_multiplier, strict_float, strict_int

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

_VALIDATE_HORIZON = 1 << 48


class SequenceSpec:
    """Base class; concrete kinds implement value_at and to_obj."""

    kind: str = "?"

    def value_at(self, k: int) -> int:
        raise NotImplementedError

    def iter_values(self) -> Iterator[int]:
        """a_1, a_2, ... in order, endlessly; equal to value_at at every index."""
        return map(self.value_at, itertools.count(1))

    def to_obj(self) -> dict:
        raise NotImplementedError


def _check_index(k: int) -> None:
    if k < 1:
        raise ValueError(f"sequence index must be >= 1, got {k}")


@dataclass(frozen=True)
class Constant(SequenceSpec):
    b: int

    kind = "constant"

    def __post_init__(self):
        check_multiplier(self.b)

    def value_at(self, k: int) -> int:
        _check_index(k)
        return self.b

    def to_obj(self) -> dict:
        return {"kind": "constant", "b": self.b}


@dataclass(frozen=True)
class Periodic(SequenceSpec):
    values: tuple[int, ...]

    kind = "periodic"

    def __post_init__(self):
        if not self.values:
            raise ValueError("periodic spec needs a nonempty word")
        object.__setattr__(self, "values", tuple(check_multiplier(v) for v in self.values))

    def value_at(self, k: int) -> int:
        _check_index(k)
        return self.values[(k - 1) % len(self.values)]

    def to_obj(self) -> dict:
        return {"kind": "periodic", "values": list(self.values)}


@dataclass(frozen=True)
class Explicit(SequenceSpec):
    values: tuple[int, ...]
    tail: SequenceSpec

    kind = "explicit"

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit spec needs a nonempty head")
        object.__setattr__(self, "values", tuple(check_multiplier(v) for v in self.values))
        if not isinstance(self.tail, SequenceSpec):
            raise ValueError("explicit tail must be a SequenceSpec")

    def value_at(self, k: int) -> int:
        _check_index(k)
        if k <= len(self.values):
            return self.values[k - 1]
        return self.tail.value_at(k - len(self.values))

    def iter_values(self) -> Iterator[int]:
        return itertools.chain(self.values, self.tail.iter_values())

    def to_obj(self) -> dict:
        return {"kind": "explicit", "values": list(self.values), "tail": self.tail.to_obj()}


@dataclass(frozen=True)
class Triples(SequenceSpec):
    """Background b0 with a_p = a_{p+1} = a_{p+2} = B at p = p0 * r^l, l >= 0."""

    b0: int
    B: int
    p0: int
    r: int

    kind = "triples"

    def __post_init__(self):
        check_multiplier(self.b0)
        check_multiplier(self.B)
        if self.B <= self.b0:
            raise ValueError("spike value must exceed the background value")
        if not isinstance(self.p0, int) or self.p0 < 1:
            raise ValueError("first spike position p0 must be an integer >= 1")
        check_multiplier(self.r, "position ratio r")
        if self.p0 * (self.r - 1) < 3:
            raise ValueError("spikes overlap: need p0*(r-1) >= 3")

    def spike_positions(self, limit: int):
        """Spike start positions p <= limit, in increasing order."""
        p = self.p0
        while p <= limit:
            yield p
            p *= self.r

    def value_at(self, k: int) -> int:
        _check_index(k)
        for p in self.spike_positions(k):
            if k <= p + 2:
                return self.B
        return self.b0

    def iter_values(self) -> Iterator[int]:
        k = 1
        for p in self.spike_positions(math.inf):
            yield from itertools.repeat(self.b0, p - k)
            yield from itertools.repeat(self.B, 3)
            k = p + 3

    def to_obj(self) -> dict:
        return {"kind": "triples", "b0": self.b0, "B": self.B, "p0": self.p0, "r": self.r}


@dataclass(frozen=True)
class Blocks(SequenceSpec):
    """a_k = 3 on the runs [d_l, d_l + l), l >= 1, with d_l = ceil(D^l); else 2."""

    D: float

    kind = "blocks"

    def __post_init__(self):
        object.__setattr__(self, "D", float(self.D))
        if not (math.isfinite(self.D) and self.D > 1.0):
            raise ValueError(f"block schedule needs a finite growth D > 1, got {self.D!r}")
        # Blocks must not overlap anywhere we may ever be asked to evaluate.
        prev_end = 0
        for l in range(1, 4096):
            d = self.block_start(l)
            if d < prev_end:
                raise ValueError(f"blocks overlap at l={l}: start {d} < previous end {prev_end}")
            prev_end = d + l
            if d > _VALIDATE_HORIZON:
                break

    def block_start(self, l: int) -> int:
        d = self.D**l
        if d > float(_VALIDATE_HORIZON) * 4:
            # avoid float blowup for absurd l; exact for integral D
            if self.D == int(self.D):
                return int(self.D) ** l
        return math.ceil(d)

    def value_at(self, k: int) -> int:
        _check_index(k)
        l = 1
        while True:
            d = self.block_start(l)
            if d > k:
                return 2
            if k < d + l:
                return 3
            l += 1

    def iter_values(self) -> Iterator[int]:
        k = 1
        for l in itertools.count(1):
            d = self.block_start(l)
            yield from itertools.repeat(2, d - k)
            yield from itertools.repeat(3, d + l - max(d, k))
            k = max(k, d + l)

    def to_obj(self) -> dict:
        return {"kind": "blocks", "D": self.D}


def generate(spec: SequenceSpec, k: int) -> int:
    """Value a_k; pure and random-access (same (spec, k) always agree)."""
    return spec.value_at(k)


def sequence_from_obj(obj) -> SequenceSpec:
    """Parse the serialized {"kind": ..., ...} form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("sequence must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(strict_int(obj["b"], "b"))
        if kind == "periodic":
            return Periodic(tuple(strict_int(v, "values") for v in obj["values"]))
        if kind == "explicit":
            return Explicit(
                tuple(strict_int(v, "values") for v in obj["values"]),
                sequence_from_obj(obj["tail"]),
            )
        if kind == "triples":
            return Triples(*(strict_int(obj[key], key) for key in ("b0", "B", "p0", "r")))
        if kind == "blocks":
            return Blocks(strict_float(obj["D"], "D"))
    except KeyError as exc:
        raise ValueError(f"sequence kind {kind!r} is missing field {exc}") from exc
    raise ValueError(f"unknown sequence kind {kind!r}")
