"""Strict reading of values from JSON and from library callers, and shared range rules.

JSON delivers booleans, floats and integers alike; ``int()`` would read
``true`` as 1 and truncate ``2.5`` to 2, and ``float()`` would read ``true``
as 1.0 and ``"0.25"`` as 0.25.  A misspelt key would be ignored, and its
value with it.  Input that does not mean what it says is rejected instead.

Each value is read once, by one rule, in the library as in a scenario.  An
integer is read by ``strict_int`` with its bounds (``check_multiplier``,
``check_u64`` and ``check_horizon`` are that rule with theirs): an int, a
numpy integer or an integral float reads as the int it equals.  A real or
complex number is read by ``strict_complex``, and a real one by
``strict_float``, that rule on a ``numbers.Real``, whose ``.real`` is the
double ``float()`` gives, -0.0 included: a boolean, a string, bytes or a
value beyond float range fails as ``{what} must be a number, got ...``, and
inf or nan as ``{what} is not finite: ...``.  Samples of the orbit kernel
(``normal_cdf``'s x, ``ks_statistic``'s values, ``report_from_samples``'
sums) stay outside: a non-finite one is a failed computation (exit 3), not
bad input (exit 1).

Every JSON object of a scenario (the scenario, a sequence, a coefficient)
is read by ``check_keys`` with its required and optional keys: a value that
is not an object, a key that nothing reads and a key that is missing are
rejected, in that order, before any field is read.

A rule that rejects a value shows it by ``shown``: one line of bounded
length, whatever the value.

Every rule here raises ``InputError``, wherever it runs, and so do the
argument rules of ``sequences``, ``trigpoly``, ``analysis`` and
``montecarlo``: the command line reads that type, and that type alone, as
bad input (exit 1).  It subclasses ``ValueError``, so a library caller may
catch either.  A computation that fails on valid arguments (no separated
arc pair, an exact variance of 0.0) raises a plain ``ValueError``.
"""

from __future__ import annotations

import cmath
import numbers
import sys

_SHOWN_BYTES = 42  # the repr of 40 printable ASCII characters


class InputError(ValueError):
    """A value that an input rule rejects: bad input, not a failed computation."""


def shown(value) -> str:
    """value as a rejection message shows it, in a bounded line, without raising.
    A string: its repr, or past _SHOWN_BYTES bytes of UTF-8 the repr of its longest
    prefix within them and its length (an escaped character takes up to 10 bytes).
    An int, float or complex, numpy's float32 and complex64 too: its repr, in hex
    for an int of 14000 bits or more (str() refuses over 4300 digits), and past
    _SHOWN_BYTES a prefix and its length.  Else, a Fraction too: its type name."""
    if isinstance(value, str):
        head = value[:_SHOWN_BYTES - 2]  # no longer prefix has a short enough repr
        while len(repr(head).encode()) > _SHOWN_BYTES:
            head = head[:-1]
        return repr(value) if head == value else f"{head!r}... ({len(value)} characters)"
    fraction = isinstance(value, numbers.Rational) and not isinstance(value, numbers.Integral)
    if fraction or not isinstance(value, numbers.Complex):
        return type(value).__name__  # a Fraction's repr may hold an int str() refuses
    text = hex(value) if isinstance(value, int) and value.bit_length() >= 14000 else repr(value)
    if len(text) <= _SHOWN_BYTES:
        return text
    size = f"{len(text.lstrip('-0x'))} digits" if type(value) is int else f"{len(text)} characters"
    return f"{text[:_SHOWN_BYTES - 2]}... ({size})"


def strict_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int in [lo, hi] (hi only with lo; None: unbounded); booleans,
    strings, non-integral numbers and values out of bounds raise InputError."""
    if type(value) is not int:  # an exact int skips the ABC test: transfer reads its slope here
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer()):
            raise InputError(f"{what} must be an integer, got {shown(value)}")
        value = int(value)
    if lo is not None and value < lo or hi is not None and value > hi:
        bound = f">= {shown(lo)}" if hi is None else f"in [{shown(lo)}, {shown(hi)}]"
        raise InputError(f"{what} must be {bound}, got {shown(value)}")
    return value


def strict_float(value, what: str) -> float:
    """value as a finite float: strict_complex's rule, on a real number only."""
    return strict_complex(value, what, numbers.Real).real


def strict_complex(value, what: str, kind=numbers.Complex) -> complex:
    """value, a number of kind but not a bool, as a finite complex; else InputError."""
    try:
        z = complex(value) if isinstance(value, kind) and not isinstance(value, bool) else None
    except OverflowError:  # an int or a fraction beyond float range
        z = None
    if z is None:
        raise InputError(f"{what} must be a number, got {shown(value)}")
    if not cmath.isfinite(z):
        raise InputError(f"{what} is not finite: {shown(value)}")
    return z


def check_keys(obj, required, what: str, optional=()) -> None:
    """Reject obj unless it is an object whose keys are all of required and
    some of optional: a field that is never read means nothing."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {shown(obj)}")
    for key in obj:
        if key not in required and key not in optional:
            raise InputError(f"unknown {what} key {shown(key)}")
    for key in required:
        if key not in obj:
            raise InputError(f"{what} is missing key {key!r}")


def check_multiplier(value, what: str = "map multiplier") -> int:
    """value as an int >= 2: a map's slope, a chain base, a spike ratio."""
    return strict_int(value, what, 2)


def check_u64(value, what: str) -> int:
    """value as an int in [0, 2^64): a Philox key word outside would alias another."""
    return strict_int(value, what, 0, (1 << 64) - 1)


def check_horizon(n) -> int:
    """n as an int in [1, sys.maxsize]: no list of n values exists beyond that.

    A non-integral n is rejected, not rounded: a walk that counts it down
    by whole indices would step past 0 and never end.
    """
    return strict_int(n, "horizon n", 1, sys.maxsize)


def check_standardization(value) -> str:
    """value, if it names a standardisation: "empirical" or "exact"."""
    if value not in ("empirical", "exact"):
        raise InputError(f"unknown standardization {shown(value)}")
    return value
