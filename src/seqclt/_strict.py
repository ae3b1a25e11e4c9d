"""Strict reading of values from JSON, and shared range rules.

JSON delivers booleans, floats and integers alike; ``int()`` would read
``true`` as 1 and truncate ``2.5`` to 2, and ``float()`` would read ``true``
as 1.0 and ``"0.25"`` as 0.25.  A misspelt key would be ignored, and its
value with it.  Input that does not mean what it says is rejected instead.

Every rule here raises ``InputError``, wherever it runs, and so do the
argument rules of ``sequences``, ``trigpoly``, ``analysis`` and
``montecarlo``: the command line reads that type, and that type alone, as
bad input (exit 1).  It subclasses ``ValueError``, so a library caller may
catch either.  A computation that fails on valid arguments (no separated
arc pair, an exact variance of 0.0) raises a plain ``ValueError``.
"""

from __future__ import annotations

import numbers
import sys


class InputError(ValueError):
    """A value that an input rule rejects: bad input, not a failed computation."""


def strict_int(value, what: str) -> int:
    """value as an int; booleans, strings and non-integral numbers raise InputError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def strict_float(value, what: str) -> float:
    """value as a float; booleans, strings and integers beyond float range raise InputError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InputError(f"{what} must be a number, got {value!r}")


def strict_complex(value, what: str) -> complex:
    """value as a complex; booleans, strings, bytes and ints beyond float range raise InputError."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:
            pass
    raise InputError(f"{what} must be a number, got {value!r}")


def check_keys(obj: dict, allowed, what: str) -> None:
    """Reject a key of obj outside allowed: a field that is never read means nothing."""
    for key in obj:
        if key not in allowed:
            raise InputError(f"unknown {what} key {key!r}")


def check_multiplier(value, what: str = "map multiplier") -> int:
    """value, if it is an integer >= 2: a map's slope, a chain base, a spike ratio."""
    if not isinstance(value, int) or value < 2:
        raise InputError(f"{what} must be an integer >= 2, got {value!r}")
    return value


def check_u64(value, what: str) -> int:
    """value as an int in [0, 2^64): a Philox key word outside would alias another."""
    value = strict_int(value, what)
    if not 0 <= value < 1 << 64:
        raise InputError(f"{what} must be in [0, 2^64), got {value}")
    return value


def check_index(k: int) -> int:
    """k, if it is >= 1: the sequence a_1, a_2, ... starts at index 1."""
    if k < 1:
        raise InputError(f"sequence index must be >= 1, got {k}")
    return k


def check_horizon(n) -> int:
    """n as an int in [1, sys.maxsize]: no list of n values exists beyond that.

    A non-integral n is rejected, not rounded: a walk that counts it down
    by whole indices would step past 0 and never end.
    """
    n = strict_int(n, "horizon n")
    if not 1 <= n <= sys.maxsize:
        raise InputError(f"horizon n must be in [1, {sys.maxsize}], got {n}")
    return n


def check_standardization(value) -> str:
    """value, if it names a standardisation: "empirical" or "exact"."""
    if value not in ("empirical", "exact"):
        raise InputError(f"unknown standardization {value!r}")
    return value
