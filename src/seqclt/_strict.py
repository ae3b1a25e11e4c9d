"""Strict number conversion for values read from JSON, and shared range rules.

JSON delivers booleans, floats and integers alike; ``int()`` would read
``true`` as 1 and truncate ``2.5`` to 2, and ``float()`` would read ``true``
as 1.0 and ``"0.25"`` as 0.25.  Input that does not mean what it says is
rejected instead.
"""

from __future__ import annotations

import numbers


def strict_int(value, what: str) -> int:
    """value as an int; booleans, strings and non-integral numbers raise ValueError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def strict_float(value, what: str) -> float:
    """value as a float; booleans, strings and integers beyond float range raise ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def check_multiplier(value, what: str = "map multiplier") -> int:
    """value, if it is an integer >= 2: a map's slope, a chain base, a spike ratio."""
    if not isinstance(value, int) or value < 2:
        raise ValueError(f"{what} must be an integer >= 2, got {value!r}")
    return value


def check_u64(value: int, what: str) -> int:
    """value, if it is in [0, 2^64): a Philox key word outside would alias another."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{what} must be in [0, 2^64), got {value}")
    return value
