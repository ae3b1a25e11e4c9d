"""Strict integer conversion for counts, seeds and multipliers read from JSON.

JSON delivers booleans, floats and integers alike, and ``int()`` would read
``true`` as 1 and truncate ``2.5`` to 2.  Input that does not mean what it
says is rejected instead.
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
