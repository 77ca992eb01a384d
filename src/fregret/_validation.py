"""Shared helpers: integer validation, the in-order float sum and the
round-trip float form."""

from __future__ import annotations


def is_integer(value) -> bool:
    """Whether ``value`` equals an integer; infinities and NaN do not."""
    try:
        return int(value) == value
    except (OverflowError, ValueError):
        return False


def check_positive_int(value, name: str) -> int:
    if not (is_integer(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def ordered_sum(values) -> float:
    """``values`` added one at a time from 0.0, in order. The builtin
    ``sum`` is compensated on Python 3.12+, so its result would depend on
    the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def format_float(value: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips float64 exactly."""
    return f"{float(value):.17g}"
