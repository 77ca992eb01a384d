"""Shared helpers: integer validation and the round-trip float form."""

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


def format_float(value: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips float64 exactly."""
    return f"{float(value):.17g}"
