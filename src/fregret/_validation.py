"""Shared helpers: integer validation, the in-order float sum, the
round-trip float form and the number grammar every file reader takes."""

from __future__ import annotations

import re


def is_integer(value) -> bool:
    """Whether ``value`` equals an integer; infinities, NaN and None do not."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
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


# The number forms ``format_float`` and ``repr`` write, and the only ones the
# file readers take, though ``float`` also reads spaces, ``+1``, ``1_0``,
# ``.5``, ``1E5``, ``Infinity`` and more. ``(?:x|)`` is ``(?:x)?``, which
# ``re`` matches more slowly. Indices are plain ASCII digits.
NUMBER = r"-?[0-9]+(?:\.[0-9]+|)(?:e[-+][0-9]+|)|-?inf|nan"
INDEX = r"[0-9]+"
NUMBER_PATTERN = re.compile(NUMBER)
INDEX_PATTERN = re.compile(INDEX)
