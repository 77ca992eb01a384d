"""Small zero-sum normal-form games for regret-matching experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import ordered_sum

# Row player's payoffs; the column player receives the negation.
_NAMED = {
    "rps": ((0.0, -1.0, 1.0), (1.0, 0.0, -1.0), (-1.0, 1.0, 0.0)),
    "biased_mp": ((1.0, -1.0), (-1.0, 2.0)),
}


@dataclass(frozen=True)
class MatrixGame:
    """A finite zero-sum matrix game from the row player's point of view."""

    name: str
    payoffs: tuple[tuple[float, ...], ...]
    utility_range: float

    @property
    def n_rows(self) -> int:
        return len(self.payoffs)

    @property
    def n_cols(self) -> int:
        return len(self.payoffs[0])

    def row_payoffs(self, col_strategy) -> list[float]:
        """Expected payoff of each row action against a column mixture,
        added in column order (``ordered_sum``)."""
        return [
            ordered_sum(p * q for p, q in zip(row, col_strategy))
            for row in self.payoffs
        ]

    def col_payoffs(self, row_strategy) -> list[float]:
        """Expected payoff of each column action against a row mixture,
        added in row order (``ordered_sum``)."""
        return [
            -ordered_sum(
                row_strategy[i] * self.payoffs[i][j] for i in range(self.n_rows)
            )
            for j in range(self.n_cols)
        ]


def build_matrix(name: str | None = None, payoffs=None) -> MatrixGame:
    """Build a named matrix game (rps, biased_mp) or one from explicit payoffs."""
    if name is not None and payoffs is None:
        try:
            payoffs = _NAMED[name]
        except KeyError:
            raise ValueError(f"unknown matrix game '{name}'") from None
    elif payoffs is not None:
        name = name or "custom"
    else:
        raise ValueError("need a game name or explicit payoffs")
    rows = tuple(tuple(float(x) for x in row) for row in payoffs)
    if not rows or not rows[0]:
        raise ValueError("empty payoff matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged payoff matrix")
    flat = [x for row in rows for x in row]
    if not all(map(math.isfinite, flat)):
        raise ValueError("non-finite payoff")
    return MatrixGame(name=name, payoffs=rows, utility_range=max(flat) - min(flat))
