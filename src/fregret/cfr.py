"""Tabular counterfactual regret minimization for two-player zero-sum games.

One full-width tree pass per iteration computes, for every infoset, the
opponent-and-chance weighted regret of each action against the current
policy, accumulates those into cumulative regret and strategy-sum tables,
and the normalized strategy sums converge to an approximate equilibrium.

Tables are flat lists over the game's slots, one per infoset-action (see
``GameLayout``). The pass itself (``cfr_pass``) is policy-agnostic: it takes
one action distribution per infoset id, so the same traversal serves both
the tabular solver here and solvers that predict regrets with a fitted
model; ``policy_rows`` regret-matches either kind of slot vector into those
rows. All arithmetic is pure-Python floats in a fixed traversal order, so
repeated runs are bit-for-bit identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .efg_core import GameSpec, node_values
from .eval import exploitability
from .regret import regret_match

UPDATE_MODES = ("simultaneous", "alternating")


@dataclass
class CFRConfig:
    """Solver settings: iteration count, update scheme, and log cadence."""

    iterations: int
    update_mode: str = "simultaneous"
    log_every: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(
                f"update_mode must be one of {UPDATE_MODES}, "
                f"got '{self.update_mode}'"
            )
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class ConvergenceRow:
    """One logged solver checkpoint."""

    t: int
    exploitability: float
    max_pos_regret_sum: float
    wall_ms: float


@dataclass
class CFRTables:
    """Cumulative regrets and strategy sums, one flat list each, indexed by
    the game's slots (see ``GameLayout``). Regrets are stored unclipped;
    negative totals only flatten the matched policy to uniform.
    """

    game: GameSpec = field(repr=False)
    regrets: list[float] = field(repr=False)
    strategy_sums: list[float] = field(repr=False)
    iterations: int = 0


def new_tables(game: GameSpec) -> CFRTables:
    """Zero-initialized tables covering every slot of ``game``."""
    slots = game.layout.offset[-1]
    return CFRTables(game=game, regrets=[0.0] * slots, strategy_sums=[0.0] * slots)


def policy_rows(game: GameSpec, regrets) -> list[tuple[float, ...]]:
    """Regret matching on each infoset's slots of ``regrets``, by infoset id.

    Raises ValueError naming the first infoset, in table order, whose slots
    hold a NaN or infinite value.
    """
    offset = game.layout.offset
    rows = []
    for k, (_, key, _) in enumerate(game.layout.infosets):
        try:
            rows.append(regret_match(regrets[offset[k] : offset[k + 1]]))
        except ValueError as error:
            raise ValueError(f"infoset '{key}': {error}") from error
    return rows


def cfr_pass(game: GameSpec, rows, strategy_sums, update_players):
    """One full-width traversal, infoset ``k`` playing ``rows[k]``.

    Every action branch is evaluated regardless of its probability. For each
    seat in ``update_players``, reach-weighted policies are added into the
    slot list ``strategy_sums`` in place, and the immediate regrets
    (opponent-and-chance weighted advantage of each action over the policy
    value) are accumulated into a new slot list, 0.0 at the other seat's
    slots. Returns ``(seat 0 root value, immediate regrets)``; seat 1's
    value is the exact negation.

    A bottom-up sweep values the nodes, then a top-down one carries reach and
    adds each decision node's terms. An infoset's nodes are never ancestor and
    descendant, so preorder adds them in the order their subtrees finish.
    """
    layout = game.layout
    values = node_values(layout, rows)
    offset = layout.offset
    deltas = [0.0] * offset[-1]
    children, infoset, probs = layout.children, layout.infoset, layout.probs
    reach0 = [1.0] * len(children)
    reach1 = [1.0] * len(children)
    chance_reach = [1.0] * len(children)
    for node in layout.inner:
        r0, r1, rc = reach0[node], reach1[node], chance_reach[node]
        kids = children[node]
        k = infoset[node]
        player = layout.infosets[k][0] if k >= 0 else 2  # 2: chance moves
        policy = rows[k] if k >= 0 else probs[node]
        for prob, child in zip(policy, kids):
            if children[child]:
                reach0[child] = r0 * prob if player == 0 else r0
                reach1[child] = r1 * prob if player == 1 else r1
                chance_reach[child] = rc * prob if player == 2 else rc
        if player not in update_players:
            continue
        node_value = values[node]
        slot = offset[k]
        if player == 0:
            counterfactual = r1 * rc
            for prob, child in zip(policy, kids):
                strategy_sums[slot] += r0 * prob
                deltas[slot] += counterfactual * (values[child] - node_value)
                slot += 1
        else:
            # Seat 1's value is the negation, so the advantage flips sign.
            counterfactual = r0 * rc
            for prob, child in zip(policy, kids):
                strategy_sums[slot] += r1 * prob
                deltas[slot] += counterfactual * (node_value - values[child])
                slot += 1
    return values[0], deltas


def _update(game: GameSpec, tables: CFRTables, players):
    """One regret-matched pass updating ``players``; returns its regrets.

    Regrets and deltas are sums that start from +0.0, so neither is ever
    -0.0, and adding the other seat's 0.0 deltas changes no regret.
    """
    rows = policy_rows(game, tables.regrets)
    _, deltas = cfr_pass(game, rows, tables.strategy_sums, players)
    tables.regrets = [r + d for r, d in zip(tables.regrets, deltas)]
    return deltas


def cfr_iteration(game: GameSpec, tables: CFRTables):
    """One simultaneous update of both seats; returns the immediate regrets."""
    deltas = _update(game, tables, (0, 1))
    tables.iterations += 1
    return deltas


def cfr_iteration_alternating(game: GameSpec, tables: CFRTables):
    """One alternating update (seat 0's pass, then seat 1's against it).

    Seat 1's pass already sees seat 0's refreshed regrets. Returns both
    passes' immediate regrets in one slot list: each pass is 0.0 at the
    other's slots.
    """
    first = _update(game, tables, (0,))
    second = _update(game, tables, (1,))
    tables.iterations += 1
    return [a + b for a, b in zip(first, second)]


def average_strategy(game: GameSpec, strategy_sums) -> dict[str, tuple[float, ...]]:
    """Normalized strategy sums by infoset key, in table order; infosets
    with zero mass fall back to uniform."""
    offset = game.layout.offset
    profile: dict[str, tuple[float, ...]] = {}
    for k, (_, key, n) in enumerate(game.layout.infosets):
        sums = strategy_sums[offset[k] : offset[k + 1]]
        total = sum(sums)
        if total > 0.0:
            profile[key] = tuple(s / total for s in sums)
        else:
            profile[key] = (1.0 / n,) * n
    return profile


def max_positive_regret_sum(tables: CFRTables) -> float:
    """Sum over all infosets of the clipped-at-zero maximum cumulative regret.

    Divided by the iteration count this upper-bounds the exploitability of
    the average strategy.
    """
    regrets, offset = tables.regrets, tables.game.layout.offset
    return sum(
        max(0.0, max(regrets[start:end])) for start, end in zip(offset, offset[1:])
    )


def solve(game: GameSpec, config: CFRConfig):
    """Run CFR and return (average strategy profile, convergence log).

    Logs every ``config.log_every`` iterations and always at the final one:
    iteration number, exploitability of the running average strategy, the
    positive-regret bound numerator, and elapsed wall-clock milliseconds.
    Everything except the timing column is deterministic.
    """
    tables = new_tables(game)
    step = (
        cfr_iteration
        if config.update_mode == "simultaneous"
        else cfr_iteration_alternating
    )
    log: list[ConvergenceRow] = []
    start = time.perf_counter()
    for t in range(1, config.iterations + 1):
        step(game, tables)
        if t % config.log_every == 0 or t == config.iterations:
            log.append(
                ConvergenceRow(
                    t=t,
                    exploitability=exploitability(
                        game, average_strategy(game, tables.strategy_sums)
                    ),
                    max_pos_regret_sum=max_positive_regret_sum(tables),
                    wall_ms=(time.perf_counter() - start) * 1000.0,
                )
            )
    return average_strategy(game, tables.strategy_sums), log
