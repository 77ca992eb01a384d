"""Tabular counterfactual regret minimization for two-player zero-sum games.

One full-width tree pass per iteration computes, for every infoset, the
opponent-and-chance weighted regret of each action against the current
policy and accumulates those into a cumulative regret table. It adds each
slot's policy into a strategy-sum table once per sequence, weighted by the
acting seat's own reach, and the normalized strategy sums converge to an
approximate equilibrium.

Tables are float64 vectors over the game's slots, one per infoset-action
(see ``GameLayout``). The pass itself (``cfr_pass``) is policy-agnostic: it
takes the policy as a slot vector, so the same traversal serves both the
tabular solver here and solvers that predict regrets with a fitted model;
``regret_policy`` regret-matches either kind of regret vector. Both are
numpy sweeps over the layout's index arrays whose every sum runs from 0.0
in a fixed order (``np.add.at``, ``bincount`` or a loop), never pairwise
or compensated, so runs are bit-for-bit identical across repeats and
across Python versions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive_int, ordered_sum
from .efg_core import GameSpec, sequence_reach
from .eval import policy_exploitability


@dataclass
class CFRConfig:
    """Solver settings: iteration count and log cadence."""

    iterations: int
    log_every: int = 1

    def __post_init__(self) -> None:
        self.iterations = check_positive_int(self.iterations, "iterations")
        self.log_every = check_positive_int(self.log_every, "log_every")


@dataclass(frozen=True)
class ConvergenceRow:
    """One logged solver checkpoint."""

    t: int
    exploitability: float
    max_pos_regret_sum: float
    wall_ms: float


@dataclass
class CFRTables:
    """Cumulative regrets and strategy sums, one float64 vector each, indexed
    by the game's slots (see ``GameLayout``). Regrets are stored unclipped;
    negative totals only flatten the matched policy to uniform.
    """

    game: GameSpec = field(repr=False)
    regrets: np.ndarray = field(repr=False)
    strategy_sums: np.ndarray = field(repr=False)
    iterations: int = 0


def new_tables(game: GameSpec) -> CFRTables:
    """Zero-initialized tables covering every slot of ``game``."""
    slots = game.layout.offset[-1]
    return CFRTables(game=game, regrets=np.zeros(slots), strategy_sums=np.zeros(slots))


def _normalize(game: GameSpec, weights: np.ndarray) -> np.ndarray:
    """Each infoset's slots of ``weights`` divided by their total, summed from
    0.0 in slot order; uniform where the total is not positive."""
    layout = game.layout
    totals = np.bincount(layout.owner, weights, len(layout.infosets))[layout.owner]
    policy = layout.uniform.copy()
    np.divide(weights, totals, out=policy, where=totals > 0.0)
    return policy


def regret_policy(game: GameSpec, regrets) -> np.ndarray:
    """Regret matching at every infoset at once: the policy as a slot vector.

    Each infoset's slots equal ``regret_match`` of its slots of ``regrets``,
    bit for bit. Raises ValueError naming the first infoset, in table order,
    whose regrets sum to a NaN or infinite value.
    """
    regrets = np.asarray(regrets, dtype=np.float64)
    layout = game.layout
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.bincount(layout.owner, regrets, len(layout.infosets))
        finite = np.isfinite(totals)
        if not finite.all():
            k = int(finite.argmin())  # the first infoset that is not
            row = tuple(regrets[layout.offset[k] : layout.offset[k + 1]].tolist())
            raise ValueError(
                f"infoset '{layout.infosets[k][1]}': non-finite regrets {row!r}"
            )
        return _normalize(game, np.where(regrets > 0.0, regrets, 0.0))


def cfr_pass(game: GameSpec, policy, strategy_sums):
    """One full-width traversal, slot ``s`` played with ``policy[s]``.

    Every action branch is evaluated regardless of its probability. For both
    seats, the policy is added into the slot vector ``strategy_sums`` in
    place, once per sequence, weighted by own reach, and the immediate
    regrets (opponent-and-chance weighted advantage of each action over the
    policy value) are accumulated into a new slot vector. Returns ``(seat 0
    root value, immediate regrets)``; seat 1's value is the exact negation.

    A bottom-up sweep over the layout's edge ``levels`` values each node
    once, however many positions share it, each adding its weighted child
    values, in action order, to 0.0. A vector of every sequence's reach
    (``efg_core.sequence_reach``) gives, with the chance reach, each
    decision edge's counterfactual weight. A slot's entry of that vector is
    its seat's own reach at the infoset times the slot's policy, the same
    at every position of the infoset under perfect recall, so the strategy
    sums add the vector's slots once each. Each class of both seats'
    decision edges (see ``GameLayout.decisions``) computes its term once;
    then one ``bincount`` adds each position's class term, each slot's in
    preorder. An infoset's positions are never ancestor and descendant, so
    preorder adds them in the order their subtrees finish.
    """
    layout = game.layout
    policy = np.asarray(policy, dtype=np.float64)
    weight = np.concatenate((policy, layout.tail))[layout.source]
    parent, child = layout.parent, layout.child
    values = layout.utility.copy()
    for level in layout.levels:
        np.add.at(values, parent[level], weight[level] * values[child[level]])
    reach = sequence_reach(layout, policy)
    slot, kind, gain, loss, opponent, by_chance = layout.decisions
    strategy_sums += reach[: layout.offset[-1]]
    terms = reach[opponent] * by_chance * (values[gain] - values[loss])
    deltas = np.bincount(slot, terms[kind], minlength=layout.offset[-1])
    return float(values[0]), deltas


def cfr_iteration(game: GameSpec, tables: CFRTables):
    """One regret-matched pass updating both seats; returns its regrets."""
    policy = regret_policy(game, tables.regrets)
    _, deltas = cfr_pass(game, policy, tables.strategy_sums)
    tables.regrets += deltas
    tables.iterations += 1
    return deltas


def average_strategy(game: GameSpec, strategy_sums) -> dict[str, tuple[float, ...]]:
    """Normalized strategy sums by infoset key, in table order, uniform at
    zero mass. Raises ValueError at the first infoset with a NaN, inf or
    negative sum."""
    layout, sums = game.layout, np.asarray(strategy_sums, dtype=np.float64)
    bad = layout.owner[~((sums >= 0.0) & (sums < np.inf))]
    if len(bad):
        row = tuple(sums[layout.owner == bad[0]].tolist())
        raise ValueError(
            f"infoset '{layout.infosets[bad[0]][1]}': "
            f"non-finite or negative strategy sums {row!r}"
        )
    probs = _normalize(game, sums).tolist()
    return {
        key: tuple(probs[layout.offset[k] : layout.offset[k + 1]])
        for k, (_, key, _) in enumerate(layout.infosets)
    }


def max_positive_regret_sum(tables: CFRTables) -> float:
    """Sum over all infosets of the clipped-at-zero maximum cumulative regret.

    Divided by the iteration count this upper-bounds the exploitability of
    the average strategy. The sum runs from 0.0 in table order.
    """
    maxima = np.maximum.reduceat(tables.regrets, tables.game.layout.offset[:-1])
    return ordered_sum(np.maximum(maxima, 0.0).tolist())


def checkpoints(game: GameSpec, config, step, strategy_sums):
    """Call ``step()`` ``config.iterations`` times, logging as it goes.

    After every ``config.log_every``-th call and after the final one, yields
    ``(t, exploitability of the average of strategy_sums, elapsed wall-clock
    milliseconds)``. ``step`` must add into ``strategy_sums`` in place.
    """
    start = time.perf_counter()
    for t in range(1, config.iterations + 1):
        step()
        if t % config.log_every == 0 or t == config.iterations:
            exploit = policy_exploitability(game, _normalize(game, strategy_sums))
            yield t, exploit, (time.perf_counter() - start) * 1000.0


def solve(game: GameSpec, config: CFRConfig):
    """Run CFR and return (average strategy profile, convergence log).

    Logs at every checkpoint (see ``checkpoints``): iteration number,
    exploitability of the running average strategy, the positive-regret
    bound numerator, and elapsed wall-clock milliseconds. Everything except
    the timing column is deterministic.
    """
    tables = new_tables(game)
    log = [
        ConvergenceRow(t, exploit, max_positive_regret_sum(tables), wall_ms)
        for t, exploit, wall_ms in checkpoints(
            game, config, lambda: cfr_iteration(game, tables), tables.strategy_sums
        )
    ]
    return average_strategy(game, tables.strategy_sums), log
