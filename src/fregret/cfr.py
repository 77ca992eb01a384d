"""Tabular counterfactual regret minimization for two-player zero-sum games.

One full-width tree pass per iteration computes, for every infoset, the
opponent-and-chance weighted regret of each action against the current
policy, accumulates those into cumulative regret and strategy-sum tables,
and the normalized strategy sums converge to an approximate equilibrium.

The pass itself (``cfr_pass``) is policy-agnostic: it takes a callback
mapping infoset keys to action distributions, so the same traversal serves
both the tabular solver here and solvers that predict regrets with a fitted
model. All arithmetic is pure-Python floats in a fixed traversal order, so
repeated runs are bit-for-bit identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .efg_core import GameSpec, enumerate_infosets, node_values
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
    """Cumulative regrets and strategy sums, one vector per infoset key.

    The acting seat is implied by the key (it is recorded in the game), so
    both maps are keyed by infoset alone. Regrets are stored unclipped;
    negative totals only flatten the matched policy to uniform.
    """

    game: GameSpec = field(repr=False)
    regrets: dict[str, list[float]] = field(repr=False)
    strategy_sums: dict[str, list[float]] = field(repr=False)
    iterations: int = 0


def new_tables(game: GameSpec) -> CFRTables:
    """Zero-initialized tables covering every infoset of ``game``."""
    rows = enumerate_infosets(game)
    return CFRTables(
        game=game,
        regrets={key: [0.0] * n for _, key, n in rows},
        strategy_sums={key: [0.0] * n for _, key, n in rows},
    )


def current_policy(tables: CFRTables, player: int, infoset: str):
    """Regret matching on the stored cumulative regrets of one infoset."""
    if infoset not in tables.regrets:
        raise KeyError(f"unknown infoset '{infoset}'")
    if tables.game.infoset_player[infoset] != player:
        raise ValueError(
            f"infoset '{infoset}' belongs to player "
            f"{tables.game.infoset_player[infoset]}, not {player}"
        )
    return regret_match(tables.regrets[infoset])


def cfr_pass(game: GameSpec, policy_fn, strategy_sums, update_players):
    """One full-width traversal under the policies given by ``policy_fn``.

    Every action branch is evaluated regardless of its probability. For each
    seat in ``update_players``, reach-weighted policies are added into
    ``strategy_sums`` in place and the per-infoset immediate regrets
    (opponent-and-chance weighted advantage of each action over the policy
    value) are accumulated into the returned dict. Returns
    ``(seat 0 root value, immediate regrets)``; seat 1's value is the exact
    negation.

    ``policy_fn`` is asked once per infoset, in ``enumerate_infosets`` order.
    A bottom-up sweep values the nodes, then a top-down one carries reach and
    adds each decision node's terms. An infoset's nodes are never ancestor and
    descendant, so preorder adds them in the order their subtrees finish.
    """
    layout = game.layout
    policies = [policy_fn(key) for _, key, _ in layout.infosets]
    values = node_values(layout, policies)
    rows: dict[int, tuple[list[float], list[float]]] = {}
    deltas: dict[str, list[float]] = {}
    for k, (player, key, _) in enumerate(layout.infosets):
        if player in update_players:
            n = len(policies[k])
            deltas[key] = [0.0] * n
            rows[k] = strategy_sums.setdefault(key, [0.0] * n), deltas[key]
    children, infoset, probs = layout.children, layout.infoset, layout.probs
    reach0 = [1.0] * len(children)
    reach1 = [1.0] * len(children)
    chance_reach = [1.0] * len(children)
    for node in layout.inner:
        r0, r1, rc = reach0[node], reach1[node], chance_reach[node]
        kids = children[node]
        k = infoset[node]
        player = layout.infosets[k][0] if k >= 0 else 2  # 2: chance moves
        policy = policies[k] if k >= 0 else probs[node]
        for prob, child in zip(policy, kids):
            if children[child]:
                reach0[child] = r0 * prob if player == 0 else r0
                reach1[child] = r1 * prob if player == 1 else r1
                chance_reach[child] = rc * prob if player == 2 else rc
        if k not in rows:
            continue
        sums, vec = rows[k]
        node_value = values[node]
        if player == 0:
            counterfactual = r1 * rc
            for a, prob in enumerate(policy):
                sums[a] += r0 * prob
                vec[a] += counterfactual * (values[kids[a]] - node_value)
        else:
            # Seat 1's value is the negation, so the advantage flips sign.
            counterfactual = r0 * rc
            for a, prob in enumerate(policy):
                sums[a] += r1 * prob
                vec[a] += counterfactual * (node_value - values[kids[a]])
    return values[0], deltas


def _update(game: GameSpec, tables: CFRTables, players):
    """One regret-matched pass updating ``players``; returns their regrets."""
    regrets = tables.regrets
    _, deltas = cfr_pass(
        game, lambda key: regret_match(regrets[key]), tables.strategy_sums, players
    )
    for infoset, vec in deltas.items():
        row = regrets[infoset]
        for a, value in enumerate(vec):
            row[a] += value
    return deltas


def cfr_iteration(game: GameSpec, tables: CFRTables):
    """One simultaneous update of both seats; returns the immediate regrets."""
    deltas = _update(game, tables, (0, 1))
    tables.iterations += 1
    return deltas


def cfr_iteration_alternating(game: GameSpec, tables: CFRTables):
    """One alternating update (seat 0's pass, then seat 1's against it).

    Seat 1's pass already sees seat 0's refreshed regrets. Returns the
    combined immediate regrets keyed by infoset (the key sets are disjoint).
    """
    combined = _update(game, tables, (0,))
    combined.update(_update(game, tables, (1,)))
    tables.iterations += 1
    return combined


def average_from_sums(strategy_sums) -> dict[str, tuple[float, ...]]:
    """Normalized strategy sums; infosets with zero mass fall back to uniform."""
    profile: dict[str, tuple[float, ...]] = {}
    for key, sums in strategy_sums.items():
        total = sum(sums)
        if total > 0.0:
            profile[key] = tuple(s / total for s in sums)
        else:
            profile[key] = (1.0 / len(sums),) * len(sums)
    return profile


def average_strategy(tables: CFRTables) -> dict[str, tuple[float, ...]]:
    """Average strategy profile of the tables (normalized strategy sums)."""
    return average_from_sums(tables.strategy_sums)


def max_positive_regret_sum(tables: CFRTables) -> float:
    """Sum over all infosets of the clipped-at-zero maximum cumulative regret.

    Divided by the iteration count this upper-bounds the exploitability of
    the average strategy.
    """
    return sum(max(0.0, max(row)) for row in tables.regrets.values())


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
                    exploitability=exploitability(game, average_strategy(tables)),
                    max_pos_regret_sum=max_positive_regret_sum(tables),
                    wall_ms=(time.perf_counter() - start) * 1000.0,
                )
            )
    return average_strategy(tables), log
