"""CFR with estimated regrets: policies come from a retrained regressor.

Each iteration runs the same full-width pass as tabular CFR, but the policy
at every infoset is regret matching over *predicted* cumulative regrets.
Exact per-iteration regrets update a per-player target store, and the
estimators are refit on that store. With the memorizing tabular estimator
the predictions equal the stored targets, so the whole trajectory collapses
bit-for-bit onto vanilla CFR; with a depth-limited regression tree the
policy carries approximation error and exploitability plateaus at a floor
that tightens as the tree is allowed finer leaves.

Two target modes: ``exact`` keeps true cumulative regrets (error enters
through the policy only); ``bootstrap`` rebuilds each target from the
previous model's prediction plus the new regret, so estimation error also
compounds through the targets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cfr import average_from_sums, cfr_pass
from .efg_core import GameSpec, enumerate_infosets
from .estimator import TabularEstimator, TreeRegressor, featurize, featurize_exact
from .eval import exploitability
from .regret import regret_match

ESTIMATOR_KINDS = ("tabular", "tree")
TARGET_MODES = ("exact", "bootstrap")


@dataclass
class RCFRConfig:
    """Solver settings plus the regression-tree shape parameters."""

    iterations: int
    estimator_kind: str = "tree"
    target_mode: str = "exact"
    refit_every: int = 1
    log_every: int = 1
    seed: int = 0
    min_leaf_weight: float = 1.0
    max_depth: int | None = None
    n_bags: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ValueError(
                f"estimator_kind must be one of {ESTIMATOR_KINDS}, "
                f"got '{self.estimator_kind}'"
            )
        if self.target_mode not in TARGET_MODES:
            raise ValueError(
                f"target_mode must be one of {TARGET_MODES}, "
                f"got '{self.target_mode}'"
            )
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class RcfrConvergenceRow:
    """One logged checkpoint: quality of play and of the regression fits."""

    t: int
    exploitability: float
    mse_p1: float
    mse_p2: float
    wall_ms: float


@dataclass(frozen=True)
class ModelSizeRow:
    """Per-player model complexity (leaf count / table size) at a checkpoint."""

    t: int
    leaves_p1: int
    leaves_p2: int


@dataclass
class RCFRState:
    """Per-player estimators and regret targets plus exact strategy sums.

    ``matrices`` holds each seat's feature rows as one float64 matrix, in
    the order of its target store; ``predictions`` maps every infoset to
    its estimator's predictions as of the last refit (zeros before the
    first), which the solver reads in place of asking the estimator.
    """

    game: GameSpec = field(repr=False)
    estimators: tuple = field(repr=False)
    targets: tuple = field(repr=False)
    strategy_sums: dict = field(repr=False)
    features: dict = field(repr=False)
    matrices: tuple = field(repr=False)
    predictions: dict = field(repr=False)
    iterations: int = 0


def new_state(game: GameSpec, config: RCFRConfig) -> RCFRState:
    """Fresh solver state with per-action feature rows precomputed.

    The tabular estimator keys on the collision-free extended features; the
    tree uses the compact numeric features it is meant to generalize over.
    """
    if config.estimator_kind == "tabular":
        featurize_fn = featurize_exact
        estimators = (TabularEstimator(), TabularEstimator())
    else:
        featurize_fn = featurize
        estimators = tuple(
            TreeRegressor(
                min_leaf_weight=config.min_leaf_weight,
                max_depth=config.max_depth,
                n_bags=config.n_bags,
                seed=config.seed + player,
            )
            for player in (0, 1)
        )
    rows = enumerate_infosets(game)
    features = {
        key: [
            featurize_fn(game.game_id, key, action)
            for action in game.action_labels[key]
        ]
        for _, key, _ in rows
    }
    targets = (
        {key: [0.0] * n for player, key, n in rows if player == 0},
        {key: [0.0] * n for player, key, n in rows if player == 1},
    )
    state = RCFRState(
        game=game,
        estimators=estimators,
        targets=targets,
        strategy_sums={key: [0.0] * n for _, key, n in rows},
        features=features,
        matrices=tuple(
            np.array(
                [row for key in seat_targets for row in features[key]],
                dtype=np.float64,
            )
            for seat_targets in targets
        ),
        predictions={},
    )
    _cache_predictions(state)
    return state


def rcfr_policy(state: RCFRState, player: int, infoset: str):
    """Regret matching over the estimator's predicted cumulative regrets."""
    if infoset not in state.features:
        raise KeyError(f"unknown infoset '{infoset}'")
    if state.game.infoset_player[infoset] != player:
        raise ValueError(
            f"infoset '{infoset}' belongs to player "
            f"{state.game.infoset_player[infoset]}, not {player}"
        )
    return regret_match(state.estimators[player].predict(state.features[infoset]))


def _cache_predictions(state: RCFRState) -> None:
    """One batched predict per seat, split into per-infoset rows."""
    for player in (0, 1):
        flat = state.estimators[player].predict(state.matrices[player])
        start = 0
        for key, target_row in state.targets[player].items():
            end = start + len(target_row)
            state.predictions[key] = flat[start:end]
            start = end


def _refit(state: RCFRState) -> None:
    for player in (0, 1):
        values = [value for row in state.targets[player].values() for value in row]
        state.estimators[player].fit(state.matrices[player], values)
    _cache_predictions(state)


def training_mse(state: RCFRState, player: int) -> float:
    """Mean squared error over the target store of the predictions cached at
    the last refit (the solver's current estimator)."""
    total = 0.0
    count = 0
    for key, target_row in state.targets[player].items():
        predictions = state.predictions[key]
        for predicted, target in zip(predictions, target_row):
            total += (predicted - target) ** 2
            count += 1
    return total / count if count else 0.0


def rcfr_iteration(game: GameSpec, state: RCFRState, config: RCFRConfig) -> RCFRState:
    """One full-width pass under predicted-regret policies, then refit.

    Immediate regrets are computed exactly as in tabular CFR. Exact mode
    accumulates them into the targets; bootstrap mode rewrites each target
    as the pre-refit model's prediction plus the new regret. Strategy sums
    accumulate exactly either way.
    """
    infoset_player = game.infoset_player
    predictions = state.predictions
    policy_cache: dict[str, tuple[float, ...]] = {}

    def policy_fn(infoset: str):
        policy = policy_cache.get(infoset)
        if policy is None:
            policy = regret_match(predictions[infoset])
            policy_cache[infoset] = policy
        return policy

    _, deltas = cfr_pass(game, policy_fn, state.strategy_sums, (0, 1))
    for infoset, vec in deltas.items():
        target_row = state.targets[infoset_player[infoset]][infoset]
        if config.target_mode == "exact":
            for a, value in enumerate(vec):
                target_row[a] += value
        else:
            predicted = predictions[infoset]
            for a, value in enumerate(vec):
                target_row[a] = predicted[a] + value
    state.iterations += 1
    if state.iterations % config.refit_every == 0:
        _refit(state)
    return state


def rcfr_solve(game: GameSpec, config: RCFRConfig):
    """Run RCFR; returns (average strategy, convergence log, model-size log).

    Both logs share the cadence: every ``log_every`` iterations and at the
    final one. Everything except wall_ms is deterministic for a fixed seed.
    """
    state = new_state(game, config)
    convergence: list[RcfrConvergenceRow] = []
    model_sizes: list[ModelSizeRow] = []
    start = time.perf_counter()
    for t in range(1, config.iterations + 1):
        rcfr_iteration(game, state, config)
        if t % config.log_every == 0 or t == config.iterations:
            convergence.append(
                RcfrConvergenceRow(
                    t=t,
                    exploitability=exploitability(
                        game, average_from_sums(state.strategy_sums)
                    ),
                    mse_p1=training_mse(state, 0),
                    mse_p2=training_mse(state, 1),
                    wall_ms=(time.perf_counter() - start) * 1000.0,
                )
            )
            model_sizes.append(
                ModelSizeRow(
                    t=t,
                    leaves_p1=state.estimators[0].model_complexity(),
                    leaves_p2=state.estimators[1].model_complexity(),
                )
            )
    return average_from_sums(state.strategy_sums), convergence, model_sizes
