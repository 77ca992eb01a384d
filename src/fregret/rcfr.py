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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._validation import check_positive_int
from .cfr import average_strategy, cfr_pass, checkpoints, regret_policy
from .efg_core import GameSpec
from .estimator import (
    FitPlan,
    TabularEstimator,
    TreeRegressor,
    _check_max_depth,
    _check_min_leaf_weight,
    featurize,
    fit_forest,
    plan_fit,
)

ESTIMATOR_KINDS = ("tabular", "tree")
TARGET_MODES = ("exact", "bootstrap")


@dataclass
class RCFRConfig:
    """Solver settings plus the regression-tree shape parameters."""

    iterations: int
    estimator_kind: str = "tree"
    target_mode: str = "exact"
    log_every: int = 1
    seed: int = 0
    min_leaf_weight: float = 1.0
    max_depth: int | None = None
    n_bags: int = 1

    def __post_init__(self) -> None:
        self.iterations = check_positive_int(self.iterations, "iterations")
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
        self.log_every = check_positive_int(self.log_every, "log_every")
        self.min_leaf_weight = _check_min_leaf_weight(self.min_leaf_weight)
        self.max_depth = _check_max_depth(self.max_depth)
        self.n_bags = check_positive_int(self.n_bags, "n_bags")


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
    """Per-player estimators and regret targets plus exact strategy sums,
    all indexed by the game's slots (see ``GameLayout``).

    ``features`` holds one float64 feature row per slot, and ``seat_slots``
    each seat's slots in table order: the rows its estimator trains on.
    ``targets``, ``predictions`` and ``strategy_sums`` are float64 slot
    vectors; a slot's prediction comes from its seat's estimator as of the
    last refit (zeros before the first), and the solver reads it in place of
    asking the estimator. A seat with no slots has no estimator fit.
    """

    game: GameSpec = field(repr=False)
    estimators: tuple = field(repr=False)
    features: np.ndarray = field(repr=False)
    seat_slots: tuple = field(repr=False)
    targets: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    strategy_sums: np.ndarray = field(repr=False)

    @property
    def acting(self) -> list:
        """(estimator, slots) of each seat that acts, in seat order."""
        return [(e, s) for e, s in zip(self.estimators, self.seat_slots) if len(s)]

    @cached_property
    def plan(self) -> FitPlan:
        """The trees' fit plan: one root per bag of each acting seat, in
        seat order. Built at the first refit and kept, since the features
        are fixed and a bag's rows are the same at every fit."""
        roots = [
            slots[rows]
            for estimator, slots in self.acting
            for rows in estimator._bags(np.ones(len(slots)))
        ]
        return plan_fit(self.features, roots)


def new_state(game: GameSpec, config: RCFRConfig) -> RCFRState:
    """Fresh solver state with per-slot feature rows precomputed.

    The tabular estimator's one feature is the slot number: one indicator per
    infoset-action, the paper's tabular case, on any game. The tree uses the
    compact numeric features it is meant to generalize over.
    """
    infosets, offset = game.layout.infosets, game.layout.offset
    if config.estimator_kind == "tabular":
        features = np.arange(offset[-1], dtype=np.float64)[:, None]
        estimators = (TabularEstimator(), TabularEstimator())
    else:
        features = np.array(
            [
                featurize(game.game_id, key, action)
                for _, key, _ in infosets
                for action in game.action_labels[key]
            ],
            dtype=np.float64,
        )
        estimators = tuple(
            TreeRegressor(
                min_leaf_weight=config.min_leaf_weight,
                max_depth=config.max_depth,
                n_bags=config.n_bags,
                seed=config.seed + player,
            )
            for player in (0, 1)
        )
    seat = game.layout.seat[game.layout.owner]
    seat_slots = (np.flatnonzero(seat == 0), np.flatnonzero(seat == 1))
    state = RCFRState(
        game=game,
        estimators=estimators,
        features=features,
        seat_slots=seat_slots,
        targets=np.zeros(offset[-1]),
        predictions=np.zeros(offset[-1]),
        strategy_sums=np.zeros(offset[-1]),
    )
    _cache_predictions(state)
    return state


def _cache_predictions(state: RCFRState) -> None:
    """One batched predict per seat that acts, written into its slots."""
    for estimator, slots in state.acting:
        state.predictions[slots] = estimator.predict(state.features[slots])


def training_mse(state: RCFRState, player: int) -> float:
    """Mean squared error over the seat's targets of the predictions cached
    at the last refit (the solver's current estimator).

    The errors are added one at a time in slot order: ``np.mean`` sums
    pairwise and the builtin ``sum`` is compensated on Python 3.12+, and
    either would change the logged bits.
    """
    slots = state.seat_slots[player]
    total = 0.0
    predictions = state.predictions[slots].tolist()
    for predicted, target in zip(predictions, state.targets[slots].tolist()):
        total += (predicted - target) ** 2
    return total / len(slots) if len(slots) else 0.0


def rcfr_iteration(game: GameSpec, state: RCFRState, config: RCFRConfig) -> RCFRState:
    """One full-width pass under predicted-regret policies, then refit.

    Immediate regrets are computed exactly as in tabular CFR. Exact mode
    accumulates them into the targets; bootstrap mode rewrites each target
    as the pre-refit model's prediction plus the new regret. Strategy sums
    accumulate exactly either way.
    """
    policy = regret_policy(game, state.predictions)
    _, deltas = cfr_pass(game, policy, state.strategy_sums)
    if config.target_mode == "exact":
        state.targets += deltas
    else:
        state.targets = state.predictions + deltas
    if config.estimator_kind == "tabular":
        for estimator, slots in state.acting:
            estimator.fit(state.features[slots], state.targets[slots])
    else:  # one forest: every bag of both seats is a root of the plan
        trees = fit_forest(
            state.plan,
            state.targets,
            min_leaf_weight=config.min_leaf_weight,
            max_depth=config.max_depth,
        )
        for estimator, _ in state.acting:
            n = estimator.n_bags
            estimator._trees, trees = trees[:n], trees[n:]
    _cache_predictions(state)
    return state


def rcfr_solve(game: GameSpec, config: RCFRConfig):
    """Run RCFR; returns (average strategy, convergence log, model-size log).

    Both logs have a row at every checkpoint (see ``cfr.checkpoints``).
    Everything except wall_ms is deterministic for a fixed seed.
    """
    state = new_state(game, config)
    step = lambda: rcfr_iteration(game, state, config)
    convergence: list[RcfrConvergenceRow] = []
    model_sizes: list[ModelSizeRow] = []
    for t, exploit, wall_ms in checkpoints(game, config, step, state.strategy_sums):
        mse = (training_mse(state, 0), training_mse(state, 1))
        convergence.append(RcfrConvergenceRow(t, exploit, *mse, wall_ms))
        leaves = [estimator.model_complexity() for estimator in state.estimators]
        model_sizes.append(ModelSizeRow(t, *leaves))
    return average_strategy(game, state.strategy_sums), convergence, model_sizes
