"""CFR with estimated regrets: policies come from a retrained regressor.

Each iteration runs the same full-width pass as tabular CFR, but the policy
at every infoset is regret matching over *predicted* cumulative regrets.
Exact per-iteration regrets update a per-player target store, and each
seat's regressor is refit on that store. The tabular regressor memorizes:
its predictions are the stored targets themselves, so the whole trajectory
collapses bit-for-bit onto vanilla CFR. The tree kind fits one regression
tree per seat that acts, grown as one forest by one ``fit_forest`` call
over the game's fit plan, built once per game, and reads its predictions
off the fitted values. A state without a plan memorizes, as the tree kind
does where no seat acts. The trees' policy carries approximation error, and
exploitability plateaus at a floor that tightens as the trees are allowed
finer leaves.

Two target modes: ``exact`` keeps true cumulative regrets (error enters
through the policy only); ``bootstrap`` rebuilds each target from the
previous model's prediction plus the new regret, so estimation error also
compounds through the targets.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ._validation import check_positive_int
from .cfr import average_strategy, cfr_pass, checkpoints, regret_policy
from .efg_core import GameSpec
from .estimator import (
    FitPlan,
    Forest,
    _check_max_depth,
    _check_min_leaf_weight,
    fit_forest,
    plan_fit,
    slot_features,
)

ESTIMATOR_KINDS = ("tabular", "tree")
TARGET_MODES = ("exact", "bootstrap")
# Each game's tree fit plan, keyed weakly on its layout (a GameSpec holds a
# dict and cannot be hashed), so a game that is dropped drops its plan.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass
class RCFRConfig:
    """Solver settings plus the regression-tree shape parameters.

    ``seed`` is accepted and changes no output: no part of the solver draws
    a random number.
    """

    iterations: int
    estimator_kind: str = "tree"
    target_mode: str = "exact"
    log_every: int = 1
    seed: int = 0
    min_leaf_weight: float = 1.0
    max_depth: int | None = None

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
    """Regret targets, their predictions and exact strategy sums, all
    float64 vectors indexed by the game's slots (see ``GameLayout``). The
    pass adds each slot's policy into the strategy sums once per sequence,
    weighted by own reach.

    ``seat_slots`` holds each seat's slots in table order. A slot's
    prediction is its seat's regressor as of the last refit (zeros before
    the first), and the solver reads it in place of asking the regressor.
    ``plan`` is the trees' fit plan, one root per seat that acts, built once
    per game and shared; without one the refit memorizes, copying the
    targets. ``forest`` is the last refit's ``fit_forest`` result, whose
    trees are built only when read (None before the first refit, and
    wherever there is no plan).
    """

    seat_slots: tuple = field(repr=False)
    targets: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    strategy_sums: np.ndarray = field(repr=False)
    plan: FitPlan | None = field(default=None, repr=False)
    forest: Forest | None = field(default=None, repr=False)

    @property
    def trees(self) -> tuple:
        """Per seat, the last refit's tree, thresholds and all, built from
        ``forest`` on first read (see ``Forest.trees``); None for a seat with
        no slots or before the first refit."""
        if self.forest is None:
            return (None, None)
        trees = iter(self.forest.trees)
        return tuple(next(trees) if len(s) else None for s in self.seat_slots)


def new_state(game: GameSpec, config: RCFRConfig) -> RCFRState:
    """Fresh solver state; for trees, with the fit plan every refit reuses.

    The tabular kind needs no features: memorizing the target of every
    infoset-action is the paper's tabular case, on any game. The tree kind
    plans one root per seat that acts over ``slot_features``, the compact
    features it is meant to generalize over, once per game, so features
    ``plan_fit`` rejects raise ValueError here, on every call; where no
    seat acts it has no plan.
    """
    n_slots = game.layout.offset[-1]
    seat = game.layout.seat[game.layout.owner]
    state = RCFRState(
        seat_slots=(np.flatnonzero(seat == 0), np.flatnonzero(seat == 1)),
        targets=np.zeros(n_slots),
        predictions=np.zeros(n_slots),
        strategy_sums=np.zeros(n_slots),
    )
    roots = [slots for slots in state.seat_slots if len(slots)]
    if config.estimator_kind == "tree" and roots:
        state.plan = _PLANS.get(game.layout)
        if state.plan is None:
            state.plan = _PLANS[game.layout] = plan_fit(slot_features(game), roots)
    return state


def training_mse(state: RCFRState, player: int) -> float:
    """Mean squared error over the seat's targets of the predictions cached
    at the last refit (the solver's current regressor).

    The errors are squared as ``d * d``, which rounds the same on every
    platform, and added in slot order by ``np.cumsum``, not pairwise as by
    ``np.sum``: a loop's bits.
    """
    slots = state.seat_slots[player]
    errors = state.predictions[slots] - state.targets[slots]
    return float(np.cumsum(errors * errors)[-1]) / len(slots) if len(slots) else 0.0


def model_sizes(state: RCFRState) -> list[int]:
    """Leaves per seat: its tree's leaf count from the levels, or without a plan
    its slot count; 0 for a seat with no slots or before the first refit."""
    if state.plan is None:
        return [len(slots) for slots in state.seat_slots]
    leaves = iter(state.forest.leaf_counts if state.forest else ())
    return [next(leaves, 0) if len(slots) else 0 for slots in state.seat_slots]


def rcfr_iteration(game: GameSpec, state: RCFRState, config: RCFRConfig) -> RCFRState:
    """One full-width pass under predicted-regret policies, then refit.

    Immediate regrets are computed exactly as in tabular CFR. Exact mode
    accumulates them into the targets; bootstrap mode rewrites each target
    as the pre-refit model's prediction plus the new regret. Strategy sums
    accumulate exactly either way. Without a fit plan the refit memorizes;
    with one it grows one forest over the plan and scatters the fitted
    values back to their slots.
    """
    policy = regret_policy(game, state.predictions)
    _, deltas = cfr_pass(game, policy, state.strategy_sums)
    if config.target_mode == "exact":
        state.targets += deltas
    else:
        state.targets = state.predictions + deltas
    if state.plan is None:  # the memorizer: predictions = targets
        if not np.isfinite(state.targets).all():
            raise ValueError("targets must be finite")
        state.predictions = state.targets.copy()
    else:  # one forest, each acting seat's tree a root of the plan
        shape = dict(min_leaf_weight=config.min_leaf_weight, max_depth=config.max_depth)
        state.forest, fitted = fit_forest(state.plan, state.targets, **shape)
        state.predictions[state.plan.rows] = fitted
    return state


def rcfr_solve(game: GameSpec, config: RCFRConfig):
    """Run RCFR; returns (average strategy, convergence log, model-size log).

    Both logs have a row at every checkpoint (see ``cfr.checkpoints``).
    Everything except wall_ms is deterministic.
    """
    state = new_state(game, config)
    step = lambda: rcfr_iteration(game, state, config)
    convergence: list[RcfrConvergenceRow] = []
    sizes: list[ModelSizeRow] = []
    for t, exploit, wall_ms in checkpoints(game, config, step, state.strategy_sums):
        mse = (training_mse(state, 0), training_mse(state, 1))
        convergence.append(RcfrConvergenceRow(t, exploit, *mse, wall_ms))
        sizes.append(ModelSizeRow(t, *model_sizes(state)))
    return average_strategy(game, state.strategy_sums), convergence, sizes
