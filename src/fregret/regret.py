"""Normal-form regret matching and its estimate-driven variant.

``regret_match`` maps cumulative regrets to a policy (positive parts
normalized, uniform fallback). ``rm_update`` advances a matcher one step from
exact regrets; ``rrm_step`` plays from *estimated* regrets instead, either a
fitted regret estimator's predictions or a noise-perturbed view of the truth.
``regret_bound`` is the ceiling on average regret when the estimates stay
within epsilon of the true cumulative regrets, and ``rrm_selfplay`` is the
matrix-game harness that checks the bound empirically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._validation import check_positive_int

NOISE_KINDS = ("none", "bounded_linf", "gaussian")


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation applied to cumulative regrets before forming a policy.

    Kind "none" plays from the values as given; "bounded_linf" adds an
    independent uniform draw from [-scale, scale] to each action (worst-case
    error scale in the max norm); "gaussian" adds N(0, scale^2) per action.
    """

    kind: str = "none"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind '{self.kind}'")
        if self.scale < 0.0:
            raise ValueError("noise scale must be >= 0")

    @classmethod
    def bounded_linf(cls, epsilon: float) -> "NoiseModel":
        return cls("bounded_linf", epsilon)

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseModel":
        return cls("gaussian", sd)

    def perturb(self, values, rng: random.Random):
        """Return values plus one fresh noise draw per entry."""
        if self.kind == "none":
            return tuple(values)
        if self.kind == "bounded_linf":
            return tuple(v + rng.uniform(-self.scale, self.scale) for v in values)
        return tuple(v + rng.gauss(0.0, self.scale) for v in values)


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class RegretMatcher:
    """Value-type state of one regret-matching learner.

    ``regrets`` holds cumulative per-action regret, ``cumulative_strategy``
    the running sum of played policies, and ``t`` the number of steps taken.
    Updates return new instances; states are safe to share and compare.
    """

    regrets: tuple[float, ...]
    cumulative_strategy: tuple[float, ...]
    t: int = 0

    @classmethod
    def fresh(cls, n_actions: int) -> "RegretMatcher":
        check_positive_int(n_actions, "n_actions")
        zeros = (0.0,) * n_actions
        return cls(regrets=zeros, cumulative_strategy=zeros)

    @property
    def n_actions(self) -> int:
        return len(self.regrets)


@dataclass(frozen=True)
class RRMConfig:
    """How ``rrm_step`` forms its policy.

    With an estimator set, the policy comes from its predictions over
    per-action features (refit on the true cumulative regrets after every
    step); otherwise from the true regrets. Either source is then perturbed
    by ``noise_model``.
    """

    noise_model: NoiseModel = NO_NOISE
    estimator: object | None = None


@dataclass(frozen=True)
class BoundLogRow:
    """One logged point of an ``rrm_selfplay`` run."""

    t: int
    avg_regret: float
    bound: float
    epsilon: float
    seed: int


def regret_match(regrets) -> tuple[float, ...]:
    """Policy proportional to positive regrets; uniform when none are positive.

    Raises ValueError on an empty vector or one whose sum is NaN or infinite.
    Both sums run from 0.0 in order: the builtin ``sum`` is compensated on
    Python 3.12+, which would make the policy depend on the Python version.
    """
    n = len(regrets)
    if n == 0:
        raise ValueError("empty regret vector")
    total = 0.0
    for r in regrets:
        total += r
    if not math.isfinite(total):
        raise ValueError(f"non-finite regrets {tuple(regrets)!r}")
    positive = [r if r > 0.0 else 0.0 for r in regrets]
    total = 0.0
    for p in positive:
        total += p
    if total <= 0.0:
        return (1.0 / n,) * n
    return tuple(p / total for p in positive)


def action_features(n_actions: int) -> list[tuple[float, ...]]:
    """One-hot feature rows for a normal-form game's actions."""
    check_positive_int(n_actions, "n_actions")
    return [
        tuple(1.0 if j == i else 0.0 for j in range(n_actions))
        for i in range(n_actions)
    ]


def _check_payoff(state: RegretMatcher, payoff) -> None:
    if len(payoff) != state.n_actions:
        raise ValueError(
            f"payoff length {len(payoff)} != action count {state.n_actions}"
        )


def _advance(state: RegretMatcher, policy, payoff) -> RegretMatcher:
    """Accumulate one step played with ``policy`` against ``payoff``."""
    expected = sum(p * u for p, u in zip(policy, payoff))
    regrets = tuple(r + (u - expected) for r, u in zip(state.regrets, payoff))
    cumulative = tuple(
        c + p for c, p in zip(state.cumulative_strategy, policy)
    )
    return RegretMatcher(
        regrets=regrets, cumulative_strategy=cumulative, t=state.t + 1
    )


def rm_update(state: RegretMatcher, payoff) -> RegretMatcher:
    """One exact step: play regret_match(regrets), accumulate regret/strategy."""
    _check_payoff(state, payoff)
    return _advance(state, regret_match(state.regrets), payoff)


def rrm_step(
    state: RegretMatcher, payoff, config: RRMConfig, rng: random.Random
) -> RegretMatcher:
    """One step played from estimated regrets.

    The policy is regret_match over the estimate source (estimator
    predictions if configured, else the true regrets) after noise drawn from
    ``rng``. True regrets are accumulated exactly as in ``rm_update``; a
    configured estimator is refit on the updated cumulative regrets.
    """
    _check_payoff(state, payoff)
    n = state.n_actions
    if config.estimator is not None:
        features = action_features(n)
        predicted = tuple(float(v) for v in config.estimator.predict(features))
        if len(predicted) != n:
            raise ValueError(
                f"estimator returned {len(predicted)} predictions for {n} actions"
            )
    else:
        predicted = state.regrets
    predicted = config.noise_model.perturb(predicted, rng)
    policy = regret_match(predicted)
    new_state = _advance(state, policy, payoff)
    if config.estimator is not None:
        config.estimator.fit(action_features(n), list(new_state.regrets))
    return new_state


def regret_bound(
    iterations: int, utility_range: float, n_actions: int, epsilon: float = 0.0
) -> float:
    """Ceiling on average external regret for estimate-driven regret matching.

    For play whose policy at each round comes from estimates within epsilon
    (max norm) of the true cumulative regrets, with per-round payoffs
    spanning at most utility_range, the average regret after ``iterations``
    rounds is at most

        utility_range * sqrt(n_actions / iterations)
        + 2 * epsilon * sqrt(n_actions).

    epsilon = 0 recovers the classical regret-matching rate, vanishing as
    iterations grow; epsilon > 0 adds a constant floor proportional to
    epsilon, so estimation error degrades the guarantee gracefully rather
    than breaking it.
    """
    check_positive_int(iterations, "iterations")
    check_positive_int(n_actions, "n_actions")
    if utility_range < 0.0:
        raise ValueError("utility_range must be >= 0")
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    return utility_range * math.sqrt(n_actions / iterations) + 2.0 * epsilon * math.sqrt(
        n_actions
    )


def average_strategy(state: RegretMatcher) -> tuple[float, ...]:
    """Time-averaged policy over the steps taken so far."""
    if state.t < 1:
        raise ValueError("average_strategy requires at least one step")
    total = sum(state.cumulative_strategy)
    return tuple(w / total for w in state.cumulative_strategy)


def rrm_selfplay(
    game,
    steps: int,
    noise_model: NoiseModel = NO_NOISE,
    seed: int = 0,
    log_every: int = 100,
) -> list[BoundLogRow]:
    """Self-play on a matrix game, both seats driven by noisy regret views.

    Each round both seats form policies from their perturbed cumulative
    regrets and receive exact expected payoffs against the opponent's mixed
    policy. Logged rows report the worse seat's average regret
    (max_a R(a) / t) next to ``regret_bound`` at the noise scale; the bound
    column is a guaranteed ceiling for the "none" and "bounded_linf" kinds.
    """
    check_positive_int(steps, "steps")
    check_positive_int(log_every, "log_every")
    rng = random.Random(seed)
    row_state = RegretMatcher.fresh(game.n_rows)
    col_state = RegretMatcher.fresh(game.n_cols)
    epsilon = 0.0 if noise_model.kind == "none" else noise_model.scale
    n_bound = max(game.n_rows, game.n_cols)
    rows: list[BoundLogRow] = []
    for t in range(1, steps + 1):
        row_policy = regret_match(noise_model.perturb(row_state.regrets, rng))
        col_policy = regret_match(noise_model.perturb(col_state.regrets, rng))
        row_state = _advance(row_state, row_policy, game.row_payoffs(col_policy))
        col_state = _advance(col_state, col_policy, game.col_payoffs(row_policy))
        if t % log_every == 0 or t == steps:
            avg = max(max(row_state.regrets), max(col_state.regrets)) / t
            rows.append(
                BoundLogRow(
                    t=t,
                    avg_regret=avg,
                    bound=regret_bound(t, game.utility_range, n_bound, epsilon),
                    epsilon=epsilon,
                    seed=seed,
                )
            )
    return rows
