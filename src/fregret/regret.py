"""Normal-form regret matching and its estimate-driven variant.

``regret_match`` maps cumulative regrets to a policy (positive parts
normalized, uniform fallback), and ``rm_update`` advances a matcher one step
from exact regrets. ``regret_bound`` is the ceiling on average regret when
play comes from estimates within epsilon of the true cumulative regrets, and
``rrm_selfplay`` is the matrix-game harness that checks the bound
empirically, playing from a noise-perturbed view of the regrets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._validation import check_positive_int


@dataclass(frozen=True)
class NoiseModel:
    """Perturbation applied to cumulative regrets before forming a policy.

    Kind "none" plays from the values as given; "bounded_linf" adds an
    independent uniform draw from [-scale, scale] to each action (worst-case
    error scale in the max norm). The scale must be finite and >= 0.
    """

    kind: str = "none"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "bounded_linf"):
            raise ValueError(f"unknown noise kind '{self.kind}'")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError("noise scale must be finite and >= 0")

    @classmethod
    def bounded_linf(cls, epsilon: float) -> "NoiseModel":
        return cls("bounded_linf", epsilon)

    def perturb(self, values, rng: random.Random):
        """Return values plus one fresh noise draw per entry."""
        if self.kind == "none":
            return tuple(values)
        return tuple(v + rng.uniform(-self.scale, self.scale) for v in values)


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
    if len(payoff) != state.n_actions:
        raise ValueError(
            f"payoff length {len(payoff)} != action count {state.n_actions}"
        )
    return _advance(state, regret_match(state.regrets), payoff)


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
    if not 0.0 <= utility_range < math.inf:
        raise ValueError("utility_range must be finite and >= 0")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    return utility_range * math.sqrt(n_actions / iterations) + 2.0 * epsilon * math.sqrt(
        n_actions
    )


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
    (max_a R(a) / t) next to ``regret_bound`` at the noise scale, a
    guaranteed ceiling for both noise kinds.
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
