"""Regret matching, noisy-estimate play, and the average-regret ceiling."""

import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fregret.games import build_matrix
from fregret.regret import (
    NO_NOISE,
    BoundLogRow,
    NoiseModel,
    RegretMatcher,
    regret_bound,
    regret_match,
    rm_update,
    rrm_selfplay,
)

finite_regrets = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestRegretMatch:
    def test_all_zero_gives_uniform(self):
        assert regret_match((0.0, 0.0, 0.0)) == (1 / 3, 1 / 3, 1 / 3)

    def test_positive_parts_normalized(self):
        assert regret_match((3.0, 1.0, 0.0)) == (0.75, 0.25, 0.0)

    def test_all_negative_gives_uniform(self):
        assert regret_match((-2.0, -5.0)) == (0.5, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            regret_match(())

    def test_sums_run_in_order_on_every_python(self):
        # From 0.0 in order, 1.0 + 1e-16 rounds back to 1.0 twice, so the
        # total is exactly 1.0. A compensated sum, as the builtin ``sum`` is
        # on Python 3.12+, gives 1.0000000000000002 and moves every entry.
        assert regret_match((1.0, 1e-16, 1e-16)) == (1.0, 1e-16, 1e-16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN would otherwise read as "not positive" and play uniform.
        with pytest.raises(ValueError, match="non-finite"):
            regret_match((1.0, bad, -2.0))

    @given(finite_regrets)
    def test_valid_distribution(self, regrets):
        policy = regret_match(regrets)
        assert len(policy) == len(regrets)
        assert all(p >= 0.0 for p in policy)
        assert abs(sum(policy) - 1.0) <= 1e-12

    @given(finite_regrets, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_positive_scaling_invariance(self, regrets, c):
        # Power-of-two scales keep every product and partial sum exact, so
        # the policies must be bit-identical, not merely close. The one
        # exception is a product that falls into the subnormal range and
        # rounds; such a vector is no longer an exact scaled copy.
        scaled = [c * r for r in regrets]
        assume(all(s / c == r for s, r in zip(scaled, regrets)))
        assert regret_match(scaled) == regret_match(regrets)

    @given(finite_regrets)
    def test_mass_only_on_positive_regrets(self, regrets):
        policy = regret_match(regrets)
        if any(r > 0.0 for r in regrets):
            for r, p in zip(regrets, policy):
                if r <= 0.0:
                    assert p == 0.0


class TestRmUpdate:
    def test_fresh_single_step(self):
        state = rm_update(RegretMatcher.fresh(2), (1.0, 0.0))
        assert state.regrets == (0.5, -0.5)
        assert state.cumulative_strategy == (0.5, 0.5)
        assert state.t == 1

    def test_equal_payoffs_leave_regrets_unchanged(self):
        # Dyadic policy (0.5, 0.5): expectation is exact, so regrets are
        # bit-identical. A policy with rounding keeps them within 1e-12.
        state = RegretMatcher(regrets=(1.0, 1.0), cumulative_strategy=(0.0,) * 2, t=0)
        after = rm_update(state, (3.0, 3.0))
        assert after.regrets == state.regrets
        assert after.t == 1
        state = RegretMatcher(regrets=(2.0, -1.0, 0.5), cumulative_strategy=(0.0,) * 3, t=0)
        after = rm_update(state, (3.0, 3.0, 3.0))
        for before_r, after_r in zip(state.regrets, after.regrets):
            assert abs(after_r - before_r) < 1e-12

    def test_rps_vs_fixed_rock_two_steps(self):
        # Payoffs for (rock, paper, scissors) against rock are (0, 1, -1).
        # Step 1 from uniform: expected 0, regrets (0, 1, -1). Step 2 plays
        # pure paper: expected 1, regrets += (-1, 0, -2) -> (-1, 1, -3).
        rock_payoff = (0.0, 1.0, -1.0)
        state = RegretMatcher.fresh(3)
        state = rm_update(state, rock_payoff)
        assert state.regrets == (0.0, 1.0, -1.0)
        state = rm_update(state, rock_payoff)
        assert state.regrets == (-1.0, 1.0, -3.0)

    def test_expected_payoffs_sum_in_order_on_every_python(self):
        # From 0.0 in order, 1e16/3 + 1/3 rounds to a multiple of 0.5 and
        # the -1e16/3 leaves 0.5. A compensated sum, as the builtin ``sum``
        # is on Python 3.12+, gives 1/3 and regret[1] near 0.667.
        payoff = (1e16, 1.0, -1e16)
        state = rm_update(RegretMatcher.fresh(3), payoff)
        assert state.regrets == (1e16, 0.5, -1e16)
        uniform = (1.0 / 3.0,) * 3
        assert build_matrix(payoffs=[payoff]).row_payoffs(uniform) == [0.5]
        column = [[value] for value in payoff]
        assert build_matrix(payoffs=column).col_payoffs(uniform) == [-0.5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rm_update(RegretMatcher.fresh(2), (1.0, 0.0, 0.0))

    def test_states_are_values(self):
        start = RegretMatcher.fresh(2)
        rm_update(start, (1.0, 0.0))
        assert start.regrets == (0.0, 0.0)
        assert start.t == 0


class TestNoiseModel:
    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.bounded_linf(-0.1)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel.bounded_linf(scale)

    def test_linf_perturbation_stays_in_box(self):
        model = NoiseModel.bounded_linf(0.3)
        rng = random.Random(0)
        values = (1.0, -2.0, 0.0)
        for _ in range(200):
            out = model.perturb(values, rng)
            assert all(abs(o - v) <= 0.3 for o, v in zip(out, values))

    def test_none_is_identity(self):
        # Scale 0 returns the values as given and draws nothing.
        rng = random.Random(4)
        before = rng.getstate()
        for zero in (NO_NOISE, NoiseModel(0.0), NoiseModel.bounded_linf(0.0)):
            assert zero.perturb((1.5, -2.5, 0.0), rng) == (1.5, -2.5, 0.0)
            assert rng.getstate() == before

    def test_positive_scale_draws_once_per_entry(self):
        rng, twin = random.Random(4), random.Random(4)
        out = NoiseModel(0.3).perturb((1.5, -2.5, 0.0), rng)
        assert out == tuple(v + twin.uniform(-0.3, 0.3) for v in (1.5, -2.5, 0.0))
        assert rng.getstate() == twin.getstate()


class TestRegretBound:
    def test_zero_epsilon_nonincreasing_and_vanishing(self):
        values = [regret_bound(t, 2.0, 3, 0.0) for t in (1, 10, 100, 10_000, 10**8)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_positive_epsilon_floor_proportional(self):
        floor1 = regret_bound(10**12, 2.0, 3, 0.1)
        floor2 = regret_bound(10**12, 2.0, 3, 0.2)
        assert floor1 > 0.0
        assert abs(floor1 - 2.0 * 0.1 * math.sqrt(3)) < 1e-4
        assert abs(floor2 / floor1 - 2.0) < 1e-3

    def test_zero_utility_range(self):
        assert regret_bound(100, 0.0, 3, 0.5) == 2.0 * 0.5 * math.sqrt(3)

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ValueError):
            regret_bound(0, 1.0, 2, 0.0)
        with pytest.raises(ValueError):
            regret_bound(-5, 1.0, 2, 0.0)

    @pytest.mark.parametrize(
        "args", [(10, math.nan, 2), (10, math.inf, 2), (10, 1.0, 2, math.nan),
                 (10, 1.0, 2, math.inf)]
    )
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            regret_bound(*args)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            regret_bound(10, -1.0, 2, 0.0)
        with pytest.raises(ValueError):
            regret_bound(10, 1.0, 2, -0.5)


class TestAverageStrategy:
    def test_rps_selfplay_average_near_uniform(self):
        game = build_matrix("rps")
        row = RegretMatcher.fresh(3)
        col = RegretMatcher.fresh(3)
        for _ in range(10_000):
            row_policy = regret_match(row.regrets)
            col_policy = regret_match(col.regrets)
            row = rm_update(row, game.row_payoffs(col_policy))
            col = rm_update(col, game.col_payoffs(row_policy))
        for seat in (row, col):
            total = sum(seat.cumulative_strategy)
            for weight in seat.cumulative_strategy:
                assert abs(weight / total - 1 / 3) < 0.02


class TestSelfplayHarness:
    @pytest.mark.parametrize("name", ["rps", "biased_mp"])
    def test_classical_bound_every_logged_point(self, name):
        game = build_matrix(name)
        rows = rrm_selfplay(game, 2000, log_every=50, seed=1)
        assert len(rows) == 40
        for row in rows:
            assert row.avg_regret <= row.bound + 1e-9
            assert row.epsilon == 0.0

    def test_noisy_bound_single_seed(self):
        game = build_matrix("rps")
        noise = NoiseModel.bounded_linf(0.5 * game.utility_range)
        rows = rrm_selfplay(game, 2000, noise_model=noise, log_every=50, seed=3)
        for row in rows:
            assert row.avg_regret <= row.bound + 1e-9
            assert row.epsilon == 1.0

    def test_zero_epsilon_matches_plain(self):
        game = build_matrix("rps")
        plain = rrm_selfplay(game, 500, log_every=25, seed=9)
        zeroed = rrm_selfplay(
            game, 500, noise_model=NoiseModel.bounded_linf(0.0), log_every=25, seed=9
        )
        assert [(r.t, r.avg_regret) for r in plain] == [
            (r.t, r.avg_regret) for r in zeroed
        ]

    def test_same_seed_identical_log(self):
        game = build_matrix("biased_mp")
        noise = NoiseModel.bounded_linf(0.4)
        a = rrm_selfplay(game, 300, noise_model=noise, seed=17, log_every=30)
        b = rrm_selfplay(game, 300, noise_model=noise, seed=17, log_every=30)
        assert a == b

    def test_log_row_fields(self):
        game = build_matrix("rps")
        rows = rrm_selfplay(game, 120, log_every=50, seed=2)
        assert [r.t for r in rows] == [50, 100, 120]
        assert all(isinstance(r, BoundLogRow) and r.seed == 2 for r in rows)
