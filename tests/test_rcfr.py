"""Regression CFR: oracle equivalence with CFR, floors, and bookkeeping."""

import pytest
from conftest import predict_row

from fregret.cfr import (
    average_from_sums,
    average_strategy,
    cfr_iteration,
    cfr_pass,
    current_policy,
    new_tables,
)
from fregret.efg_core import enumerate_infosets, uniform_profile
from fregret.eval import exploitability
from fregret.rcfr import (
    ModelSizeRow,
    RCFRConfig,
    RCFRState,
    new_state,
    rcfr_iteration,
    rcfr_policy,
    rcfr_solve,
    training_mse,
)
from fregret.regret import regret_match


def assert_tracks_cfr_exactly(game, target_mode, iterations):
    """Tabular RCFR must reproduce the CFR trajectory bit for bit."""
    tables = new_tables(game)
    config = RCFRConfig(
        iterations=iterations, estimator_kind="tabular", target_mode=target_mode
    )
    state = new_state(game, config)
    infosets = enumerate_infosets(game)
    for _ in range(iterations):
        cfr_iteration(game, tables)
        rcfr_iteration(game, state, config)
        for player, key, _ in infosets:
            assert rcfr_policy(state, player, key) == current_policy(
                tables, player, key
            )
    for player in (0, 1):
        for key, row in state.targets[player].items():
            assert row == tables.regrets[key]
    assert average_from_sums(state.strategy_sums) == average_strategy(tables)


class TestOracleEquivalence:
    def test_exact_mode_matches_cfr_on_kuhn(self, kuhn_game):
        assert_tracks_cfr_exactly(kuhn_game, "exact", 200)

    def test_bootstrap_mode_matches_cfr_on_kuhn(self, kuhn_game):
        assert_tracks_cfr_exactly(kuhn_game, "bootstrap", 200)

    def test_exact_mode_matches_cfr_on_leduc(self, leduc_game):
        assert_tracks_cfr_exactly(leduc_game, "exact", 25)

    def test_bootstrap_mode_matches_cfr_on_leduc(self, leduc_game):
        assert_tracks_cfr_exactly(leduc_game, "bootstrap", 25)


class TestPolicy:
    def test_unfitted_estimator_gives_uniform_everywhere(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        for player, key, n in enumerate_infosets(kuhn_game):
            assert rcfr_policy(state, player, key) == (1.0 / n,) * n

    def test_all_negative_predictions_give_uniform(self, leduc_game):
        config = RCFRConfig(iterations=1, estimator_kind="tabular")
        state = new_state(leduc_game, config)
        key = "p0:J:-:cr/"
        rows = state.features[key]
        assert len(rows) == 3
        state.estimators[0].fit(rows, [-1.0, -1.0, -1.0])
        policy = rcfr_policy(state, 0, key)
        assert policy == (1.0 / 3.0,) * 3

    def test_direct_fit_reaches_rcfr_policy(self, leduc_game):
        # rcfr_policy asks the estimator, not the solver's prediction cache.
        for kind in ("tabular", "tree"):
            state = new_state(leduc_game, RCFRConfig(iterations=1, estimator_kind=kind))
            key = "p0:J:-:cr/"
            rows = state.features[key]
            state.estimators[0].fit(rows, [1.0, 3.0, 0.0])
            assert rcfr_policy(state, 0, key) == (0.25, 0.75, 0.0)

    def test_unknown_infoset_rejected(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        with pytest.raises(KeyError):
            rcfr_policy(state, 0, "p0:A:-:")

    def test_wrong_player_rejected(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        with pytest.raises(ValueError):
            rcfr_policy(state, 1, "p0:J:-:")


class TestIteration:
    def test_strategy_sums_stay_nonnegative(self, kuhn_game):
        config = RCFRConfig(iterations=30, estimator_kind="tree")
        state = new_state(kuhn_game, config)
        for _ in range(30):
            rcfr_iteration(kuhn_game, state, config)
        for row in state.strategy_sums.values():
            assert all(value >= 0.0 for value in row)

    def test_target_store_keys_partition_the_infosets(self, kuhn_game):
        config = RCFRConfig(iterations=2, estimator_kind="tree")
        state = new_state(kuhn_game, config)
        rcfr_iteration(kuhn_game, state, config)
        all_keys = {key for _, key, _ in enumerate_infosets(kuhn_game)}
        stored = set(state.targets[0]) | set(state.targets[1])
        assert stored == all_keys
        assert not (set(state.targets[0]) & set(state.targets[1]))

    def test_refit_every_delays_training(self, kuhn_game):
        config = RCFRConfig(iterations=4, estimator_kind="tree", refit_every=3)
        state = new_state(kuhn_game, config)
        rcfr_iteration(kuhn_game, state, config)
        assert state.estimators[0].model_complexity() == 0
        rcfr_iteration(kuhn_game, state, config)
        assert state.estimators[0].model_complexity() == 0
        rcfr_iteration(kuhn_game, state, config)
        assert state.estimators[0].model_complexity() > 0

    def test_bootstrap_targets_diverge_from_exact_with_a_tree(self, kuhn_game):
        exact_cfg = RCFRConfig(
            iterations=60, estimator_kind="tree", target_mode="exact", max_depth=2
        )
        boot_cfg = RCFRConfig(
            iterations=60,
            estimator_kind="tree",
            target_mode="bootstrap",
            max_depth=2,
        )
        exact_state = new_state(kuhn_game, exact_cfg)
        boot_state = new_state(kuhn_game, boot_cfg)
        for _ in range(60):
            rcfr_iteration(kuhn_game, exact_state, exact_cfg)
            rcfr_iteration(kuhn_game, boot_state, boot_cfg)
        gap = max(
            abs(a - b)
            for player in (0, 1)
            for key in exact_state.targets[player]
            for a, b in zip(
                exact_state.targets[player][key], boot_state.targets[player][key]
            )
        )
        assert gap > 1e-12


def reference_solve(game, config):
    """RCFR that predicts row by row through ``predict_row`` at every use,
    with no prediction cache: the loop the solver must match.
    Only the fresh state's estimators, features and stores are borrowed."""
    state = new_state(game, config)
    infoset_player = game.infoset_player
    strategy_sums, targets = state.strategy_sums, state.targets

    def predicted(infoset):
        estimator = state.estimators[infoset_player[infoset]]
        return [predict_row(estimator, row) for row in state.features[infoset]]

    def mse(player):
        errors = [
            (p - t) ** 2
            for key, row in targets[player].items()
            for p, t in zip(predicted(key), row)
        ]
        total = 0.0
        for error in errors:
            total += error
        return total / len(errors)

    log = []
    for t in range(1, config.iterations + 1):
        seen = {}

        def policy_fn(infoset):
            if infoset not in seen:
                seen[infoset] = predicted(infoset)
            return regret_match(seen[infoset])

        _, deltas = cfr_pass(game, policy_fn, strategy_sums, (0, 1))
        for infoset, vec in deltas.items():
            row = targets[infoset_player[infoset]][infoset]
            for a, value in enumerate(vec):
                if config.target_mode == "exact":
                    row[a] += value
                else:
                    row[a] = seen[infoset][a] + value
        if t % config.refit_every == 0:
            for player in (0, 1):
                rows = [r for key in targets[player] for r in state.features[key]]
                values = [v for row in targets[player].values() for v in row]
                state.estimators[player].fit(rows, values)
        if t % config.log_every == 0 or t == config.iterations:
            average = average_from_sums(strategy_sums)
            log.append((t, exploitability(game, average), mse(0), mse(1)))
    return strategy_sums, log


class TestPredictionCache:
    """The solver's cached predictions stay in step with its estimators."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(refit_every=3),
            dict(target_mode="bootstrap"),
            dict(n_bags=3, seed=4),
            dict(n_bags=3, refit_every=3, target_mode="bootstrap", seed=2),
            dict(estimator_kind="tabular", refit_every=3, target_mode="bootstrap"),
        ],
    )
    def test_matches_row_by_row_reference(self, kuhn_game, options):
        config = RCFRConfig(
            iterations=13, log_every=4, min_leaf_weight=2.0, **options
        )
        expected_sums, expected_log = reference_solve(kuhn_game, config)
        state = new_state(kuhn_game, config)
        for _ in range(config.iterations):
            rcfr_iteration(kuhn_game, state, config)
        assert state.strategy_sums == expected_sums
        _, convergence, _ = rcfr_solve(kuhn_game, config)
        assert [
            (row.t, row.exploitability, row.mse_p1, row.mse_p2) for row in convergence
        ] == expected_log

    def test_leduc_bootstrap_bagged(self, leduc_game):
        config = RCFRConfig(
            iterations=4,
            log_every=2,
            min_leaf_weight=8.0,
            n_bags=3,
            refit_every=3,
            target_mode="bootstrap",
        )
        expected_sums, expected_log = reference_solve(leduc_game, config)
        state = new_state(leduc_game, config)
        for _ in range(config.iterations):
            rcfr_iteration(leduc_game, state, config)
        assert state.strategy_sums == expected_sums
        _, convergence, _ = rcfr_solve(leduc_game, config)
        assert [
            (row.t, row.exploitability, row.mse_p1, row.mse_p2) for row in convergence
        ] == expected_log


class TestSolve:
    def test_single_iteration_returns_uniform(self, kuhn_game):
        profile, convergence, sizes = rcfr_solve(kuhn_game, RCFRConfig(iterations=1))
        assert profile == uniform_profile(kuhn_game)
        assert len(convergence) == 1 and convergence[0].t == 1
        assert len(sizes) == 1 and isinstance(sizes[0], ModelSizeRow)

    def test_tree_rcfr_beats_uniform_on_kuhn(self, kuhn_game):
        _, convergence, _ = rcfr_solve(
            kuhn_game, RCFRConfig(iterations=300, log_every=300)
        )
        uniform_expl = exploitability(kuhn_game, uniform_profile(kuhn_game))
        assert convergence[-1].exploitability < uniform_expl

    def test_profile_rows_are_distributions(self, kuhn_game):
        profile, _, _ = rcfr_solve(kuhn_game, RCFRConfig(iterations=40, log_every=40))
        for row in profile.values():
            assert all(p >= 0.0 for p in row)
            assert abs(sum(row) - 1.0) < 1e-9

    def test_fixed_seed_runs_are_identical_except_timing(self, kuhn_game):
        config = RCFRConfig(iterations=30, log_every=10, seed=7)
        profile_a, conv_a, sizes_a = rcfr_solve(kuhn_game, config)
        profile_b, conv_b, sizes_b = rcfr_solve(kuhn_game, config)
        assert profile_a == profile_b
        assert sizes_a == sizes_b
        for row_a, row_b in zip(conv_a, conv_b):
            assert (row_a.t, row_a.exploitability, row_a.mse_p1, row_a.mse_p2) == (
                row_b.t,
                row_b.exploitability,
                row_b.mse_p1,
                row_b.mse_p2,
            )

    def test_logged_mse_matches_independent_recomputation(self, kuhn_game):
        config = RCFRConfig(iterations=20, log_every=20)
        _, convergence, _ = rcfr_solve(kuhn_game, config)
        state = new_state(kuhn_game, config)
        for _ in range(20):
            rcfr_iteration(kuhn_game, state, config)
        for player, logged in ((0, convergence[-1].mse_p1), (1, convergence[-1].mse_p2)):
            total = 0.0
            count = 0
            for key, target_row in state.targets[player].items():
                for features, target in zip(state.features[key], target_row):
                    predicted = predict_row(state.estimators[player], features)
                    total += (predicted - target) ** 2
                    count += 1
            assert abs(logged - total / count) < 1e-9

    def test_tabular_exact_mse_is_zero(self, kuhn_game):
        config = RCFRConfig(iterations=10, estimator_kind="tabular", log_every=10)
        _, convergence, sizes = rcfr_solve(kuhn_game, config)
        assert convergence[-1].mse_p1 == 0.0
        assert convergence[-1].mse_p2 == 0.0
        assert sizes[-1].leaves_p1 == 12
        assert sizes[-1].leaves_p2 == 12

    def test_tree_model_sizes_are_positive_after_refit(self, kuhn_game):
        _, _, sizes = rcfr_solve(kuhn_game, RCFRConfig(iterations=5, log_every=5))
        assert sizes[-1].leaves_p1 >= 1
        assert sizes[-1].leaves_p2 >= 1

    def test_mse_nonzero_for_capped_tree(self, kuhn_game):
        config = RCFRConfig(iterations=50, log_every=50, max_depth=1)
        _, convergence, _ = rcfr_solve(kuhn_game, config)
        assert convergence[-1].mse_p1 > 0.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RCFRConfig(iterations=0)
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, estimator_kind="forest")
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, target_mode="loose")
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, refit_every=0)
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, log_every=0)

    def test_state_repr_stays_compact(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        assert isinstance(state, RCFRState)
        assert "p0:J" not in repr(state)

    def test_training_mse_of_fresh_state_is_zero(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        assert training_mse(state, 0) == 0.0
