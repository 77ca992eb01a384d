"""Regression CFR: oracle equivalence with CFR, floors, and bookkeeping."""

import dataclasses
import gc
import hashlib
import itertools
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import by_key, infoset_slots
from exact_oracle import gamma
from test_cfr import one_move_game
from test_game_oracle import (
    SEEDS,
    random_game,
    reference_average,
    reference_cfr_pass,
    reference_enumerate_infosets,
    reference_exploitability,
)

import fregret.estimator as estimator_module
import fregret.rcfr as rcfr_module
from fregret.cfr import (
    CFRConfig,
    average_strategy,
    cfr_iteration,
    checkpoints,
    new_tables,
    regret_policy,
    solve,
)
from fregret._validation import ordered_sum
from fregret.cli import format_csv, write_strategy_file
from fregret.efg_core import (
    chance,
    decision,
    enumerate_infosets,
    make_game,
    terminal,
    uniform_profile,
)
from fregret.estimator import (
    FEATURE_DIM,
    featurize,
    fit_forest,
    fit_tree,
    model_complexity,
    plan_fit,
    predict,
    slot_features,
)
from fregret.eval import exploitability
from fregret.games import build_kuhn, build_leduc
from fregret.rcfr import (
    ModelSizeRow,
    RCFRConfig,
    RCFRState,
    new_state,
    rcfr_iteration,
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
    for _ in range(iterations):
        cfr_iteration(game, tables)
        rcfr_iteration(game, state, config)
        assert (
            regret_policy(game, state.predictions).tolist()
            == regret_policy(game, tables.regrets).tolist()
        )
    assert state.targets.tolist() == tables.regrets.tolist()
    assert state.strategy_sums.tolist() == tables.strategy_sums.tolist()
    assert average_strategy(game, state.strategy_sums) == average_strategy(
        game, tables.strategy_sums
    )


class TestOracleEquivalence:
    def test_exact_mode_matches_cfr_on_kuhn(self, kuhn_game):
        assert_tracks_cfr_exactly(kuhn_game, "exact", 200)

    def test_bootstrap_mode_matches_cfr_on_kuhn(self, kuhn_game):
        assert_tracks_cfr_exactly(kuhn_game, "bootstrap", 200)

    def test_exact_mode_matches_cfr_on_leduc(self, leduc_game):
        assert_tracks_cfr_exactly(leduc_game, "exact", 25)

    def test_bootstrap_mode_matches_cfr_on_leduc(self, leduc_game):
        assert_tracks_cfr_exactly(leduc_game, "bootstrap", 25)

    def test_tabular_mode_matches_cfr_on_random_games(self):
        # Tabular RCFR reads no features, so no poker key is needed.
        for seed in SEEDS[::8]:
            game = random_game(seed)
            profile, log = solve(game, CFRConfig(iterations=20))
            tabular, convergence, _ = rcfr_solve(
                game, RCFRConfig(iterations=20, estimator_kind="tabular")
            )
            assert repr(tabular) == repr(profile)
            assert [repr(row.exploitability) for row in convergence] == [
                repr(row.exploitability) for row in log
            ]


@pytest.mark.parametrize("name", ["kuhn_game", "leduc_game"])
def test_tree_state_features_equal_per_slot_featurize(request, name):
    # slot_features featurizes each infoset once and sets each slot's
    # action, and new_state plans the trees' fit over those rows.
    game = request.getfixturevalue(name)
    state = new_state(game, RCFRConfig(iterations=1, estimator_kind="tree"))
    features = slot_features(game)
    expected = np.array(
        [
            featurize(game.game_id, key, action)
            for _, key, _ in game.layout.infosets
            for action in game.action_labels[key]
        ],
        dtype=np.float64,
    )
    assert features.shape == expected.shape
    assert features.tobytes() == expected.tobytes()
    assert state.plan.XT.T.tobytes() == features[state.plan.rows].tobytes()


def test_plan_featurizes_each_infoset_once_per_game(leduc_game, monkeypatch):
    # One fit plan per game: a second state on the game shares it and
    # featurizes nothing; a game built anew featurizes each of its infosets
    # once into a plan of its own; a dropped game drops its plan; rejected
    # features are not kept.
    calls = []

    def counted(game_id, infoset, action):
        calls.append(infoset)
        return featurize(game_id, infoset, action)

    monkeypatch.setattr(estimator_module, "featurize", counted)
    config = RCFRConfig(iterations=1, estimator_kind="tree")
    first = new_state(leduc_game, config)
    calls.clear()
    second = new_state(leduc_game, config)
    assert second.plan is first.plan
    assert calls == []

    game = build_leduc()
    fresh = new_state(game, config)
    assert fresh.plan is not first.plan
    assert fresh.plan.XT.tobytes() == first.plan.XT.tobytes()
    assert sorted(calls) == sorted(game.action_labels)
    assert len(calls) == 288
    plan, layout = weakref.ref(fresh.plan), weakref.ref(game.layout)
    assert rcfr_module._PLANS[game.layout] is fresh.plan
    del game, fresh
    gc.collect()
    assert plan() is None and layout() is None

    game = build_leduc()
    features = slot_features(game)
    features[5, 1] = math.nan
    monkeypatch.setattr(rcfr_module, "slot_features", lambda game: features)
    for _ in range(2):
        with pytest.raises(ValueError, match="features must be finite"):
            new_state(game, config)
    assert game.layout not in rcfr_module._PLANS


def test_shared_plan_is_read_only(leduc_game):
    # Every state on the game holds this plan, so no fit may write into it,
    # and a fit on it equals one on writable copies of its arrays.
    config = RCFRConfig(iterations=1, min_leaf_weight=4.0)
    plan = new_state(leduc_game, config).plan
    arrays = {k: v for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {f.name for f in dataclasses.fields(plan)} - {"n_rows"}
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    writable = dataclasses.replace(plan, **{k: v.copy() for k, v in arrays.items()})
    targets = np.random.default_rng(5).normal(size=plan.n_rows)
    forest, fitted = fit_forest(plan, targets, min_leaf_weight=4.0)
    copy_forest, copy_fitted = fit_forest(writable, targets, min_leaf_weight=4.0)
    assert fitted.tobytes() == copy_fitted.tobytes()
    assert forest.trees == copy_forest.trees


class TestPolicy:
    def test_unfitted_estimator_gives_uniform_everywhere(self, kuhn_game):
        for kind in ("tree", "tabular"):
            config = RCFRConfig(iterations=1, estimator_kind=kind)
            state = new_state(kuhn_game, config)
            assert not state.predictions.any()
            rows = by_key(kuhn_game, regret_policy(kuhn_game, state.predictions))
            infosets = enumerate_infosets(kuhn_game)
            for row, (_, _, n) in zip(rows.values(), infosets):
                assert row == [1.0 / n] * n

    def test_all_negative_predictions_give_uniform(self, leduc_game):
        config = RCFRConfig(iterations=1, estimator_kind="tabular")
        state = new_state(leduc_game, config)
        _, slots = infoset_slots(leduc_game, "p0:J:-:cr/")
        state.predictions[slots] = [-1.0, -1.0, -1.0]
        policy = regret_policy(leduc_game, state.predictions)[slots].tolist()
        assert policy == [1.0 / 3.0] * 3

    def test_predictions_set_the_policy(self, leduc_game):
        # The solver's policy reads the predictions and nothing else.
        for kind in ("tabular", "tree"):
            config = RCFRConfig(iterations=1, estimator_kind=kind)
            state = new_state(leduc_game, config)
            _, slots = infoset_slots(leduc_game, "p0:J:-:cr/")
            state.predictions[slots] = [1.0, 3.0, 0.0]
            policy = regret_policy(leduc_game, state.predictions)
            assert policy[slots].tolist() == [0.25, 0.75, 0.0]

    def test_nan_prediction_names_its_infoset(self, leduc_game):
        config = RCFRConfig(iterations=2, estimator_kind="tree")
        state = new_state(leduc_game, config)
        rcfr_iteration(leduc_game, state, config)
        offset = leduc_game.layout.offset
        _, key, _ = leduc_game.layout.infosets[150]
        state.predictions[offset[150] + 1] = math.nan
        state.predictions[offset[250]] = -math.inf
        with pytest.raises(ValueError, match=re.escape(f"infoset '{key}'")):
            rcfr_iteration(leduc_game, state, config)


class TestIteration:
    def test_strategy_sums_stay_nonnegative(self, kuhn_game):
        config = RCFRConfig(iterations=30, estimator_kind="tree")
        state = new_state(kuhn_game, config)
        for _ in range(30):
            rcfr_iteration(kuhn_game, state, config)
        assert all(value >= 0.0 for value in state.strategy_sums)

    def test_target_store_keys_partition_the_infosets(self, kuhn_game):
        config = RCFRConfig(iterations=2, estimator_kind="tree")
        state = new_state(kuhn_game, config)
        rcfr_iteration(kuhn_game, state, config)
        offset = kuhn_game.layout.offset
        for seat, slots in enumerate(state.seat_slots):
            expected = [
                slot
                for k, (player, _, _) in enumerate(enumerate_infosets(kuhn_game))
                if player == seat
                for slot in range(offset[k], offset[k + 1])
            ]
            assert slots.tolist() == expected
        both = np.concatenate(state.seat_slots)
        assert sorted(both.tolist()) == list(range(offset[-1]))
        assert state.plan.XT.shape == (19, offset[-1])
        assert len(state.targets) == len(state.predictions) == offset[-1]

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_target_fails_the_refit(
        self, leduc_game, monkeypatch, target_mode, bad
    ):
        real_pass = rcfr_module.cfr_pass

        def poisoned_pass(*args):
            value, deltas = real_pass(*args)
            deltas[5] = bad
            return value, deltas

        for kind in ("tree", "tabular"):
            config = RCFRConfig(
                iterations=2, estimator_kind=kind, target_mode=target_mode
            )
            state = new_state(leduc_game, config)
            rcfr_iteration(leduc_game, state, config)
            with monkeypatch.context() as patch:
                patch.setattr(rcfr_module, "cfr_pass", poisoned_pass)
                with pytest.raises(ValueError, match="targets must be finite"):
                    rcfr_iteration(leduc_game, state, config)

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_tabular_predictions_are_the_targets(self, leduc_game, target_mode):
        config = RCFRConfig(
            iterations=30, estimator_kind="tabular", target_mode=target_mode
        )
        state = new_state(leduc_game, config)
        for _ in range(config.iterations):
            rcfr_iteration(leduc_game, state, config)
            assert state.predictions.tobytes() == state.targets.tobytes()
        assert np.abs(state.targets).max() > 0.0

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_tabular_refit_copies_the_targets(self, kuhn_game, target_mode):
        # The predictions are a snapshot: a later change to the targets must
        # not reach them before the next refit.
        config = RCFRConfig(
            iterations=2, estimator_kind="tabular", target_mode=target_mode
        )
        state = new_state(kuhn_game, config)
        rcfr_iteration(kuhn_game, state, config)
        assert not np.shares_memory(state.predictions, state.targets)
        before = state.predictions.copy()
        state.targets += 1.0
        assert state.predictions.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", ["kuhn_game", "leduc_game", "one_seat"])
    def test_tabular_state_holds_no_features_or_trees(self, request, name):
        # The memorizer's size is its seat's slot count, one entry each.
        if name == "one_seat":
            game = make_game(
                "kuhn",
                decision(0, "p0:J:-:", ("c", "r"), (terminal(1.0), terminal(-1.0))),
            )
        else:
            game = request.getfixturevalue(name)
        config = RCFRConfig(iterations=3, estimator_kind="tabular")
        state = new_state(game, config)
        for _ in range(config.iterations):
            rcfr_iteration(game, state, config)
        assert state.plan is None
        assert state.trees == (None, None)
        seats = game.layout.seat[game.layout.owner]
        assert rcfr_module.model_sizes(state) == [
            int(np.count_nonzero(seats == p)) for p in (0, 1)
        ]

    def test_colliding_feature_rows_share_a_tree_prediction(self, leduc_game):
        # Two raise routes to the same pot meet in feature space: the tree
        # must predict one value for both, the memorizer keeps each target.
        slots = []
        for key in ("p1:J:Q:rc/c", "p1:J:Q:crc/c"):
            _, infoset = infoset_slots(leduc_game, key)
            slots.append(infoset.start + leduc_game.action_labels[key].index("c"))
        tree_cfg = RCFRConfig(iterations=6)
        tabular_cfg = RCFRConfig(iterations=6, estimator_kind="tabular")
        tree_state = new_state(leduc_game, tree_cfg)
        tabular_state = new_state(leduc_game, tabular_cfg)
        features = slot_features(leduc_game)
        assert features[slots[0]].tolist() == features[slots[1]].tolist()
        for _ in range(6):
            rcfr_iteration(leduc_game, tree_state, tree_cfg)
            rcfr_iteration(leduc_game, tabular_state, tabular_cfg)
            first, second = tree_state.predictions[slots].tolist()
            assert first == second
        first, second = tabular_state.predictions[slots].tolist()
        assert first != second

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_feature_fails_the_plan(self, monkeypatch, bad):
        # A game built here, since a game that has a plan plans no more.
        game = build_kuhn()
        features = slot_features(game)
        features[3, 1] = bad
        monkeypatch.setattr(rcfr_module, "slot_features", lambda game: features)
        with pytest.raises(ValueError, match="features must be finite"):
            new_state(game, RCFRConfig(iterations=1))

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_seat_trees_are_single_fits(self, kuhn_game, target_mode):
        # Each seat's tree is the one fit_tree grows on that seat's rows,
        # its predictions are that tree's and its size is its leaf count.
        config = RCFRConfig(
            iterations=15, target_mode=target_mode, min_leaf_weight=2.0
        )
        state = new_state(kuhn_game, config)
        features = slot_features(kuhn_game)
        for _ in range(config.iterations):
            rcfr_iteration(kuhn_game, state, config)
            for tree, slots in zip(state.trees, state.seat_slots):
                X, y = features[slots], state.targets[slots]
                assert tree == fit_tree(X, y, min_leaf_weight=2.0)
                assert state.predictions[slots].tolist() == [
                    predict(tree, row) for row in X
                ]
            assert rcfr_module.model_sizes(state) == [
                model_complexity(tree) for tree in state.trees
            ]

    def test_fit_plan_is_built_by_new_state_and_kept(self, kuhn_game):
        config = RCFRConfig(iterations=3)
        state = new_state(kuhn_game, config)
        plan = state.plan
        assert plan.counts.tolist() == [len(slots) for slots in state.seat_slots]
        assert plan.rows.tolist() == np.concatenate(state.seat_slots).tolist()
        for _ in range(config.iterations):
            rcfr_iteration(kuhn_game, state, config)
            assert state.plan is plan

    def test_a_refit_builds_no_tree_objects(self, leduc_game):
        # The solver reads the fitted values, and at log points the leaf
        # counts and MSEs; trees, thresholds and all, are built when read.
        config = RCFRConfig(iterations=20, min_leaf_weight=4.0)
        state = new_state(leduc_game, config)
        for _ in range(config.iterations):
            rcfr_iteration(leduc_game, state, config)
            sizes = rcfr_module.model_sizes(state)  # read off the levels
            for seat in (0, 1):
                training_mse(state, seat)
            assert "trees" not in vars(state.forest)
        trees = state.trees
        assert sizes == [model_complexity(tree) for tree in trees]
        assert "trees" in vars(state.forest)
        assert all(model_complexity(tree) > 1 for tree in trees)

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
        gap = np.abs(exact_state.targets - boot_state.targets).max()
        assert gap > 1e-12


def oracle_fit(config, rows, values):
    """The regressor a refit on ``rows`` and ``values`` must give, as a
    function of one row: a dict memorizer for the tabular kind, else
    ``fit_tree`` read through the scalar ``predict``."""
    if config.estimator_kind == "tabular":
        table = dict(zip(map(tuple, rows), values))
        return lambda row: table[tuple(row)]
    tree = fit_tree(
        rows,
        values,
        min_leaf_weight=config.min_leaf_weight,
        max_depth=config.max_depth,
    )
    return lambda row: predict(tree, row)


def reference_solve(game, config):
    """RCFR as a loop over stores keyed by infoset, driving
    ``reference_cfr_pass``, refitting after every pass with its own
    features and regressors from ``oracle_fit``; like the solver's pass, that walk adds each infoset's
    strategy sums once per pass, at its first visit in preorder. Every use
    predicts row by row, with no prediction cache:
    the loop the solver must match. Returns the average profile and the
    (t, exploitability, mse_p1, mse_p2) log."""
    infosets = reference_enumerate_infosets(game)
    if config.estimator_kind == "tabular":
        numbers = itertools.count()

        def featurize_fn(game_id, key, action):
            """Injective: a running number per infoset-action."""
            return (float(next(numbers)),)

    else:
        featurize_fn = featurize
    regressors = [lambda row: 0.0, lambda row: 0.0]  # before the first fit
    features = {
        key: [featurize_fn(game.game_id, key, a) for a in game.action_labels[key]]
        for _, key, _ in infosets
    }
    owner = {key: player for player, key, _ in infosets}
    targets = tuple(
        {key: [0.0] * n for player, key, n in infosets if player == seat}
        for seat in (0, 1)
    )
    strategy_sums = {key: [0.0] * n for _, key, n in infosets}

    def predicted(infoset):
        regressor = regressors[owner[infoset]]
        return [regressor(row) for row in features[infoset]]

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

        _, deltas = reference_cfr_pass(game, policy_fn, strategy_sums)
        for infoset, vec in deltas.items():
            row = targets[owner[infoset]][infoset]
            for a, value in enumerate(vec):
                if config.target_mode == "exact":
                    row[a] += value
                else:
                    row[a] = seen[infoset][a] + value
        for player in (0, 1):
            rows = [r for key in targets[player] for r in features[key]]
            values = [v for row in targets[player].values() for v in row]
            regressors[player] = oracle_fit(config, rows, values)
        if t % config.log_every == 0 or t == config.iterations:
            average = reference_average(strategy_sums)
            log.append(
                (t, reference_exploitability(game, average), mse(0), mse(1))
            )
    return reference_average(strategy_sums), log


def assert_solve_matches_reference(game, config):
    profile, convergence, _ = rcfr_solve(game, config)
    expected_profile, expected_log = reference_solve(game, config)
    assert repr(profile) == repr(expected_profile)
    assert repr(
        [(row.t, row.exploitability, row.mse_p1, row.mse_p2) for row in convergence]
    ) == repr(expected_log)


class TestPredictionCache:
    """The solver's cached predictions stay in step with its regressors."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(target_mode="bootstrap"),
            dict(seed=4),
            dict(max_depth=2, target_mode="bootstrap"),
            dict(estimator_kind="tabular", target_mode="bootstrap"),
            dict(estimator_kind="tabular"),
            dict(max_depth=0),
            dict(max_depth=3),
        ],
    )
    def test_matches_row_by_row_reference(self, kuhn_game, options):
        config = RCFRConfig(
            iterations=13, log_every=4, min_leaf_weight=2.0, **options
        )
        assert_solve_matches_reference(kuhn_game, config)

    def test_leduc_bootstrap(self, leduc_game):
        config = RCFRConfig(
            iterations=4,
            log_every=2,
            min_leaf_weight=8.0,
            target_mode="bootstrap",
        )
        assert_solve_matches_reference(leduc_game, config)

    def test_leduc_exact(self, leduc_game):
        config = RCFRConfig(iterations=4, log_every=2, min_leaf_weight=4.0)
        assert_solve_matches_reference(leduc_game, config)

    def test_leduc_tabular_bootstrap(self, leduc_game):
        config = RCFRConfig(
            iterations=4,
            log_every=2,
            estimator_kind="tabular",
            target_mode="bootstrap",
        )
        assert_solve_matches_reference(leduc_game, config)


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

    @pytest.mark.parametrize(
        "min_leaf_weight, digest, sizes",
        [
            (
                64.0,
                "c4e1dfe5399178f7d0e5f918aff2312c50c568ae5f005a5b48a7d786cb11a81d",
                [(10, 3, 3), (20, 3, 3)],
            ),
            (
                16.0,
                "651be7754d005cda01d34d8f2ad08ed50be0d813c5b299b58f5b6900de2a5c4e",
                [(10, 14, 16), (20, 16, 14)],
            ),
            (
                4.0,
                "1106e709da38c44347c563d519f2efbb7ab79eda14becc4ed66e6b51ca6ea5e9",
                [(10, 69, 65), (20, 67, 63)],
            ),
        ],
        ids=["ml64", "ml16", "ml4"],
    )
    def test_leduc_tree_rcfr_is_pinned(
        self, leduc_game, tmp_path, min_leaf_weight, digest, sizes
    ):
        # Recorded with the per-node tree learner; the level-wise one must
        # give the same strategy file and leaf counts. The digests were
        # re-recorded when the strategy sums began to add once per sequence;
        # the leaf counts held.
        config = RCFRConfig(
            iterations=20, min_leaf_weight=min_leaf_weight, log_every=10
        )
        profile, _, model_sizes = rcfr_solve(leduc_game, config)
        path = tmp_path / "strategy.csv"
        write_strategy_file(str(path), leduc_game, profile)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert [(r.t, r.leaves_p1, r.leaves_p2) for r in model_sizes] == sizes

    @pytest.mark.parametrize(
        "options, digest, sizes",
        [
            (
                dict(min_leaf_weight=16.0, target_mode="bootstrap"),
                "beccec8cb58f32f1e20408febbb1c5fde3fb87c1e8567ab9c1aecf4c379153b2",
                [(10, 18, 18), (20, 20, 17)],
            ),
            (
                dict(min_leaf_weight=4.0, max_depth=3),
                "16ec8eadbbf93453d045e6bf5f3558d35c27a498d99548f4af3764ad62ecd007",
                [(10, 8, 8), (20, 8, 8)],
            ),
            (
                dict(min_leaf_weight=1.0, max_depth=5, target_mode="bootstrap"),
                "13aeced9323c3b9fd57123cf9352b8cecf28d71ccbe29df60ce99bf62578e4cf",
                [(10, 29, 31), (20, 29, 31)],
            ),
        ],
        ids=["boot-ml16", "ml4-depth3", "boot-ml1-depth5"],
    )
    def test_leduc_tree_rcfr_shapes_are_pinned(
        self, leduc_game, tmp_path, options, digest, sizes
    ):
        # Recorded with the estimator classes RCFR used to fit through; the
        # digests re-recorded when the strategy sums began to add once per
        # sequence, the leaf counts held.
        config = RCFRConfig(iterations=20, log_every=10, **options)
        profile, _, model_sizes = rcfr_solve(leduc_game, config)
        path = tmp_path / "strategy.csv"
        write_strategy_file(str(path), leduc_game, profile)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert [(r.t, r.leaves_p1, r.leaves_p2) for r in model_sizes] == sizes

    @pytest.mark.parametrize("estimator_kind", ["tabular", "tree"])
    def test_seed_changes_no_output(self, kuhn_game, estimator_kind):
        runs = [
            rcfr_solve(
                kuhn_game,
                RCFRConfig(
                    iterations=20,
                    log_every=5,
                    estimator_kind=estimator_kind,
                    target_mode="bootstrap",
                    seed=seed,
                ),
            )
            for seed in (0, 9)
        ]
        (profile_a, conv_a, sizes_a), (profile_b, conv_b, sizes_b) = runs
        assert repr(profile_a) == repr(profile_b)
        assert sizes_a == sizes_b
        assert [
            repr((r.t, r.exploitability, r.mse_p1, r.mse_p2)) for r in conv_a
        ] == [repr((r.t, r.exploitability, r.mse_p1, r.mse_p2)) for r in conv_b]

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
        rows = slot_features(kuhn_game)
        for player, logged in ((0, convergence[-1].mse_p1), (1, convergence[-1].mse_p2)):
            slots = state.seat_slots[player]
            total = 0.0
            for features, target in zip(rows[slots], state.targets[slots]):
                predicted = predict(state.trees[player], features)
                total += (predicted - float(target)) ** 2
            assert abs(logged - total / len(slots)) < 1e-9

    @pytest.mark.parametrize(
        "options",
        [
            dict(min_leaf_weight=4.0),
            dict(min_leaf_weight=16.0, target_mode="bootstrap"),
        ],
    )
    def test_solves_sharing_a_plan_match_a_fresh_game(
        self, leduc_game, tmp_path, options
    ):
        # Two solves in a row on one game share its plan; a game built anew
        # plans again. All three give the same files and logs.
        config = RCFRConfig(iterations=20, log_every=5, **options)
        plan = new_state(leduc_game, config).plan
        runs = [rcfr_solve(leduc_game, config) for _ in range(2)]
        fresh = build_leduc()
        runs.append(rcfr_solve(fresh, config))
        assert new_state(leduc_game, config).plan is plan
        assert new_state(fresh, config).plan is not plan
        outputs = []
        for n, (profile, convergence, sizes) in enumerate(runs):
            path = tmp_path / f"strategy{n}.csv"
            write_strategy_file(str(path), leduc_game, profile)
            logged = [
                repr((r.t, r.exploitability, r.mse_p1, r.mse_p2)) for r in convergence
            ]
            outputs.append((path.read_bytes(), logged, sizes))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_leduc_min_leaf_4_log_is_pinned(self, leduc_game):
        # The convergence.csv of `fregret solve --game leduc --algo rcfr
        # --estimator tree --min-leaf 4 --iters 20` without its wall_ms
        # column; CI pins the same digests. Its t, MSE and leaf columns
        # were recorded before the strategy sums began to add once per
        # sequence, which moved only the exploitability column.
        _, convergence, sizes = rcfr_solve(
            leduc_game, RCFRConfig(iterations=20, min_leaf_weight=4.0)
        )
        header = ["t", "exploitability", "mse_p1", "mse_p2", "leaves_p1", "leaves_p2"]
        rows = [
            (c.t, c.exploitability, c.mse_p1, c.mse_p2, s.leaves_p1, s.leaves_p2)
            for c, s in zip(convergence, sizes)
        ]
        text = format_csv(header, rows).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "d8bf378673c79b63981c832ff223209cf016d7eaa2c0797f7ac4b22cff9126b1"
        )
        trajectory = [(row[0], *row[2:]) for row in rows]
        text = format_csv([header[0], *header[2:]], trajectory).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "f0046c4483bcff2a430a128ffb6a5923107954605c6a6708dedb2a0d47fd117b"
        )

    def test_training_mse_is_the_ordered_loop(self):
        # The squares are ``d * d`` and the sum runs in slot order from 0.0,
        # as a loop gives them: random errors of one magnitude and of many,
        # exact zeros, and a seat with no slots. Seats of one and two slots
        # log single squares, which a sum of many would round away, so a
        # square by ``pow`` fails there.
        rng = np.random.default_rng(11)
        n = 20000
        wide = 10.0 ** rng.integers(-150, 100, size=n)
        scale = np.where(np.arange(n) < n // 2, 1.0, wide)
        predictions = rng.normal(size=n) * scale
        targets = rng.normal(size=n) * scale
        targets[::7] = predictions[::7]
        predictions[::11] = targets[::11] = 0.0
        for seats in [
            (np.arange(n // 2), np.arange(n // 2, n)),
            (np.arange(0, n, 2), np.arange(n)),
            (np.arange(n), np.array([], dtype=np.intp)),
            (rng.permutation(n)[:999], np.arange(3)),
            *((np.array([k]), np.array([k, k + 1])) for k in range(0, n, 5)),
        ]:
            state = RCFRState(seats, targets, predictions, np.zeros(n))
            for player, slots in enumerate(seats):
                pairs = zip(predictions[slots].tolist(), targets[slots].tolist())
                total = ordered_sum((p - t) * (p - t) for p, t in pairs)
                expected = total / len(slots) if len(slots) else 0.0
                mse = training_mse(state, player)
                assert type(mse) is float
                assert mse.hex() == expected.hex()

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


def distinct_rows(state, features):
    """Distinct feature rows per seat."""
    return [len(np.unique(features[s], axis=0)) for s in state.seat_slots]


def leaves_of(tree, rows):
    """The leaf ``predict`` reaches for each feature row, by node index."""
    out = []
    for row in rows:
        node = 0
        while tree.feature[node] >= 0:
            f = tree.feature[node]
            node = node + 1 if row[f] <= tree.threshold[node] else tree.right[node]
        out.append(node)
    return out


def unresolvable(features, targets):
    """Whether no split of these rows by a threshold between two of their
    values gains more than the grower's float comparison can resolve.

    The grower splits a node when ls²/lc + rs²/rc, over a split's left and
    right target sums and counts, exceeds ts²/tc over the whole node. Each
    sum adds at most n targets, so it is within γₙ·A of exact, where A is
    the sum of |target| (Higham 2002, ch. 3). Each of the three squares is
    then within 3γₙ·A² of exact, and the divisions, squarings and the
    addition round once each, by at most u·A². So the two sides are
    compared within 9γₙ·A² + 6u·A² < γ₁₀ₙ₊₁₀·A² of their exact values,
    and a split whose exact gain is no larger may go either way.
    """
    ys = [Fraction(y) for y in targets.tolist()]
    size = sum(map(abs, ys))
    bound = gamma(10 * len(ys) + 10) * size * size
    baseline = sum(ys) ** 2 / len(ys)
    for column in features.T.tolist():
        for cut in sorted(set(column))[:-1]:
            left = [y for y, x in zip(ys, column) if x <= cut]
            right = [y for y, x in zip(ys, column) if x > cut]
            gain = sum(left) ** 2 / len(left) + sum(right) ** 2 / len(right)
            if gain - baseline > bound:
                return False
    return True


class TestRealizability:
    """Trees that can hold one leaf per infoset-action realize the regrets,
    so tree RCFR plays as tabular RCFR, which is CFR (the paper's
    corollary, checked where the features tell every slot apart)."""

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_kuhn_min_leaf_0_trees_play_as_tabular(self, kuhn_game, target_mode):
        """Min-leaf-0 trees hold apart every pair of targets the grower can
        tell apart, and where they realize an infoset's targets they play
        as tabular RCFR.

        At every refit, every leaf holds one slot, or slots whose targets
        no split can separate at float resolution (``unresolvable``). Such
        a leaf predicts its targets' mean, which need not equal any of
        them: at the refit of iteration 3, slots 14 and 15 (targets
        0x1.5555555555553p-5 and 0x1.5555555555555p-5) share a leaf. So
        the policies are compared where they must agree: at every infoset
        whose predictions equal its targets, the tree's policy is regret
        matching of the targets, which is tabular RCFR's policy, and that
        holds at all but a few of the 1000 x 12 infoset refits.
        """
        config = RCFRConfig(
            iterations=1000, min_leaf_weight=0.0, target_mode=target_mode
        )
        layout = kuhn_game.layout
        state = new_state(kuhn_game, config)
        features = slot_features(kuhn_game)
        assert distinct_rows(state, features) == [12, 12]
        realized = 0
        for _ in range(config.iterations):
            rcfr_iteration(kuhn_game, state, config)
            for seat, slots in enumerate(state.seat_slots):
                rows = features[slots]
                leaves = {}
                for slot, leaf in zip(slots, leaves_of(state.trees[seat], rows)):
                    leaves.setdefault(leaf, []).append(slot)
                for held in leaves.values():
                    assert unresolvable(features[held], state.targets[held])
            exact = np.ones(len(layout.infosets), dtype=bool)
            exact[layout.owner[state.predictions != state.targets]] = False
            played = regret_policy(kuhn_game, state.predictions)[exact[layout.owner]]
            tabular = regret_policy(kuhn_game, state.targets)[exact[layout.owner]]
            assert played.tobytes() == tabular.tobytes()
            realized += int(exact.sum())
        assert realized >= 0.99 * config.iterations * len(layout.infosets)

    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_leduc_min_leaf_1_trees_track_cfr(self, leduc_game, target_mode):
        # Leduc's features collide; the count of round-1 actions, as one
        # more column, tells every seat's slots apart.
        config = RCFRConfig(iterations=200, log_every=10, target_mode=target_mode)
        state = new_state(leduc_game, config)
        keys = [key for _, key, _ in leduc_game.layout.infosets]
        column = [len(key.split(":")[3].split("/")[0]) for key in keys]
        owner = leduc_game.layout.owner
        features = np.column_stack([slot_features(leduc_game), np.array(column)[owner]])
        state.plan = plan_fit(features, state.seat_slots)
        assert distinct_rows(state, features) == [336, 336]
        step = lambda: rcfr_iteration(leduc_game, state, config)
        tree_log = [
            (t, exploit)
            for t, exploit, _ in checkpoints(
                leduc_game, config, step, state.strategy_sums
            )
        ]
        _, cfr_log = solve(leduc_game, CFRConfig(iterations=200, log_every=10))
        assert [t for t, _ in tree_log] == [row.t for row in cfr_log]
        gaps = [abs(e - row.exploitability) for (_, e), row in zip(tree_log, cfr_log)]
        assert max(gaps) <= 1e-9


class TestOneMoveGame:
    @pytest.mark.parametrize("name", ["rps", "biased_mp"])
    @pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
    def test_tabular_rcfr_equals_cfr(self, name, target_mode):
        _, game = one_move_game(name)
        profile, log = solve(game, CFRConfig(iterations=300, log_every=50))
        tabular, convergence, _ = rcfr_solve(
            game,
            RCFRConfig(
                iterations=300,
                log_every=50,
                estimator_kind="tabular",
                target_mode=target_mode,
            ),
        )
        assert tabular == profile
        assert [(row.t, row.exploitability) for row in convergence] == [
            (row.t, row.exploitability) for row in log
        ]


class TestOneSeatGame:
    def test_tree_rcfr_skips_a_seat_that_never_acts(self):
        game = make_game(
            "kuhn",
            decision(0, "p0:J:-:", ("c", "r"), (terminal(1.0), terminal(-1.0))),
        )
        tree, _, sizes = rcfr_solve(game, RCFRConfig(iterations=5))
        tabular, _, _ = rcfr_solve(
            game, RCFRConfig(iterations=5, estimator_kind="tabular")
        )
        assert tree == tabular == {"p0:J:-:": (0.9, 0.1)}
        assert sizes[-1].leaves_p1 > 0 and sizes[-1].leaves_p2 == 0

    def test_tree_rcfr_runs_where_no_seat_acts(self):
        # No slot, so no feature row and no plan: the refit memorizes no
        # targets and fits no tree.
        game = make_game("kuhn", chance([0.5, 0.5], [terminal(1.0), terminal(-1.0)]))
        config = RCFRConfig(iterations=3)
        state = new_state(game, config)
        assert slot_features(game).shape == (0, FEATURE_DIM)
        assert state.plan is None
        rcfr_iteration(game, state, config)
        assert state.forest is None and state.trees == (None, None)
        profile, log, sizes = rcfr_solve(game, config)
        tabular = rcfr_solve(game, RCFRConfig(iterations=3, estimator_kind="tabular"))
        assert profile == tabular[0] == {}
        assert [row.exploitability for row in log] == [0.0, 0.0, 0.0]
        assert [(s.leaves_p1, s.leaves_p2) for s in sizes] == [(0, 0)] * 3


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RCFRConfig(iterations=0)
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, estimator_kind="forest")
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, target_mode="loose")
        with pytest.raises(ValueError):
            RCFRConfig(iterations=1, log_every=0)

    @pytest.mark.parametrize("estimator_kind", ["tabular", "tree"])
    @pytest.mark.parametrize(
        "options, name",
        [
            (dict(iterations=2.5), "iterations"),
            (dict(log_every=1.5), "log_every"),
            (dict(min_leaf_weight=math.nan), "min_leaf_weight"),
            (dict(min_leaf_weight=-1.0), "min_leaf_weight"),
            (dict(max_depth=-1), "max_depth"),
            (dict(max_depth=1.5), "max_depth"),
            (dict(iterations=math.inf), "iterations"),
            (dict(max_depth=math.inf), "max_depth"),
            (dict(max_depth=math.nan), "max_depth"),
            (dict(iterations=math.nan), "iterations"),
            (dict(log_every=math.inf), "log_every"),
            (dict(log_every=math.nan), "log_every"),
            (dict(min_leaf_weight=math.inf), "min_leaf_weight"),
            (dict(iterations=None), "iterations"),
            (dict(log_every=None), "log_every"),
        ],
    )
    def test_bad_shape_fails_at_the_config(self, estimator_kind, options, name):
        with pytest.raises(ValueError, match=name):
            RCFRConfig(**{"iterations": 2, **options}, estimator_kind=estimator_kind)

    def test_counts_and_shape_are_stored_normalized(self):
        config = RCFRConfig(
            iterations=3.0, log_every=1.0, min_leaf_weight=4, max_depth=2.0
        )
        assert (config.iterations, config.log_every) == (3, 1)
        assert type(config.iterations) is int and type(config.log_every) is int
        assert config.min_leaf_weight == 4.0 and type(config.min_leaf_weight) is float
        assert config.max_depth == 2 and type(config.max_depth) is int

    def test_state_repr_stays_compact(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        assert isinstance(state, RCFRState)
        assert "p0:J" not in repr(state)

    def test_training_mse_of_fresh_state_is_zero(self, kuhn_game):
        state = new_state(kuhn_game, RCFRConfig(iterations=1))
        assert training_mse(state, 0) == 0.0
