"""Features, the tabular memorizer, and the regression-tree learner."""

import math
import random

import numpy as np
import pytest
from conftest import predict_row

from fregret.estimator import (
    EXACT_FEATURE_DIM,
    FEATURE_DIM,
    TabularEstimator,
    TreeRegressor,
    featurize,
    featurize_exact,
    fit_tree,
    model_complexity,
    parse_tree,
    predict,
    predict_rows,
    serialize_tree,
)
from fregret.games import enumerate_infosets


def random_dataset(rng, n_rows=30, n_features=4):
    X = [[rng.random() for _ in range(n_features)] for _ in range(n_rows)]
    y = [rng.uniform(-5.0, 5.0) for _ in range(n_rows)]
    return X, y


def brute_force_best_split(X, y, w=None):
    """Exhaustive minimum-SSE single split; ties to lowest feature/threshold."""
    n = len(y)
    w = [1.0] * n if w is None else w
    best = None
    for j in range(len(X[0])):
        values = sorted({row[j] for row in X})
        for lo, hi in zip(values, values[1:]):
            theta = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i][j] <= theta]
            right = [i for i in range(n) if X[i][j] > theta]
            sse = 0.0
            for side in (left, right):
                total_w = sum(w[i] for i in side)
                mean = sum(w[i] * y[i] for i in side) / total_w
                sse += sum(w[i] * (y[i] - mean) ** 2 for i in side)
            if best is None or sse < best[0] - 1e-12:
                best = (sse, j, theta)
    return best[1], best[2]


def tree_fields(tree):
    """Every field of a tree as plain Python values, for exact comparison."""
    return (
        tree.feature.tolist(),
        tree.threshold.tolist(),
        tree.value.tolist(),
        tree.right.tolist(),
        tree.n_features,
        tree.min_leaf_weight,
        tree.max_depth,
    )


class TestFeaturize:
    def test_dimension_and_determinism(self):
        phi = featurize("leduc", "p0:K:-:cr/", "c")
        assert len(phi) == FEATURE_DIM
        assert phi == featurize("leduc", "p0:K:-:cr/", "c")

    def test_root_round_values(self):
        phi = featurize("leduc", "p0:J:-:/", "r")
        assert phi[0] == 0.0  # round
        assert phi[1] == 2.0  # pot = two antes
        assert phi[2] == 0.0  # raises
        assert phi[6:10] == (0.0, 0.0, 0.0, 1.0)  # board: none
        kuhn_phi = featurize("kuhn", "p0:J:-:", "r")
        assert kuhn_phi[0] == 0.0 and kuhn_phi[1] == 2.0

    def test_pot_accumulates_across_rounds(self):
        # Round 1 c,r,c commits 2+2 chips; the round-2 raise adds 4 more.
        phi = featurize("leduc", "p1:J:Q:crc/r", "c")
        assert phi[0] == 1.0
        assert phi[1] == 10.0
        assert phi[2] == 1.0  # one raise this round

    def test_rank_board_and_pair_flags(self):
        phi = featurize("leduc", "p0:Q:Q:cc/", "c")
        assert phi[3:6] == (0.0, 1.0, 0.0)  # private Q
        assert phi[6:10] == (0.0, 1.0, 0.0, 0.0)  # board Q
        assert phi[10] == 1.0  # pairs the board
        assert featurize("leduc", "p0:K:Q:cc/", "c")[10] == 0.0

    def test_action_identity(self):
        base = featurize("leduc", "p1:K:-:r/", "f")
        call = featurize("leduc", "p1:K:-:r/", "c")
        assert base[12:15] == (1.0, 0.0, 0.0)
        assert call[12:15] == (0.0, 1.0, 0.0)
        assert base[:12] == call[:12]
        assert base[15:] == call[15:]

    def test_last_opponent_action(self):
        # Seat 1 facing seat 0's raise.
        assert featurize("leduc", "p1:K:-:r/", "c")[15:19] == (0.0, 0.0, 1.0, 0.0)
        # Seat 0 opening: no opponent action yet.
        assert featurize("leduc", "p0:K:-:/", "c")[15:19] == (0.0, 0.0, 0.0, 1.0)
        # Seat 0 opening round 2: opponent's round-1 check is the latest.
        assert featurize("leduc", "p0:K:J:cc/", "c")[15:19] == (0.0, 1.0, 0.0, 0.0)

    def test_kuhn_and_leduc_share_schema(self):
        assert len(featurize("kuhn", "p1:Q:-:c", "r")) == FEATURE_DIM

    @pytest.mark.parametrize(
        "key",
        [
            "p2:J:-:/",  # bad seat
            "p0:A:-:/",  # bad rank
            "p0:J:X:/",  # bad board
            "p0:J:-:xy/",  # bad action chars
            "p0:J:-",  # missing field
            "p0:J:-:c/c/c",  # too many rounds
        ],
    )
    def test_malformed_leduc_keys(self, key):
        with pytest.raises(ValueError):
            featurize("leduc", key, "c")

    def test_malformed_kuhn_keys(self):
        with pytest.raises(ValueError):
            featurize("kuhn", "p0:J:-:c/", "c")  # kuhn has one round
        with pytest.raises(ValueError):
            featurize("kuhn", "p0:J:Q:c", "c")  # kuhn has no board

    def test_unknown_game_and_action(self):
        with pytest.raises(ValueError):
            featurize("holdem", "p0:J:-:/", "c")
        with pytest.raises(ValueError):
            featurize("leduc", "p0:J:-:/", "x")

    def test_known_collision_and_exact_disambiguation(self):
        # Different raise routes to the same 6-chip pot meet in feature
        # space; the exact schema's key code keeps them apart.
        a_key, b_key = "p1:J:Q:rc/c", "p1:J:Q:crc/c"
        assert featurize("leduc", a_key, "c") == featurize("leduc", b_key, "c")
        exact_a = featurize_exact("leduc", a_key, "c")
        exact_b = featurize_exact("leduc", b_key, "c")
        assert len(exact_a) == EXACT_FEATURE_DIM
        assert exact_a != exact_b
        assert exact_a[:FEATURE_DIM] == featurize("leduc", a_key, "c")

    def test_exact_schema_injective_on_both_games(self, kuhn_game, leduc_game):
        for game, game_id in ((kuhn_game, "kuhn"), (leduc_game, "leduc")):
            seen = {}
            for _, key, _ in enumerate_infosets(game):
                for action in game.action_labels[key]:
                    phi = featurize_exact(game_id, key, action)
                    assert phi not in seen, (key, action, seen[phi])
                    seen[phi] = (key, action)


class TestFitTree:
    def test_all_targets_equal_single_leaf(self):
        tree = fit_tree([[0.0], [1.0], [2.0]], [4.5, 4.5, 4.5])
        assert tree.feature.tolist() == [-1]
        assert tree.value.tolist() == [4.5]
        assert model_complexity(tree) == 1

    def test_single_row(self):
        tree = fit_tree([[1.0, 2.0]], [7.5])
        assert tree.feature.tolist() == [-1] and tree.value.tolist() == [7.5]

    def test_two_clusters_split_on_feature_zero(self):
        X = [[0.0, 5.0], [0.1, -3.0], [1.0, 4.0], [1.1, -2.0]]
        y = [0.0, 0.0, 10.0, 10.0]
        tree = fit_tree(X, y)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == (0.1 + 1.0) / 2.0
        assert tree.right[0] == 2
        assert tree.value[1] == 0.0 and tree.value[2] == 10.0

    def test_depth_one_matches_exhaustive_search(self):
        rng = random.Random(123)
        for _ in range(10):
            X, y = random_dataset(rng)
            tree = fit_tree(X, y, max_depth=1)
            oracle_feature, oracle_threshold = brute_force_best_split(X, y)
            assert tree.feature[0] == oracle_feature
            assert abs(tree.threshold[0] - oracle_threshold) < 1e-12

    def test_weighted_depth_one_matches_exhaustive_search(self):
        rng = random.Random(77)
        X, y = random_dataset(rng)
        w = [rng.uniform(0.1, 3.0) for _ in y]
        tree = fit_tree(X, y, w, max_depth=1, min_leaf_weight=0.0)
        assert (tree.feature[0], tree.threshold[0]) == pytest.approx(
            brute_force_best_split(X, y, w)
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([], [])

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([[1.0], [2.0]], [1.0])
        with pytest.raises(ValueError):
            fit_tree([[1.0]], [1.0], [1.0, 2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([[1.0]], [1.0], [-1.0])
        # No resample of this seed draws row 2; the whole set is checked.
        with pytest.raises(ValueError, match="negative"):
            TreeRegressor(n_bags=2, seed=43).fit(
                [[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0], [1.0, 1.0, -1.0]
            )

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([[1.0], [2.0]], [1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_tree([[1.0], [2.0]], [1.0, bad])
        # A bootstrap resample that skips the bad row must still reject it.
        with pytest.raises(ValueError, match="finite"):
            TreeRegressor(n_bags=2).fit([[1.0], [2.0]], [1.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_tree([[1.0], [2.0]], [1.0, 2.0], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            TreeRegressor(n_bags=2, seed=43).fit(
                [[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0], [1.0, 1.0, bad]
            )

    @pytest.mark.parametrize(
        "targets, weights",
        [
            ([1e308, 1e308], [10.0, 10.0]),  # w * y overflows: leaf inf
            ([1e308, -1e308], [10.0, 10.0]),  # inf - inf: leaf nan
            ([1.0, 2.0], [1e308, 1e308]),  # total weight overflows
        ],
    )
    def test_overflowing_fit_rejected(self, targets, weights):
        with pytest.raises(ValueError, match="overflow"):
            fit_tree([[0.0], [1.0]], targets, weights)
        with pytest.raises(ValueError, match="overflow"):
            TreeRegressor().fit([[0.0], [1.0]], targets, weights)

    def test_training_mse_at_most_target_variance(self):
        rng = random.Random(5)
        for _ in range(10):
            X, y = random_dataset(rng, n_rows=40)
            w = [rng.uniform(0.5, 2.0) for _ in y]
            tree = fit_tree(X, y, w, min_leaf_weight=3.0)
            total_w = sum(w)
            mean = sum(wi * yi for wi, yi in zip(w, y)) / total_w
            variance = sum(wi * (yi - mean) ** 2 for wi, yi in zip(w, y)) / total_w
            mse = (
                sum(
                    wi * (yi - predict(tree, xi)) ** 2
                    for wi, yi, xi in zip(w, y, X)
                )
                / total_w
            )
            assert mse <= variance + 1e-12

    def test_leaf_values_are_weighted_means(self):
        rng = random.Random(9)
        X, y = random_dataset(rng, n_rows=50)
        w = [rng.uniform(0.2, 2.0) for _ in y]
        tree = fit_tree(X, y, w, min_leaf_weight=4.0)
        groups = {}
        for xi, yi, wi in zip(X, y, w):
            node = 0
            path = []
            while tree.feature[node] >= 0:
                go_left = xi[tree.feature[node]] <= tree.threshold[node]
                path.append("L" if go_left else "R")
                node = node + 1 if go_left else tree.right[node]
            groups.setdefault("".join(path), []).append((yi, wi))
        for path, rows in groups.items():
            node = 0
            for step in path:
                node = node + 1 if step == "L" else tree.right[node]
            assert tree.feature[node] == -1
            total = sum(wi for _, wi in rows)
            mean = sum(yi * wi for yi, wi in rows) / total
            assert abs(tree.value[node] - mean) < 1e-9

    def test_deterministic_on_identical_data(self):
        rng = random.Random(31)
        X, y = random_dataset(rng)
        assert fit_tree(X, y) == fit_tree(list(X), list(y))

    def test_min_leaf_weight_monotone_leaf_count(self):
        rng = random.Random(13)
        X, y = random_dataset(rng, n_rows=60)
        counts = [
            model_complexity(fit_tree(X, y, min_leaf_weight=m))
            for m in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_max_depth_zero_is_constant(self):
        tree = fit_tree([[0.0], [1.0]], [0.0, 10.0], max_depth=0)
        assert tree.feature.tolist() == [-1] and tree.value.tolist() == [5.0]


class TestPredict:
    def test_single_leaf_constant_everywhere(self):
        tree = fit_tree([[3.0, 1.0]], [7.5])
        assert predict(tree, [0.0, 0.0]) == 7.5
        assert predict(tree, [100.0, -9.0]) == 7.5

    def test_dimension_mismatch_rejected(self):
        tree = fit_tree([[1.0, 2.0]], [3.0])
        with pytest.raises(ValueError):
            predict(tree, [1.0])

    def test_matches_independent_path_walk(self):
        rng = random.Random(21)
        X, y = random_dataset(rng, n_rows=40)
        tree = fit_tree(X, y, min_leaf_weight=2.0)
        for xi in X:
            node = 0
            while tree.feature[node] != -1:
                if xi[tree.feature[node]] <= tree.threshold[node]:
                    node += 1
                else:
                    node = tree.right[node]
            assert predict(tree, xi) == tree.value[node]


class TestPredictRows:
    """The batched walk over the flat tree equals the row-by-row walk."""

    def assert_rows_match(self, estimator, rows):
        batched = estimator.predict(rows)
        one_by_one = [predict_row(estimator, row) for row in rows]
        assert [v.hex() for v in batched] == [v.hex() for v in one_by_one]

    def test_fitted_trees(self):
        rng = random.Random(41)
        for min_leaf in (1.0, 3.0, 8.0):
            X, y = random_dataset(rng, n_rows=60)
            est = TreeRegressor(min_leaf_weight=min_leaf).fit(X, y)
            probes = [[rng.uniform(-0.2, 1.2) for _ in range(4)] for _ in range(200)]
            self.assert_rows_match(est, X + probes)

    def test_bagged_trees(self):
        rng = random.Random(42)
        X, y = random_dataset(rng, n_rows=60)
        est = TreeRegressor(n_bags=3, seed=5, min_leaf_weight=2.0).fit(X, y)
        self.assert_rows_match(est, X)
        self.assert_rows_match(est, np.asarray(X))

    def test_unfitted_is_all_zeros(self):
        rows = [[1.0, 2.0], [3.0, -4.0]]
        assert TreeRegressor().predict(rows) == [0.0, 0.0]
        self.assert_rows_match(TreeRegressor(), rows)

    def test_parsed_tree_and_rows_on_thresholds(self):
        tree = fit_tree(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]],
            [0.0, 3.0, 10.0, 13.0, 20.0],
        )
        clone = parse_tree(serialize_tree(tree))
        thresholds = [
            float(line.split(",")[2])
            for line in serialize_tree(tree).splitlines()
            if line.startswith("node,")
        ]
        assert thresholds
        rows = [[t, t] for t in thresholds] + [[t, 0.0] for t in thresholds]
        rows += [[0.5, 0.5], [1.5, 0.5], [np.nextafter(0.5, 1.0), 0.5]]
        for source in (tree, clone):
            expected = [predict(source, row) for row in rows]
            assert predict_rows(source, rows).tolist() == expected

    def test_single_leaf_and_dimension_mismatch(self):
        tree = fit_tree([[1.0, 2.0]], [3.0])
        assert predict_rows(tree, [[0.0, 0.0], [5.0, 5.0]]).tolist() == [3.0, 3.0]
        with pytest.raises(ValueError):
            predict_rows(tree, [[1.0]])


class TestModelComplexity:
    def test_single_leaf(self):
        assert model_complexity(fit_tree([[0.0]], [1.0])) == 1

    def test_perfect_depth_two_tree(self):
        tree = parse_tree(
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none\n"
            "node,0,0.5\nnode,1,0.5\nleaf,0\nleaf,1\n"
            "node,1,0.5\nleaf,2\nleaf,3\n"
        )
        assert model_complexity(tree) == 4

    def test_four_leaves_from_fit(self):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        y = [0.0, 3.0, 10.0, 13.0]
        tree = fit_tree(X, y)
        assert model_complexity(tree) == 4
        for xi, yi in zip(X, y):
            assert predict(tree, xi) == yi


class TestSerialization:
    def build_tree(self, seed=42, **kwargs):
        rng = random.Random(seed)
        X, y = random_dataset(rng, n_rows=50)
        return fit_tree(X, y, **kwargs)

    def test_round_trip_exact(self):
        tree = self.build_tree(min_leaf_weight=2.0, max_depth=6)
        text = serialize_tree(tree)
        assert parse_tree(text) == tree
        assert hash(parse_tree(text)) == hash(tree)
        assert parse_tree(text) != self.build_tree(min_leaf_weight=3.0, max_depth=6)
        assert tree_fields(parse_tree(text)) == tree_fields(tree)
        assert serialize_tree(parse_tree(text)) == text

    def test_round_trip_unlimited_depth(self):
        tree = self.build_tree(seed=3)
        assert parse_tree(serialize_tree(tree)) == tree
        assert tree_fields(parse_tree(serialize_tree(tree))) == tree_fields(tree)

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_tree("leaf,1.5\n")

    def test_truncated_rejected(self):
        tree = self.build_tree()
        lines = serialize_tree(tree).splitlines()
        with pytest.raises(ValueError):
            parse_tree("\n".join(lines[:-1]) + "\n")

    def test_trailing_content_rejected(self):
        text = serialize_tree(self.build_tree()) + "leaf,9\n"
        with pytest.raises(ValueError):
            parse_tree(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_tree(
                "# fregret-tree v1 n_features=1 min_leaf_weight=1 max_depth=none\n"
                "branch,0,0.5\n"
            )

    def test_predictions_survive_round_trip(self):
        tree = self.build_tree(seed=8)
        clone = parse_tree(serialize_tree(tree))
        rng = random.Random(0)
        for _ in range(50):
            phi = [rng.random() for _ in range(tree.n_features)]
            assert predict(tree, phi) == predict(clone, phi)

    HEADER = "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none\n"

    @pytest.mark.parametrize("feature", ["-1", "2", "7"])
    def test_feature_index_out_of_range_rejected(self, feature):
        with pytest.raises(ValueError, match="outside"):
            parse_tree(self.HEADER + f"node,{feature},0.5\nleaf,1\nleaf,2\n")

    @pytest.mark.parametrize(
        "body",
        [
            "leaf,nan\n",
            "leaf,inf\n",
            "node,0,inf\nleaf,1\nleaf,2\n",
            "node,0,nan\nleaf,1\nleaf,2\n",
            "node,0,0.5\nleaf,1\nleaf,-inf\n",
        ],
    )
    def test_non_finite_values_rejected(self, body):
        with pytest.raises(ValueError, match="not finite"):
            parse_tree(self.HEADER + body)

    @pytest.mark.parametrize(
        "header",
        [
            "# fregret-tree v1 n_features=0 min_leaf_weight=1 max_depth=none\n",
            "# fregret-tree v1 n_features=-3 min_leaf_weight=1 max_depth=none\n",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=-1\n",
            "# fregret-tree v1 n_features=2 min_leaf_weight=nan max_depth=none\n",
            "# fregret-tree v1 n_features=2 min_leaf_weight=inf max_depth=none\n",
            "# fregret-tree v1 n_features=2 min_leaf_weight=-3 max_depth=none\n",
        ],
    )
    def test_bad_header_values_rejected(self, header):
        with pytest.raises(ValueError):
            parse_tree(header + "leaf,1\n")

    def test_deep_chain_needs_no_recursion(self):
        depth = 2000
        body = "".join(f"node,0,{i}.5\nleaf,{i}\n" for i in range(depth))
        text = (
            "# fregret-tree v1 n_features=1 min_leaf_weight=0 max_depth=none\n"
            + body
            + "leaf,-1\n"
        )
        tree = parse_tree(text)
        assert serialize_tree(tree) == text
        assert model_complexity(tree) == depth + 1
        rows = [[-1.0], [1000.0], [1999.0], [5000.0]]
        assert predict_rows(tree, rows).tolist() == [0.0, 1000.0, 1999.0, -1.0]
        assert [predict(tree, row) for row in rows] == [0.0, 1000.0, 1999.0, -1.0]
        assert "RegressionTree(" in repr(tree)
        assert hash(tree) == hash(tree)
        assert tree == tree


class TestTabularEstimator:
    def test_memorizes_and_defaults_to_zero(self):
        est = TabularEstimator()
        est.fit([(1.0, 2.0)], [3.0])
        assert est.predict([(1.0, 2.0), (9.0, 9.0), (0.0, 0.0)]) == [3.0, 0.0, 0.0]

    def test_unfitted_predicts_zero(self):
        assert TabularEstimator().predict([(1.0,)]) == [0.0]

    def test_refit_replaces_table(self):
        est = TabularEstimator()
        est.fit([(1.0,)], [5.0])
        est.fit([(2.0,)], [7.0])
        assert est.predict([(1.0,), (2.0,)]) == [0.0, 7.0]

    def test_collision_rejected(self):
        est = TabularEstimator()
        with pytest.raises(ValueError, match="collision"):
            est.fit([(1.0, 2.0), (1.0, 2.0)], [3.0, 4.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TabularEstimator().fit([(1.0,), (2.0,)], [1.0, bad])

    def test_duplicate_with_same_target_allowed(self):
        est = TabularEstimator()
        est.fit([(1.0,), (1.0,)], [3.0, 3.0])
        assert est.predict([(1.0,)]) == [3.0]

    def test_leduc_19dim_collision_surfaces_as_error(self):
        keys = ["p1:J:Q:rc/c", "p1:J:Q:crc/c"]
        X = [featurize("leduc", k, "c") for k in keys]
        est = TabularEstimator()
        with pytest.raises(ValueError, match="collision"):
            est.fit(X, [1.0, 2.0])
        # The exact schema separates them.
        est.fit([featurize_exact("leduc", k, "c") for k in keys], [1.0, 2.0])

    def test_model_complexity_is_table_size(self):
        est = TabularEstimator().fit([(1.0,), (2.0,)], [0.5, 0.25])
        assert est.model_complexity() == 2


class TestTreeRegressor:
    def test_unfitted_predicts_zero(self):
        est = TreeRegressor()
        assert est.predict([[1.0, 2.0]]) == [0.0]

    def test_single_tree_matches_fit_tree(self):
        rng = random.Random(14)
        X, y = random_dataset(rng)
        est = TreeRegressor(min_leaf_weight=2.0).fit(X, y)
        direct = fit_tree(X, y, min_leaf_weight=2.0)
        assert est.predict(X) == [predict(direct, xi) for xi in X]
        assert est.model_complexity() == model_complexity(direct)

    def test_bagging_deterministic_and_averaged(self):
        rng = random.Random(25)
        X, y = random_dataset(rng, n_rows=40)
        a = TreeRegressor(n_bags=3, seed=11, min_leaf_weight=2.0).fit(X, y)
        b = TreeRegressor(n_bags=3, seed=11, min_leaf_weight=2.0).fit(X, y)
        assert a.predict(X) == b.predict(X)
        assert len(a._trees) == 3
        phi = X[0]
        mean = sum(predict(t, phi) for t in a._trees) / 3
        assert math.isclose(a.predict([phi])[0], mean, rel_tol=0, abs_tol=1e-15)

    def test_bag_count_validated(self):
        with pytest.raises(ValueError):
            TreeRegressor(n_bags=0).fit([[1.0]], [1.0])
