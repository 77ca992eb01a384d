"""Features and the regression-tree learner."""

import math
import random
import re

import numpy as np
import pytest

from fregret._validation import format_float
from fregret.estimator import (
    FEATURE_DIM,
    featurize,
    fit_forest,
    fit_tree,
    model_complexity,
    parse_tree,
    plan_fit,
    predict,
    serialize_tree,
)
from fregret.games.poker import RULES, parse_key


# The largest double under 2**512 / 20, and the one below it.
TOP20 = math.nextafter(2.0**512 / 20, 0.0)
TOP20_LESS = math.nextafter(TOP20, 0.0)


def bound_error(n):
    """The pattern of the error for a target at or over ``2**511 / n``."""
    return re.escape(
        f"tree fit overflows float64: some |target| >= 2**511 / {n}, "
        "the largest root's row count"
    )


def random_dataset(rng, n_rows=30, n_features=4):
    X = [[rng.random() for _ in range(n_features)] for _ in range(n_rows)]
    y = [rng.uniform(-5.0, 5.0) for _ in range(n_rows)]
    return X, y


def brute_force_best_split(X, y):
    """Exhaustive minimum-SSE single split; ties to lowest feature/threshold."""
    n = len(y)
    best = None
    for j in range(len(X[0])):
        values = sorted({row[j] for row in X})
        for lo, hi in zip(values, values[1:]):
            theta = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i][j] <= theta]
            right = [i for i in range(n) if X[i][j] > theta]
            sse = 0.0
            for side in (left, right):
                mean = sum(y[i] for i in side) / len(side)
                sse += sum((y[i] - mean) ** 2 for i in side)
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
            "p0:J:-:rrrrr/",  # five raises under a cap of two
            "p1:J:-:/",  # seat 0 acts first
            "p0:J:-:cc/c",  # round 2 betting without a board
            "p0:J:-:fc/",  # betting after a fold
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

    def test_action_the_node_lacks(self):
        # Seat 0 opens a round facing no wager, so it cannot fold.
        with pytest.raises(ValueError, match="not legal"):
            featurize("leduc", "p0:J:-:/", "f")

    def test_bad_key_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="bad rank"):
                featurize("leduc", "p0:A:-:/", "c")

    def test_repeated_calls_give_equal_vectors(self):
        args = ("leduc", "p1:J:Q:crc/r", "c")
        assert featurize(*args) == featurize(*args)

    def test_known_collision(self):
        # Different raise routes to the same 6-chip pot meet in feature space.
        a_key, b_key = "p1:J:Q:rc/c", "p1:J:Q:crc/c"
        assert featurize("leduc", a_key, "c") == featurize("leduc", b_key, "c")


# Every one-edit neighbour of every key over this alphabet: substitutions,
# insertions and deletions, the keys themselves included.
NEIGHBOUR_ALPHABET = "p012JQKA-:fcrx/"


def one_edit_neighbours(keys):
    found = set()
    for key in keys:
        for i in range(len(key) + 1):
            found.update(key[:i] + ch + key[i:] for ch in NEIGHBOUR_ALPHABET)
            found.update(key[:i] + ch + key[i + 1 :] for ch in NEIGHBOUR_ALPHABET)
            found.add(key[:i] + key[i + 1 :])
    return found


@pytest.mark.parametrize(
    "name, candidates", [("kuhn_game", 2_752), ("leduc_game", 89_184)]
)
def test_parse_key_accepts_exactly_the_game_keys(request, name, candidates):
    # The replay and the builder share one betting model: a key parses when
    # some decision node of the built game has it, and then gives that
    # node's seat and actions.
    game = request.getfixturevalue(name)
    rules = RULES[game.game_id]
    nodes = {
        key: (player, game.action_labels[key])
        for player, key, _ in game.layout.infosets
    }
    neighbours = one_edit_neighbours(nodes)
    assert len(neighbours) == candidates
    accepted = {}
    for key in neighbours:
        try:
            seat, *_, actions = parse_key(rules, key)
        except ValueError:
            continue
        accepted[key] = (seat, actions)
    assert accepted == nodes


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

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([], [])

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([[1.0], [2.0]], [1.0])
        with pytest.raises(ValueError):
            fit_tree([[1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("features", [np.zeros((3, 0)), [[], [], []]])
    def test_features_without_a_column_rejected(self, features):
        # Such a tree would have n_features=0, which parse_tree refuses.
        for targets in ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="at least one column"):
                fit_tree(features, targets)
        for roots in (None, [[0, 1], [2]]):
            with pytest.raises(ValueError, match="at least one column"):
                plan_fit(features, roots)
        with pytest.raises(ValueError, match="at least one column"):
            fit_forest(plan_fit(features, [[0], [1, 2]]), [1.0, 2.0, 3.0])

    def test_forest_root_without_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            plan_fit([[0.0], [1.0]], [[0, 1], []])
        for root in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="lack"):
                plan_fit([[0.0], [1.0]], [root])
        plan = plan_fit([[0.0], [1.0], [2.0]], [[0, 1], [2, 2]])
        with pytest.raises(ValueError, match="targets do not match"):
            fit_forest(plan, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_tree([[1.0], [2.0]], [1.0, bad])
        # A forest whose roots skip the bad row must still reject it.
        with pytest.raises(ValueError, match="finite"):
            fit_forest(plan_fit([[1.0], [2.0]], [[0, 0], [0]]), [1.0, bad])

    @pytest.mark.parametrize(
        "features",
        [
            [[1.0], [math.inf]],  # midpoint inf: every row goes left
            [[-math.inf], [1.0]],  # threshold -inf, which parse_tree rejects
            [[1.0], [math.nan]],
        ],
    )
    def test_non_finite_feature_rejected(self, features):
        with pytest.raises(ValueError, match="features must be finite"):
            plan_fit(features, [[1], [0, 1]])
        with pytest.raises(ValueError, match="features must be finite"):
            fit_tree(features, [0.0, 1.0], min_leaf_weight=0.0)
        # A plan whose root skips the bad row must still reject it.
        finite_row = [math.isfinite(row[0]) for row in features].index(True)
        with pytest.raises(ValueError, match="features must be finite"):
            plan_fit(features, [[finite_row]])

    @pytest.mark.parametrize(
        "targets",
        [
            [1e308, 1e308],  # the node total overflows: leaf inf
            [1e308, -1e308],  # a side's squared total overflows
        ],
    )
    def test_overflowing_fit_rejected(self, targets):
        with pytest.raises(ValueError, match="overflow"):
            fit_tree([[0.0], [1.0]], targets)
        plan = plan_fit([[0.0], [1.0]], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="overflow"):
            fit_forest(plan, targets)

    def test_prefix_overflowing_in_sorted_order_rejected(self):
        # In row order the targets cancel to 0; sorted by the feature, the
        # prefix up to the cut between 1 and 2 is 2e308.
        X = [[0.0], [2.0], [1.0], [3.0]]
        y = [1e308, -1e308, 1e308, -1e308]
        with pytest.raises(ValueError, match="overflow"):
            fit_tree(X, y)
        with pytest.raises(ValueError, match="overflow"):
            fit_forest(plan_fit(X, [[0, 1], [0, 1, 2, 3]]), y)

    def test_sum_inside_a_run_of_equal_values_is_not_checked(self):
        # Squaring the prefix 1e200 between the two rows at 0 overflows,
        # but no cut can sit inside a run of equal values, and the fit
        # checks no sum: it rejects the targets first, as 1e200 is over
        # 2**511 / 3, the bound under which no sum can overflow.
        with pytest.raises(ValueError, match=f"^{bound_error(3)}$"):
            fit_tree([[0.0], [0.0], [1.0]], [1e200, -1e200, 0.0])

    @pytest.mark.parametrize(
        "X, y",
        [
            ([[0.0], [2.0], [1.0]], [1e308, -1e308, 1e308]),
            # Each target just under 2**512 / 20; the total rounds up to
            # 2**512, whose square overflows.
            ([[float(i)] for i in range(20)], [TOP20_LESS] + [TOP20] * 19),
        ],
    )
    def test_node_too_small_to_split_still_overflows(self, X, y):
        # No cut leaves min_leaf_weight rows a side, so the root is never
        # searched, but targets whose sums may overflow are rejected first.
        with pytest.raises(ValueError, match=f"^{bound_error(len(y))}$"):
            fit_tree(X, y, min_leaf_weight=len(y) / 2 + 0.5)

    @pytest.mark.parametrize(
        "low, high",
        [
            (math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
            (-5e-324, 0.0),  # the midpoint is -0.0, which equals 0.0
        ],
    )
    def test_midpoint_rounding_up_still_splits(self, low, high):
        assert (low + high) / 2.0 == high  # so x <= midpoint holds for both
        tree = fit_tree([[low], [high]], [0.0, 1.0], min_leaf_weight=0.0)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold.tolist()[0] == low
        assert [predict(tree, [low]), predict(tree, [high])] == [0.0, 1.0]

    def test_overflowing_midpoint_raises_where_the_tree_is_read(self):
        # Both features are finite, but their sum, and so the midpoint of
        # the one split, overflows. fit_tree reads its tree and raises;
        # fit_forest computes no threshold, so its fitted values come back
        # and the forest raises at each read of its trees.
        X, y = [[1e308], [1.7976931348623157e308]], [0.0, 1.0]
        pattern = "^tree fit overflows float64"
        with pytest.raises(ValueError, match=pattern):
            fit_tree(X, y, min_leaf_weight=0.0)
        forest, fitted = fit_forest(plan_fit(X), y, min_leaf_weight=0.0)
        assert fitted.tolist() == [0.0, 1.0]
        for _ in range(2):
            with pytest.raises(ValueError, match=pattern):
                forest.trees

    def test_training_mse_at_most_target_variance(self):
        rng = random.Random(5)
        for _ in range(10):
            X, y = random_dataset(rng, n_rows=40)
            tree = fit_tree(X, y, min_leaf_weight=3.0)
            mean = sum(y) / len(y)
            variance = sum((yi - mean) ** 2 for yi in y) / len(y)
            mse = sum((yi - predict(tree, xi)) ** 2 for yi, xi in zip(y, X)) / len(y)
            assert mse <= variance + 1e-12

    def test_leaf_values_are_means(self):
        rng = random.Random(9)
        X, y = random_dataset(rng, n_rows=50)
        tree = fit_tree(X, y, min_leaf_weight=4.0)
        groups = {}
        for xi, yi in zip(X, y):
            node = 0
            path = []
            while tree.feature[node] >= 0:
                go_left = xi[tree.feature[node]] <= tree.threshold[node]
                path.append("L" if go_left else "R")
                node = node + 1 if go_left else tree.right[node]
            groups.setdefault("".join(path), []).append(yi)
        for path, rows in groups.items():
            node = 0
            for step in path:
                node = node + 1 if step == "L" else tree.right[node]
            assert tree.feature[node] == -1
            assert len(rows) >= 4
            assert abs(tree.value[node] - sum(rows) / len(rows)) < 1e-9

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1.5, -1])
    def test_bad_max_depth_rejected(self, bad):
        with pytest.raises(ValueError, match="max_depth"):
            fit_tree([[0.0], [1.0]], [0.0, 10.0], max_depth=bad)
        plan = plan_fit([[0.0], [1.0]], [[0, 1], [1]])
        with pytest.raises(ValueError, match="max_depth"):
            fit_forest(plan, [0.0, 10.0], max_depth=bad)


class TestFitForest:
    def test_default_plan_is_one_root_of_every_row(self):
        rng = random.Random(14)
        X, y = random_dataset(rng)
        for plan in (plan_fit(X), plan_fit(X, [list(range(len(X)))])):
            [tree] = fit_forest(plan, y, min_leaf_weight=2.0)[0].trees
            assert tree == fit_tree(X, y, min_leaf_weight=2.0)
            assert model_complexity(tree) > 1

    def test_refits_on_one_plan_are_deterministic(self):
        rng = random.Random(25)
        X, y = random_dataset(rng, n_rows=40)
        plan = plan_fit(X, [[0, 1, 2, 3] * 10, list(range(40))])
        kept = {
            name: value.copy()
            for name, value in vars(plan).items()
            if isinstance(value, np.ndarray)
        }
        first, first_fitted = fit_forest(plan, y, min_leaf_weight=2.0)
        second, second_fitted = fit_forest(plan, y, min_leaf_weight=2.0)
        assert [serialize_tree(t) for t in first.trees] == [
            serialize_tree(t) for t in second.trees
        ]
        assert first_fitted.tobytes() == second_fitted.tobytes()
        for name, value in kept.items():
            assert getattr(plan, name).tobytes() == value.tobytes(), name


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

    def test_errors_give_the_line_in_the_text(self):
        # Blank lines, before the header and in the body, are skipped but
        # still counted: the bad leaf is the fifth line of the text.
        text = "\n" + self.HEADER + "node,0,0.5\n\nleaf,x\nleaf,2\n"
        with pytest.raises(ValueError, match="^tree line 5: leaf value 'x'"):
            parse_tree(text)
        with pytest.raises(ValueError, match="^malformed tree line 5: "):
            parse_tree(text.replace("leaf,x", "branch,1"))
        spaced = "\n \n" + self.HEADER + "\nnode,0,0.5\n\t\nleaf,1\n\nleaf,2\n\n"
        plain = self.HEADER + "node,0,0.5\nleaf,1\nleaf,2\n"
        assert parse_tree(spaced) == parse_tree(plain)

    def test_predictions_survive_round_trip(self):
        tree = self.build_tree(seed=8)
        clone = parse_tree(serialize_tree(tree))
        rng = random.Random(0)
        for _ in range(50):
            phi = [rng.random() for _ in range(tree.n_features)]
            assert predict(tree, phi) == predict(clone, phi)

    HEADER = "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none\n"

    # serialize_tree writes an index as plain digits, so no other form of
    # one, in range or not, is read.
    @pytest.mark.parametrize(
        "feature", ["-1", "2", "7", "+0", " 1", "1 ", "1_0", "0.0", "-0", "abc", ""]
    )
    def test_feature_index_out_of_range_rejected(self, feature):
        message = re.escape(f"tree line 2: feature {feature!r}")
        with pytest.raises(ValueError, match=message):
            parse_tree(self.HEADER + f"node,{feature},0.5\nleaf,1\nleaf,2\n")

    @pytest.mark.parametrize(
        "body, text",
        [
            ("leaf, 1\n", " 1"),
            ("leaf,1E0\n", "1E0"),
            ("leaf,1e5\n", "1e5"),
            ("leaf,+1\n", "+1"),
            ("leaf,1.\n", "1."),
            ("leaf,.5\n", ".5"),
            ("leaf,abc\n", "abc"),
            ("leaf,Infinity\n", "Infinity"),
            ("leaf,\n", ""),
            ("node,0,0_5\nleaf,1\nleaf,2\n", "0_5"),
            ("node,0,0x1p-1\nleaf,1\nleaf,2\n", "0x1p-1"),
        ],
    )
    def test_number_forms_serialize_tree_never_writes_rejected(self, body, text):
        with pytest.raises(ValueError) as error:
            parse_tree(self.HEADER + body)
        assert str(error.value).startswith("tree line 2: ")
        assert str(error.value).endswith(f" {text!r} is not a number")

    def test_every_written_number_form_parses(self):
        values = [0.0, -0.0, 0.1, -2.5, 1e300, -1.5e-7, 5e-324, 123456789.0]
        weight = format_float(2.0**-20)  # 9.5367431640625e-07
        text = self.HEADER.replace("=1 ", f"={weight} ") + "".join(
            f"node,1,{format_float(v)}\n" for v in values
        )
        text += "".join(f"leaf,{format_float(v)}\n" for v in [*values, 1e20])
        tree = parse_tree(text)
        assert serialize_tree(tree) == text
        assert tree.min_leaf_weight == 2.0**-20
        assert [v.hex() for v in tree.threshold[: len(values)].tolist()] == [
            v.hex() for v in values
        ]

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
        "header, message",
        [
            ("n_features=0 min_leaf_weight=1 max_depth=none", "n_features must"),
            ("n_features=-3 min_leaf_weight=1 max_depth=none", "n_features must"),
            ("n_features=2 min_leaf_weight=1 max_depth=-1", "max_depth must"),
            ("n_features=2 min_leaf_weight=nan max_depth=none", "min_leaf_weight must"),
            ("n_features=2 min_leaf_weight=inf max_depth=none", "min_leaf_weight must"),
            ("n_features=2 min_leaf_weight=-3 max_depth=none", "min_leaf_weight must"),
            # Forms serialize_tree never writes.
            ("n_features=2 min_leaf_weight=1_0 max_depth=none", "header: min_leaf_"),
            ("n_features=2 min_leaf_weight=abc max_depth=none", "header: min_leaf_"),
            ("n_features=2 min_leaf_weight=1E0 max_depth=none", "header: min_leaf_"),
            ("n_features=2 min_leaf_weight=+1 max_depth=none", "header: min_leaf_"),
            ("n_features=2 min_leaf_weight=.5 max_depth=none", "header: min_leaf_"),
            ("n_features=2 min_leaf_weight=Infinity max_depth=none", "header: min_"),
        ],
    )
    def test_bad_header_values_rejected(self, header, message):
        with pytest.raises(ValueError, match=message):
            parse_tree(f"# fregret-tree v1 {header}\nleaf,1\n")

    @pytest.mark.parametrize(
        "header",
        [
            "# fregret-tree v10 n_features=2 min_leaf_weight=1 max_depth=none",
            "# fregret-tree v1n_features=2 min_leaf_weight=1 max_depth=none",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none bogus=3",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none junk",
            "# fregret-tree v1 n_features=2 n_features=5 min_leaf_weight=1 "
            "max_depth=none",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=none "
            "max_depth=3",
            "# fregret-tree v1 n_features=two min_leaf_weight=1 max_depth=none",
            "# fregret-tree v1 n_features=2.0 min_leaf_weight=1 max_depth=none",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1 max_depth=1.5",
            "# fregret-tree v1 n_features=2 min_leaf_weight=1",
            "# fregret-tree v1 min_leaf_weight=1 n_features=2 max_depth=none",
            "# fregret-tree v1  n_features=2 min_leaf_weight=1 max_depth=none",
            "# fregret-tree v1",
        ],
    )
    def test_malformed_header_rejected(self, header):
        with pytest.raises(ValueError, match="not a fregret-tree file"):
            parse_tree(header + "\nleaf,1\n")

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
        assert [predict(tree, row) for row in rows] == [0.0, 1000.0, 1999.0, -1.0]
        assert "RegressionTree(" in repr(tree)
        assert hash(tree) == hash(tree)
        assert tree == tree
