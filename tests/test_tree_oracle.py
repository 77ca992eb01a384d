"""The tree learner against a slow reference: byte-identical fitted trees.

``reference_fit`` is the recursive per-feature learner that ``fit_tree``
replaced, kept here unchanged as the oracle: one stable argsort per node and
feature, a Python loop over features with a strict ``>`` against the best
score so far, and a recursive serializer. The level-wise split search must
reproduce its trees bit for bit, ties and float summation order included.
"""

import dataclasses
import random

import numpy as np
import pytest

from fregret._validation import format_float
from fregret.estimator import (
    TREE_FORMAT_HEADER,
    fit_forest,
    fit_tree,
    model_complexity,
    plan_fit,
    predict,
    serialize_tree,
    slot_features,
)
from fregret.games import build_leduc
from fregret.rcfr import RCFRConfig, new_state, rcfr_iteration


def _reference_best_split(X, y, w, wy, min_leaf_weight):
    total_w = w.sum()
    total_s = wy.sum()
    best_score = total_s * total_s / total_w
    best = None
    for j in range(X.shape[1]):
        column = X[:, j]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        if xs[0] == xs[-1]:
            continue
        cum_w = np.cumsum(w[order])
        cum_s = np.cumsum(wy[order])
        cuts = np.nonzero(xs[:-1] < xs[1:])[0]
        w_left = cum_w[cuts]
        s_left = cum_s[cuts]
        w_right = total_w - w_left
        s_right = total_s - s_left
        valid = (
            (w_left >= min_leaf_weight)
            & (w_right >= min_leaf_weight)
            & (w_left > 0.0)
            & (w_right > 0.0)
        )
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = s_left * s_left / w_left + s_right * s_right / w_right
        scores = np.where(valid, scores, -np.inf)
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            cut = cuts[k]
            best = (j, float((xs[cut] + xs[cut + 1]) / 2.0))
    return best


def _reference_grow(X, y, w, depth, min_leaf_weight, max_depth):
    """Nested (value,) leaves and (feature, threshold, left, right) splits."""
    wy = w * y
    value = float(wy.sum() / w.sum())
    depth_reached = max_depth is not None and depth >= max_depth
    if depth_reached or np.all(y == y[0]):
        return (value,)
    split = _reference_best_split(X, y, w, wy, min_leaf_weight)
    if split is None:
        return (value,)
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return (
        feature,
        threshold,
        _reference_grow(X[mask], y[mask], w[mask], depth + 1, min_leaf_weight, max_depth),
        _reference_grow(
            X[~mask], y[~mask], w[~mask], depth + 1, min_leaf_weight, max_depth
        ),
    )


def reference_fit(X, y, w=None, *, min_leaf_weight=1.0, max_depth=None) -> str:
    """``serialize_tree`` text of the reference learner's tree."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=np.float64)
    depth_field = "none" if max_depth is None else str(max_depth)
    lines = [
        f"{TREE_FORMAT_HEADER} n_features={X.shape[1]} "
        f"min_leaf_weight={format_float(min_leaf_weight)} max_depth={depth_field}"
    ]

    def emit(node):
        if len(node) == 1:
            lines.append(f"leaf,{format_float(node[0])}")
        else:
            lines.append(f"node,{node[0]},{format_float(node[1])}")
            emit(node[2])
            emit(node[3])

    emit(_reference_grow(X, y, w, 0, float(min_leaf_weight), max_depth))
    return "\n".join(lines) + "\n"


def assert_same_tree(X, y, **kwargs):
    fast = serialize_tree(fit_tree(X, y, **kwargs))
    assert fast == reference_fit(X, y, **kwargs)


def leduc_corpora(min_leaf_weight, iterations):
    """(X, y) of every fit of a short exact-target Leduc tree-RCFR run."""
    game = build_leduc()
    config = RCFRConfig(
        iterations=iterations, min_leaf_weight=min_leaf_weight, seed=1
    )
    state = new_state(game, config)
    features = slot_features(game)
    corpora = []
    for _ in range(iterations):
        rcfr_iteration(game, state, config)
        for slots in state.seat_slots:
            corpora.append((features[slots], state.targets[slots]))
    return corpora


@pytest.mark.parametrize("min_leaf_weight", [64.0, 16.0, 4.0])
def test_leduc_rcfr_corpora(min_leaf_weight):
    corpora = leduc_corpora(min_leaf_weight, iterations=4)
    assert len(corpora) == 8
    for X, y in corpora:
        assert_same_tree(X, y, min_leaf_weight=min_leaf_weight)


def tree_levels(tree):
    """Node count on each level of a fitted tree, root first."""
    depth = [0] * len(tree.feature)
    for node, feature in enumerate(tree.feature.tolist()):
        if feature >= 0:
            depth[node + 1] = depth[tree.right[node]] = depth[node] + 1
    return np.bincount(depth).tolist()


def test_leduc_min_leaf_4_corpora_grow_deep_levels():
    corpora = leduc_corpora(4.0, iterations=20)
    for t in (5, 10, 15, 20):
        for X, y in corpora[2 * t - 2 : 2 * t]:
            levels = tree_levels(fit_tree(X, y, min_leaf_weight=4.0))
            assert sum(levels) > 100 and len(levels) >= 10 and max(levels) >= 20
            assert_same_tree(X, y, min_leaf_weight=4.0)


def random_corpus(rng, n_rows, n_features, levels):
    """Rows drawn from a few levels per feature, so values and whole rows
    repeat, plus a one-hot block whose columns complement each other and
    therefore score exactly alike."""
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(np.float64)
    hot = rng.integers(0, 2, size=n_rows).astype(np.float64)
    X = np.column_stack([X, hot, 1.0 - hot])
    X = np.vstack([X, X[: n_rows // 3]])  # exact duplicate rows
    y = np.round(rng.normal(size=len(X)), 1)
    return X, y


@pytest.mark.parametrize("seed", range(12))
def test_random_corpora(seed):
    rng = np.random.default_rng(seed)
    X, y = random_corpus(rng, n_rows=60, n_features=4, levels=int(rng.integers(2, 6)))
    for min_leaf_weight in (0.0, 1.0, 3.0):
        for max_depth in (None, 0, 1, 3):
            assert_same_tree(X, y, min_leaf_weight=min_leaf_weight, max_depth=max_depth)


def mixed_corpus(rng):
    """A one-valued column, few-valued and continuous columns side by side,
    and one row repeated with differing targets, so the node that ends up
    holding those copies is searched and has no cut."""
    n_rows = 40
    X = np.column_stack(
        [
            np.full(n_rows, 2.0),
            rng.integers(0, 3, size=n_rows),
            rng.random(n_rows),
            rng.integers(0, 4, size=n_rows),
        ]
    ).astype(np.float64)
    X = np.vstack([X, np.repeat(X[:1], 5, axis=0)])
    y = np.round(rng.normal(size=len(X)), 1)
    y[-5:] = np.arange(5.0) + 0.5
    return X, y


@pytest.mark.parametrize("seed", range(8))
def test_mixed_random_corpora(seed):
    X, y = mixed_corpus(np.random.default_rng(200 + seed))
    for min_leaf_weight in (0.0, 1.0, 3.0):
        for max_depth in (None, 2):
            assert_same_tree(X, y, min_leaf_weight=min_leaf_weight, max_depth=max_depth)


def test_complementary_one_hot_ties_go_to_lowest_feature():
    hot = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([1.0 - hot, hot])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    assert_same_tree(X, y)
    assert serialize_tree(fit_tree(X, y)).splitlines()[1] == "node,0,0.5"


def test_continuous_features():
    # Targets that are not dyadic make every sum's rounding depend on its
    # order; large leaves make the leaf means show it.
    rng = random.Random(4)
    for _ in range(5):
        X = [[rng.random() for _ in range(3)] for _ in range(80)]
        y = [rng.uniform(-3.0, 3.0) for _ in range(80)]
        for min_leaf_weight, max_depth in ((0.0, None), (6.0, None), (0.0, 2)):
            assert_same_tree(X, y, min_leaf_weight=min_leaf_weight, max_depth=max_depth)


@pytest.mark.parametrize(
    "data_seed, n_rows, draw_seed", [(99, 50, 8), (42, 60, 5), (25, 40, 11)]
)
def test_bootstrap_roots_match_reference(data_seed, n_rows, draw_seed):
    rng = np.random.default_rng(data_seed)
    X, y = random_corpus(rng, n_rows=n_rows, n_features=3, levels=4)
    rng = np.random.default_rng(draw_seed)
    roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(3)]
    forest, _ = fit_forest(plan_fit(X, roots), y, min_leaf_weight=2.0, max_depth=4)
    trees = forest.trees
    for rows, tree in zip(roots, trees):
        assert serialize_tree(tree) == reference_fit(
            X[rows], y[rows], min_leaf_weight=2.0, max_depth=4
        )


def forest_roots(rng, X, n_roots):
    """``n_roots`` row lists over ``X``, drawn from kinds that stress the
    stacked plan: the rows below and above the median of column 0 (their
    column-0 values do not overlap), a bootstrap resample (duplicate rows),
    a random subset in shuffled order, and a single row."""
    n = len(X)
    middle = np.median(X[:, 0])
    kinds = [
        np.flatnonzero(X[:, 0] <= middle),
        np.flatnonzero(X[:, 0] > middle),
        rng.integers(0, n, size=n),
        rng.permutation(n)[: int(rng.integers(2, n))],
        rng.integers(0, n, size=1),
    ]
    picks = rng.choice(len(kinds), size=n_roots, replace=False)
    return [kinds[k] for k in picks if len(kinds[k])] or [np.arange(n)]


def assert_fitted_is_predict(plan, X, trees, fitted):
    """Each planned row's fitted value is its root's tree's ``predict`` on
    that row, bit for bit."""
    tree_of_row = np.repeat(np.arange(len(trees)), plan.counts)
    predicted = [
        predict(trees[r], X[row]) for r, row in zip(tree_of_row, plan.rows.tolist())
    ]
    assert [v.hex() for v in fitted.tolist()] == [v.hex() for v in predicted]


@pytest.mark.parametrize("seed", range(16))
def test_forest_roots_match_single_fits(seed):
    # Each root of one plan must grow the tree that a fit on its rows alone
    # grows, whatever rows the other roots hold, and the leaf counts read
    # from the levels must be those trees' leaf counts, depth cut-offs
    # included.
    rng = np.random.default_rng(700 + seed)
    X, y = random_corpus(rng, n_rows=36, n_features=3, levels=int(rng.integers(2, 6)))
    roots = forest_roots(rng, X, n_roots=int(rng.integers(1, 5)))
    y[roots[-1]] = 1.5  # one root whose targets are all equal
    plan = plan_fit(X, roots)
    for min_leaf_weight in (0.0, 1.0, 3.0):
        for max_depth in (None, 0, 2):
            config = dict(min_leaf_weight=min_leaf_weight, max_depth=max_depth)
            forest, fitted = fit_forest(plan, y, **config)
            leaves = forest.leaf_counts  # read before any tree is built
            assert "trees" not in vars(forest)
            trees = forest.trees
            assert len(trees) == len(roots)
            assert leaves == [model_complexity(tree) for tree in trees]
            assert leaves[-1] == 1  # the root of equal targets never splits
            assert_fitted_is_predict(plan, X, trees, fitted)
            for root, tree in zip(roots, trees):
                expected = reference_fit(X[root], y[root], **config)
                assert serialize_tree(tree) == expected
                assert tree == fit_tree(X[root], y[root], **config)


def test_one_plan_serves_many_targets():
    rng = np.random.default_rng(31)
    X, _ = random_corpus(rng, n_rows=50, n_features=4, levels=4)
    roots = [rng.integers(0, len(X), size=len(X)) for _ in range(3)]
    plan = plan_fit(X, roots)
    for _ in range(30):
        y = np.round(rng.normal(size=len(X)), 1)
        forest, _ = fit_forest(plan, y, min_leaf_weight=2.0)
        for root, tree in zip(roots, forest.trees):
            assert tree == fit_tree(X[root], y[root], min_leaf_weight=2.0)


def test_leduc_forest_of_both_seats_matches_per_seat_fits():
    game = build_leduc()
    config = RCFRConfig(iterations=12, min_leaf_weight=4.0)
    state = new_state(game, config)
    features = slot_features(game)
    plan = plan_fit(features, state.seat_slots)
    for _ in range(config.iterations):
        rcfr_iteration(game, state, config)
        forest, fitted = fit_forest(plan, state.targets, min_leaf_weight=4.0)
        trees = forest.trees
        assert_fitted_is_predict(plan, features, trees, fitted)
        # The solver keeps those same values as its predictions.
        assert state.predictions[plan.rows].tobytes() == fitted.tobytes()
        for slots, tree in zip(state.seat_slots, trees):
            X, y = features[slots], state.targets[slots]
            assert tree == fit_tree(X, y, min_leaf_weight=4.0)


def unpruned(plan):
    """``plan`` with the cut expansion of one root over all its planned
    rows: each row feeds every cut from its value's to its feature's last
    but one, whatever its own root holds. Its stored root level is keyed
    over those entries."""
    order = np.argsort(plan.XT, axis=1, kind="stable")
    xs = np.sort(plan.XT, axis=1)
    run_starts = np.ones(xs.shape, dtype=bool)
    run_starts[:, 1:] = xs[:, 1:] > xs[:, :-1]
    value_id = (run_starts.cumsum() - 1).reshape(xs.shape)
    fan = (value_id[:, -1:] - value_id).ravel()
    entry_row = np.repeat(order.ravel(), fan)
    entry_slot = np.arange(entry_row.size) + np.repeat(
        value_id.ravel() - (fan.cumsum() - fan), fan
    )
    n_roots, n_slots = len(plan.counts), len(plan.values)
    root_of_row = np.repeat(np.arange(n_roots), plan.counts)
    root_key = root_of_row[entry_row] * n_slots + entry_slot
    return dataclasses.replace(
        plan,
        entry_row=entry_row,
        entry_slot=entry_slot,
        root_key=root_key,
    )


def assert_fits_as_unpruned(plan, targets, **config):
    """The plan's trees and fitted values are those of its unpruned
    expansion, bit for bit; returns how many entries it dropped."""
    full = unpruned(plan)
    forest, fitted = fit_forest(plan, targets, **config)
    full_forest, full_fitted = fit_forest(full, targets, **config)
    texts = [serialize_tree(t) for t in forest.trees]
    assert texts == [serialize_tree(t) for t in full_forest.trees]
    assert fitted.tobytes() == full_fitted.tobytes()
    return len(full.entry_row) - len(plan.entry_row)


@pytest.mark.parametrize("min_leaf_weight", [64.0, 16.0, 4.0])
def test_leduc_plan_drops_cuts_no_seat_can_use(min_leaf_weight):
    """Stacked, the two Leduc seats' plan has the 8,910 entries of two
    per-seat plans, not 9,582, and fits as the unpruned plan does."""
    game = build_leduc()
    config = RCFRConfig(iterations=6, min_leaf_weight=min_leaf_weight)
    state = new_state(game, config)
    features = slot_features(game)
    plan = plan_fit(features, state.seat_slots)
    seats = [plan_fit(features, [slots]) for slots in state.seat_slots]
    assert len(plan.entry_row) == sum(len(p.entry_row) for p in seats) == 8910
    assert len(unpruned(plan).entry_row) == 9582
    for _ in range(config.iterations):
        rcfr_iteration(game, state, config)
        assert_fits_as_unpruned(plan, state.targets, min_leaf_weight=min_leaf_weight)


def test_forests_fit_as_unpruned_plans():
    dropped = 0
    for seed in range(16):
        rng = np.random.default_rng(700 + seed)
        levels = int(rng.integers(2, 6))
        X, y = random_corpus(rng, n_rows=36, n_features=3, levels=levels)
        plan = plan_fit(X, forest_roots(rng, X, n_roots=int(rng.integers(1, 5))))
        for min_leaf_weight in (0.0, 1.0, 3.0):
            for max_depth in (None, 0, 2):
                config = dict(min_leaf_weight=min_leaf_weight, max_depth=max_depth)
                dropped += assert_fits_as_unpruned(plan, y, **config)
    assert dropped > 0
