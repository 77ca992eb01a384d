"""The tree learner against a slow reference: byte-identical fitted trees.

``reference_fit`` is the recursive per-feature learner that ``fit_tree``
replaced, kept here unchanged as the oracle: one stable argsort per node and
feature, a Python loop over features with a strict ``>`` against the best
score so far, and a recursive serializer. The one-pass split search must
reproduce its trees bit for bit, ties and float summation order included.
"""

import random

import numpy as np
import pytest

from fregret._validation import format_float
from fregret.estimator import (
    TREE_FORMAT_HEADER,
    TreeRegressor,
    fit_tree,
    serialize_tree,
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


def assert_same_tree(X, y, w=None, **kwargs):
    fast = serialize_tree(fit_tree(X, y, w, **kwargs))
    assert fast == reference_fit(X, y, w, **kwargs)


def leduc_corpora(min_leaf_weight, iterations):
    """(X, y) of every fit of a short exact-target Leduc tree-RCFR run."""
    game = build_leduc()
    config = RCFRConfig(
        iterations=iterations, min_leaf_weight=min_leaf_weight, seed=1
    )
    state = new_state(game, config)
    corpora = []
    for _ in range(iterations):
        rcfr_iteration(game, state, config)
        for player in (0, 1):
            y = [v for row in state.targets[player].values() for v in row]
            corpora.append((state.matrices[player].copy(), np.array(y)))
    return corpora


@pytest.mark.parametrize("min_leaf_weight", [64.0, 16.0, 4.0])
def test_leduc_rcfr_corpora(min_leaf_weight):
    corpora = leduc_corpora(min_leaf_weight, iterations=4)
    assert len(corpora) == 8
    for X, y in corpora:
        assert_same_tree(X, y, min_leaf_weight=min_leaf_weight)


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
    weights = rng.choice([0.0, 0.5, 1.0, 2.5], size=len(y))
    weights[0] = 1.0
    for w in (None, weights):
        for min_leaf_weight in (0.0, 1.0, 3.0):
            for max_depth in (None, 0, 1, 3):
                assert_same_tree(
                    X, y, w, min_leaf_weight=min_leaf_weight, max_depth=max_depth
                )


def test_complementary_one_hot_ties_go_to_lowest_feature():
    hot = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([1.0 - hot, hot])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    assert_same_tree(X, y)
    assert serialize_tree(fit_tree(X, y)).splitlines()[1] == "node,0,0.5"


def test_continuous_features_with_zero_weights():
    # Weights that are not dyadic make every sum's rounding depend on its
    # order; large leaves make the leaf means show it.
    rng = random.Random(4)
    for _ in range(5):
        X = [[rng.random() for _ in range(3)] for _ in range(80)]
        y = [rng.uniform(-3.0, 3.0) for _ in range(80)]
        w = [rng.choice([0.0, rng.uniform(0.1, 2.0)]) for _ in range(80)]
        w[0] = 1.0
        for min_leaf_weight, max_depth in ((0.0, None), (6.0, None), (0.0, 2)):
            assert_same_tree(
                X, y, w, min_leaf_weight=min_leaf_weight, max_depth=max_depth
            )


def test_bagged_trees_match_reference():
    X, y = random_corpus(np.random.default_rng(99), n_rows=50, n_features=3, levels=4)
    estimator = TreeRegressor(min_leaf_weight=2.0, max_depth=4, n_bags=3, seed=8)
    estimator.fit(X, y)
    rng = np.random.default_rng(8)
    for tree in estimator._trees:
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        assert serialize_tree(tree) == reference_fit(
            X[rows], y[rows], min_leaf_weight=2.0, max_depth=4
        )
