"""Features for (infoset, action) pairs and the regret estimators.

``featurize`` maps an infoset key plus a candidate action to a fixed 19-dim
vector of betting/card/action state. ``featurize_exact`` appends one
key-disambiguating coordinate so that distinct infoset-actions can never
share a vector; it is the schema for tabular (exact-memorizer) mode, while
the regression tree trains on the coarser 19-dim schema.

The tree learner is a greedy CART-style regressor: splits maximize weighted
variance reduction, thresholds are midpoints between consecutive distinct
values, ties break to the lowest feature index then lowest threshold. A
fitted tree is nothing but flat preorder arrays (``RegressionTree``), which
fitting, parsing, serialization and prediction all walk without recursion.
Both estimators predict through one method, ``predict(rows)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_positive_int, format_float
from .games.poker import ACTION_CHARS, RANK_CHARS, parse_key, rules_for, stakes

FEATURE_DIM = 19
EXACT_FEATURE_DIM = 20
TREE_FORMAT_HEADER = "# fregret-tree v1"


# ---------------------------------------------------------------------------
# Feature extraction


def featurize(game_id: str, infoset: str, action: str) -> tuple[float, ...]:
    """Feature vector for playing ``action`` at ``infoset``.

    Layout (19 entries):
      [0]     betting round (0 or 1)
      [1]     pot size in chips, antes included
      [2]     raises so far in the current round
      [3:6]   private rank one-hot (J, Q, K)
      [6:10]  board rank (J, Q, K, none)
      [10]    private rank pairs the board
      [11]    acting seat
      [12:15] candidate action one-hot (f, c, r)
      [15:19] opponent's most recent action (f, c, r, none)

    Suits never appear: infosets that differ only in suit history coincide.
    """
    rules = rules_for(game_id)
    seat, rank, board, rounds = parse_key(rules, infoset)
    if action not in ACTION_CHARS or len(action) != 1:
        raise ValueError(f"unknown action label {action!r}")
    current = len(rounds) - 1 if board != "-" else 0
    pot = sum(stakes(rules, rounds))
    raises = float(rounds[current].count("r"))
    # Seat 0 opens every round and actors alternate, so the opponent's last
    # action is the trailing one at odd-or-even positions matching them.
    last_opponent = "none"
    for seq in rounds:
        for position, ch in enumerate(seq):
            if position % 2 != seat:
                last_opponent = ch
    features = [float(current), pot, raises]
    features.extend(1.0 if rank == r else 0.0 for r in RANK_CHARS)
    features.extend(1.0 if board == r else 0.0 for r in RANK_CHARS)
    features.append(1.0 if board == "-" else 0.0)
    features.append(1.0 if rank == board else 0.0)
    features.append(float(seat))
    features.extend(1.0 if action == a else 0.0 for a in ACTION_CHARS)
    features.extend(1.0 if last_opponent == a else 0.0 for a in ACTION_CHARS)
    features.append(1.0 if last_opponent == "none" else 0.0)
    return tuple(features)


def featurize_exact(game_id: str, infoset: str, action: str) -> tuple[float, ...]:
    """``featurize`` plus a code that makes distinct infoset-actions distinct.

    The extra coordinate encodes the key's action field in base 5
    (f=1, c=2, r=3, /=4), separating keys the 19-dim schema deliberately
    conflates (e.g. different routes to the same pot). Tabular mode needs
    this injectivity; the tree estimator should stay on ``featurize``.
    """
    base = featurize(game_id, infoset, action)
    digits = {"f": 1, "c": 2, "r": 3, "/": 4}
    code = 0
    for ch in infoset.rsplit(":", 1)[1]:
        code = code * 5 + digits[ch]
    return base + (float(code),)


# ---------------------------------------------------------------------------
# Regression tree


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A fitted tree as flat preorder arrays, plus the config and dimension
    it was trained under.

    Node ``i`` is a leaf predicting ``value[i]`` when ``feature[i]`` is -1.
    Otherwise it sends a row with ``row[feature[i]] <= threshold[i]`` to its
    left child, the next node ``i + 1``, and any other row to its right
    child ``right[i]``. Trees are equal when their exact ``serialize_tree``
    texts are, that is when every array entry and config field is.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    right: np.ndarray
    n_features: int
    min_leaf_weight: float = 1.0
    max_depth: int | None = None

    def __eq__(self, other):
        if not isinstance(other, RegressionTree):
            return NotImplemented
        return serialize_tree(self) == serialize_tree(other)

    def __hash__(self):
        return hash(serialize_tree(self))


def _from_preorder(records, n_features, min_leaf_weight, max_depth) -> RegressionTree:
    """The tree whose preorder ``(feature, threshold, value)`` records are
    given, with feature -1 at leaves.

    A split's right child is the node that follows the last leaf of its
    left subtree, so the node after any leaf is the right child of the
    latest split still waiting for one.
    """
    feature, threshold, value = zip(*records)
    right = [-1] * len(records)
    waiting = []
    for i, split_feature in enumerate(feature):
        if i and feature[i - 1] < 0:
            right[waiting.pop()] = i
        if split_feature >= 0:
            waiting.append(i)
    return RegressionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        value=np.array(value, dtype=np.float64),
        right=np.array(right, dtype=np.intp),
        n_features=n_features,
        min_leaf_weight=min_leaf_weight,
        max_depth=max_depth,
    )


def _best_split(XT, w, wy, order, total_w, total_s, min_leaf_weight):
    """Best (feature, threshold) by weighted variance reduction, or None.

    ``XT`` is the (features, rows) matrix and ``order`` holds the node's row
    indices sorted stably by each feature, one feature per row. Every
    feature is scored at once; each column sees the same float operations
    as a one-feature scan, and the feature-major argmax breaks ties to the
    lowest feature, then the lowest threshold.
    """
    best_score = total_s * total_s / total_w  # constant-predictor baseline
    xs = XT[np.arange(len(XT))[:, None], order]
    w_left = np.cumsum(w[order], axis=1)[:, :-1]
    s_left = np.cumsum(wy[order], axis=1)[:, :-1]
    w_right = total_w - w_left
    s_right = total_s - s_left
    valid = (
        (xs[:, :-1] < xs[:, 1:])
        & (w_left >= min_leaf_weight)
        & (w_right >= min_leaf_weight)
        & (w_left > 0.0)
        & (w_right > 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = s_left * s_left / w_left + s_right * s_right / w_right
    scores = np.where(valid, scores, -np.inf)
    feature, cut = divmod(int(np.argmax(scores)), scores.shape[1])
    if not scores[feature, cut] > best_score:
        return None
    return feature, float((xs[feature, cut] + xs[feature, cut + 1]) / 2.0)


def _grow(X, y, w, min_leaf_weight, max_depth):
    """Preorder node records of the greedy tree, grown from an explicit stack.

    Each feature is sorted once per fit; a split partitions the sorted
    index arrays, which keeps every node's order stable, as a fresh stable
    sort of the node's rows would be.
    """
    XT = np.ascontiguousarray(X.T)
    wy = w * y
    records = []
    stack = [(np.arange(len(y)), np.argsort(XT, axis=1, kind="stable"), 0)]
    while stack:
        rows, order, depth = stack.pop()
        total_w = w[rows].sum()
        total_s = wy[rows].sum()
        node_y = y[rows]
        depth_reached = max_depth is not None and depth >= max_depth
        split = None
        if not (depth_reached or np.all(node_y == node_y[0])):
            split = _best_split(XT, w, wy, order, total_w, total_s, min_leaf_weight)
        if split is None:
            records.append((-1, 0.0, float(total_s / total_w)))
            continue
        feature, threshold = split
        records.append((feature, threshold, 0.0))
        goes_left = XT[feature] <= threshold
        # Right first, so the left child is popped next and nodes come out
        # in preorder.
        for side in (~goes_left, goes_left):
            side_order = order[side[order]].reshape(len(XT), -1)
            stack.append((rows[side[rows]], side_order, depth + 1))
    return records


def _training_set(features, targets, weights):
    """Features, targets and weights as float64 arrays; raises ValueError
    unless the shapes agree, targets and weights are finite, no weight is
    negative and the total weight is positive."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-dimensional array")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if y.shape != (X.shape[0],):
        raise ValueError("targets do not match features row count")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != y.shape:
        raise ValueError("weights do not match features row count")
    if not np.isfinite(w).all():
        raise ValueError("sample weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("negative sample weight")
    if not np.any(w > 0.0):
        raise ValueError("total sample weight is zero")
    return X, y, w


def _check_min_leaf_weight(value) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"min_leaf_weight must be finite and >= 0, got {value!r}")
    return float(value)


def fit_tree(
    features,
    targets,
    weights=None,
    *,
    min_leaf_weight: float = 1.0,
    max_depth: int | None = None,
) -> RegressionTree:
    """Fit one greedy variance-reduction tree.

    Growth stops at a node when no split strictly reduces weighted variance,
    either side would fall below ``min_leaf_weight``, ``max_depth`` is
    reached, or the node's targets are all equal. Data that overflow
    float64, in a weighted sum or a threshold midpoint, raise ValueError, so
    every fitted leaf and threshold is finite.
    """
    X, y, w = _training_set(features, targets, weights)
    min_leaf_weight = _check_min_leaf_weight(min_leaf_weight)
    if max_depth is not None and (int(max_depth) != max_depth or max_depth < 0):
        raise ValueError("max_depth must be None or a nonnegative integer")
    max_depth = None if max_depth is None else int(max_depth)
    try:
        with np.errstate(over="raise", invalid="raise"):
            records = _grow(X, y, w, min_leaf_weight, max_depth)
    except FloatingPointError as error:
        raise ValueError(f"tree fit overflows float64: {error}") from None
    return _from_preorder(records, X.shape[1], min_leaf_weight, max_depth)


def predict(tree: RegressionTree, features) -> float:
    """Leaf prediction for one feature vector."""
    row = tuple(float(v) for v in features)
    if len(row) != tree.n_features:
        raise ValueError(
            f"feature vector has {len(row)} entries, tree expects {tree.n_features}"
        )
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = node + 1 if go_left else tree.right[node]
    return float(tree.value[node])


def predict_rows(tree: RegressionTree, features) -> np.ndarray:
    """Leaf predictions for every row of a 2-D feature array, walking all
    rows down the flat tree together; equals ``predict`` row by row."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise ValueError(
            f"feature rows have shape {X.shape}, tree expects "
            f"{tree.n_features} features"
        )
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[active, tree.feature[at]] <= tree.threshold[at]
        node[active] = np.where(go_left, at + 1, tree.right[at])
        active = active[tree.feature[node[active]] >= 0]
    return tree.value[node]


def model_complexity(tree: RegressionTree) -> int:
    """Leaf count: the number of distinct predictions the tree can make."""
    return int(np.count_nonzero(tree.feature < 0))


def serialize_tree(tree: RegressionTree) -> str:
    """Versioned text form; ``parse_tree`` restores it exactly."""
    depth_field = "none" if tree.max_depth is None else str(tree.max_depth)
    lines = [
        f"{TREE_FORMAT_HEADER} n_features={tree.n_features} "
        f"min_leaf_weight={format_float(tree.min_leaf_weight)} "
        f"max_depth={depth_field}"
    ]
    for feature, threshold, value in zip(
        tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()
    ):
        if feature < 0:
            lines.append(f"leaf,{format_float(value)}")
        else:
            lines.append(f"node,{feature},{format_float(threshold)}")
    return "\n".join(lines) + "\n"


def _finite(text: str, what: str, number: int) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"tree line {number}: {what} {text!r} is not finite")
    return value


def parse_tree(text: str) -> RegressionTree:
    """Inverse of ``serialize_tree``; raises ValueError on malformed input.

    Rejects feature indices outside ``[0, n_features)``, non-finite
    thresholds and leaf values, ``n_features < 1``, a non-finite or
    negative ``min_leaf_weight`` and a negative ``max_depth``.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(TREE_FORMAT_HEADER):
        raise ValueError("not a fregret-tree file (missing header)")
    header_fields = dict(
        part.split("=", 1)
        for part in lines[0][len(TREE_FORMAT_HEADER):].split()
        if "=" in part
    )
    try:
        n_features = int(header_fields["n_features"])
        min_leaf_weight = float(header_fields["min_leaf_weight"])
        raw_depth = header_fields["max_depth"]
    except KeyError as missing:
        raise ValueError(f"tree header missing field {missing}") from None
    max_depth = None if raw_depth == "none" else int(raw_depth)
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be none or >= 0, got {max_depth}")
    min_leaf_weight = _check_min_leaf_weight(min_leaf_weight)
    records = []
    open_slots = 1  # subtrees announced by the lines so far but not yet read
    for number, line in enumerate(lines[1:], start=2):
        if open_slots == 0:
            raise ValueError("trailing content after tree definition")
        parts = line.split(",")
        if parts[0] == "leaf" and len(parts) == 2:
            records.append((-1, 0.0, _finite(parts[1], "leaf value", number)))
            open_slots -= 1
        elif parts[0] == "node" and len(parts) == 3:
            feature = int(parts[1])
            if not 0 <= feature < n_features:
                raise ValueError(
                    f"tree line {number}: feature {feature} outside "
                    f"[0, {n_features})"
                )
            records.append((feature, _finite(parts[2], "threshold", number), 0.0))
            open_slots += 1
        else:
            raise ValueError(f"malformed tree line {number}: {line!r}")
    if open_slots:
        raise ValueError("truncated tree file")
    return _from_preorder(records, n_features, min_leaf_weight, max_depth)


# ---------------------------------------------------------------------------
# Estimator API


def _row_keys(features) -> list[tuple[float, ...]]:
    """One hashable tuple of Python floats per feature row."""
    if isinstance(features, np.ndarray):
        return [tuple(row) for row in features.tolist()]
    return [tuple(float(v) for v in row) for row in features]


class TabularEstimator:
    """Exact (feature vector -> target) memorizer; 0 for unseen vectors.

    Fitting refuses to store two different targets under one vector: that
    means two distinct infoset-actions collided in feature space, which
    exact mode must surface rather than silently merge. Sample weights are
    ignored (memorization has nothing to weigh).
    """

    def __init__(self):
        self._table: dict[tuple[float, ...], float] = {}

    def fit(self, features, targets, sample_weight=None):
        table: dict[tuple[float, ...], float] = {}
        for key, target in zip(_row_keys(features), targets, strict=True):
            value = float(target)
            if not math.isfinite(value):
                raise ValueError(f"targets must be finite, got {value!r}")
            previous = table.get(key)
            if previous is not None and previous != value:
                raise ValueError(
                    "feature collision: one vector maps to targets "
                    f"{previous!r} and {value!r}"
                )
            table[key] = value
        self._table = table
        return self

    def predict(self, features) -> list[float]:
        return [self._table.get(key, 0.0) for key in _row_keys(features)]

    def model_complexity(self) -> int:
        return len(self._table)


class TreeRegressor:
    """Regression tree(s) behind the estimator API.

    ``n_bags`` = 1 fits a single tree on the data as given; larger values fit
    that many trees on seeded bootstrap resamples and predict their mean.
    Before the first fit, predictions are 0 (matching zero-initialized
    regrets).
    """

    def __init__(
        self,
        min_leaf_weight: float = 1.0,
        max_depth: int | None = None,
        n_bags: int = 1,
        seed: int = 0,
    ):
        self.min_leaf_weight = min_leaf_weight
        self.max_depth = max_depth
        self.n_bags = n_bags
        self.seed = seed
        self._trees: list[RegressionTree] = []

    def fit(self, features, targets, sample_weight=None):
        check_positive_int(self.n_bags, "n_bags")
        # Check the whole set: a bootstrap resample may skip a bad row.
        X, y, w = _training_set(features, targets, sample_weight)
        n = len(y)
        if self.n_bags == 1:
            samples = [np.arange(n)]
        else:
            rng = np.random.default_rng(self.seed)
            samples = [rng.integers(0, n, size=n) for _ in range(self.n_bags)]
        config = dict(min_leaf_weight=self.min_leaf_weight, max_depth=self.max_depth)
        self._trees = [fit_tree(X[r], y[r], w[r], **config) for r in samples]
        return self

    def predict(self, features) -> list[float]:
        """Predictions for all rows at once; a bagged prediction adds
        ``0 + p1 + p2 + ...`` over the trees and then divides."""
        if not self._trees:
            return [0.0] * len(features)
        total = 0.0
        for tree in self._trees:
            total = total + predict_rows(tree, features)
        return (total / len(self._trees)).tolist()

    def model_complexity(self) -> int:
        return sum(model_complexity(tree) for tree in self._trees)
