"""Features for (infoset, action) pairs and the regret estimators.

``featurize`` maps an infoset key plus a candidate action to a fixed 19-dim
vector of betting/card/action state. ``featurize_exact`` appends one
key-disambiguating coordinate so that distinct infoset-actions can never
share a vector; it is the schema for tabular (exact-memorizer) mode, while
the regression tree trains on the coarser 19-dim schema.

The tree learner is a greedy CART-style regressor: splits maximize weighted
variance reduction, thresholds are midpoints between consecutive distinct
values, ties break to the lowest feature index then lowest threshold.
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


@dataclass(frozen=True)
class TreeNode:
    """Leaf (feature None, prediction in value) or split (feature/threshold)."""

    value: float = 0.0
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class RegressionTree:
    """A fitted tree plus the config and dimension it was trained under."""

    root: TreeNode
    n_features: int
    min_leaf_weight: float = 1.0
    max_depth: int | None = None


def _best_split(X, y, w, wy, min_leaf_weight):
    """Best (feature, threshold) by weighted variance reduction, or None."""
    total_w = w.sum()
    total_s = wy.sum()
    best_score = total_s * total_s / total_w  # constant-predictor baseline
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
        k = int(np.argmax(scores))  # first max -> lowest threshold
        if scores[k] > best_score:
            best_score = float(scores[k])
            cut = cuts[k]
            best = (j, float((xs[cut] + xs[cut + 1]) / 2.0))
    return best


def _grow(X, y, w, depth, min_leaf_weight, max_depth):
    wy = w * y
    value = float(wy.sum() / w.sum())
    depth_reached = max_depth is not None and depth >= max_depth
    if depth_reached or np.all(y == y[0]):
        return TreeNode(value=value)
    split = _best_split(X, y, w, wy, min_leaf_weight)
    if split is None:
        return TreeNode(value=value)
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], w[mask], depth + 1, min_leaf_weight, max_depth),
        right=_grow(
            X[~mask], y[~mask], w[~mask], depth + 1, min_leaf_weight, max_depth
        ),
    )


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
    reached, or the node's targets are all equal.
    """
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
    if np.any(w < 0.0):
        raise ValueError("negative sample weight")
    if w.sum() <= 0.0:
        raise ValueError("total sample weight is zero")
    if min_leaf_weight < 0.0:
        raise ValueError("min_leaf_weight must be >= 0")
    if max_depth is not None and (int(max_depth) != max_depth or max_depth < 0):
        raise ValueError("max_depth must be None or a nonnegative integer")
    root = _grow(X, y, w, 0, float(min_leaf_weight), max_depth)
    return RegressionTree(
        root=root,
        n_features=X.shape[1],
        min_leaf_weight=float(min_leaf_weight),
        max_depth=None if max_depth is None else int(max_depth),
    )


def predict(tree: RegressionTree, features) -> float:
    """Leaf prediction for one feature vector."""
    row = tuple(float(v) for v in features)
    if len(row) != tree.n_features:
        raise ValueError(
            f"feature vector has {len(row)} entries, tree expects {tree.n_features}"
        )
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def model_complexity(tree: RegressionTree) -> int:
    """Leaf count: the number of distinct predictions the tree can make."""
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            count += 1
        else:
            stack.extend((node.left, node.right))
    return count


def serialize_tree(tree: RegressionTree) -> str:
    """Versioned text form; ``parse_tree`` restores it exactly."""
    depth_field = "none" if tree.max_depth is None else str(tree.max_depth)
    lines = [
        f"{TREE_FORMAT_HEADER} n_features={tree.n_features} "
        f"min_leaf_weight={format_float(tree.min_leaf_weight)} "
        f"max_depth={depth_field}"
    ]

    def emit(node: TreeNode) -> None:
        if node.is_leaf:
            lines.append(f"leaf,{format_float(node.value)}")
        else:
            lines.append(f"node,{node.feature},{format_float(node.threshold)}")
            emit(node.left)
            emit(node.right)

    emit(tree.root)
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> RegressionTree:
    """Inverse of ``serialize_tree``; raises ValueError on malformed input."""
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
    position = 1

    def read_node() -> TreeNode:
        nonlocal position
        if position >= len(lines):
            raise ValueError("truncated tree file")
        parts = lines[position].split(",")
        position += 1
        if parts[0] == "leaf" and len(parts) == 2:
            return TreeNode(value=float(parts[1]))
        if parts[0] == "node" and len(parts) == 3:
            feature = int(parts[1])
            threshold = float(parts[2])
            return TreeNode(
                feature=feature,
                threshold=threshold,
                left=read_node(),
                right=read_node(),
            )
        raise ValueError(f"malformed tree line {position}: {lines[position - 1]!r}")

    root = read_node()
    if position != len(lines):
        raise ValueError("trailing content after tree definition")
    return RegressionTree(
        root=root,
        n_features=n_features,
        min_leaf_weight=min_leaf_weight,
        max_depth=max_depth,
    )


# ---------------------------------------------------------------------------
# Estimator API


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
        for row, target in zip(features, targets, strict=True):
            key = tuple(float(v) for v in row)
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
        return [self.predict_one(row) for row in features]

    def predict_one(self, features) -> float:
        return self._table.get(tuple(float(v) for v in features), 0.0)

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
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        w = (
            np.ones_like(y)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        if self.n_bags == 1:
            self._trees = [
                fit_tree(
                    X,
                    y,
                    w,
                    min_leaf_weight=self.min_leaf_weight,
                    max_depth=self.max_depth,
                )
            ]
        else:
            # A bootstrap resample may skip a bad row; check the whole set.
            if not np.isfinite(y).all():
                raise ValueError("targets must be finite")
            rng = np.random.default_rng(self.seed)
            self._trees = []
            for _ in range(self.n_bags):
                rows = rng.integers(0, X.shape[0], size=X.shape[0])
                self._trees.append(
                    fit_tree(
                        X[rows],
                        y[rows],
                        w[rows],
                        min_leaf_weight=self.min_leaf_weight,
                        max_depth=self.max_depth,
                    )
                )
        return self

    def predict(self, features) -> list[float]:
        return [self.predict_one(row) for row in features]

    def predict_one(self, features) -> float:
        if not self._trees:
            return 0.0
        return sum(predict(tree, features) for tree in self._trees) / len(
            self._trees
        )

    def model_complexity(self) -> int:
        return sum(model_complexity(tree) for tree in self._trees)
