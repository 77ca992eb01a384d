"""Features for (infoset, action) pairs and the regression-tree learner.

``featurize`` maps an infoset key plus a candidate action to a fixed 19-dim
vector of betting/card/action state, which the regression tree trains on;
the state is what ``poker.parse_key`` finds by replaying the key through
the betting rules, and ``slot_features`` lays it out for a game's slots.
Distinct infoset-actions may share a vector there; tabular RCFR memorizes
each slot's target instead and needs no features (see ``rcfr``).

The tree learner is a greedy CART-style regressor: splits maximize variance
reduction, thresholds are midpoints between consecutive distinct values,
ties break to the lowest feature index then lowest threshold, and no leaf
holds fewer than ``min_leaf_weight`` rows. Fitting has two steps.
``plan_fit`` does what depends only on the features, once: the presort, the
value numbering and the cut expansion of the rows of one or more roots,
stacked, and the root level's keys. ``fit_forest`` then grows one tree
per root for given targets, all roots a level at a time: the bins of a
feature are its distinct values, as in histogram split search, and one
complex scatter-add per level over every planned entry gives every open
node's target prefix sum (the real part) and row count (the imaginary
part) at every cut of its root, each added in presorted order, so each
tree is that of a per-node ``cumsum`` scan over its root's rows alone,
bit for bit (see ``_grow``). Its forest computes thresholds and builds
tree objects only when ``trees`` is read, so a midpoint that overflows
raises there: ``fit_tree`` is the one-root case and reads its one tree,
while RCFR keeps one plan per game, with one root per seat, grows both
seats' trees as one forest at every refit, and reads its predictions off
the fitted values and its leaf counts from the levels. A fitted tree is
nothing but flat preorder arrays (``RegressionTree``), which fitting,
parsing, serialization and ``predict`` all walk without recursion.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from ._validation import INDEX_PATTERN, NUMBER_PATTERN, format_float, is_integer
from .games.poker import ACTION_CHARS, RANK_CHARS, parse_key, rules_for

FEATURE_DIM = 19
# The feature columns of the candidate action one-hot, over ACTION_CHARS.
_ACTION_FEATURES = slice(12, 15)
TREE_FORMAT_HEADER = "# fregret-tree v1"
TREE_HEADER_PATTERN = re.compile(
    re.escape(TREE_FORMAT_HEADER)
    + r" n_features=(-?[0-9]+) min_leaf_weight=(\S+) max_depth=(-?[0-9]+|none)"
)


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
    The columns lay out the decision point ``poker.parse_key`` replays the
    key to, so a key no node has, or an action its node lacks, raises.
    """
    rules = rules_for(game_id)
    seat, rank, board, current, paid, raises, last, offered = parse_key(rules, infoset)
    if action not in offered:
        raise ValueError(f"action {action!r} is not legal at infoset '{infoset}'")
    features = [float(current), sum(paid), float(raises)]
    features.extend(1.0 if rank == r else 0.0 for r in RANK_CHARS)
    features.extend(1.0 if board == r else 0.0 for r in RANK_CHARS)
    features.append(1.0 if board == "-" else 0.0)
    features.append(1.0 if rank == board else 0.0)
    features.append(float(seat))
    features.extend(1.0 if action == a else 0.0 for a in ACTION_CHARS)
    features.extend(1.0 if last == a else 0.0 for a in ACTION_CHARS)
    features.append(1.0 if last is None else 0.0)
    return tuple(features)


def slot_features(game) -> np.ndarray:
    """One float64 feature row per slot of ``game``'s layout. An infoset's
    slots differ only in the candidate action one-hot, so each infoset is
    featurized once, with its first action, and the one-hot is then set.
    A game with no decision node gets a matrix of no rows."""
    labels = game.action_labels
    rows = [featurize(game.game_id, key, acts[0]) for key, acts in labels.items()]
    by_infoset = np.array(rows, dtype=np.float64).reshape(-1, FEATURE_DIM)
    features = by_infoset[game.layout.owner]
    column = {a: i for i, a in enumerate(ACTION_CHARS)}
    hot = [column[a] for acts in labels.values() for a in acts]
    features[:, _ACTION_FEATURES] = np.eye(len(ACTION_CHARS))[hot]
    return features


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


@dataclass(frozen=True, eq=False)
class FitPlan:
    """What growing trees on a fixed feature matrix needs of it, built once
    by ``plan_fit`` and reused for any targets.

    The roots' rows are stacked into one planned matrix, root after root and
    each in its given order: planned row ``i`` is feature row ``rows[i]``,
    and root ``r`` owns the next ``counts[r]`` planned rows. ``XT`` is that
    matrix transposed. Each feature's planned rows are sorted stably, and
    the distinct values of all features are numbered feature by feature,
    ascending; ``values`` holds them and ``slot_feature`` their features. A
    value's number is the slot of the cut that sends that value and all
    lower ones left. The cut expansion (``entry_row``, ``entry_slot``)
    lists, feature by feature and in sorted order, one entry per planned
    row and cut the row falls left of that a node of its root can take: a
    row whose value ranks ``b`` feeds the cuts at ranks ``b .. t - 1``,
    where ``t`` ranks its root's highest value, so none where its root
    holds one value. The root level, where every root is a node, is keyed
    too, as it depends only on the features: ``root_key`` is each entry's
    (root, slot) bin, ``root * n_slots + slot``. Its arrays are read-only:
    one plan serves many fits.
    """

    rows: np.ndarray
    counts: np.ndarray
    n_rows: int  # rows of the feature matrix, which targets match
    XT: np.ndarray
    values: np.ndarray
    slot_feature: np.ndarray
    entry_row: np.ndarray
    entry_slot: np.ndarray
    root_key: np.ndarray


def plan_fit(features, roots=None) -> FitPlan:
    """The fit plan of ``features`` for one tree per root: a list of feature
    row numbers, by default one root of every row in order. A row may sit
    in several roots, and several times in one. The plan holds no entry at
    a root's highest value, whose cut sends every row of the root left, and
    it keys the root level, which ``_grow`` reads whenever every root is
    searched. Raises ValueError unless the features are a finite 2-D array
    with at least one column and every root has rows, all of them rows of
    the features."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-dimensional array")
    if X.shape[1] == 0:
        raise ValueError("features must have at least one column")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if roots is None:
        roots = [np.arange(len(X))]
    if not roots or min(len(root) for root in roots) == 0:
        raise ValueError("empty dataset")
    rows = np.concatenate([np.asarray(root, dtype=np.intp) for root in roots])
    if rows.min() < 0 or rows.max() >= len(X):
        raise ValueError("a root names a row the features lack")
    XT = np.ascontiguousarray(X[rows].T)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.sort(XT, axis=1)  # read only for where runs start and their values
    run_starts = np.ones(xs.shape, dtype=bool)
    run_starts[:, 1:] = xs[:, 1:] > xs[:, :-1]
    value_id = (run_starts.cumsum() - 1).reshape(xs.shape)
    # A row feeds the cuts from its value's up to its root's highest value's,
    # which sends every row of the root left, exclusive: no other cut can
    # split a node of the root.
    counts = np.array([len(root) for root in roots])
    feature = np.arange(len(XT))[:, None]
    by_row = np.empty_like(value_id)
    by_row[feature, order] = value_id
    starts = counts.cumsum() - counts
    top = np.maximum.reduceat(by_row, starts, axis=1)
    end = np.repeat(top, counts, axis=1)[feature, order]
    fan = np.maximum(end - value_id, 0).ravel()
    entry_row = np.repeat(order.ravel(), fan)
    group_start = fan.cumsum() - fan
    entry_slot = np.arange(entry_row.size) + np.repeat(
        value_id.ravel() - group_start, fan
    )
    values = xs[run_starts]
    root_of_row = np.repeat(np.arange(len(counts)), counts)
    root_key = root_of_row[entry_row] * len(values) + entry_slot
    plan = FitPlan(
        rows=rows,
        counts=counts,
        n_rows=len(X),
        XT=XT,
        values=values,
        slot_feature=np.repeat(np.arange(X.shape[1]), run_starts.sum(axis=1)),
        entry_row=entry_row,
        entry_slot=entry_slot,
        root_key=root_key,
    )
    for array in (v for v in vars(plan).values() if isinstance(v, np.ndarray)):
        array.flags.writeable = False
    return plan


def _grow(plan, y, min_leaf_weight, max_depth):
    """Each root's greedy tree, all grown together a level at a time, as a
    list of levels, and each planned row's leaf value; ``y`` is per planned
    row. A level's nodes have consecutive ids, in the order of its
    ``counts``, the roots first, and it is ``(means, split_nodes, feature,
    cuts)``: every node's mean, and the nodes that split, in order, with
    their features and ``(low, x, right, counts)``: the cut values, the
    split rows' values and sides, and the split row counts, of which
    ``Forest.trees`` makes thresholds. Split ``j`` of a level has children
    ``2 * j`` and ``2 * j + 1`` of the next.

    A level costs a fixed number of numpy calls, however many nodes it
    holds. Each node's target total is what its own ``np.add.reduce``
    gives: one ``reduceat`` over the level's targets with a +0.0 ahead of
    each node's, as numpy's reduce adds a node's pairwise sum to its
    identity 0.0 and ``reduceat`` adds a segment's first element, here the
    pad, to the pairwise sum of the rest. A -0.0 pad would total a node of
    -0.0 targets -0.0 where its reduce gives 0.0.

    Once per level, one ``np.add.at`` keyed by (searched node, slot) adds
    each planned entry's ``target + 1j`` into zeroed complex bins, giving
    every node's target and row-count prefix at every planned cut. Every
    planned entry is keyed on every level: those of rows whose node is not
    searched, or that left the tree at an earlier leaf, key into a sink
    row past the searched nodes' bins, whose sums are never read. It adds
    in input order from 0.0, so a bin's real part is the sequential sum
    that a ``cumsum`` over the node's presorted rows gives, and its
    imaginary part counts the bin's rows exactly, as every count is under
    ``2**53``. Only sums and differences touch the complex bins, which add
    and subtract their parts apart: each right side is the node's ``ts +
    1j * tc`` less the left. That turns a -0.0 total ``ts`` into 0.0, so a
    right sum of zero may differ in sign from the real subtraction's; it
    enters the score only squared. An entry's real part ``y + 0.0`` is
    likewise 0.0 for a -0.0 target, which no sum from 0.0 tells apart. A
    cut is admissible where both sides hold at least ``max(min_leaf_weight,
    1)`` rows. At a value the node lacks it has the partition, sums and
    score of the node's next lower value's cut, and the row-wise argmax of
    the (node, slot) scores takes the lower one: slots run feature by
    feature, so ties break to the lowest feature, then the lowest
    threshold, and other roots' rows change no tree. A node with fewer than ``2 *
    max(min_leaf_weight, 1)`` rows cannot split, so it is a leaf
    unsearched, and a level of such nodes skips its scatter-add and scores.
    Where every root is searched, the root level's keys come from the
    plan. Each level writes its rows' node means, so a row's last write
    is its leaf's value; rows go right on ``x > low``, as on ``x >
    threshold``, so that is the leaf ``predict`` reaches.

    ``fit_forest`` admits only targets under ``2**511`` over the largest
    root's row count, so no node's sum here reaches ``2**512`` and no
    square or score overflows; the sink row's sums, over every root, stay
    finite too. Nothing else here can overflow or be invalid, so the
    loop runs without ``np.errstate``.
    """
    XT, values, slot_feature = plan.XT, plan.values, plan.slot_feature
    entry_row, entry_slot = plan.entry_row, plan.entry_slot
    n_rows, n_slots = len(plan.rows), len(values)
    entry_y = y[entry_row] + 1j  # each entry's target and one row
    # A split leaves at least one row and ``min_leaf_weight`` rows a side.
    least = max(min_leaf_weight, 1.0)

    levels = []
    rows = np.arange(n_rows)  # the level's rows, grouped by node, in index order
    fitted = np.empty(n_rows)
    counts = plan.counts
    while True:
        starts = counts.cumsum() - counts
        node_y = y[rows]
        # Each node's targets behind a +0.0, so that one ``reduceat`` adds
        # every node as its own ``np.add.reduce`` would.
        pad_at = starts + np.arange(len(counts))
        is_row = np.empty(len(rows) + len(counts), dtype=bool)
        is_row.fill(True)
        is_row[pad_at] = False
        padded = np.zeros(len(is_row))
        padded[is_row] = node_y
        total_s = np.add.reduceat(padded, pad_at)
        if max_depth is not None and len(levels) >= max_depth:
            nodes = np.array([], dtype=np.intp)
        else:  # the nodes to search: big enough, with targets that differ
            low_y = np.minimum.reduceat(node_y, starts)
            differ = low_y < np.maximum.reduceat(node_y, starts)
            nodes = (differ & (counts >= 2 * least)).nonzero()[0]
        splits = np.zeros(len(nodes), dtype=bool)
        if len(nodes):
            tc, ts = counts[nodes], total_s[nodes]
            baseline = ts * ts / tc
            # A row of (node, slot) bins per searched node, and past them
            # one more row that takes the entries of nodes not searched.
            size = len(nodes) * n_slots
            shape = (len(nodes), n_slots)
            if not levels and len(nodes) == len(counts):
                key = plan.root_key
            else:
                node_base = np.empty(len(counts), dtype=np.intp)
                node_base.fill(size)
                node_base[nodes] = np.arange(0, size, n_slots)
                # Rows at earlier leaves key into the sink row too.
                row_base = np.empty(n_rows, dtype=np.intp)
                row_base.fill(size)
                row_base[rows] = node_base.repeat(counts)
                key = row_base[entry_row] + entry_slot
            bins = np.zeros(size + n_slots, dtype=complex)
            np.add.at(bins, key, entry_y)
            left = bins[:size].reshape(shape)
            right = (ts + 1j * tc)[:, None] - left
            valid = (left.imag >= least) & (right.imag >= least)
            # Scored only where admissible: elsewhere a side may be empty.
            lv, rv = left[valid], right[valid]
            ls, rs = lv.real, rv.real
            scores = np.empty(shape)
            scores.fill(-np.inf)
            scores[valid] = ls * ls / lv.imag + rs * rs / rv.imag
            best_slot = scores.argmax(axis=1)
            splits = scores.max(axis=1) > baseline
        split_nodes = nodes[splits]
        means = total_s / counts
        fitted[rows] = means.repeat(counts)
        if not len(split_nodes):  # empty splits, features and cuts
            levels.append((means, split_nodes, split_nodes, (split_nodes,) * 4))
            return levels, fitted
        # The split nodes' rows, grouped by split, and which go right: a
        # row goes right when its value exceeds the cut's.
        split_of_node = np.empty(len(counts), dtype=np.intp)
        split_of_node.fill(-1)
        split_of_node[split_nodes] = np.arange(len(split_nodes))
        row_split = split_of_node.repeat(counts)
        moving = row_split >= 0
        rows, row_split = rows[moving], row_split[moving]
        slot = best_slot[splits]
        feature, low = slot_feature[slot], values[slot]
        x = XT[feature[row_split], rows]
        right = x > low[row_split]
        cuts = (low, x, right, counts[split_nodes])
        levels.append((means, split_nodes, feature, cuts))
        child = 2 * row_split + right
        rows = rows[child.argsort(kind="stable")]
        counts = np.bincount(child, minlength=2 * len(split_nodes))


def _check_min_leaf_weight(value) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"min_leaf_weight must be finite and >= 0, got {value!r}")
    return float(value)


def _check_max_depth(value) -> int | None:
    if value is not None and not (is_integer(value) and value >= 0):
        raise ValueError(f"max_depth must be None or an integer >= 0, got {value!r}")
    return None if value is None else int(value)


@dataclass(frozen=True, eq=False)
class Forest:
    """One fit's trees, one per root of its plan, as the levels ``_grow``
    leaves them. ``trees`` makes their thresholds and ``RegressionTree``s on
    its first read; fitted values and ``leaf_counts`` need neither."""

    levels: list
    n_features: int
    min_leaf_weight: float
    max_depth: int | None

    @property
    def leaf_counts(self) -> list[int]:
        """Each root's leaf count, one more than its splits, each split's
        root carried down to its children a level at a time."""
        root = np.arange(len(self.levels[0][0]))
        leaves = np.ones(len(root), dtype=np.intp)
        for _, split_nodes, _, _ in self.levels:
            leaves += np.bincount(root[split_nodes], minlength=len(leaves))
            root = root[split_nodes].repeat(2)
        return leaves.tolist()

    @functools.cached_property
    def trees(self) -> list[RegressionTree]:
        """Each root's tree. A split's threshold lies between its cut value
        and the least value of the rows it sent right; where their midpoint
        overflows float64, this raises ValueError on every read."""
        records = []  # (feature, threshold, value) by node id
        children = {}  # split node id -> (left id, right id)
        for means, split_nodes, feature, (low, x, right, counts) in self.levels:
            starts = counts.cumsum() - counts
            high = np.minimum.reduceat(np.where(right, x, np.inf), starts)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    middle = (low + high) / 2.0
            except FloatingPointError as error:
                raise ValueError(f"tree fit overflows float64: {error}") from None
            # Between adjacent doubles the midpoint may round up to ``high``,
            # which would send every row left; the lower value cuts the same.
            threshold = np.where(middle < high, middle, low)
            first_id = len(records)
            first_child = first_id + len(means)
            level = [(-1, 0.0, mean) for mean in means.tolist()]
            for j, (i, f, t) in enumerate(
                zip(split_nodes.tolist(), feature.tolist(), threshold.tolist())
            ):
                level[i] = (f, t, 0.0)
                children[first_id + i] = (first_child + 2 * j, first_child + 2 * j + 1)
            records += level
        config = (self.n_features, self.min_leaf_weight, self.max_depth)
        trees = []
        for root in range(len(self.levels[0][0])):  # the first level's nodes
            preorder, stack = [], [root]
            while stack:
                node = stack.pop()
                preorder.append(records[node])
                if node in children:
                    stack += reversed(children[node])
            trees.append(_from_preorder(preorder, *config))
        return trees


def fit_forest(
    plan: FitPlan,
    targets,
    *,
    min_leaf_weight: float = 1.0,
    max_depth: int | None = None,
) -> tuple[Forest, np.ndarray]:
    """``(forest, fitted)``: one tree per root of ``plan``, each the tree
    ``fit_tree`` fits to its root's rows, built on the first read of
    ``forest.trees``, and each planned row's leaf value, ``predict`` on that
    row bit for bit; ``targets`` are per feature row.

    All roots grow together, one split search over every open node of a
    level (see ``_grow``), so the per-level cost is paid once for the
    forest; each level keys every planned entry in one pass, and the root
    level's keys come from the plan. Raises ValueError on targets as
    ``fit_tree`` does, where the bound is ``2**511`` over the largest root's
    row count. A threshold midpoint that overflows raises no error here:
    the fitted values are finite, and ``forest.trees`` raises on every read.
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (plan.n_rows,):
        raise ValueError("targets do not match features row count")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    # Under this bound a sum of a root's targets stays under 2**512 after
    # rounding, so every square and score in ``_grow`` is finite.
    n = int(plan.counts.max())
    if np.abs(y).max() >= 2.0**511 / n:
        raise ValueError(
            f"tree fit overflows float64: some |target| >= 2**511 / {n}, "
            "the largest root's row count"
        )
    min_leaf_weight = _check_min_leaf_weight(min_leaf_weight)
    max_depth = _check_max_depth(max_depth)
    levels, fitted = _grow(plan, y[plan.rows], min_leaf_weight, max_depth)
    config = (plan.XT.shape[0], min_leaf_weight, max_depth)
    return Forest(levels, *config), fitted


def fit_tree(
    features,
    targets,
    *,
    min_leaf_weight: float = 1.0,
    max_depth: int | None = None,
) -> RegressionTree:
    """Fit one greedy variance-reduction tree: ``fit_forest`` over a plan
    with one root of every row.

    Growth stops at a node when no split strictly reduces variance, either
    side would hold fewer than ``min_leaf_weight`` rows, ``max_depth`` is
    reached, or the node's targets are all equal. A threshold is the
    midpoint of two consecutive distinct values, or the lower value where
    the midpoint of two adjacent doubles rounds up to the higher one.

    Each level visits every planned entry, one per row and per cut between
    distinct values that the row falls left of, whether or not the row's
    node is still open: at most rows times distinct values per feature.
    That is small for few-valued columns such as ``featurize`` gives, and
    quadratic in the row count for a continuous column. A caller
    that refits on fixed features keeps one ``plan_fit`` and calls
    ``fit_forest``, which skips the presort and cut expansion.

    Data that could overflow float64 raise ValueError, so every fitted leaf
    and threshold is finite. One rule covers the targets: some |target| at
    least ``2**511`` over the row count is rejected before any growth,
    whether or not a sum of the fit would in fact overflow; below that no
    sum, square or score can. A threshold midpoint of two finite features
    that overflows raises too, when ``Forest.trees`` computes it for the
    tree this returns.
    """
    config = dict(min_leaf_weight=min_leaf_weight, max_depth=max_depth)
    forest, _ = fit_forest(plan_fit(features), targets, **config)
    return forest.trees[0]


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


def _number(text: str, what: str, where: str, finite: bool = True) -> float:
    if not NUMBER_PATTERN.fullmatch(text):
        raise ValueError(f"{where}: {what} {text!r} is not a number")
    if finite and not math.isfinite(float(text)):
        raise ValueError(f"{where}: {what} {text!r} is not finite")
    return float(text)


def parse_tree(text: str) -> RegressionTree:
    """Inverse of ``serialize_tree``; raises ValueError on malformed input.

    The header must match ``TREE_HEADER_PATTERN`` whole: each field once,
    in ``serialize_tree``'s order, with nothing else on the line. Numbers
    and feature indices must be in the shared grammar, ``_validation.NUMBER``
    and ``INDEX``. Rejects feature indices outside ``[0, n_features)``,
    non-finite thresholds and leaf values, ``n_features < 1``, a non-finite
    or negative ``min_leaf_weight`` and a negative ``max_depth``. Blank
    lines are skipped, but an error gives its line's place in the text.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    match = TREE_HEADER_PATTERN.fullmatch(lines[0][1]) if lines else None
    if match is None:
        raise ValueError("not a fregret-tree file (missing or malformed header)")
    raw_features, raw_weight, raw_depth = match.groups()
    n_features = int(raw_features)
    weight = _number(raw_weight, "min_leaf_weight", "tree header", finite=False)
    max_depth = _check_max_depth(None if raw_depth == "none" else int(raw_depth))
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    min_leaf_weight = _check_min_leaf_weight(weight)
    records = []
    open_slots = 1  # subtrees announced by the lines so far but not yet read
    for number, line in lines[1:]:
        if open_slots == 0:
            raise ValueError("trailing content after tree definition")
        parts = line.split(",")
        where = f"tree line {number}"
        if parts[0] == "leaf" and len(parts) == 2:
            records.append((-1, 0.0, _number(parts[1], "leaf value", where)))
            open_slots -= 1
        elif parts[0] == "node" and len(parts) == 3:
            index = parts[1]
            if not INDEX_PATTERN.fullmatch(index) or int(index) >= n_features:
                raise ValueError(
                    f"{where}: feature {index!r} is not plain digits "
                    f"or is outside [0, {n_features})"
                )
            records.append((int(index), _number(parts[2], "threshold", where), 0.0))
            open_slots += 1
        else:
            raise ValueError(f"malformed tree line {number}: {line!r}")
    if open_slots:
        raise ValueError("truncated tree file")
    return _from_preorder(records, n_features, min_leaf_weight, max_depth)
