"""The tree grower as it was recorded before its levels dropped dead cuts,
kept unchanged as an oracle for ``estimator._grow``.

``recorded_plan`` and ``recorded_grow`` are the plan builder and the
level-wise grower from before four changes that must not move a bit: the
grower keeps every entry of a searched node however many cuts it can no
longer take, tells a cut at a value the node lacks by a count that does not
rise there, finds each threshold's upper value by a search over the count
rows with the plan's ``last_value``, computes the root level's keys and
counts at every fit and sums every node with its own ``np.add.reduce``.
``recorded_fit`` runs them as ``estimator.fit_forest`` runs ``_grow`` and
returns each tree's ``serialize_tree`` text with the fitted values.
"""

from types import SimpleNamespace

import numpy as np

from fregret._validation import format_float
from fregret.estimator import TREE_FORMAT_HEADER


def recorded_plan(features, roots=None):
    """The fit plan of ``features`` for one tree per root: a list of feature
    row numbers, by default one root of every row in order. A row may sit
    in several roots, and several times in one. Raises ValueError unless
    the features are a finite 2-D array with at least one column and every
    root has rows, all of them rows of the features."""
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
    last_value = value_id[:, -1]
    # A row feeds the cuts from its value's up to its root's highest
    # value's, which no row of the root passes but whose count the
    # threshold's next-value search reads, and to none in a feature constant
    # within its root: no other cut can split a node of the root.
    counts = np.array([len(root) for root in roots])
    feature = np.arange(len(XT))[:, None]
    by_row = np.empty_like(value_id)
    by_row[feature, order] = value_id
    starts = counts.cumsum() - counts
    top = np.maximum.reduceat(by_row, starts, axis=1)
    varied = top > np.minimum.reduceat(by_row, starts, axis=1)
    end = np.where(varied, np.minimum(top, last_value[:, None] - 1) + 1, 0)
    end = np.repeat(end, counts, axis=1)[feature, order]
    fan = np.maximum(end - value_id, 0).ravel()
    entry_row = np.repeat(order.ravel(), fan)
    group_start = fan.cumsum() - fan
    entry_slot = np.arange(entry_row.size) + np.repeat(
        value_id.ravel() - group_start, fan
    )
    return SimpleNamespace(
        rows=rows,
        counts=counts,
        n_rows=len(X),
        XT=XT,
        values=xs[run_starts],
        slot_feature=np.repeat(np.arange(X.shape[1]), run_starts.sum(axis=1)),
        last_value=last_value,
        entry_row=entry_row,
        entry_slot=entry_slot,
    )


def recorded_grow(plan, y, min_leaf_weight, max_depth):
    """Preorder node records of each root's greedy tree, all grown together
    a level at a time, and each planned row's leaf value; ``y`` is per
    planned row.

    Once per level, ``bincount`` keyed by (searched node, slot) adds every
    node's target and row-count prefix at every cut. It adds in input order
    from 0.0, so each target prefix is the sequential sum that a ``cumsum``
    over the node's presorted rows gives. A cut at a value the node lacks
    adds no row, so it is inadmissible there, and the next value is the
    node's own: other roots' rows change no tree. Slots run feature by
    feature, so the row-wise argmax of the (node, slot) scores breaks ties
    to the lowest feature, then the lowest threshold. Each level writes its
    rows' node means, so a row's last write is its leaf's value; rows go
    right on ``x > threshold``, so that is the leaf ``predict`` reaches.

    A node with fewer than ``2 * max(min_leaf_weight, 1)`` rows cannot
    split, so it is a leaf unsearched, and a level of such nodes skips its
    bincounts and scores. The exception keeps the overflow errors of a
    search: when some |target| is at least ``2**511`` over the largest
    root's row count, every node is searched, since only then can a
    node's total or prefix reach ``2**512`` and its square overflow. The
    bound is half of ``2**512`` because rounding can lift a float sum a
    little above the sum of its terms' magnitudes. The test reads the
    largest |target|, not a sum, which could itself overflow.
    """
    XT, values, slot_feature = plan.XT, plan.values, plan.slot_feature
    last_value, entry_row, entry_slot = plan.last_value, plan.entry_row, plan.entry_slot
    n_rows, n_slots = len(plan.rows), len(values)
    entry_y = y[entry_row]
    # A split leaves at least one row and ``min_leaf_weight`` rows a side,
    # so smaller nodes go unsearched, unless a node's sums could overflow.
    risky = np.abs(y).max() >= 2.0**511 / plan.counts.max()
    min_split = 0.0 if risky else 2 * max(min_leaf_weight, 1.0)

    # A level's nodes have consecutive ids, in the order of ``counts``.
    records = []  # (feature, threshold, value) by node id
    children = {}  # split node id -> (left id, right id)
    rows = np.arange(n_rows)  # the level's rows, grouped by node, in index order
    fitted = np.empty(n_rows)
    counts = plan.counts
    depth = 0
    while True:
        starts = counts.cumsum() - counts
        # One reduce per node, which adds pairwise; reduceat would add the
        # same rows in another order and round differently.
        node_y = y[rows]
        spans = zip(starts.tolist(), (starts + counts).tolist())
        total_s = np.array([np.add.reduce(node_y[a:b]) for a, b in spans])
        if max_depth is not None and depth >= max_depth:
            nodes = np.array([], dtype=np.intp)
        else:  # the nodes to search: big enough, with targets that differ
            low_y = np.minimum.reduceat(node_y, starts)
            differ = low_y < np.maximum.reduceat(node_y, starts)
            nodes = (differ & (counts >= min_split)).nonzero()[0]
        splits = np.zeros(len(nodes), dtype=bool)
        if len(nodes):
            tc, ts = counts[nodes], total_s[nodes]
            baseline = ts * ts / tc
            size = len(nodes) * n_slots
            shape = (len(nodes), n_slots)
            # An entry's key is its searched node's first (node, slot) bin
            # plus its slot, and negative for a node not searched.
            node_base = np.full(len(counts), -n_slots)
            node_base[nodes] = np.arange(0, size, n_slots)
            row_base = np.full(n_rows, -n_slots)
            row_base[rows] = np.repeat(node_base, counts)
            key = row_base[entry_row] + entry_slot
            # Rows of closed nodes never come back. Taking by index beats
            # masking four times, which finds the kept entries each time.
            keep = (key >= 0).nonzero()[0]
            if len(keep) < len(key):
                entry_row, entry_slot = entry_row[keep], entry_slot[keep]
                entry_y, key = entry_y[keep], key[keep]
            s_left = np.bincount(key, entry_y, size).reshape(shape)
            c_left = np.bincount(key, minlength=size).reshape(shape)
            if not np.isfinite(s_left).all():
                raise FloatingPointError("overflow in a prefix sum at a cut")
            c_right = tc[:, None] - c_left
            s_right = ts[:, None] - s_left
            # A feature's first slot follows the empty slot of the previous
            # feature's last value, so a count rises at a slot exactly when
            # the node holds that slot's value.
            c_before = np.zeros_like(c_left)
            c_before[:, 1:] = c_left[:, :-1]
            valid = (
                (c_left > c_before)
                & (c_right > 0)
                & (np.minimum(c_left, c_right) >= min_leaf_weight)
            )
            # Scored only where admissible, so only a score that could be
            # chosen may overflow.
            lc, rc = c_left[valid], c_right[valid]
            ls, rs = s_left[valid], s_right[valid]
            scores = np.full(shape, -np.inf)
            scores[valid] = ls * ls / lc + rs * rs / rc
            best_slot = scores.argmax(axis=1)
            splits = scores.max(axis=1) > baseline
        split_nodes = nodes[splits]
        # Each node's record as a leaf; the split nodes' are replaced below.
        means = total_s / counts
        fitted[rows] = np.repeat(means, counts)
        level = [(-1, 0.0, mean) for mean in means.tolist()]
        if not len(split_nodes):
            records += level
            break
        slot = best_slot[splits]
        feature = slot_feature[slot]
        c_split = c_left[splits]
        c_cut = c_split[np.arange(len(slot)), slot]
        beyond = (c_split > c_cut[:, None]) & (slot_feature == feature[:, None])
        next_slot = np.where(
            beyond.any(axis=1), beyond.argmax(axis=1), last_value[feature]
        )
        low, high = values[slot], values[next_slot]
        middle = (low + high) / 2.0
        # Between adjacent doubles the midpoint may round up to ``high``,
        # which would send every row left; the lower value cuts the same.
        threshold = np.where(middle < high, middle, low)
        first_id = len(records)
        first_child = first_id + len(counts)
        for j, (i, f, t) in enumerate(
            zip(split_nodes.tolist(), feature.tolist(), threshold.tolist())
        ):
            level[i] = (f, t, 0.0)
            children[first_id + i] = (first_child + 2 * j, first_child + 2 * j + 1)
        records += level
        split_of_node = np.full(len(counts), -1)
        split_of_node[split_nodes] = np.arange(len(split_nodes))
        row_split = np.repeat(split_of_node, counts)
        moving = row_split >= 0
        rows, row_split = rows[moving], row_split[moving]
        child = 2 * row_split + (XT[feature[row_split], rows] > threshold[row_split])
        rows = rows[child.argsort(kind="stable")]
        counts = np.bincount(child, minlength=2 * len(split_nodes))
        depth += 1

    forest = []
    for root in range(len(plan.counts)):
        preorder, stack = [], [root]
        while stack:
            node = stack.pop()
            preorder.append(records[node])
            if node in children:
                stack += reversed(children[node])
        forest.append(preorder)
    return forest, fitted


def recorded_fit(plan, targets, *, min_leaf_weight=1.0, max_depth=None):
    """``(texts, fitted)``: each root's tree as ``serialize_tree`` text and
    each planned row's fitted value; raises ValueError on overflow with its
    own in-loop message ("tree fit overflows float64: " and numpy's or the
    grower's reason), where ``fit_forest`` rejects targets at or above its
    bound of ``2**511`` over the largest root's row count before it grows."""
    y = np.asarray(targets, dtype=np.float64)[plan.rows]
    try:
        with np.errstate(over="raise", invalid="raise"):
            forest, fitted = recorded_grow(plan, y, float(min_leaf_weight), max_depth)
    except FloatingPointError as error:
        raise ValueError(f"tree fit overflows float64: {error}") from None
    depth_field = "none" if max_depth is None else str(max_depth)
    header = (
        f"{TREE_FORMAT_HEADER} n_features={plan.XT.shape[0]} "
        f"min_leaf_weight={format_float(float(min_leaf_weight))} "
        f"max_depth={depth_field}"
    )
    texts = []
    for records in forest:
        lines = [header]
        for feature, threshold, value in records:
            if feature < 0:
                lines.append(f"leaf,{format_float(value)}")
            else:
                lines.append(f"node,{feature},{format_float(threshold)}")
        texts.append("\n".join(lines) + "\n")
    return texts, fitted
