"""The tree grower against its recorded implementation, bit for bit.

``recorded_grow`` is a level-wise grower recorded from an earlier version
of ``estimator._grow``. It reaches the same trees by other means: it drops
the entries of closed nodes, where ``_grow`` keys every entry on every
level, those of closed nodes into a sink row; it sums each node with its
own ``np.add.reduce``, where ``_grow`` sums every node in one padded
``reduceat``; it takes each level's cut sums and row counts from two
``bincount`` calls, where ``_grow`` takes both from one ``np.add.at`` of
``target + 1j`` into complex bins; it keys the root level at every fit,
where ``_grow`` reads its keys from the plan; it rules out a cut at a
value the node lacks by a count that does not rise there, where ``_grow``
gives that cut the score of the node's next lower value's and lets the
argmax take the lower; and it finds each threshold's upper value by a search over the
count rows, for which its plan keeps entries at a root's highest value,
where ``Forest.trees`` reads it off the rows each split kept. None of
that may move a split, a threshold, a leaf value or a fitted value; these
tests compare serialized trees and fitted bytes. The recorded grower checks
its sums for overflow as it goes, where ``fit_forest`` rejects targets at
a bound before it grows, so a fit under that bound that matches it also
overflowed nowhere.
"""

import math
import re

import numpy as np
import pytest
from recorded_grow import recorded_fit, recorded_plan
from test_tree_oracle import forest_roots, random_corpus

from fregret.estimator import (
    fit_forest,
    fit_tree,
    plan_fit,
    serialize_tree,
    slot_features,
)
from fregret.rcfr import RCFRConfig, new_state, rcfr_iteration


def assert_fits_as_recorded(X, roots, y, **config):
    forest, fitted = fit_forest(plan_fit(X, roots), y, **config)
    texts, recorded = recorded_fit(recorded_plan(X, roots), y, **config)
    assert [serialize_tree(tree) for tree in forest.trees] == texts
    assert fitted.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("target_mode", ["exact", "bootstrap"])
@pytest.mark.parametrize("min_leaf_weight", [64.0, 16.0, 4.0, 1.0, 0.0])
def test_leduc_refits_match_recorded(leduc_game, target_mode, min_leaf_weight):
    # Every refit of 60-iteration solves, compared as the solver made it:
    # its trees and the fitted values it keeps as predictions.
    for max_depth in (None, 2, 5):
        config = RCFRConfig(
            iterations=60,
            target_mode=target_mode,
            min_leaf_weight=min_leaf_weight,
            max_depth=max_depth,
        )
        state = new_state(leduc_game, config)
        plan = recorded_plan(slot_features(leduc_game), state.seat_slots)
        shape = dict(min_leaf_weight=min_leaf_weight, max_depth=max_depth)
        for _ in range(config.iterations):
            rcfr_iteration(leduc_game, state, config)
            texts, fitted = recorded_fit(plan, state.targets, **shape)
            assert [serialize_tree(tree) for tree in state.trees] == texts
            assert state.predictions[plan.rows].tobytes() == fitted.tobytes()


def random_forest_data(seed):
    """Few-valued columns with repeated rows and tied targets, or, for odd
    seeds, a continuous column beside them and targets that do not tie."""
    rng = np.random.default_rng(900 + seed)
    X, y = random_corpus(rng, n_rows=36, n_features=3, levels=int(rng.integers(2, 6)))
    if seed % 2:
        X[:, 1] = rng.random(len(X))
        y = rng.normal(size=len(X))
    return X, forest_roots(rng, X, n_roots=int(rng.integers(1, 5))), y


@pytest.mark.parametrize("block", range(4))
def test_random_forests_match_recorded(block):
    # 4 blocks x 15 draws x 18 configurations: 1,080 forests.
    for seed in range(15 * block, 15 * block + 15):
        X, roots, y = random_forest_data(seed)
        for min_leaf_weight in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
            for max_depth in (None, 1, 3):
                assert_fits_as_recorded(
                    X, roots, y, min_leaf_weight=min_leaf_weight, max_depth=max_depth
                )


def test_overflow_at_a_cut_the_parent_could_not_take():
    """A child's prefix at a cut inadmissible at its parent overflows.

    With min-leaf 4 the root (9 rows) cannot cut column 0 at 0, which
    leaves 3 rows right, so the grower drops that cut's entries. Here the
    root splits on column 1, and its left child holds the two ``M`` rows of
    column 0's left side without the ``-M`` row between them, so that
    prefix is ``M + M``, which overflows, while every total and every
    admissible prefix stays small. The recorded grower raises at that
    prefix; ``fit_forest`` rejects the targets before growing, since ``M``
    is over ``2**511 / 9``.
    """
    M = 1e308
    X = np.array(
        [
            [0, 0], [1, 0], [0, 1], [0, 0], [1, 0],
            [1, 1], [0, 1], [0, 1], [0, 0],
        ],
        dtype=np.float64,
    )
    y = np.array([M, -M, -M, M, -M, M, 1.0, 0.0, -1.0])
    config = dict(min_leaf_weight=4.0)
    with pytest.raises(ValueError, match="^tree fit overflows float64"):
        recorded_fit(recorded_plan(X), y, **config)
    with pytest.raises(ValueError, match="^tree fit overflows float64"):
        fit_forest(plan_fit(X), y, **config)
    # The root's own prefix at that cut is finite: M, 0, M, M, M, M.
    with np.errstate(over="raise"):
        np.cumsum(y[X[:, 0] == 0])


def bound_data(n):
    """A root of ``n`` rows, one column of distinct values and one of few,
    and targets whose magnitudes reach just under ``2**511 / n``: equal but
    for one row, all of one sign, and of mixed signs."""
    top = math.nextafter(2.0**511 / n, 0.0)
    rng = np.random.default_rng(n)
    X = np.column_stack([np.arange(n), rng.integers(0, 3, size=n)]).astype(float)
    near = np.full(n, top)
    near[0] = math.nextafter(top, 0.0)
    same = top * rng.uniform(0.5, 1.0, size=n)
    same[rng.integers(n)] = top
    mixed = same * rng.choice([-1.0, 1.0], size=n)
    return X, (near, -near, same, mixed)


def bound_roots(n):
    """One root of all ``n`` rows, or that root beside a smaller one: the
    bound is set by the largest root."""
    return (None, [list(range(n)), list(range(n // 2 + 1))])


def test_targets_under_the_bound_fit_as_recorded():
    # The recorded grower checks every sum it squares, so a match also
    # shows that nothing overflowed.
    for n in range(1, 51):
        X, targets = bound_data(n)
        for roots in bound_roots(n):
            for y in targets:
                for min_leaf_weight in (0.0, 1.0, 4.0):
                    config = dict(min_leaf_weight=min_leaf_weight)
                    assert_fits_as_recorded(X, roots, y, **config)


def test_targets_at_the_bound_are_rejected():
    for n in range(1, 51):
        X, targets = bound_data(n)
        over = math.nextafter(2.0**511 / n, math.inf)
        message = f"tree fit overflows float64: some |target| >= 2**511 / {n},"
        pattern = "^" + re.escape(message)
        for y in targets:
            y = y.copy()
            y[-1] = math.copysign(over, y[-1])
            for min_leaf_weight in (0.0, 1.0, 4.0):
                config = dict(min_leaf_weight=min_leaf_weight)
                with pytest.raises(ValueError, match=pattern):
                    fit_tree(X, y, **config)
                for roots in bound_roots(n):
                    with pytest.raises(ValueError, match=pattern):
                        fit_forest(plan_fit(X, roots), y, **config)


def padded_totals(terms, counts, pad=0.0):
    """Each node's total as ``_grow`` takes it: one ``reduceat`` over the
    nodes' terms, laid end to end, with ``pad`` ahead of each node's."""
    pad_at = counts.cumsum() - counts + np.arange(len(counts))
    is_row = np.ones(len(terms) + len(counts), dtype=bool)
    is_row[pad_at] = False
    padded = np.full(len(is_row), pad)
    padded[is_row] = terms
    return np.add.reduceat(padded, pad_at)


def premise_nodes(rng):
    """Target vectors of nodes: the sums that once went to ``bincount``
    (1 to 7 terms at magnitudes 1e-30 to 1e30, signed zeros, overflowing
    mixes), and nodes of up to 1,200 terms, across numpy's 8-term and
    128-term pairwise blocks, some of them all -0.0."""
    nodes = []
    for n in range(1, 8):
        for _ in range(400):
            magnitude = 10.0 ** rng.integers(-30, 30, size=n)
            nodes.append(rng.normal(size=n) * magnitude)
        nodes.append(np.full(n, -0.0))
        nodes.append(np.where(rng.random(n) < 0.5, 0.0, -0.0))
        nodes.append(np.array([1e308, -1e308, 1e308, 1e308, -1e308, 1.0, -0.0][:n]))
        nodes.append(rng.choice([1.7e308, -1.7e308, 0.0, -0.0], size=n))
    edges = [8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]
    sizes = edges + rng.integers(1, 1201, size=300).tolist()
    for n in sizes:
        magnitude = 10.0 ** rng.integers(-30, 30, size=n)
        nodes.append(rng.normal(size=n) * magnitude)
        nodes.append(rng.normal(size=n))
        nodes.append(rng.choice([1.0, -1.0, 0.5, 0.0, -0.0], size=n))
        nodes.append(np.full(n, -0.0))
        nodes.append(rng.choice([1.7e308, -1.7e308, 0.0, -0.0], size=n))
    return nodes


def test_padded_reduceat_adds_each_node_as_its_own_reduce():
    """The grower totals a level's nodes in one ``reduceat`` with a +0.0
    ahead of each node's targets, for each node's own ``np.add.reduce``:
    reduce adds the pairwise sum of its terms to its identity 0.0, and
    ``reduceat`` adds a segment's first term to the pairwise sum of the
    rest. A numpy whose reduce or ``reduceat`` adds otherwise fails here
    rather than in a pinned digest."""
    rng = np.random.default_rng(5)
    nodes = premise_nodes(rng)
    order = rng.permutation(len(nodes))
    # Random segmentations: levels of 1 to 40 nodes in a random order.
    cuts = np.cumsum(rng.integers(1, 41, size=len(nodes)))
    with np.errstate(all="ignore"):
        for level in np.split(order, cuts[cuts < len(nodes)]):
            terms = [nodes[i] for i in level]
            counts = np.array([len(t) for t in terms])
            own = np.array([np.add.reduce(t) for t in terms])
            totals = padded_totals(np.concatenate(terms), counts)
            assert totals.tobytes() == own.tobytes(), terms


def test_a_negative_zero_pad_would_total_negative_zero_nodes_wrong():
    """The pad is +0.0 because a node of -0.0 targets reduces to 0.0, while
    -0.0 ahead of it would total -0.0 and so flip the sign of its mean."""
    for n in (1, 7, 8, 9, 128, 129, 1200):
        counts = np.array([n, 1, n])
        terms = np.concatenate([np.full(n, -0.0), [1.0], np.full(n, -0.0)])
        assert not np.signbit(np.add.reduce(np.full(n, -0.0)))
        assert not np.signbit(padded_totals(terms, counts)).any()
        wrong = padded_totals(terms, counts, pad=-0.0)
        assert np.signbit(wrong).tolist() == [True, False, True]


def premise_bins(rng):
    """Levels of keyed entries as ``_grow`` lays them out: a row of bins per
    searched node, some never keyed, and a sink row past them that takes
    about half the entries; targets of ordinary magnitudes, signed zeros,
    and magnitudes just under ``2**511`` over the entry count."""
    for _ in range(300):
        n_nodes, n_slots = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        m = int(rng.integers(1, 2000))
        size = n_nodes * n_slots
        used = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
        key = np.where(
            rng.random(m) < 0.5,
            rng.choice(used, size=m),
            size + rng.integers(0, n_slots, size=m),
        )
        top = math.nextafter(2.0**511 / m, 0.0)
        ordinary = rng.normal(size=m) * 10.0 ** rng.integers(-30, 30, size=m)
        for y in (
            ordinary,
            rng.normal(size=m),
            rng.choice([1.0, -1.0, 0.5, 0.1, 0.0, -0.0], size=m),
            np.full(m, -0.0),
            top * rng.uniform(0.5, 1.0, size=m) * rng.choice([-1.0, 1.0], size=m),
            np.where(rng.random(m) < 0.5, ordinary, top),
        ):
            yield key, y, size + n_slots


def test_complex_scatter_add_sums_in_order_and_counts_exactly():
    """The grower takes every (node, slot) bin's target prefix and row count
    from one ``np.add.at`` of ``target + 1j`` into zeroed complex bins: the
    real part must be the sum ``bincount`` gives, adding a bin's terms in
    input order from 0.0, and the imaginary part its row count. A numpy
    whose ``add.at`` adds complex values in another order, or not part by
    part, fails here rather than in a pinned digest."""
    rng = np.random.default_rng(7)
    for key, y, n in premise_bins(rng):
        bins = np.zeros(n, dtype=complex)
        np.add.at(bins, key, y + 1j)
        assert bins.real.tobytes() == np.bincount(key, y, n).tobytes()
        assert (bins.imag == np.bincount(key, minlength=n)).all()
