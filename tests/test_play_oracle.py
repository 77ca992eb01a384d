"""Sampled play against a scalar walk down the ``GameNode`` tree.

``reference_draw`` is the linear scan that sampled play has always drawn
by: it adds a row's entries one at a time from 0.0 and takes the first
index whose running total exceeds the mark, or the last index if none
does. ``bisect_right`` on the row's ``cut_table`` picks the same index, and
so must ``eval._draw``: a lookup in the guide table that ``eval._guide``
builds over the cuts of ``eval._cuts``, then ``steps`` exact comparisons.
``steps`` must be the most cuts of a row in one guide bucket, and at most
2 on Kuhn and Leduc under solved, uniform and random profiles.

``reference_sampled_match`` plays a match one hand and one draw at a time
down the tree, by the mark rule that ``sampled_match`` documents: blocks of
``BLOCK`` pairs, one mark per live hand per round in hand order, and in
duplicate mode one row of pair marks per chance event, taken when the block
starts. ``sampled_match`` must reproduce it bit for bit on Kuhn, Leduc and
a subset of the random oracle games, with and without shared subtrees, in
plain and duplicate mode, at hand counts that end inside, at and past a
block's end, past three full blocks, in games where every hand stops in
the same round and where some round stops no hand.
"""

import math
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_game_oracle import (
    SEEDS,
    SHARED_SEEDS,
    is_dyadic,
    random_distribution,
    random_game,
    random_profile,
)
from test_strategy_oracle import STORED

from fregret.cfr import CFRConfig, solve
from fregret.cli import read_strategy_file
from fregret.efg_core import (
    CHANCE,
    chance,
    checked_policy,
    decision,
    enumerate_infosets,
    make_game,
    terminal,
    uniform_profile,
)
from fregret.eval import (
    BLOCK,
    GUIDE,
    MatchResult,
    _cuts,
    _draw,
    _guide,
    merge_profiles,
    sampled_match,
)
from fregret.games import build_leduc


def reference_draw(mark, probs):
    cumulative = 0.0
    for index, prob in enumerate(probs):
        cumulative += prob
        if mark < cumulative:
            return index
    return len(probs) - 1


def cut_table(row):
    """The running totals of ``row``, added one at a time from 0.0, without
    the last. ``bisect_right(cut_table(row), mark)`` is the first index
    whose running total exceeds ``mark``, or the last index if none does,
    as when the row sums to less than 1 and the mark lies past its total."""
    return tuple(accumulate(row, initial=0.0))[1:-1]


def chance_depth(root):
    """The most chance nodes on a path down from ``root``."""
    most, stack = 0, [(root, 0)]
    while stack:
        node, seen = stack.pop()
        seen += node.kind == CHANCE
        most = max(most, seen)
        stack.extend((child, seen) for child in node.children)
    return most


def reference_sampled_match(game, profile_a, profile_b, hands, seed, duplicate):
    seatings = (
        merge_profiles(game, profile_a, profile_b),
        merge_profiles(game, profile_b, profile_a),
    )
    bits = np.random.PCG64(abs(seed))

    def marks(count):
        return [(raw >> 11) * 2.0**-53 for raw in bits.random_raw(count).tolist()]

    depth = chance_depth(game.root)
    played = 2 * max(1, hands // 2) if duplicate else hands
    utilities = []
    for begin in range(0, played, 2 * BLOCK):
        count = min(2 * BLOCK, played - begin)
        pairs = count // 2
        if duplicate:
            row = marks(depth * pairs)
            common = [row[k * pairs : (k + 1) * pairs] for k in range(depth)]
        nodes, events = [game.root] * count, [0] * count
        live = range(count)
        while live := [hand for hand in live if nodes[hand].children]:
            for hand, mark in zip(live, marks(len(live))):
                node = nodes[hand]
                if node.kind == CHANCE:
                    if duplicate:
                        mark = common[events[hand]][hand // 2]
                        events[hand] += 1
                    probs = node.chance_probs
                else:
                    probs = seatings[hand % 2][node.infoset]
                nodes[hand] = node.children[reference_draw(mark, probs)]
        utilities.extend(node.utilities[0] for node in nodes)
    if duplicate:
        values = [0.5 * (a - b) for a, b in zip(utilities[0::2], utilities[1::2])]
    else:
        values = [u if hand % 2 == 0 else -u for hand, u in enumerate(utilities)]
    values = np.array(values)
    n = len(values)
    mean = float(np.sum(values)) / n
    stderr = 0.0
    if n >= 2:
        spread = float(np.sum(np.square(values - mean))) / (n - 1)
        stderr = math.sqrt(spread) / math.sqrt(n)
    return MatchResult(played, mean, stderr, seed, duplicate)


# ---------------------------------------------------------------------------
# One draw

SUBNORMAL = st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True)
ENTRIES = st.one_of(
    st.just(0.0), st.just(-0.0), SUBNORMAL, st.floats(min_value=0.0, max_value=1.0)
)
# 1 ± 1e-7 passes the strategy reader's check (sum within 1e-6 of 1); below
# 1, a mark past the row's total falls back to the last action.
TOTALS = st.sampled_from([1.0, 1.0 - 1e-7, 1.0 + 1e-7])
LAST_MARK = 1.0 - 2.0**-53
# Every guide bucket's edge, 0 to 1.
BUCKET_EDGES = tuple(b / GUIDE for b in range(GUIDE + 1))
# 29 cuts in the first bucket: a draw there takes 29 steps.
CROWDED = (1e-3,) * 29 + (1.0 - 29e-3,)


@st.composite
def rows(draw):
    weights = draw(st.lists(ENTRIES, min_size=1, max_size=30))
    total = math.fsum(weights)
    if total == 0.0:
        return tuple(weights)
    target = draw(TOTALS)
    return tuple(w / total * target for w in weights)


def marks_for(row, extra):
    """``extra``, 0, the last mark, and each running total and each guide
    bucket's edge and its two neighbours, within [0, 1)."""
    marks = set(extra) | {0.0, LAST_MARK}
    for total in (*accumulate(row, initial=0.0), *BUCKET_EDGES):
        marks |= {total, math.nextafter(total, -1.0), math.nextafter(total, 2.0)}
    return sorted(m for m in marks if 0.0 <= m < 1.0)


def most_in_a_bucket(tables):
    """The most cuts of one of ``tables`` in one guide bucket, ``(b / GUIDE,
    (b + 1) / GUIDE]``, the last bucket open above."""
    bounds = [*zip(BUCKET_EDGES, BUCKET_EDGES[1:-1])] + [(BUCKET_EDGES[-2], math.inf)]
    return max(sum(lo < c <= hi for c in table) for table in tables for lo, hi in bounds)


def drawn(rows, marks):
    """Index drawn from ``rows[k]`` at each mark of ``marks[k]``, by one
    ``_draw`` over the guide table of a game whose seat-1 nodes each play
    one row, so rows of every width share the table; each row's cuts; and
    the table's steps. The root plays 1.0 at each action."""
    game = make_game(
        "rows",
        decision(
            0,
            "p0:",
            [str(k) for k in range(len(rows))],
            [
                decision(1, f"p1:{k}", [str(a) for a in range(len(row))],
                         [terminal(0.0)] * len(row))
                for k, row in enumerate(rows)
            ],
        ),
    )
    layout = game.layout
    policy = np.array([1.0] * len(rows) + [p for row in rows for p in row])
    cuts = _cuts(layout, policy)
    guide, steps = _guide(cuts, layout.parent, layout.first, layout.last)
    heads = layout.child[layout.first[0] : layout.last[0] + 1]
    first, last = layout.first[heads], layout.last[heads]
    counts = [len(m) for m in marks]
    node, mark = np.repeat(heads, counts), np.array([m for ms in marks for m in ms])
    picks = _draw(guide, steps, cuts, node, mark) - np.repeat(first, counts)
    ends = np.cumsum(counts)
    return (
        [picks[end - count : end].tolist() for end, count in zip(ends, counts)],
        [cuts[a:b].tolist() for a, b in zip(first, last)],
        steps,
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(rows(), min_size=1, max_size=4),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
)
@example(rows=[(1.0,)], extra=[])
@example(rows=[(0.0, -0.0, 1.0)], extra=[])
@example(rows=[(-0.0, 5e-324, 0.5, 0.5), (1.0,)], extra=[5e-324])
@example(rows=[(0.25, 0.25, 0.5 - 1e-7)], extra=[])
@example(rows=[(0.0, 0.0), (1.0 / 30,) * 30], extra=[0.5])
@example(rows=[CROWDED, (0.25,) * 4], extra=[])
def test_cut_table_draw_matches_the_scan(rows, extra):
    marks = [marks_for(row, extra) for row in rows]
    picks, cuts, _ = drawn(rows, marks)
    for row, row_marks, row_picks, row_cuts in zip(rows, marks, picks, cuts):
        table = cut_table(row)
        assert [c.hex() for c in row_cuts] == [c.hex() for c in table]
        for mark, pick in zip(row_marks, row_picks):
            assert pick == bisect_right(table, mark) == reference_draw(mark, row)


def test_short_row_falls_back_to_the_last_action():
    row = (0.5, 0.5 - 1e-7)
    assert reference_draw(LAST_MARK, row) == 1
    assert bisect_right(cut_table(row), LAST_MARK) == 1
    assert bisect_right(cut_table((1.0,)), LAST_MARK) == 0
    picks, _, _ = drawn([row, (1.0,)], [[LAST_MARK], [LAST_MARK]])
    assert picks == [[1], [0]]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(rows(), min_size=1, max_size=4))
@example(rows=[CROWDED])
@example(rows=[(1.0 / 30,) * 30, (0.25,) * 4])
@example(rows=[(0.5, 0.5 - 1e-7), (1.0,)])
@example(rows=[(1.0 / 16,) * 15 + (1.0 / 16 + 1e-7,)])
def test_steps_is_the_most_cuts_in_a_bucket(rows):
    # The root's cuts, 1.0, 2.0 and so on, all fall in the last bucket.
    _, _, steps = drawn(rows, [[0.0]] * len(rows))
    tables = [cut_table((1.0,) * len(rows)), *map(cut_table, rows)]
    assert steps == most_in_a_bucket(tables)


def guard_profiles(game, solved):
    """``solved``, uniform play, and 20 seeded random profiles, every other
    one with exact zeros."""
    infosets = enumerate_infosets(game)
    randoms = []
    for seed in range(20):
        rng, zero_share = random.Random(seed), 0.3 * (seed % 2)
        randoms.append(
            {key: random_distribution(rng, n, zero_share) for _, key, n in infosets}
        )
    return [solved, uniform_profile(game), *randoms]


def test_draw_takes_at_most_two_steps(kuhn_game, leduc_game):
    # The cost of a draw, without timing it: a decision row has at most two
    # finite cuts, and no bucket holds more than two of a deal's cuts.
    solved_kuhn = solve(kuhn_game, CFRConfig(iterations=200, log_every=200))[0]
    solved_leduc = read_strategy_file(str(STORED))[1]
    for game, solved in ((kuhn_game, solved_kuhn), (leduc_game, solved_leduc)):
        layout = game.layout
        for profile in guard_profiles(game, solved):
            cuts = _cuts(layout, checked_policy(game, (profile, profile)))
            _, steps = _guide(cuts, layout.parent, layout.first, layout.last)
            assert steps <= 2, game.game_id


# ---------------------------------------------------------------------------
# Whole matches

ORACLE_SEEDS = SEEDS[::7]


def matchups(game, seed):
    rng = random.Random(seed)
    dyadic = is_dyadic(seed)
    uniform = uniform_profile(game)
    mixed = random_profile(game, rng, dyadic)
    other = random_profile(game, rng, dyadic)
    return [(uniform, mixed), (mixed, other)]


def assert_matches_reference(game, seed, hand_counts):
    for a, b in matchups(game, seed):
        for duplicate in (False, True):
            for match_seed in (0, -3):
                for hands in hand_counts:
                    args = (game, a, b, hands, match_seed, duplicate)
                    assert repr(sampled_match(*args)) == repr(
                        reference_sampled_match(*args)
                    ), args[3:]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_match_matches_reference_on_random_games(seed):
    assert_matches_reference(random_game(seed), seed, (1, 7, 301))


@pytest.mark.parametrize("seed", SHARED_SEEDS[::6])
def test_match_matches_reference_on_shared_games(seed):
    # Hands share the edge list's nodes, whatever their positions.
    assert_matches_reference(random_game(seed, shared=True), seed, (1, 7, 301))


# Past 2 * BLOCK hands, plain play starts a second block; past 2 * BLOCK + 1,
# duplicate play does.
BLOCK_EDGES = (1, 5, 2 * BLOCK - 1, 2 * BLOCK + 1, 2 * BLOCK + 3)


def test_match_matches_reference_on_kuhn(kuhn_game):
    assert_matches_reference(kuhn_game, 1, BLOCK_EDGES)


def test_match_matches_reference_on_leduc(leduc_game):
    assert_matches_reference(leduc_game, 2, BLOCK_EDGES)


def test_match_matches_reference_without_chance(no_chance_game):
    # Duplicate play takes no pair marks: no hand ever stands at a chance node.
    assert no_chance_game.layout.chance_depth == 0
    assert_matches_reference(no_chance_game, 3, BLOCK_EDGES)


def test_match_matches_reference_past_three_blocks(leduc_game):
    # Three full blocks, then a fourth of three hands in plain play and of
    # one pair in duplicate play.
    uniform = uniform_profile(leduc_game)
    mixed = random_profile(leduc_game, random.Random(4), False)
    for duplicate in (False, True):
        args = (leduc_game, mixed, uniform, 6 * BLOCK + 3, 11, duplicate)
        assert repr(sampled_match(*args)) == repr(reference_sampled_match(*args))


def terminal_depths(game):
    """The number of edges from the root down to each terminal position."""
    depths, stack = set(), [(game.root, 0)]
    while stack:
        node, depth = stack.pop()
        if not node.children:
            depths.add(depth)
        stack.extend((child, depth + 1) for child in node.children)
    return depths


def test_match_matches_reference_when_every_hand_stops_at_once():
    # A deal, then one move: every hand of a block stops in its third round.
    game = make_game("level", chance((0.25, 0.75), [
        decision(0, f"p0:{card}", ("a", "b"), (terminal(card), terminal(-1.0)))
        for card in (1.0, 2.0)
    ]))
    assert terminal_depths(game) == {2}
    assert_matches_reference(game, 4, BLOCK_EDGES)


def test_match_matches_reference_when_a_round_stops_no_hand():
    # Seat 0 stops at once or goes on to a deal and seat 1's move: the
    # second round stops the hands that stopped, the third stops none, and
    # the fourth stops the rest.
    game = make_game("gap", decision(0, "p0:", ("stop", "go"), (
        terminal(1.0),
        chance((0.5, 0.5), [
            decision(1, f"p1:{card}", ("a", "b"), (terminal(2.0), terminal(-3.0)))
            for card in "xy"
        ]),
    )))
    assert terminal_depths(game) == {1, 3}
    assert_matches_reference(game, 6, BLOCK_EDGES)


def test_seating_tables_are_built_once_per_layout(leduc_game):
    layout = leduc_game.layout
    tables = layout.seatings
    profile = uniform_profile(leduc_game)
    sampled_match(leduc_game, profile, profile, 9, duplicate=True)
    assert layout.seatings is tables
    assert build_leduc().layout.seatings[0] is not tables[0]
    nodes, edges = len(layout.utility), len(layout.child)
    for table, own, shift in (
        (tables[0], layout.parent, nodes),
        (tables[1], layout.first, edges),
        (tables[2], layout.last, edges),
        (tables[3], layout.child, nodes),
        (tables[4], layout.terminal, 0),
        (tables[5], layout.chance_node, 0),
    ):
        assert table.tolist() == own.tolist() + (own + shift).tolist()
    assert tables[6].tolist() == layout.utility.tolist() + (-layout.utility).tolist()
    assert tables[7].tolist() == (layout.seat[layout.owner] == 0).tolist()
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
