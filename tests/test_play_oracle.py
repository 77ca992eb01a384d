"""Sampled play against the linear-scan walk it replaced.

``reference_draw`` is the linear scan that ``sampled_match`` used before it
bisected cut tables, kept here unchanged: it adds a row's entries one at a
time from 0.0 and takes the first index whose running total exceeds the
mark, or the last index if none does. ``reference_play_hand`` and
``reference_sampled_match`` are the walk and the match loop built on it,
unchanged but for the replay rule: a recorded chance outcome is replayed
only at a node whose probabilities equal those of the node that drew it,
and the replaying hand records nothing. ``sampled_match`` must reproduce
them bit for bit on Kuhn, Leduc and a subset of the random oracle games, in
plain and duplicate mode.
"""

import math
import random
import statistics
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_game_oracle import SEEDS, is_dyadic, random_game, random_profile

from fregret.efg_core import uniform_profile
from fregret.eval import MatchResult, cut_table, merge_profiles, sampled_match


def reference_draw(rng, probs):
    mark = rng.random()
    cumulative = 0.0
    for index, prob in enumerate(probs):
        cumulative += prob
        if mark < cumulative:
            return index
    return len(probs) - 1


def reference_play_hand(root, rows, rng, script, replay):
    node, event = root, 0
    while children := node.children:
        if node.infoset is None:
            if (
                replay
                and event < len(script)
                and script[event][0] == node.chance_probs
            ):
                index = script[event][1]
            else:
                index = reference_draw(rng, node.chance_probs)
                if not replay:
                    script.append((node.chance_probs, index))
            event += 1
        else:
            index = reference_draw(rng, rows[node.infoset])
        node = children[index]
    return node.utilities[0]


def reference_sampled_match(game, profile_a, profile_b, hands, seed, duplicate):
    a_first = merge_profiles(game, profile_a, profile_b)
    b_first = merge_profiles(game, profile_b, profile_a)
    rng = random.Random(seed)
    values = []
    if duplicate:
        pairs = max(1, hands // 2)
        for _ in range(pairs):
            script = []
            first = reference_play_hand(game.root, a_first, rng, script, False)
            second = reference_play_hand(game.root, b_first, rng, script, True)
            values.append(0.5 * (first - second))
        played = 2 * pairs
    else:
        for hand in range(hands):
            if hand % 2 == 0:
                values.append(reference_play_hand(game.root, a_first, rng, [], False))
            else:
                values.append(-reference_play_hand(game.root, b_first, rng, [], False))
        played = hands
    mean = sum(values) / len(values)
    if len(values) >= 2:
        stderr = statistics.stdev(values) / math.sqrt(len(values))
    else:
        stderr = 0.0
    return MatchResult(played, mean, stderr, seed, duplicate)


class Mark:
    """A stand-in for ``random.Random`` whose one draw is ``mark``."""

    def __init__(self, mark):
        self.mark = mark

    def random(self):
        return self.mark


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


@st.composite
def rows(draw):
    weights = draw(st.lists(ENTRIES, min_size=1, max_size=6))
    total = math.fsum(weights)
    if total == 0.0:
        return tuple(weights)
    target = draw(TOTALS)
    return tuple(w / total * target for w in weights)


def running_totals(row):
    totals, cumulative = [], 0.0
    for prob in row:
        cumulative += prob
        totals.append(cumulative)
    return totals


@settings(max_examples=300, deadline=None)
@given(row=rows(), marks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
@example(row=(1.0,), marks=[])
@example(row=(0.0, -0.0, 1.0), marks=[])
@example(row=(-0.0, 5e-324, 0.5, 0.5), marks=[5e-324])
@example(row=(0.25, 0.25, 0.5 - 1e-7), marks=[])
@example(row=(0.0, 0.0), marks=[0.5])
def test_cut_table_draw_matches_the_scan(row, marks):
    marks = set(marks) | {0.0, LAST_MARK}
    for total in running_totals(row):
        marks |= {total, math.nextafter(total, -1.0), math.nextafter(total, 2.0)}
    for mark in sorted(m for m in marks if 0.0 <= m < 1.0):
        assert bisect_right(cut_table(row), mark) == reference_draw(Mark(mark), row)


def test_short_row_falls_back_to_the_last_action():
    row = (0.5, 0.5 - 1e-7)
    assert reference_draw(Mark(LAST_MARK), row) == 1
    assert bisect_right(cut_table(row), LAST_MARK) == 1
    assert bisect_right(cut_table((1.0,)), LAST_MARK) == 0


# ---------------------------------------------------------------------------
# Whole matches

ORACLE_SEEDS = SEEDS[::7]


def short(profile):
    """Every row scaled to sum to 3/4: a quarter of the marks at each
    infoset fall back to the last action."""
    return {key: tuple(0.75 * p for p in row) for key, row in profile.items()}


def matchups(game, seed):
    rng = random.Random(seed)
    dyadic = is_dyadic(seed)
    uniform = uniform_profile(game)
    mixed = random_profile(game, rng, dyadic)
    other = random_profile(game, rng, dyadic)
    return [(uniform, mixed), (mixed, other), (short(other), uniform)]


def assert_matches_reference(game, seed, hands):
    for a, b in matchups(game, seed):
        for duplicate in (False, True):
            for match_seed in (0, 3):
                args = (game, a, b, hands, match_seed, duplicate)
                assert repr(sampled_match(*args)) == repr(
                    reference_sampled_match(*args)
                )


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_match_matches_reference_on_random_games(seed):
    assert_matches_reference(random_game(seed), seed, 301)


def test_match_matches_reference_on_poker(kuhn_game, leduc_game):
    assert_matches_reference(kuhn_game, 1, 2001)
    assert_matches_reference(leduc_game, 2, 2001)
