"""Tree walking core: expected value, reach probabilities, validation."""

import itertools
import math
import random
import re
from collections import defaultdict

import numpy as np
import pytest
from conftest import position_parts
from hypothesis import example, given
from hypothesis import strategies as st

from fregret.cfr import cfr_pass, regret_policy
from fregret.efg_core import (
    TERMINAL,
    GameNode,
    chance,
    check_row,
    checked_policy,
    decision,
    enumerate_infosets,
    expected_value,
    make_game,
    terminal,
    uniform_profile,
)
from fregret.eval import exact_ev, exploitability, sampled_match
from fregret.games import build_kuhn, build_leduc

KUHN_RANKS = "JQK"


def kuhn_uniform_ev_flat():
    """Kuhn uniform-vs-uniform EV for seat 0 by flat enumeration.

    Lists every betting line with its payoff sign convention explicitly,
    touching none of the tree machinery: payoffs depend only on who folded or
    who held the higher card, and every line's probability is a product of
    literal constants.
    """
    # (line, prob of this betting line, stake at showdown or fold payoff)
    # Lines: cc: check-check (showdown 1); crf: check, bet, fold (-1);
    # crc: check, bet, call (showdown 2); rf: bet, fold (+1);
    # rc: bet, call (showdown 2). Uniform play gives each branch weight 1/2.
    total = 0.0
    for c0, c1 in itertools.permutations(range(3), 2):
        sign = 1.0 if c0 > c1 else -1.0
        deal_p = 1.0 / 6.0
        lines = [
            (0.25, sign * 1.0),  # cc
            (0.125, -1.0),  # crf: seat 0 folds after check-bet
            (0.125, sign * 2.0),  # crc
            (0.25, 1.0),  # rf: seat 1 folds to the bet
            (0.25, sign * 2.0),  # rc
        ]
        total += deal_p * sum(p * u for p, u in lines)
    return total


class TestExpectedValue:
    def test_kuhn_uniform_matches_flat_enumeration(self):
        game = build_kuhn()
        ev = expected_value(game, uniform_profile(game))
        oracle = kuhn_uniform_ev_flat()
        assert abs(oracle - 0.125) < 1e-15
        assert abs(ev[0] - oracle) < 1e-12
        assert abs(ev[0] + ev[1]) < 1e-15

    def test_single_terminal_game(self):
        game = make_game("toy", terminal(3.5))
        assert expected_value(game, {}) == (3.5, -3.5)
        # A zero total is +0.0 for both seats, as in every other game.
        zero = expected_value(make_game("toy", terminal(0.0)), {})
        assert [v.hex() for v in zero] == ["0x0.0p+0", "0x0.0p+0"]

    def test_pure_chance_game(self):
        root = chance([0.25, 0.75], [terminal(4.0), terminal(-4.0)])
        game = make_game("toy", root)
        ev = expected_value(game, {})
        assert abs(ev[0] - (0.25 * 4.0 - 0.75 * 4.0)) < 1e-15

    def test_missing_infoset_raises(self):
        game = build_kuhn()
        profile = uniform_profile(game)
        victim = next(iter(profile))
        del profile[victim]
        with pytest.raises(KeyError, match=victim):
            expected_value(game, profile)

    def test_wrong_action_count_raises(self):
        game = build_kuhn()
        profile = uniform_profile(game)
        victim = next(iter(profile))
        profile[victim] = (1.0,)
        with pytest.raises(ValueError):
            expected_value(game, profile)

    def test_pure_profile_kuhn(self):
        # Seat 0 always bets, seat 1 always folds: seat 0 wins the ante on
        # every deal.
        game = build_kuhn()
        profile = {}
        for _, key, n in enumerate_infosets(game):
            labels = game.action_labels[key]
            if "r" in labels:
                pick = labels.index("r")
            elif "f" in labels:
                pick = labels.index("f")
            else:
                pick = 0
            probs = [0.0] * n
            probs[pick] = 1.0
            profile[key] = tuple(probs)
        ev = expected_value(game, profile)
        assert abs(ev[0] - 1.0) < 1e-12 and abs(ev[1] + 1.0) < 1e-12

    def test_leduc_uniform_frozen(self):
        game = build_leduc()
        ev = expected_value(game, uniform_profile(game))
        assert abs(ev[0] - (-0.078125)) < 1e-12


class TestValidation:
    def test_chance_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_game("bad", chance([0.5, 0.6], [terminal(0.0), terminal(0.0)]))

    def test_chance_probs_are_summed_in_order(self):
        # A compensated sum (the builtin sum on Python 3.12+) comes within
        # 1e-12 of 1; adding in order from 0.0 stays at 1 - 2e-12.
        probs = [1 - 2e-12] + [5e-17] * 30000
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        with pytest.raises(ValueError, match="do not sum to 1"):
            make_game("bad", chance(probs, [terminal(0.0)] * len(probs)))

    def test_chance_probs_negative_rejected(self):
        with pytest.raises(ValueError):
            make_game("bad", chance([-0.5, 1.5], [terminal(0.0), terminal(0.0)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_chance_probability_rejected(self, bad):
        # NaN passes both the sign and the sum test, so it needs its own check.
        with pytest.raises(ValueError, match="finite and >= 0"):
            make_game("bad", chance([bad, 1.0], [terminal(0.0), terminal(0.0)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_utility_named_as_such(self, bad):
        root = chance([0.5, 0.5], [terminal(1.0), terminal(bad)])
        with pytest.raises(ValueError, match="non-finite terminal utility"):
            make_game("bad", root)
        one_sided = GameNode(kind=TERMINAL, utilities=(bad, 0.0))
        with pytest.raises(ValueError, match="non-finite terminal utility"):
            make_game("bad", one_sided)

    def test_finite_non_zero_sum_utilities_rejected(self):
        node = GameNode(kind=TERMINAL, utilities=(1.0, 1.0))
        with pytest.raises(ValueError, match="not zero-sum"):
            make_game("bad", node)

    def test_decision_needs_actions(self):
        with pytest.raises(ValueError):
            make_game("bad", decision(0, "p0:x", (), []))

    @pytest.mark.parametrize("player", [2, -1, None])
    def test_decision_player_must_be_a_seat(self, player):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            make_game("bad", decision(player, "p0:x", ("a",), [terminal(0.0)]))

    @pytest.mark.parametrize("key", [None, 7, ("p0", "x")])
    def test_decision_infoset_must_be_a_str(self, key):
        with pytest.raises(ValueError, match="is not a str"):
            make_game("bad", decision(0, key, ("a",), [terminal(0.0)]))

    def test_action_child_count_mismatch(self):
        with pytest.raises(ValueError):
            make_game("bad", decision(0, "p0:x", ("a", "b"), [terminal(0.0)]))

    def test_inconsistent_infoset_player_rejected(self):
        node_a = decision(0, "p0:x", ("a",), [terminal(0.0)])
        node_b = decision(1, "p0:x", ("a",), [terminal(0.0)])
        root = chance([0.5, 0.5], [node_a, node_b])
        with pytest.raises(ValueError):
            make_game("bad", root)

    def test_inconsistent_infoset_actions_rejected(self):
        node_a = decision(0, "p0:x", ("a", "b"), [terminal(0.0), terminal(0.0)])
        node_b = decision(0, "p0:x", ("a", "z"), [terminal(0.0), terminal(0.0)])
        root = chance([0.5, 0.5], [node_a, node_b])
        with pytest.raises(ValueError):
            make_game("bad", root)

    def test_imperfect_recall_rejected(self):
        # Seat 0 reaches "p0:y" after choosing either action at "p0:x", so
        # one infoset has two different own-histories: it forgot its move.
        def forgetful():
            return decision(0, "p0:y", ("a",), [terminal(0.0)])

        root = decision(0, "p0:x", ("a", "b"), [forgetful(), forgetful()])
        with pytest.raises(ValueError, match="imperfect recall"):
            make_game("bad", root)

    @pytest.mark.parametrize("moved_first", [False, True])
    def test_imperfect_recall_of_no_move_rejected(self, moved_first):
        # Seat 0 has no move above one node of "p0:y" and one move above
        # the other, in either preorder.
        def y():
            return decision(0, "p0:y", ("a",), [terminal(0.0)])

        branches = [y(), decision(0, "p0:x", ("a",), [y()])]
        if moved_first:
            branches.reverse()
        with pytest.raises(ValueError, match="imperfect recall at infoset 'p0:y'"):
            make_game("bad", chance([0.5, 0.5], branches))

    def test_walk_faults_come_before_imperfect_recall(self):
        # Recall is checked on the finished layout, so a fault later in
        # preorder than the forgetful node is the one reported.
        def forgetful():
            return decision(0, "p0:y", ("a",), [terminal(0.0)])

        unfair = GameNode(kind=TERMINAL, utilities=(1.0, 1.0))
        root = decision(0, "p0:x", ("a", "b", "c"), [forgetful(), forgetful(), unfair])
        with pytest.raises(ValueError, match="not zero-sum"):
            make_game("bad", root)

    @pytest.mark.parametrize("order, first", [
        ((0, 1, 0), "do not sum to 1"),
        ((1, 0, 1), "not zero-sum"),
        ((2, 0, 2), "inconsistent infoset 'p0:x'"),
        ((0, 2, 0), "do not sum to 1"),
    ])
    def test_a_shared_fault_is_reported_as_unshared_copies_are(self, order, first):
        # make_game checks each node once, at its first position; the first
        # fault in preorder must not depend on whether nodes are shared.
        def faults():
            return [
                chance([0.5, 0.6], [terminal(0.0), terminal(0.0)]),
                GameNode(kind=TERMINAL, utilities=(1.0, 1.0)),
                decision(0, "p0:x", ("a", "b"), [terminal(0.0), terminal(0.0)]),
            ]

        shared = faults()
        trees = [
            [shared[k] for k in order],
            [faults()[k] for k in order],
        ]
        messages = []
        for children in trees:
            root = decision(0, "p0:x", ("a", "b", "c"), children)
            with pytest.raises(ValueError) as raised:
                make_game("bad", root)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert first in messages[0]

    def test_utility_range_is_spread(self):
        root = chance([0.5, 0.5], [terminal(-3.0), terminal(5.0)])
        game = make_game("toy", root)
        # Spread covers both seats' payoffs: seat 1 sees -5..3, seat 0 -3..5.
        assert game.utility_range == 8.0

    def test_infoset_enumeration_order_stable(self):
        a = [k for _, k, _ in enumerate_infosets(build_kuhn())]
        b = [k for _, k, _ in enumerate_infosets(build_kuhn())]
        assert a == b

    def test_uniform_profile_shape(self):
        game = build_kuhn()
        profile = uniform_profile(game)
        assert len(profile) == 12
        for key, probs in profile.items():
            assert len(probs) == len(game.action_labels[key])
            assert all(p == probs[0] for p in probs)


# ---------------------------------------------------------------------------
# The profile check: one row at a time and over the whole slot vector

ROW_GAMES = {
    n: make_game(
        "row", decision(0, "p0:x", "abcd"[:n], [terminal(float(a)) for a in range(n)])
    )
    for n in range(1, 5)
}
EDGES = (1.0 - 1e-6, 1.0, 1.0 + 1e-6)


@st.composite
def rows_near_the_edges(draw):
    """Rows scaled to within a few ulps of a tolerance edge, some with one
    entry replaced by a negative, signed zero, NaN or infinity."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    edge = draw(st.sampled_from(EDGES))
    target = edge + draw(st.integers(-4, 4)) * math.ulp(edge)
    total = math.fsum(weights)
    row = [w / total * target for w in weights] if total > 0.0 else weights
    spoil = draw(st.sampled_from([None, -1e-300, -0.0, math.nan, math.inf]))
    if spoil is not None:
        row[draw(st.integers(0, len(row) - 1))] = spoil
    return tuple(row)


def rejection(check, *args):
    try:
        check(*args)
    except ValueError as error:
        return str(error)
    return None


@given(rows_near_the_edges())
# From 0.0 in order this sums to 1 + 1e-6, which passes; its exact sum, which
# the builtin ``sum`` gives on Python 3.12+, is one ulp above and fails.
@example((1.0 + 1e-6, 1.1e-16, 1.1e-16))
@example((0.5, 0.5 - 1e-6))
@example((0.5, 0.5 - 1.1e-6))
def test_row_check_agrees_with_the_vector_check(row):
    game = ROW_GAMES[len(row)]
    by_row = rejection(check_row, "p0:x", row)
    assert rejection(checked_policy, game, ({"p0:x": row}, None)) == by_row


def test_in_order_sum_decides_at_the_edge():
    check_row("p0:x", (1.0 + 1e-6, 1.1e-16, 1.1e-16))
    with pytest.raises(ValueError, match="'p0:x' sum to 1.0000010000000001"):
        check_row("p0:x", (1.0 + 1e-6, 2.3e-16))


def test_checked_policy_skips_a_seat_without_a_profile(kuhn_game):
    seat1 = {key: (0.3, 0.7) for p, key, _ in enumerate_infosets(kuhn_game) if p == 1}
    policy = checked_policy(kuhn_game, (None, seat1))
    seats = kuhn_game.layout.seat[kuhn_game.layout.owner]
    assert policy[seats == 0].tolist() == [0.0] * 12
    assert policy[seats == 1].tolist() == [0.3, 0.7] * 6


def first_fault(game, profile):
    try:
        checked_policy(game, (profile, profile))
    except (KeyError, TypeError, ValueError) as error:
        return type(error).__name__, str(error)
    return None


def test_checked_policy_words_the_first_fault_in_table_order(leduc_game):
    # Both seats read one profile, so a profile with every key is read in
    # one map; each fault must still be the first in table order.
    keys = [key for _, key, _ in leduc_game.layout.infosets]
    early, late = keys[5], keys[200]
    short = f"profile entry for '{early}' has 1 probabilities for 2 actions"

    keep = object()

    def spoiled(early_row=keep, late_row=keep):
        profile = uniform_profile(leduc_game)
        for key, row in ((early, early_row), (late, late_row)):
            if row == "missing":
                del profile[key]
            elif row is not keep:
                profile[key] = row
        return profile

    assert first_fault(leduc_game, spoiled((1.0,), "missing")) == (
        "ValueError", short,
    )
    assert first_fault(leduc_game, spoiled("missing", (1.0,))) == (
        "KeyError", repr(f"profile missing infoset '{early}'"),
    )
    assert first_fault(leduc_game, spoiled((1.0,), 0.5)) == (
        "ValueError", short,
    )
    for row in (0.5, None):
        assert first_fault(leduc_game, spoiled(row, (1.0,))) == (
            "ValueError",
            f"profile entry for '{early}' is {row!r}, not a row of 2 probabilities",
        )
    assert first_fault(leduc_game, spoiled((1.0,), None)) == ("ValueError", short)
    assert first_fault(leduc_game, spoiled(late_row=(0.5, 0.6))) == (
        "ValueError",
        f"probabilities (0.5, 0.6) for infoset '{late}' sum to 1.1000000000000001; "
        "each must be finite and >= 0, summing to 1",
    )
    # A key the game lacks in place of one it has keeps the profile's size,
    # and is named before any row is read.
    row = uniform_profile(leduc_game)[late]
    for early_row in (keep, (1.0,)):
        swapped = spoiled(early_row, "missing")
        swapped["p0:nosuch"] = (0.5, 0.5)
        assert first_fault(leduc_game, swapped) == (
            "ValueError", "infoset 'p0:nosuch' does not exist in game 'leduc'",
        )
        # A mapping that adds the keys it lacks as they are read, with rows
        # of the right size, must not hide the key the game lacks.
        assert first_fault(leduc_game, defaultdict(lambda: row, swapped)) == (
            "ValueError", "infoset 'p0:nosuch' does not exist in game 'leduc'",
        )
    assert first_fault(leduc_game, uniform_profile(leduc_game)) is None


@pytest.mark.parametrize("entry", [None, "a", [0.5], 0.5 + 0j, 10**400])
def test_unreadable_entries_name_the_first_row_read(leduc_game, entry):
    """An entry ``float`` cannot read is a ValueError naming the first
    infoset, in table order, whose row the seating reads: both seats from
    one profile, one seat from it and the other from None or a clean
    profile. A row that is not a distribution before it is named first."""
    infosets = leduc_game.layout.infosets
    victims = [
        key for seat in (0, 1)
        for key in [key for player, key, _ in infosets if player == seat][7:300:150]
    ]
    spoiled, clean = uniform_profile(leduc_game), uniform_profile(leduc_game)
    for key in victims:
        spoiled[key] = (entry, *spoiled[key][1:])
    seatings = [
        (spoiled, spoiled), (spoiled, None), (None, spoiled),
        (spoiled, clean), (clean, spoiled),
    ]
    for seating in seatings:
        first = next(
            key for player, key, _ in infosets
            if seating[player] is spoiled and key in victims
        )
        message = f"infoset '{first}' are not all numbers"
        with pytest.raises(ValueError, match=re.escape(message)):
            checked_policy(leduc_game, seating)
    earlier = next(key for _, key, _ in infosets if key not in victims)
    short = {**spoiled, earlier: (0.25,) * len(spoiled[earlier])}
    with pytest.raises(ValueError, match=re.escape(f"infoset '{earlier}' sum to")):
        checked_policy(leduc_game, (short, short))
    assert checked_policy(leduc_game, (clean, None)).any()


def repeated_deal_game(shared):
    """A chance root over three deals whose first and last lead to the same
    decision subtree: one object twice when ``shared``, else two copies."""

    def subtree():
        return decision(0, "p0:x", ("a", "b"), [
            chance((0.25, 0.75), [
                terminal(1.0),
                decision(1, "p1:y", ("l", "r"), [terminal(-2.0), terminal(3.0)]),
            ]),
            decision(1, "p1:z", ("l", "r"), [terminal(0.5), terminal(-1.5)]),
        ])

    first = subtree()
    middle = decision(1, "p1:w", ("l", "r"), [terminal(2.0), terminal(-1.0)])
    last = first if shared else subtree()
    return make_game("deals", chance((0.5, 0.25, 0.25), [first, middle, last]))


def random_rows(game, seed):
    rng = random.Random(seed)
    profile = {}
    for _, key, n in enumerate_infosets(game):
        weights = [rng.random() + 0.01 for _ in range(n)]
        total = sum(weights)
        profile[key] = tuple(w / total for w in weights)
    return profile


def played(game):
    """Root value, regrets and strategy sums of one CFR pass, repr for repr."""
    sums = np.linspace(0.5, 2.0, game.layout.offset[-1])
    value, deltas = cfr_pass(game, regret_policy(game, np.arange(len(sums))), sums)
    return repr((value, deltas.tolist(), sums.tolist()))


def test_shared_subtrees_change_nothing():
    shared, copied = repeated_deal_game(True), repeated_deal_game(False)
    assert shared.root.children[0] is shared.root.children[2]
    assert copied.root.children[0] is not copied.root.children[2]
    assert len(shared.layout.utility) < len(copied.layout.utility)
    assert position_parts(shared.layout) == position_parts(copied.layout)
    assert shared.action_labels == copied.action_labels
    assert shared.utility_range == copied.utility_range
    a, b = random_rows(shared, 1), random_rows(shared, 2)
    for evaluate in (
        played,
        lambda game: expected_value(game, a),
        lambda game: exploitability(game, a),
        lambda game: exact_ev(game, a, b),
        lambda game: sampled_match(game, a, b, hands=501, seed=3),
        lambda game: sampled_match(game, a, b, hands=501, seed=3, duplicate=True),
    ):
        assert evaluate(shared) == evaluate(copied)
