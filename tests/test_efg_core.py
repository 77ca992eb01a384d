"""Tree walking core: expected value, reach probabilities, validation."""

import itertools
import math

import pytest

from fregret.games import (
    CHANCE,
    DECISION,
    TERMINAL,
    GameNode,
    build_kuhn,
    build_leduc,
    chance,
    decision,
    enumerate_infosets,
    expected_value,
    make_game,
    terminal,
    uniform_profile,
)

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
