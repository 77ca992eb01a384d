"""Game construction: structure, payoffs, and rule invariants."""

import hashlib
import math
import re

import pytest

import fregret
import fregret.games
from fregret.estimator import featurize
from fregret.games import (
    CHANCE,
    DECISION,
    TERMINAL,
    build_kuhn,
    build_leduc,
    build_matrix,
    enumerate_infosets,
    make_game,
)

# sha256 of ``tree_dump`` and ``feature_dump`` over Kuhn then Leduc. The
# tree digest was recorded from the separate Kuhn and Leduc builders that the
# shared betting model replaced; the feature digest from the same featurizer
# once the extended tabular schema was dropped. Any change to tree shape,
# node order, keys, probabilities, payoffs or feature values changes them.
TREE_DIGEST = "acaa50893e4355ee63db57e9914a0ce6039341375288bbe6520526af9ded637f"
FEATURE_DIGEST = "19cd6df38753f871437ef60c0603e63dcfb38f7167010c9ec435c5dc18e4c5f3"

ROUND_GRAMMAR = re.compile(r"^(c(c|r(f|c|r(f|c)))|r(f|c|r(f|c)))$")


def walk_terminals(node, path=()):
    """Yield (action-label path, terminal node) over a game tree."""
    if node.kind == TERMINAL:
        yield path, node
        return
    if node.kind == CHANCE:
        for idx, child in enumerate(node.children):
            yield from walk_terminals(child, path + ((CHANCE, idx),))
        return
    for label, child in zip(node.actions, node.children):
        yield from walk_terminals(child, path + (label,))


def follow(node, *steps):
    """Descend a tree by chance indices (int) and action labels (str)."""
    for step in steps:
        if isinstance(step, int):
            node = node.children[step]
        else:
            node = node.children[node.actions.index(step)]
    return node


def tree_dump(game) -> str:
    """Preorder lines: kind, player, infoset, actions, chance probs, payoffs."""
    lines = []
    stack = [game.root]
    while stack:
        node = stack.pop()
        lines.append(
            f"{node.kind}|{node.player}|{node.infoset}|{','.join(node.actions)}|"
            f"{node.chance_probs!r}|{node.utilities!r}"
        )
        stack.extend(reversed(node.children))
    return "\n".join(lines)


def feature_dump(game) -> str:
    """The features of every infoset-action, keys sorted."""
    lines = []
    for key in sorted(game.action_labels):
        for a in game.action_labels[key]:
            lines.append(f"{key}|{a}|{featurize(game.game_id, key, a)!r}")
    return "\n".join(lines)


def digest(dump, games) -> str:
    return hashlib.sha256("\n".join(dump(g) for g in games).encode()).hexdigest()


class TestGolden:
    def test_trees_match_recorded_digest(self, kuhn_game, leduc_game):
        assert digest(tree_dump, (kuhn_game, leduc_game)) == TREE_DIGEST

    def test_features_match_recorded_digest(self, kuhn_game, leduc_game):
        assert digest(feature_dump, (kuhn_game, leduc_game)) == FEATURE_DIGEST


def test_exported_names_resolve():
    for module in (fregret, fregret.games):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing: {missing}"


class TestKuhn:
    def test_infoset_count(self):
        game = build_kuhn()
        infos = enumerate_infosets(game)
        assert len(infos) == 12
        assert sum(1 for p, _, _ in infos if p == 0) == 6

    def test_deal_count_and_probs(self):
        root = build_kuhn().root
        assert root.kind == CHANCE
        assert len(root.children) == 6
        assert all(abs(p - 1 / 6) < 1e-15 for p in root.chance_probs)

    def test_trace_bet_call_lower_card_loses_two(self):
        # Deals are ordered (J,Q),(J,K),(Q,J),(Q,K),(K,J),(K,Q); seat 0
        # holding J against Q is deal 0. Bet then call reaches showdown for 2.
        game = build_kuhn()
        node = follow(game.root, 0, "r", "c")
        assert node.kind == TERMINAL
        assert node.utilities == (-2.0, 2.0)

    def test_trace_check_check_higher_card_wins_one(self):
        game = build_kuhn()
        node = follow(game.root, 5, "c", "c")  # deal 5 is (K, Q)
        assert node.kind == TERMINAL
        assert node.utilities == (1.0, -1.0)

    def test_trace_bet_fold_wins_ante(self):
        game = build_kuhn()
        node = follow(game.root, 0, "r", "f")
        assert node.utilities == (1.0, -1.0)

    def test_zero_sum_and_utility_range(self):
        game = build_kuhn()
        for _, leaf in walk_terminals(game.root):
            assert leaf.utilities[0] + leaf.utilities[1] == 0.0
        assert game.utility_range == 4.0

    def test_perfect_recall(self):
        # make_game rejects imperfect recall, so a clean build is the check.
        game = build_kuhn()
        assert make_game("kuhn", game.root).action_labels == game.action_labels


class TestLeduc:
    @pytest.fixture()
    def game(self, leduc_game):
        return leduc_game

    def test_infoset_counts(self, game):
        infos = enumerate_infosets(game)
        assert len(infos) == 288
        per_seat = [sum(1 for p, _, _ in infos if p == s) for s in (0, 1)]
        assert per_seat == [144, 144]
        pairs = [sum(n for p, _, n in infos if p == s) for s in (0, 1)]
        assert pairs == [336, 336]

    def test_deal_structure(self, game):
        root = game.root
        assert root.kind == CHANCE
        assert len(root.children) == 30
        assert all(abs(p - 1 / 30) < 1e-15 for p in root.chance_probs)
        # Board node after a checked-around first round has 4 outcomes, so
        # full deals number 30 * 4 = 120 at probability 1/120 each.
        board = follow(root, 0, "c", "c")
        assert board.kind == CHANCE
        assert len(board.children) == 4
        assert all(abs(p - 1 / 4) < 1e-15 for p in board.chance_probs)

    def test_trace_check_raise_call_then_check_check(self, game):
        # Seat 0 holds K, seat 1 holds J, board is Q. Round 1 goes c,r,c and
        # round 2 goes c,c, so each seat commits ante 1 + bet 2 and the K
        # wins 3 chips. Deal 20 of the rank-major ordering is Ks0 vs Js0;
        # its remaining cards are (J,s1),(Q,s0),(Q,s1),(K,s1), board index 1.
        deal_idx = 20
        deal_node = game.root.children[deal_idx]
        node = follow(deal_node, "c", "r", "c", 1, "c", "c")
        assert node.kind == TERMINAL
        assert node.utilities == (3.0, -3.0)

    def test_trace_bet_fold_wins_ante(self, game):
        node = follow(game.root, 0, "r", "f")
        assert node.kind == TERMINAL
        assert node.utilities == (1.0, -1.0)

    def test_board_pairing_beats_higher_rank(self, game):
        # Deal 0 is Js0 vs Js1; remaining deck (Q,s0),(Q,s1),(K,s0),(K,s1).
        # Equal ranks split regardless of board.
        node = follow(game.root, 0, "c", "c", 0, "c", "c")
        assert node.utilities == (0.0, 0.0)
        # Deal 1: Js0 vs Qs0; remaining deck (J,s1),(Q,s1),(K,s0),(K,s1), so
        # board index 0 is the other J: seat 0 pairs the board and wins.
        deal_idx = 1
        deal = game.root.children[deal_idx]
        node = follow(deal, "c", "c", 0, "c", "c")
        assert node.utilities == (1.0, -1.0)

    def test_pot_accounting_all_terminals(self, game):
        # At every terminal |u1| equals the loser's committed chips, recomputed
        # here from the betting strings alone; split pots are exactly zero.
        sizes = (2.0, 4.0)

        def contribs(seq, size):
            paid = [0.0, 0.0]
            actor = 0
            for ch in seq:
                if ch == "c":
                    paid[actor] = paid[1 - actor]
                elif ch == "r":
                    paid[actor] = paid[1 - actor] + size
                actor = 1 - actor
            return paid

        for path, leaf in walk_terminals(game.root):
            # Recover the round split: round 1 is the prefix present before
            # the second chance step on the path.
            seen_chance = 0
            r1 = []
            r2 = []
            for s in path:
                if not isinstance(s, str):
                    seen_chance += 1
                elif seen_chance <= 1:
                    r1.append(s)
                else:
                    r2.append(s)
            p1 = contribs("".join(r1), sizes[0])
            p2 = contribs("".join(r2), sizes[1])
            stakes = [1.0 + p1[i] + p2[i] for i in (0, 1)]
            u1 = leaf.utilities[0]
            if u1 > 0:
                assert u1 == stakes[1]
            elif u1 < 0:
                assert -u1 == stakes[0]
            else:
                assert stakes[0] == stakes[1]

    def test_round_strings_match_grammar(self, game):
        for path, _ in walk_terminals(game.root):
            seen_chance = 0
            rounds = ["", ""]
            for s in path:
                if not isinstance(s, str):
                    seen_chance += 1
                else:
                    rounds[min(seen_chance - 1, 1)] += s
            assert ROUND_GRAMMAR.match(rounds[0]), rounds
            if seen_chance == 2:
                # Round 2 exists only after a non-fold first round.
                assert ROUND_GRAMMAR.match(rounds[1]), rounds
                assert not rounds[0].endswith("f")

    def test_keys_are_suit_free_with_fixed_shape(self, game):
        for _, key, _ in enumerate_infosets(game):
            seat, rank, board, seq = key.split(":")
            assert seat in ("p0", "p1")
            assert rank in "JQK" and len(rank) == 1
            assert board in ("-", "J", "Q", "K")
            assert "/" in seq

    def test_utility_range(self, game):
        assert game.utility_range == 26.0

    def test_zero_sum(self, game):
        assert all(
            leaf.utilities[0] + leaf.utilities[1] == 0.0
            for _, leaf in walk_terminals(game.root)
        )

    def test_perfect_recall(self, game):
        assert make_game("leduc", game.root).action_labels == game.action_labels


class TestMatrixGames:
    def test_rps(self):
        game = build_matrix("rps")
        assert game.n_rows == game.n_cols == 3
        assert game.utility_range == 2.0
        assert {x for row in game.payoffs for x in row} == {-1.0, 0.0, 1.0}

    def test_biased_mp(self):
        game = build_matrix("biased_mp")
        assert game.payoffs == ((1.0, -1.0), (-1.0, 2.0))
        assert game.utility_range == 3.0

    def test_custom_single_entry(self):
        game = build_matrix(payoffs=[[0.0]])
        assert game.utility_range == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(payoffs=[])
        with pytest.raises(ValueError):
            build_matrix(payoffs=[[]])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_matrix("nope")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_payoff_rejected(self, bad):
        # Rejected at build time, not later as non-finite regrets in play.
        with pytest.raises(ValueError, match="non-finite payoff"):
            build_matrix(payoffs=[[bad, 1.0], [0.0, 1.0]])

    def test_payoff_helpers(self):
        game = build_matrix("rps")
        # Against pure rock, paper wins and scissors loses, for either seat.
        assert game.row_payoffs((1.0, 0.0, 0.0)) == [0.0, 1.0, -1.0]
        assert game.col_payoffs((1.0, 0.0, 0.0)) == [0.0, 1.0, -1.0]
