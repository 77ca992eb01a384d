"""Kuhn poker and Leduc Hold'em from one betting model.

Rules shared by both games: each seat antes 1 chip, seat 0 acts first in
every round, and a round allows at most ``cap`` wagers (a bet and cap - 1
raises) of that round's fixed size. Kuhn deals J/Q/K of one suit and plays
one round of 1-chip wagers capped at one. Leduc deals J/Q/K in two suits and
plays two rounds of 2- and 4-chip wagers capped at two, with one public board
card dealt before round 2. At showdown a private rank pairing the board wins,
otherwise the higher private rank wins, and equal ranks split the pot.

Infoset keys follow ``p{seat}:{rank}:{board|-}:{actions}``, where actions
holds one betting string per round of the game, joined by ``/``, over the
characters f/c/r (fold, check/call, bet/raise). Suits are dealt (they shape
the deck) but never appear in keys, since showdown ignores them.
``parse_key`` replays a key through the same betting rules the builder
uses, so it accepts exactly the keys of the game's decision nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..efg_core import GameNode, GameSpec, chance, decision, make_game, terminal

RANK_CHARS = "JQK"
ACTION_CHARS = "fcr"
ANTE = 1.0


@dataclass(frozen=True)
class PokerRules:
    """Deck of (rank, suit) cards, wager size per round, wagers per round."""

    game_id: str
    deck: tuple[tuple[int, int], ...]
    bet_sizes: tuple[float, ...]
    cap: int


def _deck(suits: int) -> tuple[tuple[int, int], ...]:
    return tuple((rank, suit) for rank in range(3) for suit in range(suits))


KUHN = PokerRules("kuhn", _deck(1), (1.0,), 1)
LEDUC = PokerRules("leduc", _deck(2), (2.0, 4.0), 2)
RULES = {rules.game_id: rules for rules in (KUHN, LEDUC)}


def rules_for(game_id: str) -> PokerRules:
    """Rules of a bundled poker game; ValueError for any other id."""
    try:
        return RULES[game_id]
    except KeyError:
        raise ValueError(f"unknown game '{game_id}'") from None


def legal_actions(seq: str, cap: int):
    """Legal actions at this point of one betting round, or None once the
    round is over (a fold, a call, or a check-around)."""
    if seq in ("", "c"):
        return ("c", "r")
    if seq.endswith(("f", "c")):
        return None
    return ("f", "c") if seq.count("r") >= cap else ("f", "c", "r")


def _paid_after(paid, seat: int, action: str, size: float) -> tuple[float, float]:
    """Each seat's stake after ``seat`` plays ``action`` in a round of
    ``size`` wagers: a call matches the opponent, a bet or raise tops it."""
    if action == "f":
        return paid
    stake = paid[1 - seat] + size if action == "r" else paid[1 - seat]
    return (stake, paid[1]) if seat == 0 else (paid[0], stake)


def infoset_key(rules: PokerRules, seat: int, rank: int, board, rounds) -> str:
    """Key of ``seat`` holding ``rank`` with ``board`` (a rank or None)."""
    unplayed = "/" * (len(rules.bet_sizes) - len(rounds))
    board_char = "-" if board is None else RANK_CHARS[board]
    return f"p{seat}:{RANK_CHARS[rank]}:{board_char}:{'/'.join(rounds)}{unplayed}"


def _malformed(key: str, why: str) -> ValueError:
    return ValueError(f"malformed infoset key '{key}': {why}")


def parse_key(rules: PokerRules, key: str):
    """Replay a key through the builder's betting rules to its decision
    point: (seat to act, rank char, board char or ``-``, open round, each
    seat's stake with antes, raises this round, the opponent's latest action
    or None, legal actions). A key that no decision node of the game has
    raises ValueError."""
    fields = key.split(":")
    if len(fields) != 4:
        raise ValueError(f"malformed infoset key '{key}'")
    seat, rank, board, actions = fields
    rounds = actions.split("/")
    if seat not in ("p0", "p1"):
        raise _malformed(key, "bad seat")
    if len(rank) != 1 or rank not in RANK_CHARS:
        raise _malformed(key, "bad rank")
    if board != "-" and (len(board) != 1 or board not in RANK_CHARS):
        raise _malformed(key, "bad board")
    if len(rounds) != len(rules.bet_sizes):
        raise _malformed(key, f"expected {len(rules.bet_sizes)} betting round field(s)")
    if board != "-" and len(rounds) == 1:
        raise _malformed(key, f"{rules.game_id} has no board")
    player, current = int(seat[1]), 0 if board == "-" else 1
    if any(rounds[current + 1 :]):
        raise _malformed(key, f"betting after round {current + 1}")
    paid, last_opponent = (ANTE, ANTE), None
    for number, seq in enumerate(rounds[: current + 1]):
        for position, action in enumerate(seq):
            if action not in (legal_actions(seq[:position], rules.cap) or ()):
                raise _malformed(key, f"illegal '{action}' in round {number + 1}")
            paid = _paid_after(paid, position % 2, action, rules.bet_sizes[number])
            if position % 2 != player:
                last_opponent = action
        if number < current and (seq.endswith("f") or legal_actions(seq, rules.cap)):
            raise _malformed(key, f"round {number + 1} does not reach the board")
    offered = legal_actions(rounds[current], rules.cap)
    if offered is None or len(rounds[current]) % 2 != player:
        raise _malformed(key, f"{seat} is not to act")
    raises = rounds[current].count("r")
    return player, rank, board, current, paid, raises, last_opponent, offered


def _showdown_sign(rank0: int, rank1: int, board) -> float:
    if rank0 == board:
        return 1.0
    if rank1 == board:
        return -1.0
    if rank0 == rank1:
        return 0.0
    return 1.0 if rank0 > rank1 else -1.0


def _node(rules: PokerRules, ranks, rest, board, rounds, paid, terminals) -> GameNode:
    """Subtree after ``rounds`` (betting strings so far, last one open) with
    private ``ranks``, the ranks ``rest`` still to deal in deck order, and
    ``paid`` each seat's stake. ``terminals`` holds one node per payoff."""
    seq = rounds[-1]
    if seq.endswith("f"):
        folder = (len(seq) - 1) % 2
        u0 = -paid[0] if folder == 0 else paid[1]
    elif (actions := legal_actions(seq, rules.cap)) is None:
        if len(rounds) < len(rules.bet_sizes):
            # Boards of one rank lead to the same subtree.
            boards = {
                rank: _node(rules, ranks, rest, rank, rounds + ("",), paid, terminals)
                for rank in dict.fromkeys(rest)
            }
            return chance([1.0 / len(rest)] * len(rest), [boards[r] for r in rest])
        # Stakes are equal for both seats at showdown.
        u0 = _showdown_sign(ranks[0], ranks[1], board) * paid[0]
    else:
        seat = len(seq) % 2
        size = rules.bet_sizes[len(rounds) - 1]
        key = infoset_key(rules, seat, ranks[seat], board, rounds)
        children = [
            _node(
                rules, ranks, rest, board, (*rounds[:-1], seq + a),
                _paid_after(paid, seat, a, size), terminals,
            )
            for a in actions
        ]
        return decision(seat, key, actions, children)
    if u0 not in terminals:
        terminals[u0] = terminal(u0)
    return terminals[u0]


def build_poker(rules: PokerRules) -> GameSpec:
    """Build the full tree: a chance node over ordered private deals, with
    one shared subtree per deal signature (both private ranks and the ranks
    still to deal), so Leduc's 30 deals share 9 subtrees."""
    deals = [(c0, c1) for c0 in rules.deck for c1 in rules.deck if c0 != c1]
    signatures = [
        ((c0[0], c1[0]), tuple(c[0] for c in rules.deck if c not in (c0, c1)))
        for c0, c1 in deals
    ]
    terminals: dict[float, GameNode] = {}
    subtrees = {
        sig: _node(rules, *sig, None, ("",), (ANTE, ANTE), terminals)
        for sig in dict.fromkeys(signatures)
    }
    root = chance([1.0 / len(deals)] * len(deals), [subtrees[s] for s in signatures])
    return make_game(rules.game_id, root)


def build_kuhn() -> GameSpec:
    """Build the full Kuhn poker tree (6 deals, 12 infosets)."""
    return build_poker(KUHN)


def build_leduc() -> GameSpec:
    """Build the full Leduc Hold'em tree (30 private deals at the root, each
    with 4 possible board cards, so 120 card runs; 288 infosets)."""
    return build_poker(LEDUC)
