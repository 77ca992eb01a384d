"""Best response, exploitability, and head-to-head match evaluation.

Exploitability here is the SUM of both seats' best-response values (zero
exactly at an equilibrium); halve it to compare against per-player-average
conventions. Matches report chips per hand from the first profile's view.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._validation import check_positive_int, ordered_sum
from .efg_core import GameSpec, checked_policy, node_values, sequence_reach


@dataclass(frozen=True)
class BestResponseResult:
    """Best achievable value for one seat against a fixed opponent."""

    value: float
    response: dict[str, tuple[float, ...]]
    responder: int


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a sampled head-to-head match."""

    hands: int
    mean: float
    stderr: float
    seed: int
    duplicate: bool


def _respond(layout, policy, responder: int):
    """``best_response``'s sweep against slot vector ``policy``: the root
    value, each infoset's pick, and the opponent-and-chance reach of each
    of the responder's decision edges, in plan order."""
    plan = layout.plans[responder]
    weight = sequence_reach(layout, policy)[plan.opponent] * plan.chance
    if responder == 0:
        value = layout.utility.copy()
    else:  # +0.0, not -0.0, at the nodes whose values are sums
        value = np.zeros(len(layout.utility))
        np.negative(layout.utility, out=value, where=layout.terminal)
    probs = np.concatenate((policy, layout.tail))[plan.sum_src]
    score = np.zeros(layout.offset[-1] + 1)
    score[-1] = -np.inf  # the padding slot of a shorter infoset's row
    choice = np.zeros(len(layout.infosets), dtype=np.intp)
    seen = 0  # the decision edges of the buckets so far
    for choices, levels in plan.buckets:
        if choices is not None:
            _, child, slot, pad, ids, heads, first, head_infoset = choices
            np.add.at(score, slot, weight[seen : seen + len(slot)] * value[child])
            seen += len(slot)
            choice[ids] = score[pad].argmax(axis=1)
            value[heads] = value[child[first + choice[head_infoset]]]
        for parent, child, lo, hi in levels:
            np.add.at(value, parent, probs[lo:hi] * value[child])
    return float(value[0]), choice, weight


def best_response(
    game: GameSpec, opponent_profile, responder: int
) -> BestResponseResult:
    """Exact best response for ``responder`` against ``opponent_profile``.

    Dynamic programming over the tree: at each responder infoset pick the
    action maximizing the opponent-and-chance-reach-weighted sum of child
    values (ties to the lowest action index). Only the opponent's infosets
    are read from the profile. Responder infosets the opponent's play makes
    unreachable get a uniform row in the returned response; any choice there
    is value-neutral.

    Each decision edge's weight is the reach of the opponent's sequence at
    its parent times the chance reach there (``efg_core.sequence_reach``).
    Nodes are valued in buckets by the responder's move depth, deepest first
    (see ``efg_core.Plan``). Under perfect recall an infoset's nodes
    share that depth, so when a bucket starts, all their children are
    valued: each infoset's action scores are summed over its nodes in
    preorder, ``argmax`` picks the first best action, and the nodes take
    that child's value. The bucket's opponent and chance nodes follow,
    deepest first, each adding its weighted child values to 0.0.
    """
    if responder not in (0, 1):
        raise ValueError("responder must be 0 or 1")
    seats = (None, opponent_profile) if responder == 0 else (opponent_profile, None)
    layout = game.layout
    plan = layout.plans[responder]
    value, choice, weight = _respond(layout, checked_policy(game, seats), responder)
    reach = np.zeros(len(layout.infosets))
    np.add.at(reach, layout.owner[plan.slot], weight)
    picks, reached = choice.tolist(), (reach > 0.0).tolist()
    # Rows by action count: the pure row of each action, then uniform.
    rows: dict[int, list[tuple[float, ...]]] = {}
    response: dict[str, tuple[float, ...]] = {}
    for key, k, n in plan.rows:
        if n not in rows:
            rows[n] = [tuple(float(a == b) for a in range(n)) for b in range(n)]
            rows[n].append((1.0 / n,) * n)
        response[key] = rows[n][picks[k] if reached[k] else n]
    return BestResponseResult(value=value, response=response, responder=responder)


def policy_exploitability(game: GameSpec, policy) -> float:
    """``exploitability`` of a slot vector whose rows are distributions."""
    return _respond(game.layout, policy, 0)[0] + _respond(game.layout, policy, 1)[0]


def exploitability(game: GameSpec, profile) -> float:
    """Sum of both seats' best-response values; 0 exactly at an equilibrium."""
    return policy_exploitability(game, checked_policy(game, (profile, profile)))


def merge_profiles(game: GameSpec, seat0_profile, seat1_profile):
    """Full profile taking seat-0 rows from one source, seat-1 from another;
    each source is checked on the rows it gives."""
    seats = (seat0_profile, seat1_profile)
    checked_policy(game, seats)
    return {key: seats[player][key] for player, key, _ in game.layout.infosets}


def exact_ev(game: GameSpec, profile_a, profile_b) -> float:
    """Chips per hand for profile_a, averaged over seat assignments.

    Exactly antisymmetric (exact_ev(a, b) == -exact_ev(b, a)) and exactly
    zero when both arguments are the same profile. Each profile is checked
    once, and a slot mask seats their rows both ways round.
    """
    layout = game.layout
    policy_a = checked_policy(game, (profile_a, profile_a))
    policy_b = checked_policy(game, (profile_b, profile_b))
    seat0 = layout.seat[layout.owner] == 0
    a_seated_first = node_values(layout, np.where(seat0, policy_a, policy_b))[0]
    b_seated_first = node_values(layout, np.where(seat0, policy_b, policy_a))[0]
    return 0.5 * (float(a_seated_first) - float(b_seated_first))


def cut_table(row) -> tuple[float, ...]:
    """The running totals of ``row``, added one at a time from 0.0, without
    the last. ``bisect_right(cut_table(row), mark)`` is the first index
    whose running total exceeds ``mark``, or the last index if none does,
    as when the row sums to less than 1 and the mark lies past its total."""
    return tuple(accumulate(row, initial=0.0))[1:-1]


def _play_hand(root, cuts, chance_cuts, next_mark, script, replay: bool) -> float:
    """One sampled hand down the tree from ``root``; returns seat 0's payoff.

    Each draw bisects a cut table with a mark from ``next_mark()``: at a
    decision node the table ``cuts[key]`` of its infoset ``key``, at a
    chance node the table of its probabilities from ``chance_cuts``. That
    cache, filled on first use, maps each chance node to its table and each
    probability tuple to the one table that all nodes with it share.

    Chance outcomes are recorded in ``script``, by event order, with the
    table that drew them. A replaying hand takes a recorded outcome only at
    a node whose table is that same object, so whose distribution is the
    one the outcome was drawn from; elsewhere, and past the script's end,
    it draws afresh and records nothing.
    """
    node, event = root, 0
    while children := node.children:
        # make_game gives every decision node a str key, so None is chance.
        if node.infoset is None:
            table = chance_cuts.get(node)
            if table is None:
                probs = node.chance_probs
                table = chance_cuts.setdefault(probs, cut_table(probs))
                chance_cuts[node] = table
            if replay and event < len(script) and script[event][0] is table:
                index = script[event][1]
            else:
                index = bisect_right(table, next_mark())
                if not replay:
                    script.append((table, index))
            event += 1
        else:
            index = bisect_right(cuts[node.infoset], next_mark())
        node = children[index]
    return node.utilities[0]


def sampled_match(
    game: GameSpec,
    profile_a,
    profile_b,
    hands: int,
    seed: int = 0,
    duplicate: bool = False,
) -> MatchResult:
    """Seeded head-to-head match; mean is profile_a's chips per hand.

    Plain mode alternates profile_a's seat each hand. Duplicate mode plays
    hands in pairs with the seats swapped for the second hand; scoring
    averages each pair, which cancels most deal luck. Odd hand counts round
    down to full pairs, and at least one pair is played: ``hands=1`` plays
    two hands.

    Every draw takes a mark from ``random.Random(seed)`` and picks the first
    index whose running total of the row exceeds it, or the last index if
    none does; it bisects the row's ``cut_table``. Both seatings' tables
    are built once per call, and each chance node's on first use.

    The second hand of a pair resamples every action and replays the first
    hand's chance outcomes by event order, but only at a chance node with
    the same probabilities as the one that drew the outcome. Elsewhere it
    draws afresh, so each outcome follows its node's distribution and the
    pair's score is an unbiased estimate.
    """
    hands = check_positive_int(hands, "hands")
    for profile in (profile_a, profile_b):
        checked_policy(game, (profile, profile))
    a_first, b_first = (
        {key: cut_table(seats[player][key]) for player, key, _ in game.layout.infosets}
        for seats in ((profile_a, profile_b), (profile_b, profile_a))
    )
    root, chance_cuts, next_mark = game.root, {}, random.Random(seed).random
    values: list[float] = []
    if duplicate:
        pairs = max(1, hands // 2)
        for _ in range(pairs):
            script: list = []
            first = _play_hand(root, a_first, chance_cuts, next_mark, script, False)
            second = _play_hand(root, b_first, chance_cuts, next_mark, script, True)
            values.append(0.5 * (first - second))
        played = 2 * pairs
    else:
        for hand in range(hands):
            if hand % 2 == 0:
                value = _play_hand(root, a_first, chance_cuts, next_mark, [], False)
            else:
                value = -_play_hand(root, b_first, chance_cuts, next_mark, [], False)
            values.append(value)
        played = hands
    mean = ordered_sum(values) / len(values)
    if len(values) >= 2:
        stderr = statistics.stdev(values) / math.sqrt(len(values))
    else:
        stderr = 0.0
    return MatchResult(
        hands=played, mean=mean, stderr=stderr, seed=seed, duplicate=duplicate
    )
