"""Best response, exploitability, and head-to-head match evaluation.

Exploitability here is the SUM of both seats' best-response values (zero
exactly at an equilibrium); halve it to compare against per-player-average
conventions. Matches report chips per hand from the first profile's view.

Best response, exploitability and exact EV read the sequence form (see
``efg_core``): best response backs the pair table's values up by sequence,
each infoset taking its best action, and exact EV is one sum over the pairs
per seating. Sampled play moves a block of hands at a time down the edge
list, every live hand one edge per round of numpy operations, over tables
of both seatings that the layout builds once per game. Live hands are kept
by index, and each hand's payoff is read once, after its block, from the
node it stopped at. Each draw is a guide-table lookup, then at most
``steps`` exact comparisons, ``bisect_right`` bit for bit. The marks are
``Generator(PCG64(|seed|)).random``: the top 53 bits of each raw draw times
2**-53 (see ``sampled_match``).

Each evaluator that takes profiles checks them with
``efg_core.checked_policy``; its ``policy_`` twin (``policy_exploitability``,
``policy_exact_ev``, ``policy_sampled_match``) takes slot vectors already
checked, as the command line has them after reading a file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_positive_int, is_integer
from .efg_core import GameSpec, checked_policy, sequence_reach

# Hand pairs per block of sampled play, and guide buckets per node: a
# power of two, so ``x * GUIDE`` is exact.
BLOCK = 2048
GUIDE = 16


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


def _respond(layout, values) -> np.ndarray:
    """Back best-response ``values``, one per sequence, up the sequences
    in place: over ``sequences``, deepest level first, each infoset adds
    its largest slot value into its parent sequence, with ``np.add.at``,
    in infoset order. Seat ``i``'s value ends at its empty sequence,
    ``offset[-1] + i``."""
    for slots, parents, starts in reversed(layout.sequences):
        best = np.maximum.reduceat(values[slots], starts)
        np.add.at(values, parents[starts], best)
    return values


@functools.lru_cache(maxsize=None)
def _rows(n: int) -> tuple[tuple[float, ...], ...]:
    """The pure row of each of ``n`` actions, then the uniform row."""
    pure = tuple(tuple(float(a == b) for a in range(n)) for b in range(n))
    return (*pure, (1.0 / n,) * n)


def best_response(
    game: GameSpec, opponent_profile, responder: int
) -> BestResponseResult:
    """Exact best response for ``responder`` against ``opponent_profile``.

    At each responder infoset pick the action whose opponent-and-chance
    reach-weighted value is largest (ties to the lowest action index).
    Only the opponent's infosets are read from the profile. Responder
    infosets the opponent's play makes unreachable get a uniform row in the
    returned response; any choice there is value-neutral.

    The values come from two backups (``_respond``) over the sequence
    form. In the first, a responder sequence's terminal value sums the pair
    table's payoffs that hold it, each times the opponent's sequence reach,
    by ``bincount`` in pair order from 0.0; the second backs up the pairs'
    chance reaches the same way. An infoset is reachable when the second
    gives one of its slots a positive value. Each infoset's largest value
    and its first slot come from ``reduceat`` over the infosets.
    """
    if not (is_integer(responder) and responder in (0, 1)):
        raise ValueError(f"responder must be 0 or 1, got {responder!r}")
    responder = int(responder)
    seats = (None, opponent_profile) if responder == 0 else (opponent_profile, None)
    layout = game.layout
    reach = sequence_reach(layout, checked_policy(game, seats))
    own, other = layout.pairs[responder], reach[layout.pairs[1 - responder]]
    values, mass = (
        _respond(layout, np.bincount(own, w * other, minlength=len(reach)))
        for w in (layout.payoff[responder], layout.chance)
    )
    slots, starts = layout.offset[-1], np.array(layout.offset[:-1])
    best = np.maximum.reduceat(values[:slots], starts)
    hits = np.where(values[:slots] == best[layout.owner], np.arange(slots), slots)
    pick = np.minimum.reduceat(hits, starts) - starts
    reached = np.maximum.reduceat(mass[:slots], starts) > 0.0
    response = {
        key: _rows(n)[a if hit else n]
        for (player, key, n), a, hit in zip(
            layout.infosets, pick.tolist(), reached.tolist()
        )
        if player == responder
    }
    value = float(values[slots + responder])
    return BestResponseResult(value=value, response=response, responder=responder)


def policy_exploitability(game: GameSpec, policy) -> float:
    """``exploitability`` of a slot vector whose rows are distributions."""
    layout = game.layout
    reach, pairs = sequence_reach(layout, policy), layout.pairs
    terms = layout.payoff * reach[pairs[::-1]]
    values = _respond(
        layout, np.bincount(pairs.ravel(), terms.ravel(), minlength=len(reach))
    )
    return float(values[-2]) + float(values[-1])


def exploitability(game: GameSpec, profile) -> float:
    """Sum of both seats' best-response values; 0 exactly at an equilibrium."""
    return policy_exploitability(game, checked_policy(game, (profile, profile)))


def merge_profiles(game: GameSpec, seat0_profile, seat1_profile):
    """Full profile taking seat-0 rows from one source, seat-1 from another;
    each source is checked on the rows it gives."""
    seats = (seat0_profile, seat1_profile)
    checked_policy(game, seats)
    return {key: seats[player][key] for player, key, _ in game.layout.infosets}


def policy_exact_ev(game: GameSpec, policy_a, policy_b) -> float:
    """``exact_ev`` of two slot vectors whose rows are distributions."""
    layout = game.layout
    reach_a, reach_b = (sequence_reach(layout, p) for p in (policy_a, policy_b))
    payoff, (seat0, seat1) = layout.payoff[0], layout.pairs
    a_seated_first = float(np.sum(payoff * reach_a[seat0] * reach_b[seat1]))
    b_seated_first = float(np.sum(payoff * reach_b[seat0] * reach_a[seat1]))
    return 0.5 * (a_seated_first - b_seated_first)


def exact_ev(game: GameSpec, profile_a, profile_b) -> float:
    """Chips per hand for profile_a, averaged over seat assignments.

    Exactly antisymmetric (exact_ev(a, b) == -exact_ev(b, a)) and exactly
    zero when both arguments are the same profile. Each profile is checked
    once into one sequence reach; each seating is one sum over the pairs.
    """
    policies = (checked_policy(game, (p, p)) for p in (profile_a, profile_b))
    return policy_exact_ev(game, *policies)


def _cuts(layout, policy: np.ndarray) -> np.ndarray:
    """Each edge's cut under slot vector ``policy``, by its place in the
    layout's edge list.

    An edge's cut is the running total of its node's row of the weight
    table up to it, added a column at a time from 0.0, so it is what adding
    the row's entries one at a time from 0.0 gives; the chance rows' totals
    are the layout's ``tail_totals``. Each node's last edge gets +inf
    instead, so a draw that passes every earlier cut stops there.
    """
    totals = 0.0 + policy
    for at in layout.columns:
        totals[at] = totals[at - 1] + policy[at]
    cuts = np.concatenate((totals, layout.tail_totals)).take(layout.source)
    cuts[layout.last[~layout.terminal]] = np.inf
    return cuts


def _guide(cuts: np.ndarray, parent, first, last) -> tuple[np.ndarray, int]:
    """Every node's guide entries, bucket-major and flat, and ``steps``:
    entry ``b * nodes + n`` is node ``n``'s first edge position whose cut
    exceeds ``b / GUIDE``, and ``steps``, the most positions a bucket spans,
    is the most cuts of a node in one ``(b / GUIDE, (b + 1) / GUIDE]``, the
    last open above. Buckets fill in order, each by a running maximum."""
    key = np.minimum(np.ceil(cuts * GUIDE), GUIDE).astype(np.intp)
    guide = np.tile(first, (GUIDE, 1))
    end = np.flatnonzero(key[:-1] < key[1:])  # the last cut of a run of keys
    guide.flat[key[end] * len(first) + parent[end]] = end + 1
    for b in range(1, GUIDE):
        np.maximum(guide[b - 1], guide[b], out=guide[b])
    steps = max((guide[1:] - guide[:-1]).max(), (last - guide[-1]).max())
    return guide.ravel(), int(steps)


def _draw(guide, steps: int, cuts, node, mark) -> np.ndarray:
    """``bisect_right`` on each ``node``'s cuts at ``mark``, from its bucket."""
    at = guide.take((mark * GUIDE).astype(np.intp) * (len(guide) // GUIDE) + node)
    for _ in range(steps):
        at += cuts.take(at) <= mark
    return at


def _match_args(hands, seed) -> tuple[int, int]:
    """``hands`` and ``seed`` as ints, or ValueError naming the bad one."""
    hands = check_positive_int(hands, "hands")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return hands, int(seed)


def policy_sampled_match(
    game: GameSpec,
    policy_a,
    policy_b,
    hands: int,
    seed: int = 0,
    duplicate: bool = False,
) -> MatchResult:
    """``sampled_match`` of two slot vectors whose rows are distributions."""
    hands, seed = _match_args(hands, seed)
    layout = game.layout
    parent, first, last, child, terminal, at_chance, utility, seat0 = layout.seatings
    # The cuts follow the tables: seating 1's edges after seating 0's.
    cuts = np.concatenate([
        _cuts(layout, np.where(seat0, one, other))
        for one, other in ((policy_a, policy_b), (policy_b, policy_a))
    ])
    guide, steps = _guide(cuts, parent, first, last)
    nodes = len(layout.utility)
    marks = np.random.Generator(np.random.PCG64(abs(seed)))
    played = 2 * max(1, hands // 2) if duplicate else hands
    values = np.empty(played // 2 if duplicate else played)
    for begin in range(0, played, 2 * BLOCK):
        count = min(2 * BLOCK, played - begin)
        end = np.empty(count, dtype=np.intp)  # each hand's terminal node
        hand = np.arange(count)
        node = hand % 2 * nodes
        if duplicate:
            common = marks.random(layout.chance_depth * (count // 2))
            common = common.reshape(layout.chance_depth, count // 2)
            event = np.zeros(count, dtype=np.intp)
        while True:
            stop = terminal.take(node)
            if stop.any():
                end[hand] = node  # a hand that goes on writes again later
                keep = np.flatnonzero(~stop)
                if not len(keep):
                    break
                hand, node = hand.take(keep), node.take(keep)
                if duplicate:
                    event = event.take(keep)
            mark = marks.random(len(hand))
            if duplicate:
                which = at_chance.take(node).nonzero()[0]
                if len(which):
                    mark[which] = common[event[which], hand[which] >> 1]
                    event[which] += 1
            node = child.take(_draw(guide, steps, cuts, node, mark))
        out = utility.take(end)  # each hand's payoff to profile_a
        if duplicate:
            values[begin // 2 : (begin + count) // 2] = 0.5 * (out[0::2] + out[1::2])
        else:
            values[begin : begin + count] = out
    n = len(values)
    mean = float(np.sum(values)) / n
    stderr = 0.0
    if n >= 2:
        deviation = values - mean
        spread = float(np.sum(deviation * deviation)) / (n - 1)
        stderr = math.sqrt(spread) / math.sqrt(n)
    return MatchResult(
        hands=played, mean=mean, stderr=stderr, seed=seed, duplicate=duplicate
    )


def sampled_match(
    game: GameSpec,
    profile_a,
    profile_b,
    hands: int,
    seed: int = 0,
    duplicate: bool = False,
) -> MatchResult:
    """Seeded head-to-head match; mean is profile_a's chips per hand.

    Plain mode alternates profile_a's seat each hand, first in seat 0.
    Duplicate mode plays hands in pairs, profile_a in seat 0 and then in
    seat 1; scoring averages each pair, which cancels most deal luck. Odd
    hand counts round down to full pairs, and at least one pair is played:
    ``hands=1`` plays two hands.

    Hands are played in blocks of ``BLOCK`` pairs (``2 * BLOCK`` hands in
    plain mode), in order. Each round of a block moves every live hand one
    edge down the layout's edge list, until all reach a terminal. A draw
    takes a mark and picks the first index whose running total of the row
    exceeds it, or the last index if none does: a guide-table lookup, then
    at most ``steps`` exact comparisons, ``bisect_right`` bit for bit, on
    the row's cuts (see ``_cuts`` and ``_guide``); ``steps`` is 2 on Leduc.
    Both seatings play over the layout's ``seatings`` tables, built once
    per game. The live hands are kept by index: in a round where some hand
    reaches a terminal, every live hand records its node, and ``take`` on
    the places of those that go on keeps their hand numbers, nodes and
    chance counts. After the block one ``take`` of the tables' ``utility``
    at the recorded nodes reads each hand's payoff to profile_a.

    Marks are ``Generator(PCG64(|seed|)).random``: the top 53 bits of each
    raw draw times 2**-53. Each round, every live hand of the block takes
    the next mark, in hand order. In duplicate mode a block first takes
    ``layout.chance_depth`` rows of one mark per pair: at its k-th chance
    event each hand of a pair uses row k's mark instead of its own. So
    where the pair's chance nodes have the same probabilities, both hands
    get the same outcome. Elsewhere each draw still follows its node's
    distribution, so the pair's score is an unbiased estimate.

    ``mean`` is ``numpy.sum`` of the scores (pairwise summation, whose order
    depends only on their count) over the count. ``stderr`` is the square
    root of ``numpy.sum`` of the squared deviations from the mean over one
    less than the count, over the square root of the count; 0.0 for one
    score.
    """
    _match_args(hands, seed)  # worded before any profile fault
    policies = (checked_policy(game, (p, p)) for p in (profile_a, profile_b))
    return policy_sampled_match(game, *policies, hands, seed, duplicate)
