"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.
``checked_policy`` is the one check of a profile, which every evaluator
runs: it turns profiles into a slot vector whose rows are distributions.

``GameNode`` trees are the builders' input format. Nodes are immutable,
so a built tree may share one subtree between several parents;
``make_game`` treats every visit as its own position. It checks a tree
with an explicit stack and flattens it into a ``GameLayout``, with numpy
sweeps a tree depth at a time, so no traversal depends on Python's
recursion limit.

Evaluation reads the sequence form (see ``GameLayout``). A policy gives
each sequence its reach (``sequence_reach``). The pair table sums the
terminals once per game into pairs of sequences, so a seat's terminal
value by sequence is one ``bincount`` over the pairs, weighted by the
other seat's reach. Best response backs those values up the seat's
sequences, deepest first, each infoset adding its largest slot value
(``eval.best_response``), and a policy's value is one sum over the pairs
(``policy_value``). The CFR pass (``cfr.cfr_pass``) takes its reach
from the sequence form too, but values the nodes by one bottom-up sweep
over the edge list's ``levels``, so its regrets keep the node order's
bits, on which the tree learner's splits depend. Sampled play moves
blocks of hands down the edge list, one edge per round.

Every sum runs in a fixed order that depends only on the game: ``bincount``
and the unbuffered ``np.add.at`` add in index order from 0.0, and
``policy_value`` adds its terms pairwise, in an order set by their count.
So each run gives the same bits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._validation import format_float, ordered_sum

CHANCE = "chance"
DECISION = "decision"
TERMINAL = "terminal"


@dataclass(frozen=True, eq=False, slots=True)
class GameNode:
    """One node of a game tree.

    kind is one of CHANCE, DECISION, TERMINAL. Decision nodes carry the acting
    player, their infoset key, and the ordered action labels. Chance nodes
    carry outcome probabilities. Terminal nodes carry per-player utilities in
    chips. children is ordered to match actions/outcomes.

    Nodes compare and hash by identity, and their repr leaves out the
    children, so none of the three walks a subtree. A node may be the child
    of several parents; ``make_game`` treats each visit as its own position.
    """

    kind: str
    player: int | None = None
    infoset: str | None = None
    actions: tuple[str, ...] = ()
    chance_probs: tuple[float, ...] = ()
    utilities: tuple[float, float] | None = None
    children: tuple["GameNode", ...] = field(default=(), repr=False)


def decision(player: int, infoset: str, actions, children) -> GameNode:
    return GameNode(
        kind=DECISION,
        player=player,
        infoset=infoset,
        actions=tuple(actions),
        children=tuple(children),
    )


def chance(probs, children) -> GameNode:
    return GameNode(kind=CHANCE, chance_probs=tuple(probs), children=tuple(children))


def terminal(u1: float) -> GameNode:
    # Zero-sum by construction: the second utility is the exact negation.
    return GameNode(kind=TERMINAL, utilities=(u1, -u1))


@dataclass(frozen=True, eq=False)
class GameLayout:
    """A game tree flattened in preorder: node 0 is the root, and each node
    precedes its children, which come in action order. ``infosets`` holds
    (player, key, action count) by infoset id, in first-visit order.

    Every infoset-action has a *slot*: slots run over the infoset table in
    order, then over each infoset's actions. Infoset ``k`` owns slots
    ``offset[k]`` to ``offset[k + 1] - 1``, and ``offset[-1]`` is the slot
    count, S. Solver tables are flat vectors indexed by slot. ``seat``
    gives each infoset's acting seat, and ``owner`` and ``uniform`` give
    each slot's infoset id and 1 / its action count.

    A seat's *sequence* at a node is the slot of its last move above it,
    or its empty sequence if it has not moved there: S for seat 0 and
    S + 1 for seat 1. Vectors by sequence have S + 2 entries. Under perfect
    recall every node of an infoset has its seat's same sequence, the
    parent sequence of the infoset's slots. ``sequences`` groups the slots
    by their seat's earlier moves, fewest first, both seats together, as
    (slots, parent sequences, starts): a level's slots come in slot order,
    so each infoset's are a run, and ``starts`` are where the runs begin.

    The *pair table* is the sequence form of the payoffs. A terminal
    enters best response and expected value only through its two
    sequences and its chance reach times its payoffs, so terminals with
    the same two sequences are added once per game. ``pairs`` is a 2 x P array of each pair of
    sequences that some terminal has, seat 0's then seat 1's, sorted.
    Row ``seat`` of ``payoff`` holds, by pair, the chance reach times that
    seat's payoff of the pair's terminals, added in preorder from 0.0;
    ``chance`` holds their chance reaches, added the same way.

    The edge list: ``parent``, ``child`` and ``source`` list the edges by
    their parent's tree depth, deepest first, and within a depth grouped
    by parent in preorder, each node's in action order: edge ``i`` leads
    from node ``parent[i]`` into node ``child[i]``, and ``source[i]`` is
    its weight-table index. The weight table is the policy slot vector
    followed by ``tail``, which holds every chance probability.
    ``levels`` holds the slices of the list by parent depth, so a sweep
    over them values every child before its parent. ``decisions`` holds,
    per seat, its decision edges in preorder of their parents, as (slot,
    parent, child, the opponent's sequence at the parent, the chance
    reach at the parent). Sampled play finds node ``n``'s edges at
    ``first[n]`` to ``last[n]`` (0 to 0 at a terminal). ``columns`` holds, for each column c >= 1 of the infosets' rows of
    slots, the slots at column c, so a policy's running totals can be
    added a column at a time. ``tail_totals`` holds the chance rows'
    running totals, each chance node's run of ``tail`` added that way from
    0.0. ``utility`` is seat 0's payoff by node, +0.0 at the non-terminal
    nodes, which ``terminal`` marks False. ``chance_node`` marks the chance
    nodes, and ``chance_depth`` is the most chance nodes on a path from
    the root.
    """

    infosets: list[tuple[int, str, int]]
    offset: list[int]
    seat: np.ndarray
    owner: np.ndarray
    uniform: np.ndarray
    sequences: tuple
    pairs: np.ndarray
    payoff: np.ndarray
    chance: np.ndarray
    parent: np.ndarray
    child: np.ndarray
    source: np.ndarray
    levels: tuple
    decisions: tuple
    first: np.ndarray
    last: np.ndarray
    tail: np.ndarray
    columns: tuple
    tail_totals: np.ndarray
    utility: np.ndarray
    terminal: np.ndarray
    chance_node: np.ndarray
    chance_depth: int


def _spans(key) -> list[tuple[int, int]]:
    """The spans ``lo:hi`` of the runs of equal values in ``key``."""
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _columns(column) -> tuple:
    """Where each value c >= 1 of ``column`` sits, for c in order."""
    top = int(column.max(initial=0))
    return tuple(np.flatnonzero(column == c) for c in range(1, top + 1))


def _runs(key) -> np.ndarray:
    """Where each run of equal values in ``key`` begins."""
    return np.flatnonzero(np.diff(key, prepend=-1))


def _layout(parents, weights, depths, infoset, utility, tail, infosets, offset):
    """Build the ``GameLayout`` from ``make_game``'s columns, with numpy: no
    Python loop runs over all nodes.

    Edge ``e`` leads from ``parent[e]`` into node ``e + 1``: every node but
    the root has one edge into it, and preorder numbers the root 0.
    Raises ValueError on imperfect recall, at the first offending decision
    node in preorder.
    """
    nodes = len(parents)
    slots = offset[-1]
    parent = np.frombuffer(parents, dtype=np.int64)[1:].astype(np.intp, copy=False)
    depth = np.frombuffer(depths, dtype=np.int64)
    node_infoset = np.frombuffer(infoset, dtype=np.int64)
    utility = np.frombuffer(utility, dtype=np.float64)
    terminal = np.ones(nodes, dtype=bool)
    terminal[parent] = False
    # Each edge's mover: seat 0 or 1, or 2 for chance, whose infoset is -1.
    seats = np.array([player for player, _, _ in infosets] + [2], dtype=np.intp)
    moved = seats[node_infoset[parent]]
    src = np.frombuffer(weights, dtype=np.int64)[1:].astype(np.intp)
    src[moved == 2] += slots
    tail = np.array(tail, dtype=np.float64)
    # Top-down over the edges, a tree depth at a time: each node's chance
    # reach (multiplied by 1.0 where a seat moves) and each seat's sequence
    # and move count there.
    down = np.argsort(depth[1:], kind="stable")
    factor = np.concatenate((np.ones(slots), tail))[src]
    chance = np.ones(nodes)
    last = [np.full(nodes, slots + seat) for seat in (0, 1)]
    moves = [np.zeros(nodes, dtype=np.intp) for _ in range(2)]
    for lo, hi in _spans(depth[1:][down]):
        edges = down[lo:hi]
        at, above = edges + 1, parent[edges]
        chance[at] = chance[above] * factor[edges]
        for seat in (0, 1):
            own = moved[edges] == seat
            last[seat][at] = np.where(own, src[edges], last[seat][above])
            moves[seat][at] = moves[seat][above] + own
    # Perfect recall: every node of an infoset has its first node's sequence.
    decided = np.flatnonzero(node_infoset >= 0)
    ids = node_infoset[decided]
    own_sequence = np.where(seats[ids] == 0, last[0][decided], last[1][decided])
    _, first = np.unique(ids, return_index=True)
    bad = np.flatnonzero(own_sequence != own_sequence[first][ids])
    if len(bad):
        raise ValueError(f"imperfect recall at infoset '{infosets[ids[bad[0]]][1]}'")
    # The most chance nodes on a path: at a chance node, those above it (its
    # depth less both seats' moves) and itself.
    chance_node = (node_infoset < 0) & ~terminal
    chanced = (depth - moves[0] - moves[1])[chance_node]
    chance_depth = int(chanced.max(initial=-1)) + 1
    # Each slot's move count and parent sequence, the same at every edge.
    sequence = np.zeros((2, slots), dtype=np.intp)
    for seat in (0, 1):
        own = moved == seat
        sequence[:, src[own]] = moves[seat][parent[own]], last[seat][parent[own]]
    order = np.argsort(sequence[0], kind="stable")
    counts, prior = sequence[:, order]
    offset = np.array(offset, dtype=np.intp)
    owner = np.repeat(np.arange(len(infosets)), np.diff(offset))
    # The pair table: the terminals' sequence pairs, sorted, and each pair's
    # chance reaches and chance reach times payoff, added in preorder.
    ends = np.flatnonzero(terminal)
    span = slots + 2
    keys, pair = np.unique(last[0][ends] * span + last[1][ends], return_inverse=True)
    reach = chance[ends]
    payoff = np.bincount(pair, reach * utility[ends])
    # The edge list, by parent depth, deepest first, then grouped by parent
    # in preorder, each node's edges in action order; each seat's decision
    # edges in preorder; and each weight-table index's column: its place
    # among its node's edges.
    edges = np.argsort(parent, kind="stable")
    edges = edges[np.argsort(-depth[parent[edges]], kind="stable")]
    above = parent[edges]
    heads = _runs(above)
    decisions = []
    for seat in (0, 1):
        own = np.flatnonzero(moved[edges] == seat)
        own = own[np.argsort(above[own], kind="stable")]
        at = above[own]
        decisions.append(
            (src[edges[own]], at, edges[own] + 1, last[1 - seat][at], chance[at])
        )
    first = np.zeros(nodes, dtype=np.intp)
    last = np.zeros(nodes, dtype=np.intp)
    first[above[heads]] = heads
    last[above[heads]] = np.append(heads[1:], len(edges)) - 1
    column = np.zeros(slots + len(tail), dtype=np.intp)
    column[src[edges]] = np.arange(len(edges)) - first[above]
    tail_totals = 0.0 + tail
    for at in _columns(column[slots:]):
        tail_totals[at] = tail_totals[at - 1] + tail[at]
    return GameLayout(
        infosets=infosets,
        offset=offset.tolist(),
        seat=seats[:-1],
        owner=owner,
        uniform=1.0 / np.diff(offset)[owner],
        sequences=tuple(
            (order[lo:hi], prior[lo:hi], _runs(owner[order[lo:hi]]))
            for lo, hi in _spans(counts)
        ),
        pairs=np.stack((keys // span, keys % span)),
        payoff=np.stack((payoff, -payoff)),
        chance=np.bincount(pair, reach),
        parent=above,
        child=edges + 1,
        source=src[edges],
        levels=tuple(slice(lo, hi) for lo, hi in _spans(depth[above])),
        decisions=tuple(decisions),
        first=first,
        last=last,
        tail=tail,
        columns=_columns(column[:slots]),
        tail_totals=tail_totals,
        utility=utility,
        terminal=terminal,
        chance_node=chance_node,
        chance_depth=chance_depth,
    )


@dataclass(frozen=True)
class GameSpec:
    """An immutable two-player zero-sum extensive-form game.

    utility_range is the max minus min terminal utility over both players.
    action_labels maps each infoset key, in the layout's order, to its
    ordered action labels.
    """

    game_id: str
    root: GameNode = field(repr=False)
    utility_range: float
    action_labels: dict[str, tuple[str, ...]] = field(repr=False)
    layout: GameLayout = field(repr=False, compare=False)


def make_game(game_id: str, root: GameNode) -> GameSpec:
    """Check a built tree and wrap it, with its layout, in a GameSpec.

    Raises ValueError on malformed nodes (a decision node's infoset key
    must be a ``str``), non-finite chance probabilities or utilities,
    non-zero-sum payoffs, infosets whose nodes disagree on player or
    actions, and imperfect recall: every node of an infoset must have the
    acting seat's own sequence (see ``GameLayout``). That compares only the
    latest step of the seat's (infoset, action) history, which suffices:
    the step names an earlier infoset, whose nodes were checked the same
    way. Recall is checked after the walk, so any other fault is reported
    first.
    """
    labels: dict[str, tuple[str, ...]] = {}
    ids: dict[str, int] = {}
    infosets: list[tuple[int, str, int]] = []
    offset = [0]
    # By node, as machine numbers: the parent, the weight index of the edge
    # into it (its slot after a decision node, the tail index of its
    # probability after a chance node), the tree depth, the infoset id (-1
    # off decision nodes) and seat 0's payoff (0.0 off terminals). Chance
    # probabilities go to the weight-table tail.
    parents, weights, depths, infoset = array("q"), array("q"), array("q"), array("q")
    utility = array("d")
    tail = []
    # Children are pushed in reverse, so nodes are numbered in preorder.
    stack = [(root, -1, 0, 0)]
    while stack:
        node, parent, weight, depth = stack.pop()
        index = len(parents)
        parents.append(parent)
        weights.append(weight)
        depths.append(depth)
        infoset.append(-1)
        utility.append(0.0)
        if node.kind == TERMINAL:
            if node.children:
                raise ValueError("terminal node with children")
            u0, u1 = node.utilities
            # A sum of exactly zero implies both utilities are finite.
            if u0 + u1 != 0.0:
                if not (math.isfinite(u0) and math.isfinite(u1)):
                    raise ValueError("non-finite terminal utility")
                raise ValueError("terminal utilities are not zero-sum")
            utility[index] = u0
            continue
        if node.kind == CHANCE:
            if len(node.chance_probs) != len(node.children):
                raise ValueError("chance outcome/child count mismatch")
            if not all(0.0 <= p < math.inf for p in node.chance_probs):
                raise ValueError("chance probabilities must be finite and >= 0")
            if abs(ordered_sum(node.chance_probs) - 1.0) > 1e-12:
                raise ValueError("chance probabilities do not sum to 1")
            base = len(tail)
            tail.extend(node.chance_probs)
        elif node.kind == DECISION:
            if len(node.actions) != len(node.children):
                raise ValueError("action/child count mismatch")
            if not node.actions:
                raise ValueError("decision node with no actions")
            if node.player not in (0, 1):
                raise ValueError(f"decision node player {node.player!r} is not 0 or 1")
            key = node.infoset
            if not isinstance(key, str):
                raise ValueError(f"decision node infoset {key!r} is not a str")
            k = ids.setdefault(key, len(ids))
            if k == len(infosets):  # first node of a new infoset
                infosets.append((node.player, key, len(node.actions)))
                offset.append(offset[-1] + len(node.actions))
                labels[key] = node.actions
            elif labels[key] != node.actions or infosets[k][0] != node.player:
                raise ValueError(f"inconsistent infoset '{key}'")
            infoset[index] = k
            base = offset[k]
        else:
            raise ValueError(f"unknown node kind '{node.kind}'")
        for a in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[a], index, base + a, depth + 1))
    layout = _layout(parents, weights, depths, infoset, utility, tail, infosets, offset)
    # Seat 1's payoffs are the exact negations, so both seats' spreads agree.
    payoffs = layout.utility[layout.terminal].tolist()
    return GameSpec(
        game_id=game_id,
        root=root,
        utility_range=max(payoffs) - min(payoffs),
        action_labels=labels,
        layout=layout,
    )


def enumerate_infosets(game: GameSpec) -> list[tuple[int, str, int]]:
    """List (player, infoset key, action count), depth-first, first visit."""
    return list(game.layout.infosets)


def check_row(key: str, probs, where: str = "") -> None:
    """Reject a strategy row unless every entry is finite and >= 0 and the
    entries sum to 1 within 1e-6; ``where`` starts the message. The sum
    runs from 0.0 in order, as in ``checked_policy``: the builtin ``sum`` is
    compensated on Python 3.12+."""
    total = ordered_sum(map(float, probs))
    # A NaN or infinite entry makes the sum NaN or infinite, never near 1.
    if not (abs(total - 1.0) <= 1e-6 and min(probs) >= 0.0):
        raise ValueError(
            f"{where}probabilities {tuple(probs)!r} for infoset '{key}' sum to "
            f"{format_float(total)}; each must be finite and >= 0, summing to 1"
        )


def bad_rows(owner: np.ndarray, probs: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` rows that ``check_row`` rejects, where entry
    ``i`` of ``probs`` belongs to row ``owner[i]`` and each row's entries
    come in order. ``bincount`` adds each row's entries in that order from
    0.0, as ``check_row`` does, so the two agree on every row."""
    sums = np.bincount(owner, weights=probs, minlength=count)
    bad = ~(np.abs(sums - 1.0) <= 1e-6)
    bad[owner[probs < 0.0]] = True
    return bad


def checked_policy(game: GameSpec, seat_profiles) -> np.ndarray:
    """The slot vector of each seat's rows from its profile in
    ``seat_profiles``, zeros for a seat whose profile is None.

    Raises on the first fault, in this order: ValueError on a key the game
    lacks; KeyError on a missing row or ValueError on one of the wrong
    length, the first in table order; ``check_row``'s ValueError on the first
    row in table order that is not a distribution, found by ``bad_rows`` in
    one pass over the vector.
    """
    layout, labels = game.layout, game.action_labels
    for profile in seat_profiles:
        if profile is not None and not profile.keys() <= labels.keys():
            key = next(key for key in profile if key not in labels)
            raise ValueError(
                f"infoset '{key}' does not exist in game '{game.game_id}'"
            )
    rows = []
    for player, key, n in layout.infosets:
        profile = seat_profiles[player]
        if profile is not None and key not in profile:
            raise KeyError(f"profile missing infoset '{key}'")
        probs = (0.0,) * n if profile is None else profile[key]
        if len(probs) != n:
            raise ValueError(
                f"profile entry for '{key}' has {len(probs)} "
                f"probabilities for {n} actions"
            )
        rows.append(probs)
    policy = np.fromiter(
        chain.from_iterable(rows), dtype=np.float64, count=layout.offset[-1]
    )
    bad = bad_rows(layout.owner, policy, len(rows))
    bad &= np.array([profile is not None for profile in seat_profiles])[layout.seat]
    if bad.any():
        k = int(bad.argmax())
        check_row(layout.infosets[k][1], rows[k])
    return policy


def sequence_reach(layout: GameLayout, policy: np.ndarray) -> np.ndarray:
    """Every sequence's reach when slot ``s`` plays with probability
    ``policy[s]``: a vector by sequence, 1.0 at both empty sequences.
    Filled a level of ``sequences`` at a time, so each slot's reach is its
    parent sequence's times its policy."""
    reach = np.ones(layout.offset[-1] + 2)
    for slots, parents, _ in layout.sequences:
        reach[slots] = reach[parents] * policy[slots]
    return reach


def policy_value(layout: GameLayout, policy: np.ndarray) -> float:
    """Seat 0's value when slot ``s`` plays with probability ``policy[s]``:
    each pair's payoff times both seats' reach, added by ``numpy.sum``
    (pairwise summation, whose order depends only on the pair count)."""
    reach = sequence_reach(layout, policy)
    pairs = layout.pairs
    return float(np.sum(layout.payoff[0] * reach[pairs[0]] * reach[pairs[1]]))


def expected_value(game: GameSpec, profile: dict) -> tuple[float, float]:
    """Exact expected utilities (u1, u2) under a behavioral profile."""
    value = policy_value(game.layout, checked_policy(game, (profile, profile)))
    # Seat 1's payoffs are the exact negations, so its value is -value, but
    # written 0.0 - value so that a zero total is +0.0.
    return value, 0.0 - value


def uniform_profile(game: GameSpec) -> dict[str, tuple[float, ...]]:
    """The profile playing uniformly at every infoset."""
    return {key: (1.0 / n,) * n for _, key, n in game.layout.infosets}
