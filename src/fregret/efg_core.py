"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.
``checked_policy`` is the one check of a profile, which every evaluator
runs: it turns profiles into a slot vector whose rows are distributions.

``GameNode`` trees are the builders' input format. Nodes are immutable,
so a built tree may share one subtree between several parents.
``make_game`` numbers both the *positions*, every visit of a preorder
walk, and the *nodes*, the distinct objects. It checks each node once,
with an explicit stack, and a later position of a node repeats its first
subtree's numbers without a walk. It flattens the tree into a
``GameLayout`` with numpy, so no traversal depends on Python's recursion
limit.

Evaluation reads the sequence form (see ``GameLayout``). A policy gives
each sequence its reach (``sequence_reach``). The pair table sums the
terminal positions once per game into pairs of sequences, so a seat's
terminal value by sequence is one ``bincount`` over the pairs, weighted
by the other seat's reach. Best response backs those values up the
seat's sequences, deepest first, each infoset adding its largest slot
value (``eval.best_response``), and a policy's value is one sum over the
pairs (``policy_value``). The CFR pass (``cfr.cfr_pass``) takes its reach
from the sequence form too: its strategy sums add each slot's policy once
per sequence, weighted by own reach, which is the slot's entry of the
reach vector. It values the nodes by one bottom-up sweep over the edge
list's ``levels``, each node once, and adds each position's regret term,
computed once per class of equal terms of both seats, so its regrets keep
the position order's bits, on which the tree learner's splits depend.
Sampled play moves hand blocks down the same edge list, one edge per round.

Every sum runs in a fixed order that depends only on the game: ``bincount``
and the unbuffered ``np.add.at`` add in index order from 0.0, and
``policy_value`` adds its terms pairwise, in an order set by their count.
So each run gives the same bits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

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
    of several parents; ``make_game`` numbers each visit as its own
    position and each node once.
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
    """A game tree flattened. Its *positions* are the visits of a preorder
    walk from the root; its *nodes* are the distinct ``GameNode`` objects,
    which a built tree may share between positions. Nodes are numbered in
    the order of their first positions, so node 0 is the root. ``infosets``
    holds (player, key, action count) by infoset id, in first-visit order,
    ``row_sizes`` the action counts alone, and ``read_rows`` reads a
    mapping's values at the keys in that order.

    Every infoset-action has a *slot*: slots run over the infoset table in
    order, then over each infoset's actions. Infoset ``k`` owns slots
    ``offset[k]`` to ``offset[k + 1] - 1``, and ``offset[-1]`` is the slot
    count, S. Solver tables are flat vectors indexed by slot. ``seat``
    gives each infoset's acting seat, and ``owner`` and ``uniform`` give
    each slot's infoset id and 1 / its action count.

    A seat's *sequence* at a position is the slot of its last move above
    it, or its empty sequence if it has not moved there: S for seat 0 and
    S + 1 for seat 1. Vectors by sequence have S + 2 entries. Under perfect
    recall every position of an infoset has its seat's same sequence, the
    parent sequence of the infoset's slots. ``sequences`` groups the slots
    by their seat's earlier moves, fewest first, both seats together, as
    (slots, parent sequences, starts): a level's slots come in slot order,
    so each infoset's are a run, and ``starts`` are where the runs begin.

    The *pair table* is the sequence form of the payoffs. A terminal
    position enters best response and expected value only through its two
    sequences and its chance reach times its payoffs, so terminal positions
    with the same two sequences are added once per game. ``pairs`` is a
    2 x P array of each pair of sequences that some terminal position has,
    seat 0's then seat 1's, sorted. Row ``seat`` of ``payoff`` holds, by
    pair, the chance reach times that seat's payoff of the pair's terminal
    positions, added in preorder from 0.0; ``chance`` holds their chance
    reaches, added the same way.

    The edge list holds each node's edges once, however many positions the
    node has. ``parent``, ``child`` and ``source`` list the edges by their
    parent's height (the most edges on a path from it down to a terminal),
    lowest first, and within a height grouped by parent, each node's in
    action order: edge ``i`` leads from node ``parent[i]`` into node
    ``child[i]``, and ``source[i]`` is its weight-table index. The weight
    table is the policy slot vector followed by ``tail``, which holds each
    chance node's probabilities. ``levels`` holds the slices of the list by
    parent height, so a sweep over them values every child before its
    parent. Node ``n``'s edges are at ``first[n]`` to ``last[n]`` (0 to 0
    at a terminal). ``columns`` holds, for each column c >= 1 of the
    infosets' rows of slots, the slots at column c, so a policy's running
    totals can be added a column at a time. ``tail_totals`` holds the
    chance rows' running totals, each chance node's run of ``tail`` added
    that way from 0.0. ``utility`` is seat 0's payoff by node, +0.0 at the
    non-terminal nodes, which ``terminal`` marks False. ``chance_node``
    marks the chance nodes, and ``chance_depth`` is the most chance nodes
    on a path from the root. ``seatings`` holds the edge-list tables of a
    match's two seatings side by side, as sampled play reads them.
    ``row_sizes``, ``read_rows`` and ``seatings`` are built on first use,
    once per layout, and ``seatings``' arrays are read-only.

    ``decisions`` holds both seats' decision edges at every position, in
    preorder of their parent positions, each position's in action order,
    as (slot, class) by position and (gain, loss, opponent, chance) by
    class. Positions whose slot, parent node, opponent's sequence at the
    parent and chance reach there (as bits) agree share a class and so a
    counterfactual regret term, which the CFR pass computes once. A class's
    gain and loss are nodes: the child and the parent for seat 0, and the
    reverse for seat 1, whose payoffs are seat 0's negated.
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

    @cached_property
    def row_sizes(self) -> list[int]:
        """Each infoset's action count, by infoset id."""
        return [n for _, _, n in self.infosets]

    @cached_property
    def read_rows(self):
        """A function from a mapping to the tuple of its values at the
        infoset keys, in table order: one ``operator.itemgetter``, or a
        ``map`` where there are fewer than two keys, for which
        ``itemgetter`` returns a bare value or cannot be made."""
        keys = [key for _, key, _ in self.infosets]
        if len(keys) > 1:
            return itemgetter(*keys)
        return lambda profile: tuple(map(profile.__getitem__, keys))

    @cached_property
    def seatings(self) -> tuple:
        """The edge-list tables of both seatings of a match, read-only:
        ``parent``, ``first``, ``last``, ``child``, ``terminal``,
        ``chance_node`` and ``utility`` with seating 1's nodes and edges
        numbered after seating 0's, then the mask of seat 0's slots.
        Seating 0 seats a match's first profile in seat 0 and seating 1 in
        seat 1, and ``utility`` holds that profile's payoff: seat 0's in
        seating 0's nodes, negated in seating 1's."""
        nodes, edges = len(self.utility), len(self.child)
        tables = (
            np.concatenate((self.parent, self.parent + nodes)),
            np.concatenate((self.first, self.first + edges)),
            np.concatenate((self.last, self.last + edges)),
            np.concatenate((self.child, self.child + nodes)),
            np.concatenate((self.terminal, self.terminal)),
            np.concatenate((self.chance_node, self.chance_node)),
            np.concatenate((self.utility, -self.utility)),
            self.seat[self.owner] == 0,
        )
        for table in tables:
            table.flags.writeable = False
        return tables


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


def _classes(*keys) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct tuples of ``keys``, equal-length integer arrays:
    each tuple's number, and where each number first occurs."""
    order = np.lexsort(keys)  # stable, so each run begins at its first place
    ordered = np.stack(keys).take(order, axis=1)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return number, order[new]


def _layout(back, weights, visits, firsts, sizes, infoset, utility, tail,
            infosets, offset):
    """Build the ``GameLayout`` from ``make_game``'s columns, with numpy: no
    Python loop runs over all positions.

    ``back``, ``weights`` and ``visits`` are by position; ``firsts``,
    ``sizes``, ``infoset`` and ``utility`` by node. Edge ``e`` of the
    position tree leads from position ``parent[e]`` into position
    ``e + 1``: every position but the root has one edge into it, and
    preorder numbers the root 0. Raises ValueError on imperfect recall, at
    the first offending decision position in preorder.
    """
    slots = offset[-1]
    visit = np.frombuffer(visits, dtype=np.int64).astype(np.intp, copy=False)
    positions = len(visit)
    parent = np.arange(1, positions) - np.frombuffer(back, dtype=np.int64)[1:]
    # A position's depth is the number of subtrees open there less its own:
    # each position opens one, which closes where its node's subtree ends.
    first_at = np.frombuffer(firsts, dtype=np.int64)
    size = np.frombuffer(sizes, dtype=np.int64)
    closed = np.bincount(np.arange(positions) + size[visit], minlength=positions + 1)
    depth = np.arange(positions) - closed[:positions].cumsum()
    # Each node's height: how deep its first subtree reaches below it.
    bounds = np.stack((first_at, first_at + size), axis=1).ravel()
    height = np.maximum.reduceat(np.append(depth, 0), bounds)[::2] - depth[first_at]
    utility = np.frombuffer(utility, dtype=np.float64)
    node_infoset = np.frombuffer(infoset, dtype=np.int64)
    position_infoset = node_infoset[visit]
    terminal = np.ones(len(utility), dtype=bool)
    terminal[visit[parent]] = False
    # Each edge's mover: seat 0 or 1, or 2 for chance, whose infoset is -1.
    seats = np.array([player for player, _, _ in infosets] + [2], dtype=np.intp)
    moved = seats[position_infoset[parent]]
    src = np.frombuffer(weights, dtype=np.int64)[1:].astype(np.intp)
    src[moved == 2] += slots
    tail = np.array(tail, dtype=np.float64)
    # Top-down over the edges, a tree depth at a time: each position's
    # chance reach (multiplied by 1.0 where a seat moves) and both seats'
    # sequences and move counts there, flat until the loop ends (seat s's
    # at s * positions + p), as numpy indexes one axis faster than two.
    down = np.argsort(depth[1:], kind="stable")
    spans = _spans(depth[1:][down])
    factor = np.concatenate((np.ones(slots), tail))[src]
    chance = np.ones(positions)
    sequence_at = np.repeat([slots, slots + 1], positions)
    moves = np.zeros(2 * positions, dtype=np.intp)
    base = np.array([[0], [positions]])
    for lo, hi in spans:
        edges = down[lo:hi]
        at, above = edges + 1, parent[edges]
        chance[at] = chance[above] * factor[edges]
        own = moved[edges] == [[0], [1]]
        sequence_at[at + base] = np.where(own, src[edges], sequence_at[above + base])
        moves[at + base] = moves[above + base] + own
    sequence_at, moves = sequence_at.reshape(2, -1), moves.reshape(2, -1)
    # Perfect recall: every position of an infoset has its first one's sequence.
    decided = np.flatnonzero(position_infoset >= 0)
    ids = position_infoset[decided]
    own_sequence = sequence_at[seats[ids], decided]
    _, first_of = np.unique(ids, return_index=True)
    bad = np.flatnonzero(own_sequence != own_sequence[first_of][ids])
    if len(bad):
        raise ValueError(f"imperfect recall at infoset '{infosets[ids[bad[0]]][1]}'")
    # The most chance nodes on a path: at a chance position, those above it
    # (its depth less both seats' moves) and itself.
    chance_node = (node_infoset < 0) & ~terminal
    chance_depth = int((depth - moves.sum(0))[chance_node[visit]].max(initial=-1)) + 1
    # The decision edges by parent position, and each slot's move count and
    # parent sequence, the same at every edge.
    acting = np.flatnonzero(moved < 2)
    acting = acting[np.argsort(parent[acting], kind="stable")]
    mover, at = moved[acting], parent[acting]
    sequence = np.zeros((2, slots), dtype=np.intp)
    sequence[:, src[acting]] = moves[mover, at], sequence_at[mover, at]
    order = np.argsort(sequence[0], kind="stable")
    counts, prior = sequence[:, order]
    offset = np.array(offset, dtype=np.intp)
    owner = np.repeat(np.arange(len(infosets)), np.diff(offset))
    # The pair table: the terminal positions' sequence pairs, sorted, and
    # each pair's chance reaches and chance reach times payoff, added in
    # preorder.
    ends = np.flatnonzero(terminal[visit])
    span = slots + 2
    keys, pair = np.unique(
        sequence_at[0, ends] * span + sequence_at[1, ends], return_inverse=True
    )
    reach = chance[ends]
    payoff = np.bincount(pair, reach * utility[visit[ends]])
    # Their classes, by (parent node, slot) as one number, opponent and
    # chance reach bits; seat 0 gains the child's value, seat 1 the parent's.
    opponent, by_chance = sequence_at[1 - mover, at], chance[at]
    kind, where = _classes(
        visit[at] * slots + src[acting], opponent, by_chance.view(np.int64)
    )
    above, below = visit[at][where], visit[acting + 1][where]
    gain, loss = np.where(mover[where] == 0, (below, above), (above, below))
    # The edge list: the edges out of each node's first position, by parent
    # height, then by parent, each node's in action order; and each
    # weight-table index's column, its place among its node's edges.
    is_first = np.zeros(positions, dtype=bool)
    is_first[first_at] = True
    edges = np.flatnonzero(is_first[parent])
    edges = edges[np.argsort(visit[parent[edges]], kind="stable")]
    edges = edges[np.argsort(height[visit[parent[edges]]], kind="stable")]
    above, source = visit[parent[edges]], src[edges]
    heads = _runs(above)
    first, last = np.zeros((2, len(utility)), dtype=np.intp)
    first[above[heads]] = heads
    last[above[heads]] = np.append(heads[1:], len(edges)) - 1
    column = np.zeros(slots + len(tail), dtype=np.intp)
    column[source] = np.arange(len(edges)) - first[above]
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
        child=visit[edges + 1],
        source=source,
        levels=tuple(slice(lo, hi) for lo, hi in _spans(height[above])),
        decisions=(src[acting], kind, gain, loss, opponent[where], by_chance[where]),
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
    actions, and imperfect recall: every position of an infoset must have
    the acting seat's own sequence (see ``GameLayout``). That compares only
    the latest step of the seat's (infoset, action) history, which
    suffices: the step names an earlier infoset, whose positions were
    checked the same way. Each node is checked at its first position in
    preorder, so the first fault found is the one a check at every
    position would find first. Recall is checked after the walk, so any
    other fault is reported first.
    """
    labels: dict[str, tuple[str, ...]] = {}
    ids: dict[str, int] = {}
    infosets: list[tuple[int, str, int]] = []
    offset = [0]
    # By position, as machine numbers: how far back its parent position is,
    # the weight index of the edge into it (its slot after a decision node,
    # the tail index of its probability after a chance node) and the node
    # there. By node, numbered at its first position: that position, the
    # number of positions in its subtree, the infoset id (-1 off decision
    # nodes), seat 0's payoff (0.0 off terminals) and the weight index of
    # its first edge. Each chance node's probabilities go to the
    # weight-table tail once.
    back, weights, visits = array("q"), array("q"), array("q")
    firsts, sizes, infoset, utility = array("q"), array("q"), array("q"), array("d")
    numbers: dict[GameNode, int] = {}
    tail = []
    # Children are pushed in reverse, so positions are numbered in preorder,
    # and a marker under them records the subtree's size once it is done. A
    # node's checks run at its first position only: they read nothing but
    # the node and the infosets numbered before it. Its later positions
    # repeat its first subtree's columns, but for the edge into it.
    stack = [(root, -1, 0)]
    while stack:
        node, parent, weight = stack.pop()
        index = len(visits)
        if node is None:  # node ``parent``'s first subtree is done
            sizes[parent] = index - firsts[parent]
            continue
        number = numbers.get(node)
        back.append(index - parent)
        weights.append(weight)
        if number is not None:
            first, size = firsts[number], sizes[number]
            back.extend(back[first + 1 : first + size])
            weights.extend(weights[first + 1 : first + size])
            visits.extend(visits[first : first + size])
            continue
        number = numbers[node] = len(firsts)
        visits.append(number)
        firsts.append(index)
        sizes.append(1)
        infoset.append(-1)
        utility.append(0.0)
        base = 0
        if node.kind == TERMINAL:
            if node.children:
                raise ValueError("terminal node with children")
            u0, u1 = node.utilities
            # A sum of exactly zero implies both utilities are finite.
            if u0 + u1 != 0.0:
                if not (math.isfinite(u0) and math.isfinite(u1)):
                    raise ValueError("non-finite terminal utility")
                raise ValueError("terminal utilities are not zero-sum")
            utility[number] = u0
        elif node.kind == CHANCE:
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
            infoset[number] = k
            base = offset[k]
        else:
            raise ValueError(f"unknown node kind '{node.kind}'")
        children = node.children
        if children:
            stack.append((None, number, 0))
            for a in range(len(children) - 1, -1, -1):
                stack.append((children[a], index, base + a))
    layout = _layout(
        back, weights, visits, firsts, sizes, infoset, utility, tail, infosets, offset
    )
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
    """Reject a strategy row unless every entry is one ``float`` reads and
    ``bad_rows`` passes the row; ``where`` starts the message. The sum in
    the message runs from 0.0 in order, as ``bad_rows`` adds: the builtin
    ``sum`` is compensated on Python 3.12+."""
    row = f"{where}probabilities {tuple(probs)!r} for infoset '{key}'"
    try:
        values = np.fromiter(map(float, probs), dtype=np.float64)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"{row} are not all numbers") from None
    if bad_rows(np.zeros(len(values), dtype=np.intp), values, 1)[0]:
        raise ValueError(
            f"{row} sum to {format_float(ordered_sum(values))}; each must be "
            "finite and >= 0, summing to 1"
        )


def bad_rows(owner: np.ndarray, probs: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` rows with a negative entry or a sum not within
    1e-6 of 1, as a NaN or infinite entry makes it, where entry ``i`` of
    ``probs`` belongs to row ``owner[i]``. ``bincount`` adds each row's
    entries in order from 0.0. ``check_row`` decides by this one rule."""
    sums = np.bincount(owner, weights=probs, minlength=count)
    bad = ~(np.abs(sums - 1.0) <= 1e-6)
    bad[owner[probs < 0.0]] = True
    return bad


def checked_policy(game: GameSpec, seat_profiles) -> np.ndarray:
    """The slot vector of each seat's rows from its profile in
    ``seat_profiles``, zeros for a seat whose profile is None.

    Raises on the first fault, in this order: ValueError on a key the game
    lacks; KeyError on a missing row or ValueError on one without a length
    or of the wrong length, the first in table order; ``check_row``'s
    ValueError on the first row in table order with an entry ``float``
    cannot read or that is not a distribution, found by ``bad_rows`` in one
    pass over the vector. Where both seats read one profile with as many
    keys as the game, the layout's ``read_rows`` takes its rows; if
    none is missing and their lengths match ``row_sizes``, it has exactly
    the game's keys. Other seatings, and a profile that fails there, are
    checked key by key, then row by row, which words the first fault.
    """
    layout, labels = game.layout, game.action_labels
    rows, read, shared = None, True, seat_profiles[0]
    if (
        shared is not None
        and all(profile is shared for profile in seat_profiles)
        and len(shared) == len(labels)
    ):
        try:
            rows = layout.read_rows(shared)
            # A mapping that adds missing keys as it reads them grows.
            if list(map(len, rows)) != layout.row_sizes or len(shared) != len(labels):
                rows = None
        except (KeyError, TypeError):  # worded below
            rows = None
    if rows is None:
        for profile in seat_profiles:
            if profile is not None and not profile.keys() <= labels.keys():
                key = next(key for key in profile if key not in labels)
                raise ValueError(
                    f"infoset '{key}' does not exist in game '{game.game_id}'"
                )
        rows = _rows_in_table_order(layout, seat_profiles)
        read = np.array([profile is not None for profile in seat_profiles])[layout.seat]
    try:
        policy = np.fromiter(
            chain.from_iterable(rows), dtype=np.float64, count=layout.offset[-1]
        )
        bad = bad_rows(layout.owner, policy, len(rows))
    except (OverflowError, TypeError, ValueError):  # check_row words the entry
        bad = np.ones(len(rows), dtype=bool)
    for k in np.flatnonzero(bad & read):
        check_row(layout.infosets[k][1], rows[k])
    return policy


def _rows_in_table_order(layout: GameLayout, seat_profiles) -> list:
    """Each infoset's row from its seat's profile, zeros for a seat whose
    profile is None, in table order, raising as ``checked_policy`` does on
    the first one missing, without a length or of the wrong length."""
    rows = []
    for player, key, n in layout.infosets:
        profile = seat_profiles[player]
        if profile is not None and key not in profile:
            raise KeyError(f"profile missing infoset '{key}'")
        probs = (0.0,) * n if profile is None else profile[key]
        try:
            size = len(probs)
        except TypeError:
            raise ValueError(
                f"profile entry for '{key}' is {probs!r}, not a row of {n} "
                "probabilities"
            ) from None
        if size != n:
            raise ValueError(
                f"profile entry for '{key}' has {size} "
                f"probabilities for {n} actions"
            )
        rows.append(probs)
    return rows


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
