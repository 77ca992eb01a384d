"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.
``checked_policy`` is the one check of a profile, which every evaluator
runs: it turns profiles into a slot vector whose rows are distributions.

``GameNode`` trees are the builders' input format. Nodes are immutable,
so a built tree may share one subtree between several parents;
``make_game`` treats every visit as its own position. It checks a tree
with an explicit stack and flattens it into a ``GameLayout``: a table of
the infosets numbered in first-visit preorder, and one edge list per
seat, its ``Plan``, with nodes numbered in preorder. Node values and best
response are numpy sweeps over a plan's steps, one level at a time, so
no traversal depends on Python's recursion limit. Both the CFR pass and
best response take their reach from the sequence form (see
``GameLayout`` and ``sequence_reach``). Sampled play moves blocks of
hands down seat 0's plan, one edge per round.

The sweeps add with ``np.add.at``, which is unbuffered and adds in index
order. So each node, slot and score sees the same float additions, in the
same order, as a loop over the tree in preorder that sums from 0.0.
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
class Plan:
    """The game's edges in the order of one seat's best response.

    Edge ``i`` leads from node ``parent[i]`` into node ``child[i]``, and
    ``source[i]`` is its weight-table index. The seat's decision edges come
    first, ``len(opponent)`` of them, then the opponent and chance edges.
    Each node's edges are consecutive, in action order. ``opponent`` and
    ``chance`` hold the opponent's sequence and the chance reach at each
    decision edge's parent.

    ``steps`` is the sweep order, as ``(lo, hi, pick)`` spans of the edges:
    per move depth of the seat, deepest first, one pick step over the
    seat's decision edges out of nodes at that depth, then one sum step per
    tree depth of the opponent and chance edges out of them, deepest
    first. Within a step, edges come in preorder. ``pick`` is None on a sum
    step and ``(pad, ids, heads, first, head_infoset)`` on a pick step:
    ``pad`` gives each infoset ``ids[i]`` its slots by row, padded with the
    slot past the end, and ``heads`` are the step's decision nodes, with
    their first edges in ``first`` and their infosets in ``head_infoset``.
    """

    parent: np.ndarray
    child: np.ndarray
    source: np.ndarray
    opponent: np.ndarray
    chance: np.ndarray
    steps: tuple


@dataclass(frozen=True, eq=False)
class GameLayout:
    """A game tree flattened in preorder: node 0 is the root, and each node
    precedes its children, which come in action order. ``infosets`` holds
    (player, key, action count) by infoset id, in first-visit order.

    Every infoset-action has a *slot*: slots run over the infoset table in
    order, then over each infoset's actions. Infoset ``k`` owns slots
    ``offset[k]`` to ``offset[k + 1] - 1``, and ``offset[-1]`` is the slot
    count. Solver tables are flat vectors indexed by slot. A seat's
    *sequence* at a node is the slot of its last move above it, or
    ``offset[-1]`` if none; under perfect recall its reach there is the
    sequence's (see ``sequence_reach``). ``sequences`` groups the slots by
    their seat's earlier moves, fewest first, as (slots, parent sequences).

    An edge's weight is read from a *weight table*: the policy slot vector
    followed by ``tail``, which holds every chance probability. ``plans``
    lists the edges once per seat, in the order of that seat's best
    response (see ``Plan``); seat 0's order also serves the bottom-up node
    values and sampled play. ``seat`` gives each infoset's acting seat, and
    ``owner`` and ``uniform`` give each slot's infoset id and 1 / its action
    count; ``utility`` is seat 0's payoff by node, +0.0 at the non-terminal
    nodes, which ``terminal`` marks False.

    Sampled play finds node ``n``'s edges in seat 0's plan at ``first[n]``
    to ``last[n]`` (0 to 0 at a terminal). ``columns`` holds, for each
    column c >= 1 of the infosets' rows of slots, the slots at column c, so
    a policy's running totals can be added a column at a time.
    ``tail_totals`` holds the chance rows' running totals, each chance
    node's run of ``tail`` added that way from 0.0. ``chance_node`` marks
    the chance nodes, and ``chance_depth`` is the most chance nodes on a
    path from the root.
    """

    infosets: list[tuple[int, str, int]]
    offset: list[int]
    tail: np.ndarray
    sequences: tuple
    seat: np.ndarray
    owner: np.ndarray
    uniform: np.ndarray
    utility: np.ndarray
    terminal: np.ndarray
    plans: tuple[Plan, Plan]
    chance_node: np.ndarray
    first: np.ndarray
    last: np.ndarray
    columns: tuple
    tail_totals: np.ndarray
    chance_depth: int


def _spans(key) -> list[tuple[int, int]]:
    """The spans ``lo:hi`` of the runs of equal values in ``key``."""
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _columns(column) -> tuple:
    """Where each value c >= 1 of ``column`` sits, for c in order."""
    top = int(column.max(initial=0))
    return tuple(np.flatnonzero(column == c) for c in range(1, top + 1))


def _plan(
    seat, parent, up, src, moved, depth, moves, owner, offset, infosets, opp, chance
):
    """Seat ``seat``'s plan (see ``Plan``). Edge ``e`` leads from
    ``parent[e]`` into node ``e + 1``. ``moves``, ``opp`` and ``chance``
    give the seat's move count, its opponent's sequence and the chance
    reach at each edge parent, where ``up[e]`` is ``parent[e]``'s place
    among them. One stable sort orders the seat's decision edges by move
    depth, deepest first, and one the other edges by move depth, then tree
    depth, deepest first."""
    stride = int(depth.max()) + 1
    own = np.flatnonzero(moved == seat)
    own = own[np.argsort(-moves[up[own]], kind="stable")]
    other = np.flatnonzero(moved != seat)
    key = moves[up[other]] * stride + depth[parent[other]]
    order = np.argsort(-key, kind="stable")
    other, key = other[order], key[order]
    edges = np.concatenate((own, other))
    nodes, near = parent[edges], up[own]
    steps: dict[int, list] = {}
    for lo, hi in _spans(moves[near]):
        # A node's edges are consecutive, in action order.
        first = lo + np.flatnonzero(np.diff(nodes[lo:hi], prepend=-1))
        head_infoset = owner[src[own[first]]]
        ids = np.flatnonzero(np.bincount(head_infoset, minlength=len(infosets)))
        count = offset[ids + 1] - offset[ids]
        pad = offset[ids][:, None] + np.arange(count.max())
        pad[np.arange(count.max()) >= count[:, None]] = len(owner)
        pick = (pad, ids, nodes[first], first, head_infoset)
        steps[int(moves[near[lo]])] = [(lo, hi, pick)]
    for lo, hi in _spans(key):
        at = (len(own) + lo, len(own) + hi, None)
        steps.setdefault(int(key[lo]) // stride, []).append(at)
    return Plan(
        parent=nodes,
        child=edges + 1,
        source=src[edges],
        opponent=opp[near],
        chance=chance[near],
        steps=tuple(chain.from_iterable(steps[d] for d in sorted(steps, reverse=True))),
    )


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
    terminal = np.ones(nodes, dtype=bool)
    terminal[parent] = False
    # Each edge's mover: seat 0 or 1, or 2 for chance, whose infoset is -1.
    seats = np.array([player for player, _, _ in infosets] + [2], dtype=np.intp)
    moved = seats[node_infoset[parent]]
    src = np.frombuffer(weights, dtype=np.int64)[1:].astype(np.intp)
    src[moved == 2] += slots
    # Top-down over the edges into inner nodes, a tree depth at a time: each
    # inner node's chance reach (multiplied by 1.0 where a seat moves) and
    # each seat's sequence and move count there (see ``GameLayout``). Only
    # inner nodes are edge parents, so only they are kept: ``up[e]`` is
    # ``parent[e]``'s place among them, and the root's is 0.
    inner = np.flatnonzero(~terminal)
    up = np.searchsorted(inner, parent)
    rise = np.argsort(depth[inner[1:]], kind="stable")
    below = rise + 1
    down = inner[below] - 1
    factor = np.concatenate((np.ones(slots), tail))[src[down]]
    chance = np.ones(len(inner))
    last = [np.full(len(inner), slots) for _ in range(2)]
    moves = [np.zeros(len(inner), dtype=np.intp) for _ in range(2)]
    for lo, hi in _spans(depth[parent[down]]):
        edges, at = down[lo:hi], below[lo:hi]
        above = up[edges]
        chance[at] = chance[above] * factor[lo:hi]
        for seat in (0, 1):
            own = moved[edges] == seat
            last[seat][at] = np.where(own, src[edges], last[seat][above])
            moves[seat][at] = moves[seat][above] + own
    del rise, down, below, factor
    # Perfect recall: every node of an infoset has its first node's sequence.
    kind = node_infoset[inner]
    decided = np.flatnonzero(kind >= 0)
    ids = kind[decided]
    own_sequence = np.where(seats[ids] == 0, last[0][decided], last[1][decided])
    _, first = np.unique(ids, return_index=True)
    bad = np.flatnonzero(own_sequence != own_sequence[first][ids])
    if len(bad):
        raise ValueError(f"imperfect recall at infoset '{infosets[ids[bad[0]]][1]}'")
    del decided, ids, own_sequence, first, bad
    # The most chance nodes on a path: at a chance node, those above it (its
    # depth less both seats' moves) and itself.
    chanced = (depth[inner] - moves[0] - moves[1])[kind < 0]
    chance_depth = int(chanced.max(initial=-1)) + 1
    del kind, chanced, inner
    # Each slot's move count and parent sequence, the same at every edge.
    sequence = np.zeros((2, slots), dtype=np.intp)
    for seat in (0, 1):
        own = moved == seat
        sequence[:, src[own]] = moves[seat][up[own]], last[seat][up[own]]
    order = np.argsort(sequence[0], kind="stable")
    counts, prior = sequence[:, order]
    offset = np.array(offset, dtype=np.intp)
    owner = np.repeat(np.arange(len(infosets)), np.diff(offset))
    plans = tuple(
        _plan(seat, parent, up, src, moved, depth, moves[seat], owner, offset,
              infosets, last[1 - seat], chance)
        for seat in (0, 1)
    )
    del up, chance, moved, last, moves
    # Each node's edges in seat 0's plan, and each weight-table index's
    # column: its place among its node's edges.
    plan = plans[0]
    heads = np.flatnonzero(np.diff(plan.parent, prepend=-1))
    first = np.zeros(nodes, dtype=np.intp)
    last = np.zeros(nodes, dtype=np.intp)
    first[plan.parent[heads]] = heads
    last[plan.parent[heads]] = np.append(heads[1:], len(plan.parent)) - 1
    column = np.zeros(slots + len(tail), dtype=np.intp)
    column[plan.source] = np.arange(len(plan.source)) - first[plan.parent]
    tail = np.array(tail, dtype=np.float64)
    tail_totals = 0.0 + tail
    for at in _columns(column[slots:]):
        tail_totals[at] = tail_totals[at - 1] + tail[at]
    return GameLayout(
        infosets=infosets,
        offset=offset.tolist(),
        tail=tail,
        sequences=tuple((order[lo:hi], prior[lo:hi]) for lo, hi in _spans(counts)),
        seat=seats[:-1],
        owner=owner,
        uniform=1.0 / np.diff(offset)[owner],
        utility=np.frombuffer(utility, dtype=np.float64),
        terminal=terminal,
        plans=plans,
        chance_node=(node_infoset < 0) & ~terminal,
        first=first,
        last=last,
        columns=_columns(column[:slots]),
        tail_totals=tail_totals,
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
    ``policy[s]``: by slot, with the empty sequence's 1.0 at ``offset[-1]``.
    Filled a level of ``sequences`` at a time, so each slot's reach is its
    parent sequence's times its policy."""
    reach = np.ones(layout.offset[-1] + 1)
    for slots, parents in layout.sequences:
        reach[slots] = reach[parents] * policy[slots]
    return reach


def node_values(layout: GameLayout, policy: np.ndarray) -> np.ndarray:
    """Seat 0's value of every node when slot ``s`` plays with probability
    ``policy[s]``: one bottom-up sweep over seat 0's plan, each step adding
    every node's weighted child values, in action order, to 0.0."""
    plan = layout.plans[0]
    weight = np.concatenate((policy, layout.tail))[plan.source]
    parent, child = plan.parent, plan.child
    values = layout.utility.copy()
    for lo, hi, _ in plan.steps:
        np.add.at(values, parent[lo:hi], weight[lo:hi] * values[child[lo:hi]])
    return values


def expected_value(game: GameSpec, profile: dict) -> tuple[float, float]:
    """Exact expected utilities (u1, u2) under a behavioral profile."""
    policy = checked_policy(game, (profile, profile))
    value = float(node_values(game.layout, policy)[0])
    # Summing seat 1's negated payoffs from 0.0 gives exactly -value, except
    # that a zero total is +0.0; 0.0 - value is that same number.
    return value, 0.0 - value


def uniform_profile(game: GameSpec) -> dict[str, tuple[float, ...]]:
    """The profile playing uniformly at every infoset."""
    return {key: (1.0 / n,) * n for _, key, n in game.layout.infosets}
