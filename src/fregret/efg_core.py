"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.
``checked_policy`` is the one check of a profile, which every evaluator
runs: it turns profiles into a slot vector whose rows are distributions.

``GameNode`` trees are the builders' input format, and sampled play walks
them. ``make_game`` checks one with an explicit stack and flattens it into a
``GameLayout``: numpy index arrays over the tree's edges, with nodes
numbered in preorder and grouped by depth, plus a table of the infosets
numbered in first-visit preorder. The CFR pass, best response and expected
value are numpy sweeps over them, one level at a time, so no traversal
depends on Python's recursion limit.

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

from ._validation import format_float

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
    children, so none of the three walks a subtree.
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

    ``buckets`` holds one entry per move depth of the seat, deepest first:
    its *choices* at that depth (None if it has no decision nodes there)
    and its *levels*. The choices are the seat's decision edges out of
    nodes at that depth, as (parents, children, slots, pad, ids, heads,
    first, head infosets): ``pad`` gives each infoset ``ids[i]`` its slots
    by row, padded with the slot past the end, ``heads`` are the decision
    nodes, and ``first`` their first edge. The levels are the opponent and
    chance edges out of nodes at that depth, grouped by the parent's tree
    depth, deepest first, in preorder within a group, each group as
    (parents, children, lo, hi) with ``lo:hi`` its span in ``sum_src``,
    which gives their weight-table indices.

    ``parent``, ``child`` and ``slot`` are all the choices in bucket order,
    so each slot's edges come in preorder; ``heads`` and ``head_infoset``
    are all the decision nodes. ``rows`` lists the seat's infosets in table
    order as (key, id, action count).
    """

    parent: np.ndarray
    child: np.ndarray
    slot: np.ndarray
    heads: np.ndarray
    head_infoset: np.ndarray
    sum_src: np.ndarray
    buckets: tuple
    rows: list


@dataclass(frozen=True, eq=False)
class GameLayout:
    """A game tree flattened in preorder: node 0 is the root, and each node
    precedes its children, which come in action order. Each edge is named by
    its child. ``infosets`` holds (player, key, action count) by infoset id,
    in first-visit order.

    Every infoset-action has a *slot*: slots run over the infoset table in
    order, then over each infoset's actions. Infoset ``k`` owns slots
    ``offset[k]`` to ``offset[k + 1] - 1``, and ``offset[-1]`` is the slot
    count. Solver tables are flat vectors indexed by slot.

    The rest are the index arrays of the numpy sweeps. An edge's weight is
    read from a *weight table*: the policy slot vector followed by ``tail``,
    which holds every chance probability. ``plans`` orders the edges for
    each seat's best response (see ``Plan``); seat 0's order also serves the
    bottom-up node values. ``down`` lists the edges into non-terminal nodes
    grouped by the parent's tree depth, root first, in preorder within a
    depth, as (parents, children, lo, hi) with ``lo:hi`` the group's span
    in ``down_src``, their weight-table indices; ``down_mover`` marks
    whether seat 0, seat 1 or chance moves on each. ``seat`` gives each
    infoset's acting seat, and ``owner`` and ``uniform`` give each slot's
    infoset id and 1 / its action count;
    ``utility`` is seat 0's payoff by node, +0.0 at the non-terminal nodes,
    which ``terminal`` marks False.
    """

    infosets: list[tuple[int, str, int]]
    offset: list[int]
    tail: np.ndarray
    down: tuple
    down_src: np.ndarray
    down_mover: np.ndarray
    seat: np.ndarray
    owner: np.ndarray
    uniform: np.ndarray
    utility: np.ndarray
    terminal: np.ndarray
    plans: tuple[Plan, Plan]


def _spans(key) -> list[tuple[int, int]]:
    """The spans ``lo:hi`` of the runs of equal values in ``key``."""
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _plan(seat, parent, src, moved, depth, moves, owner, offset, infosets) -> Plan:
    """Seat ``seat``'s plan (see ``Plan``). Edge ``e`` leads from
    ``parent[e]`` into node ``e + 1``. Each array is sorted by move depth,
    deepest first, and cut into buckets by slicing."""
    own = np.flatnonzero(moved == seat)
    own = own[np.argsort(-moves[parent[own]], kind="stable")]
    nodes, kids, slot = parent[own], own + 1, src[own]
    # A node's edges are consecutive, in action order.
    first = np.flatnonzero(np.diff(nodes, prepend=-1))
    heads = nodes[first]
    head_infoset = owner[slot[first]]
    rows = [
        (key, k, n) for k, (player, key, n) in enumerate(infosets) if player == seat
    ]
    # The seat's infosets by move depth, which all their nodes share.
    ids = np.array([k for _, k, _ in rows], dtype=np.intp)
    id_depth = np.zeros(len(infosets), dtype=np.intp)
    id_depth[head_infoset] = moves[heads]
    ids = ids[np.argsort(-id_depth[ids], kind="stable")]
    count = offset[ids + 1] - offset[ids]
    width = max(count.tolist(), default=1)
    pad = offset[ids][:, None] + np.arange(width)
    pad[np.arange(width) >= count[:, None]] = len(owner)
    # Opponent and chance edges by move depth, then tree depth, deepest first.
    other = np.flatnonzero(moved != seat)
    key = moves[parent[other]] * (int(depth.max()) + 1) + depth[parent[other]]
    order = np.argsort(-key, kind="stable")
    other, key = other[order], key[order]
    parents, children = parent[other], other + 1
    levels: dict[int, list] = {}
    for lo, hi in _spans(key):
        group = (parents[lo:hi], children[lo:hi], lo, hi)
        levels.setdefault(int(moves[parents[lo]]), []).append(group)
    spans = [
        {int(by[lo]): (lo, hi) for lo, hi in _spans(by)}
        for by in (moves[nodes], moves[heads], id_depth[ids])
    ]
    buckets = []
    for d in sorted(spans[0].keys() | levels.keys(), reverse=True):
        choices = None
        if d in spans[0]:
            (e0, e1), (h0, h1), (i0, i1) = (span[d] for span in spans)
            choices = (
                nodes[e0:e1], kids[e0:e1], slot[e0:e1], pad[i0:i1], ids[i0:i1],
                heads[h0:h1], first[h0:h1] - e0, head_infoset[h0:h1],
            )
        buckets.append((choices, tuple(levels.get(d, ()))))
    return Plan(
        parent=nodes,
        child=kids,
        slot=slot,
        heads=heads,
        head_infoset=head_infoset,
        sum_src=src[other],
        buckets=tuple(buckets),
        rows=rows,
    )


def _layout(parents, actions, infoset, utility, tail, first, infosets, offset):
    """Build the ``GameLayout`` from ``make_game``'s columns, with numpy: no
    Python loop runs over all nodes.

    Edge ``e`` leads from ``parent[e]`` into node ``e + 1``: every node but
    the root has one edge into it, and preorder numbers the root 0.
    """
    nodes = len(parents)
    slots = offset[-1]
    parent = np.frombuffer(parents, dtype=np.int64)[1:].astype(np.intp, copy=False)
    terminal = np.ones(nodes, dtype=bool)
    terminal[parent] = False
    first_prob = np.zeros(nodes, dtype=np.intp)
    first_prob[list(first)] = list(first.values())
    edge_infoset = np.frombuffer(infoset, dtype=np.int64)[parent]
    # Each edge's mover: seat 0 or 1, or 2 for chance, whose infoset is -1.
    seats = np.array([player for player, _, _ in infosets] + [2], dtype=np.intp)
    moved = seats[edge_infoset]
    offset = np.array(offset, dtype=np.intp)
    src = np.where(moved == 2, slots + first_prob[parent], offset[edge_infoset])
    src += np.frombuffer(actions, dtype=np.int64)[1:]
    del edge_infoset, first_prob  # memory use peaks in the plans
    # Tree depth and each seat's move depth, by pointer jumping: each round
    # adds the counts of the path above the node's current ancestor.
    steps = np.zeros((3, nodes), dtype=np.intp)
    steps[0, 1:] = 1
    steps[1, 1:] = moved == 0
    steps[2, 1:] = moved == 1
    ancestor = np.concatenate(([0], parent))
    while ancestor.any():
        steps += steps.take(ancestor, axis=1)
        ancestor = ancestor.take(ancestor)
    owner = np.repeat(np.arange(len(infosets)), np.diff(offset))
    down = np.flatnonzero(~terminal[1:])
    down = down[np.argsort(steps[0][parent[down]], kind="stable")]
    down_parents, down_children = parent[down], down + 1
    return GameLayout(
        infosets=infosets,
        offset=offset.tolist(),
        tail=np.array(tail, dtype=np.float64),
        down=tuple(
            (down_parents[lo:hi], down_children[lo:hi], lo, hi)
            for lo, hi in _spans(steps[0][down_parents])
        ),
        down_src=src[down],
        down_mover=moved[down] == np.arange(3)[:, None],
        seat=seats[:-1],
        owner=owner,
        uniform=1.0 / np.diff(offset)[owner],
        utility=np.frombuffer(utility, dtype=np.float64),
        terminal=terminal,
        plans=tuple(
            _plan(seat, parent, src, moved, steps[0], steps[1 + seat], owner, offset,
                  infosets)
            for seat in (0, 1)
        ),
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
    actions, and imperfect recall: every node of an infoset must share the
    acting seat's own (infoset, action index) history. Comparing only the
    latest step of that history suffices: the step names an earlier infoset,
    whose nodes were checked the same way.
    """
    labels: dict[str, tuple[str, ...]] = {}
    ids: dict[str, int] = {}
    last_step: list[tuple | None] = []
    infosets: list[tuple[int, str, int]] = []
    offset = [0]
    # By node, as machine numbers: the parent, the index among siblings, the
    # infoset id (-1 off decision nodes) and seat 0's payoff (0.0 off
    # terminals). Chance probabilities go to the weight-table tail, and
    # ``first`` maps each chance node to the tail index of its first one.
    parents, actions, infoset = array("q"), array("q"), array("q")
    utility = array("d")
    tail, first = [], {}
    # Children are pushed in reverse, so nodes are numbered in preorder.
    stack = [(root, -1, 0, None, None)]
    while stack:
        node, parent, action, step0, step1 = stack.pop()
        index = len(parents)
        parents.append(parent)
        actions.append(action)
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
            if abs(sum(node.chance_probs) - 1.0) > 1e-12:
                raise ValueError("chance probabilities do not sum to 1")
            first[index] = len(tail)
            tail.extend(node.chance_probs)
            for a in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[a], index, a, step0, step1))
        elif node.kind == DECISION:
            if len(node.actions) != len(node.children):
                raise ValueError("action/child count mismatch")
            if not node.actions:
                raise ValueError("decision node with no actions")
            if node.player not in (0, 1):
                raise ValueError(f"decision node player {node.player!r} is not 0 or 1")
            own = step0 if node.player == 0 else step1
            key = node.infoset
            if not isinstance(key, str):
                raise ValueError(f"decision node infoset {key!r} is not a str")
            k = ids.setdefault(key, len(ids))
            if k == len(last_step):  # first node of a new infoset
                infosets.append((node.player, key, len(node.actions)))
                offset.append(offset[-1] + len(node.actions))
                labels[key] = node.actions
                last_step.append(own)
            elif labels[key] != node.actions or infosets[k][0] != node.player:
                raise ValueError(f"inconsistent infoset '{key}'")
            elif last_step[k] != own:
                raise ValueError(f"imperfect recall at infoset '{key}'")
            infoset[index] = k
            for a in range(len(node.children) - 1, -1, -1):
                steps = ((key, a), step1) if node.player == 0 else (step0, (key, a))
                stack.append((node.children[a], index, a, *steps))
        else:
            raise ValueError(f"unknown node kind '{node.kind}'")
    layout = _layout(parents, actions, infoset, utility, tail, first, infosets, offset)
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
    total = 0.0
    for p in probs:
        total += float(p)
    # A NaN or infinite entry makes the sum NaN or infinite, never near 1.
    if not (abs(total - 1.0) <= 1e-6 and min(probs) >= 0.0):
        raise ValueError(
            f"{where}probabilities {tuple(probs)!r} for infoset '{key}' sum to "
            f"{format_float(total)}; each must be finite and >= 0, summing to 1"
        )


def checked_policy(game: GameSpec, seat_profiles) -> np.ndarray:
    """The slot vector of each seat's rows from its profile in
    ``seat_profiles``, zeros for a seat whose profile is None.

    Raises on the first fault, in this order: ValueError on a key the game
    lacks; KeyError on a missing row or ValueError on one of the wrong
    length, the first in table order; ``check_row``'s ValueError on the first
    row in table order that is not a distribution, found in one pass over
    the vector (``bincount`` adds each infoset's sum in slot order from 0.0).
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
    sums = np.bincount(layout.owner, weights=policy, minlength=len(rows))
    bad = ~(np.abs(sums - 1.0) <= 1e-6)
    bad[layout.owner[policy < 0.0]] = True
    bad &= np.array([profile is not None for profile in seat_profiles])[layout.seat]
    if bad.any():
        k = int(bad.argmax())
        check_row(layout.infosets[k][1], rows[k])
    return policy


def node_values(layout: GameLayout, policy: np.ndarray) -> np.ndarray:
    """Seat 0's value of every node when slot ``s`` plays with probability
    ``policy[s]``: one bottom-up sweep in seat 0's plan order, each group
    adding every node's weighted child values, in action order, to 0.0."""
    plan = layout.plans[0]
    weight = np.concatenate((policy, layout.tail))[plan.sum_src]
    values = layout.utility.copy()
    for choices, levels in plan.buckets:
        if choices is not None:
            parent, child, slot = choices[:3]
            np.add.at(values, parent, policy[slot] * values[child])
        for parent, child, lo, hi in levels:
            np.add.at(values, parent, weight[lo:hi] * values[child])
    return values


def expected_value(game: GameSpec, profile: dict) -> tuple[float, float]:
    """Exact expected utilities (u1, u2) under a behavioral profile."""
    policy = checked_policy(game, (profile, profile))
    if not game.root.children:
        return game.root.utilities
    value = float(node_values(game.layout, policy)[0])
    # Summing seat 1's negated payoffs from 0.0 gives exactly -value, except
    # that a zero total is +0.0; 0.0 - value is that same number.
    return value, 0.0 - value


def uniform_profile(game: GameSpec) -> dict[str, tuple[float, ...]]:
    """The profile playing uniformly at every infoset."""
    return {key: (1.0 / n,) * n for _, key, n in game.layout.infosets}
