"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.

``GameNode`` trees are the builders' input format. ``make_game`` checks one
with an explicit stack and flattens it into a ``GameLayout``: plain lists
indexed by node id, with nodes numbered in preorder, plus a table of the
infosets numbered in first-visit preorder. Every traversal (the CFR pass,
best response, expected value, sampled play) is a loop over that layout, so
none depends on Python's recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

CHANCE = "chance"
DECISION = "decision"
TERMINAL = "terminal"


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True)
class GameLayout:
    """A game tree flattened in preorder: node 0 is the root, and each node
    precedes its children, which come in action order.

    Per node id: ``children`` lists child ids (empty exactly at terminals),
    ``infoset`` is the infoset id of a decision node (-1 elsewhere),
    ``probs`` a chance node's outcome probabilities and ``utility`` a
    terminal's seat-0 payoff (0.0 elsewhere). ``inner`` lists non-terminal
    nodes in preorder; ``infosets`` holds (player, key, action count) by
    infoset id, in first-visit order.

    Every infoset-action has a *slot*: slots run over the infoset table in
    order, then over each infoset's actions. Infoset ``k`` owns slots
    ``offset[k]`` to ``offset[k + 1] - 1``, and ``offset[-1]`` is the slot
    count. Solver tables are flat vectors indexed by slot.
    """

    children: list[list[int]]
    infoset: list[int]
    probs: list[tuple[float, ...]]
    utility: list[float]
    inner: list[int]
    infosets: list[tuple[int, str, int]]
    offset: list[int]


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

    Raises ValueError on malformed nodes, non-finite chance probabilities or
    utilities, non-zero-sum payoffs, infosets whose nodes disagree on player
    or actions, and imperfect recall: every node of an infoset must share the
    acting seat's own (infoset, action index) history. Comparing only the
    latest step of that history suffices: the step names an earlier infoset,
    whose nodes were checked the same way.
    """
    labels: dict[str, tuple[str, ...]] = {}
    ids: dict[str, int] = {}
    last_step: list[tuple | None] = []
    layout = GameLayout([], [], [], [], [], [], [0])
    children, infoset, utility = layout.children, layout.infoset, layout.utility
    # Children are pushed in reverse, so nodes are numbered in preorder.
    stack = [(root, -1, None, None)]
    while stack:
        node, parent, step0, step1 = stack.pop()
        index = len(children)
        if parent >= 0:
            children[parent].append(index)
        children.append([])
        infoset.append(-1)
        layout.probs.append(node.chance_probs)
        if node.kind == TERMINAL:
            if node.children:
                raise ValueError("terminal node with children")
            u0, u1 = node.utilities
            # A sum of exactly zero implies both utilities are finite.
            if u0 + u1 != 0.0:
                if not (math.isfinite(u0) and math.isfinite(u1)):
                    raise ValueError("non-finite terminal utility")
                raise ValueError("terminal utilities are not zero-sum")
            utility.append(u0)
            continue
        layout.inner.append(index)
        utility.append(0.0)
        if node.kind == CHANCE:
            if len(node.chance_probs) != len(node.children):
                raise ValueError("chance outcome/child count mismatch")
            if not all(0.0 <= p < math.inf for p in node.chance_probs):
                raise ValueError("chance probabilities must be finite and >= 0")
            if abs(sum(node.chance_probs) - 1.0) > 1e-12:
                raise ValueError("chance probabilities do not sum to 1")
            for child in reversed(node.children):
                stack.append((child, index, step0, step1))
        elif node.kind == DECISION:
            if len(node.actions) != len(node.children):
                raise ValueError("action/child count mismatch")
            if not node.actions:
                raise ValueError("decision node with no actions")
            if node.player not in (0, 1):
                raise ValueError(f"decision node player {node.player!r} is not 0 or 1")
            own = step0 if node.player == 0 else step1
            key = node.infoset
            k = ids.setdefault(key, len(ids))
            if k == len(last_step):  # first node of a new infoset
                layout.infosets.append((node.player, key, len(node.actions)))
                layout.offset.append(layout.offset[-1] + len(node.actions))
                labels[key] = node.actions
                last_step.append(own)
            elif labels[key] != node.actions or layout.infosets[k][0] != node.player:
                raise ValueError(f"inconsistent infoset '{key}'")
            elif last_step[k] != own:
                raise ValueError(f"imperfect recall at infoset '{key}'")
            infoset[index] = k
            for a in range(len(node.children) - 1, -1, -1):
                steps = ((key, a), step1) if node.player == 0 else (step0, (key, a))
                stack.append((node.children[a], index, *steps))
        else:
            raise ValueError(f"unknown node kind '{node.kind}'")
    # Seat 1's payoffs are the exact negations, so both seats' spreads agree.
    payoffs = [u for u, kids in zip(utility, children) if not kids]
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


def profile_rows(game: GameSpec, seat_profiles) -> list:
    """Each infoset's probabilities from its seat's profile, by infoset id;
    None for a seat whose profile is None. Raises KeyError on a missing row
    and ValueError on a row of the wrong length."""
    rows = []
    for player, key, n in game.layout.infosets:
        profile, probs = seat_profiles[player], None
        if profile is not None:
            try:
                probs = profile[key]
            except KeyError:
                raise KeyError(f"profile missing infoset '{key}'") from None
            if len(probs) != n:
                raise ValueError(
                    f"profile entry for '{key}' has {len(probs)} "
                    f"probabilities for {n} actions"
                )
        rows.append(probs)
    return rows


def node_values(layout: GameLayout, rows) -> list[float]:
    """Seat 0's value of every node when infoset ``k`` plays ``rows[k]``, in
    one bottom-up sweep: each node adds its weighted child values to 0.0."""
    values = list(layout.utility)
    children, infoset, probs = layout.children, layout.infoset, layout.probs
    for node in reversed(layout.inner):
        k = infoset[node]
        total = 0.0
        for p, child in zip(probs[node] if k < 0 else rows[k], children[node]):
            total += p * values[child]
        values[node] = total
    return values


def expected_value(game: GameSpec, profile: dict) -> tuple[float, float]:
    """Exact expected utilities (u1, u2) under a behavioral profile."""
    if not game.layout.inner:
        return game.root.utilities
    value = node_values(game.layout, profile_rows(game, (profile, profile)))[0]
    # Summing seat 1's negated payoffs from 0.0 gives exactly -value, except
    # that a zero total is +0.0; 0.0 - value is that same number.
    return value, 0.0 - value


def uniform_profile(game: GameSpec) -> dict[str, tuple[float, ...]]:
    """The profile playing uniformly at every infoset."""
    return {key: (1.0 / n,) * n for _, key, n in game.layout.infosets}
