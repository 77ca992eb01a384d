"""Extensive-form game trees: node and game types, build checks, evaluation.

Games are two-player zero-sum trees built eagerly and immutably. A behavioral
strategy profile is a flat dict mapping infoset key -> probability tuple; keys
embed the acting seat (``p0:``/``p1:``) so one dict covers both players.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CHANCE = "chance"
DECISION = "decision"
TERMINAL = "terminal"


@dataclass(frozen=True)
class GameNode:
    """One node of a game tree.

    kind is one of CHANCE, DECISION, TERMINAL. Decision nodes carry the acting
    player, their infoset key, and the ordered action labels. Chance nodes
    carry outcome probabilities. Terminal nodes carry per-player utilities in
    chips. children is ordered to match actions/outcomes.
    """

    kind: str
    player: int | None = None
    infoset: str | None = None
    actions: tuple[str, ...] = ()
    chance_probs: tuple[float, ...] = ()
    utilities: tuple[float, float] | None = None
    children: tuple["GameNode", ...] = ()


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
class GameSpec:
    """An immutable two-player zero-sum extensive-form game.

    utility_range is the max minus min terminal utility over both players.
    action_labels maps each infoset key to its ordered action labels and
    infoset_player maps each key to the acting seat (0 or 1).
    """

    game_id: str
    root: GameNode = field(repr=False)
    utility_range: float
    action_labels: dict[str, tuple[str, ...]] = field(repr=False)
    infoset_player: dict[str, int] = field(repr=False)
    players: int = 2


def make_game(game_id: str, root: GameNode) -> GameSpec:
    """Wrap a built tree in a GameSpec, checking structural invariants.

    Raises ValueError on malformed nodes, non-zero-sum payoffs, infosets
    whose nodes disagree on player or actions, and imperfect recall: every
    node of an infoset must share the acting seat's own (infoset, action
    index) history. Comparing only the latest step of that history suffices:
    the step names an earlier infoset, whose nodes were checked the same way.
    """
    labels: dict[str, tuple[str, ...]] = {}
    players: dict[str, int] = {}
    last_step: dict[str, tuple | None] = {}
    # Per-seat payoff bounds; utility_range is the widest single seat's spread.
    lo = [float("inf"), float("inf")]
    hi = [float("-inf"), float("-inf")]
    stack = [(root, None, None)]
    while stack:
        node, step0, step1 = stack.pop()
        if node.kind == TERMINAL:
            if node.children:
                raise ValueError("terminal node with children")
            if node.utilities[0] + node.utilities[1] != 0.0:
                raise ValueError("terminal utilities are not zero-sum")
            for seat in (0, 1):
                lo[seat] = min(lo[seat], node.utilities[seat])
                hi[seat] = max(hi[seat], node.utilities[seat])
            continue
        if node.kind == CHANCE:
            if len(node.chance_probs) != len(node.children):
                raise ValueError("chance outcome/child count mismatch")
            if any(p < 0.0 for p in node.chance_probs):
                raise ValueError("negative chance probability")
            if abs(sum(node.chance_probs) - 1.0) > 1e-12:
                raise ValueError("chance probabilities do not sum to 1")
            stack.extend((child, step0, step1) for child in node.children)
        elif node.kind == DECISION:
            if len(node.actions) != len(node.children):
                raise ValueError("action/child count mismatch")
            if not node.actions:
                raise ValueError("decision node with no actions")
            own = step0 if node.player == 0 else step1
            seen = labels.get(node.infoset)
            if seen is None:
                labels[node.infoset] = node.actions
                players[node.infoset] = node.player
                last_step[node.infoset] = own
            elif seen != node.actions or players[node.infoset] != node.player:
                raise ValueError(f"inconsistent infoset '{node.infoset}'")
            elif last_step[node.infoset] != own:
                raise ValueError(f"imperfect recall at infoset '{node.infoset}'")
            for index, child in enumerate(node.children):
                step = (node.infoset, index)
                if node.player == 0:
                    stack.append((child, step, step1))
                else:
                    stack.append((child, step0, step))
        else:
            raise ValueError(f"unknown node kind '{node.kind}'")
    spread = max(
        (hi[seat] - lo[seat]) for seat in (0, 1) if lo[seat] <= hi[seat]
    ) if lo[0] <= hi[0] else 0.0
    return GameSpec(
        game_id=game_id,
        root=root,
        utility_range=spread,
        action_labels=labels,
        infoset_player=players,
    )


def enumerate_infosets(game: GameSpec) -> list[tuple[int, str, int]]:
    """List (player, infoset key, action count), depth-first, first visit."""
    out: list[tuple[int, str, int]] = []
    seen: set[str] = set()

    def walk(node: GameNode) -> None:
        if node.kind == DECISION and node.infoset not in seen:
            seen.add(node.infoset)
            out.append((node.player, node.infoset, len(node.actions)))
        for child in node.children:
            walk(child)

    walk(game.root)
    return out


def expected_value(game: GameSpec, profile: dict) -> tuple[float, float]:
    """Exact expected utilities (u1, u2) under a behavioral profile."""

    def walk(node: GameNode) -> tuple[float, float]:
        if node.kind == TERMINAL:
            return node.utilities
        if node.kind == CHANCE:
            e0 = e1 = 0.0
            for p, child in zip(node.chance_probs, node.children):
                c0, c1 = walk(child)
                e0 += p * c0
                e1 += p * c1
            return e0, e1
        try:
            sigma = profile[node.infoset]
        except KeyError:
            raise KeyError(f"profile missing infoset '{node.infoset}'") from None
        if len(sigma) != len(node.actions):
            raise ValueError(f"profile length mismatch at infoset '{node.infoset}'")
        e0 = e1 = 0.0
        for p, child in zip(sigma, node.children):
            c0, c1 = walk(child)
            e0 += p * c0
            e1 += p * c1
        return e0, e1

    return walk(game.root)


def uniform_profile(game: GameSpec) -> dict[str, tuple[float, ...]]:
    """The profile playing uniformly at every infoset."""
    return {
        key: tuple([1.0 / len(acts)] * len(acts))
        for key, acts in game.action_labels.items()
    }
