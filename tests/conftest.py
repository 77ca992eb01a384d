"""Shared fixtures (game trees are immutable, so each is built once per
session), views of slot vectors, and profile helpers."""

import itertools
import random

import numpy as np
import pytest

from fregret._validation import ordered_sum
from fregret.efg_core import (
    decision,
    enumerate_infosets,
    expected_value,
    make_game,
    terminal,
)
from fregret.games import build_kuhn, build_leduc


@pytest.fixture(scope="session")
def kuhn_game():
    return build_kuhn()


@pytest.fixture(scope="session")
def leduc_game():
    return build_leduc()


@pytest.fixture(scope="session")
def no_chance_game():
    """Three moves and no chance node: seat 1 does not see seat 0's first
    move, and seat 0 moves again after some of seat 1's."""
    def after(key, first, second):
        return decision(0, key, ("e", "f"), (terminal(first), terminal(second)))

    return make_game(
        "no-chance",
        decision(0, "p0:", ("a", "b"), (
            decision(1, "p1:", ("c", "d"), (after("p0:ac", 1.0, -2.0), terminal(0.5))),
            decision(1, "p1:", ("c", "d"), (terminal(-1.0), after("p0:bd", 2.0, -0.5))),
        )),
    )


def infoset_slots(game, key):
    """The infoset id of ``key`` and the slice of its slots."""
    k = [key for _, key, _ in game.layout.infosets].index(key)
    return k, slice(game.layout.offset[k], game.layout.offset[k + 1])


def by_key(game, flat):
    """A slot vector as lists of Python floats keyed by infoset, in table
    order."""
    offset, flat = game.layout.offset, np.asarray(flat, dtype=np.float64).tolist()
    return {
        key: flat[offset[k] : offset[k + 1]]
        for k, (_, key, _) in enumerate(game.layout.infosets)
    }


def seat_keys(game, player):
    """``(key, action count)`` of each of ``player``'s infosets, in table
    order."""
    return [(key, n) for p, key, n in enumerate_infosets(game) if p == player]


def one_hot(index, n):
    return tuple(1.0 if a == index else 0.0 for a in range(n))


def random_profile(game, seed):
    """A fully mixed profile from ``random.Random(seed)``; each row's weights
    are totalled in order, so its bits are the same on every Python."""
    rng = random.Random(seed)
    profile = {}
    for _, key, n in enumerate_infosets(game):
        weights = [rng.random() + 1e-9 for _ in range(n)]
        total = ordered_sum(weights)
        profile[key] = tuple(w / total for w in weights)
    return profile


def brute_force_best_value(game, profile, responder):
    """Max value over every pure responder strategy, by full enumeration."""
    keys = seat_keys(game, responder)
    values = []
    for pure in itertools.product(*[range(n) for _, n in keys]):
        rows = {key: one_hot(a, n) for (key, n), a in zip(keys, pure)}
        values.append(expected_value(game, {**profile, **rows})[responder])
    return max(values)


def position_parts(layout):
    """What a ``GameLayout`` says about the positions of its game, as a
    list: every field that is not by node, each array as (dtype, shape,
    bytes); then each position in preorder, walked down the edge list from
    the root, with its node's payoff, kind and edges' weights (a slot, or a
    chance probability and its running total, as bits); then each seat's
    decision edges at every position, split from the one table by the
    slot's seat, as (slot, the class's opponent sequence, the class's chance
    reach as bits). Two layouts of one game, whether or not its tree shares
    nodes, give equal lists."""

    def flat(item):
        if isinstance(item, np.ndarray):
            return [(item.dtype.str, item.shape, item.tobytes())]
        if isinstance(item, (list, tuple)):
            parts = [(type(item).__name__, len(item))]
            return parts + [part for inner in item for part in flat(inner)]
        return [item]

    parts = []
    for name in ("infosets", "offset", "seat", "owner", "uniform", "sequences",
                 "pairs", "payoff", "chance", "columns", "chance_depth"):
        parts += [name, *flat(getattr(layout, name))]
    slots, source = layout.offset[-1], layout.source.tolist()
    stack = [0]
    while stack:
        node = stack.pop()
        edges = range(layout.first[node], layout.last[node] + 1)
        if layout.terminal[node]:
            edges = range(0)
        weights = [
            ("slot", source[e]) if source[e] < slots else (
                "chance", layout.tail[source[e] - slots].hex(),
                layout.tail_totals[source[e] - slots].hex(),
            )
            for e in edges
        ]
        parts.append((
            layout.utility[node].hex(), bool(layout.terminal[node]),
            bool(layout.chance_node[node]), weights,
        ))
        stack.extend(int(layout.child[e]) for e in reversed(edges))
    slot, kind, _, _, opponent, by_chance = layout.decisions
    mover = layout.seat[layout.owner[slot]]
    for seat in (0, 1):
        own = kind[mover == seat]
        parts.append(list(zip(
            slot[mover == seat].tolist(), opponent[own].tolist(),
            [reach.hex() for reach in by_chance[own].tolist()],
        )))
    return parts
