"""Shared fixtures (game trees are immutable, so each is built once per
session) and views of slot vectors."""

import dataclasses

import numpy as np
import pytest

from fregret.games import build_kuhn, build_leduc


@pytest.fixture(scope="session")
def kuhn_game():
    return build_kuhn()


@pytest.fixture(scope="session")
def leduc_game():
    return build_leduc()


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


def layout_parts(layout):
    """Every value of a ``GameLayout``, flattened in field order, with each
    list's or tuple's length before its items and each array as (dtype,
    shape, bytes). Layouts are byte-identical when their lists are equal."""
    parts, todo = [], [layout]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            parts.append((item.dtype.str, item.shape, item.tobytes()))
        elif dataclasses.is_dataclass(item):
            fields = dataclasses.fields(item)
            todo.extend(getattr(item, f.name) for f in reversed(fields))
        elif isinstance(item, (list, tuple)):
            parts.append((type(item).__name__, len(item)))
            todo.extend(reversed(item))
        else:
            parts.append(item)
    return parts
