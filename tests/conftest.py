"""Shared fixtures (game trees are immutable, so each is built once per
session) and views of slot vectors."""

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
