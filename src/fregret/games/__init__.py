"""Game definitions: extensive-form trees plus small matrix games."""

from ..efg_core import (
    CHANCE,
    DECISION,
    TERMINAL,
    GameNode,
    GameSpec,
    chance,
    decision,
    enumerate_infosets,
    expected_value,
    make_game,
    terminal,
    uniform_profile,
)
from .matrix import MatrixGame, build_matrix
from .poker import build_kuhn, build_leduc

__all__ = [
    "CHANCE",
    "DECISION",
    "TERMINAL",
    "GameNode",
    "GameSpec",
    "MatrixGame",
    "build_kuhn",
    "build_leduc",
    "build_matrix",
    "chance",
    "decision",
    "enumerate_infosets",
    "expected_value",
    "make_game",
    "terminal",
    "uniform_profile",
]
