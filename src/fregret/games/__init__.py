"""Game definitions: Kuhn and Leduc poker trees plus small matrix games."""

from .matrix import MatrixGame, build_matrix
from .poker import build_kuhn, build_leduc

__all__ = ["MatrixGame", "build_kuhn", "build_leduc", "build_matrix"]
