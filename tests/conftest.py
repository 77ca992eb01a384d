"""Shared fixtures (game trees are immutable, so each is built once per
session) and the row-by-row prediction reference."""

import pytest

from fregret.estimator import TabularEstimator, predict
from fregret.games import build_kuhn, build_leduc


@pytest.fixture(scope="session")
def kuhn_game():
    return build_kuhn()


@pytest.fixture(scope="session")
def leduc_game():
    return build_leduc()


def predict_row(estimator, row):
    """One row's prediction without the estimators' batched ``predict``: a
    table lookup for the memorizer and, for trees, the scalar ``predict`` of
    each tree summed as ``0 + p1 + p2 + ...`` and then divided."""
    if isinstance(estimator, TabularEstimator):
        return estimator._table.get(tuple(float(v) for v in row), 0.0)
    if not estimator._trees:
        return 0.0
    total = 0.0
    for tree in estimator._trees:
        total = total + predict(tree, row)
    return total / len(estimator._trees)
