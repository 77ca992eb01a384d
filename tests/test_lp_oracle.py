"""Exact best response and exploitability against an independent witness:
the sequence-form linear program of ``lp_oracle``, solved by HiGHS; and
CFR's average strategy against the game value that program gives."""

import pytest
from lp_oracle import equilibrium
from test_game_oracle import SEEDS, random_game

from fregret.cfr import (
    CFRConfig,
    average_strategy,
    cfr_iteration,
    checkpoints,
    new_tables,
)
from fregret.efg_core import expected_value
from fregret.eval import best_response, exploitability

TOLERANCE = 1e-9
LEDUC_VALUE = -0.08560642407800036


def assert_equilibrium(game, value, other, profile):
    """Both seats' programs agree on the value, each seat's best response
    to the other's maximin strategy attains it, and so the profile's
    exploitability is zero."""
    assert abs(value - other) <= TOLERANCE
    assert abs(best_response(game, profile, 0).value - value) <= TOLERANCE
    assert abs(best_response(game, profile, 1).value + value) <= TOLERANCE
    assert exploitability(game, profile) <= TOLERANCE


@pytest.mark.parametrize(
    "name, expected", [("kuhn_game", -1.0 / 18.0), ("leduc_game", LEDUC_VALUE)]
)
def test_poker_game_values(request, name, expected):
    game = request.getfixturevalue(name)
    value, other, profile = equilibrium(game)
    assert abs(value - expected) <= TOLERANCE
    assert_equilibrium(game, value, other, profile)


def test_random_games_match_the_program():
    for seed in SEEDS:
        game = random_game(seed)
        assert_equilibrium(game, *equilibrium(game))


def test_leduc_cfr_average_value_is_within_its_exploitability(leduc_game):
    # Seat 0's value v and the average's EV both lie in [-BR1, BR0], so
    # |EV - v| <= BR0 + BR1, the exploitability, at every log point. The gap
    # is not monotone (0.0489, 0.0060, 0.0042 and 0.0056 at t = 10, 100,
    # 500 and 1000), so only its overall fall is asserted.
    config = CFRConfig(iterations=1000, log_every=10)
    tables = new_tables(leduc_game)
    step = lambda: cfr_iteration(leduc_game, tables)
    gaps = {}
    for t, exploit, _ in checkpoints(leduc_game, config, step, tables.strategy_sums):
        profile = average_strategy(leduc_game, tables.strategy_sums)
        gaps[t] = abs(expected_value(leduc_game, profile)[0] - LEDUC_VALUE)
        assert gaps[t] <= exploit, t
    assert gaps[1000] < gaps[10] / 5
