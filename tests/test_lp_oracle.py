"""Exact best response and exploitability against an independent witness:
the sequence-form linear program of ``lp_oracle``, solved by HiGHS."""

import pytest
from lp_oracle import equilibrium
from test_game_oracle import SEEDS, random_game

from fregret.eval import best_response, exploitability

TOLERANCE = 1e-9


def assert_equilibrium(game, value, other, profile):
    """Both seats' programs agree on the value, each seat's best response
    to the other's maximin strategy attains it, and so the profile's
    exploitability is zero."""
    assert abs(value - other) <= TOLERANCE
    assert abs(best_response(game, profile, 0).value - value) <= TOLERANCE
    assert abs(best_response(game, profile, 1).value + value) <= TOLERANCE
    assert exploitability(game, profile) <= TOLERANCE


@pytest.mark.parametrize(
    "name, expected", [("kuhn_game", -1.0 / 18.0), ("leduc_game", -0.08560642407800036)]
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
