"""The float evaluators against exact rational values (``exact_oracle``).

On Kuhn, Leduc and the 200 random games of ``test_game_oracle``, under a
uniform policy, a policy with many zero rows, and (on the poker games)
regret-matched CFR policies, each of these must lie within γₙ·Σ|terms| of
its exact value, with n from ``roundings``: ``cfr_pass``'s root value, its
regret for every slot and its strategy sum for every slot (own reach times
policy, added once per sequence), ``expected_value``, both seats'
``best_response`` values, ``policy_exploitability`` and ``exact_ev``. The
bound depends on no summation order, so it holds for any order a fast path
adds in. A game whose one payoff is off by a relative 1e-9, or whose one
terminal pays nothing, must fail the same check, and so must strategy sums
added at every visit of an infoset, k times too large at an infoset of k
positions.
"""

import dataclasses
import random

import numpy as np
import pytest
from conftest import by_key
from exact_oracle import (
    best_response,
    exact_ev,
    exact_policy,
    gamma,
    regrets,
    roundings,
    within,
)
from test_game_oracle import SEEDS, is_dyadic, random_game, random_profile

from fregret.cfr import cfr_iteration, cfr_pass, new_tables, regret_policy
from fregret.efg_core import (
    CHANCE,
    TERMINAL,
    checked_policy,
    expected_value,
    make_game,
    sequence_reach,
    terminal,
    uniform_profile,
)
from fregret.eval import best_response as fast_best_response
from fregret.eval import exact_ev as fast_exact_ev
from fregret.eval import policy_exploitability


def misses(game, policy, exact_game=None):
    """What of ``game``'s float evaluation under slot vector ``policy``
    lies outside the bound around ``exact_game``'s exact values (``game``'s
    own by default): a list of messages, empty when all is within."""
    exact_game = game if exact_game is None else exact_game
    n = roundings(exact_game)
    exact = exact_policy(policy)
    found = []

    def check(what, computed, value, scale):
        if not within(computed, value, scale, n):
            found.append(f"{game.game_id} {what}: {computed!r} vs {float(value)!r}")

    root, size, delta, scale, increments = regrets(exact_game, exact)
    strategy_sums = np.zeros(len(policy))
    value, deltas = cfr_pass(game, policy, strategy_sums)
    check("cfr_pass value", value, root, size)
    for slot, (computed, d, s) in enumerate(zip(deltas.tolist(), delta, scale)):
        check(f"regret of slot {slot}", computed, d, s)
    for slot, (computed, exact_sum) in enumerate(
        zip(strategy_sums.tolist(), increments)
    ):
        check(f"strategy sum of slot {slot}", computed, exact_sum, exact_sum)
    profile = by_key(game, policy)
    u0, u1 = expected_value(game, profile)
    check("expected_value", u0, root, size)
    if u1 != 0.0 - u0:
        found.append(f"{game.game_id}: expected values {u0!r}, {u1!r}")
    total = total_size = 0
    for responder in (0, 1):
        best, best_size = best_response(exact_game, exact, responder)
        computed = fast_best_response(game, profile, responder).value
        check(f"best response of seat {responder}", computed, best, best_size)
        total, total_size = total + best, total_size + best_size
    check("exploitability", policy_exploitability(game, policy), total, total_size)
    uniform = checked_policy(game, (uniform_profile(game),) * 2)
    ev, ev_size = exact_ev(exact_game, exact, exact_policy(uniform))
    computed = fast_exact_ev(game, profile, uniform_profile(game))
    check("exact_ev against uniform", computed, ev, ev_size)
    return found


def cfr_policies(game, iterations):
    """The regret-matched policy of each pass in a CFR run."""
    tables, policies = new_tables(game), []
    for _ in range(iterations):
        policies.append(regret_policy(game, tables.regrets))
        cfr_iteration(game, tables)
    return policies


def poker_policies(game, seed):
    """Uniform, a seeded random policy with zero rows, and the policies of
    CFR's 4th and 12th passes."""
    uniform = checked_policy(game, (uniform_profile(game),) * 2)
    spread = random_profile(game, random.Random(seed), False)
    played = cfr_policies(game, 12)
    return [uniform, checked_policy(game, (spread, spread)), played[3], played[-1]]


@pytest.mark.parametrize("name", ["kuhn_game", "leduc_game"])
def test_poker_evaluators_are_within_the_bound(request, name):
    game = request.getfixturevalue(name)
    for policy in poker_policies(game, 5):
        assert misses(game, policy) == []


@pytest.fixture(scope="module")
def games():
    return {seed: random_game(seed) for seed in SEEDS}


def test_random_game_evaluators_are_within_the_bound(games):
    for seed, game in games.items():
        spread = random_profile(game, random.Random(seed), is_dyadic(seed))
        for profile in (uniform_profile(game), spread):
            assert misses(game, checked_policy(game, (profile, profile))) == []


def test_the_bound_is_far_below_a_relative_1e_9(leduc_game):
    """What the mutation tests rely on: on Leduc, γₙ is below 1e-12."""
    assert float(gamma(roundings(leduc_game))) < 1e-12


def rebuilt(root, change):
    """A copy of the tree at ``root`` in which ``change(node)`` replaces
    each terminal it returns a node for; shared subtrees stay shared."""
    memo = {}

    def copy(node):
        if id(node) not in memo:
            if node.kind == TERMINAL:
                memo[id(node)] = change(node) or node
            else:
                children = tuple(copy(child) for child in node.children)
                memo[id(node)] = dataclasses.replace(node, children=children)
        return memo[id(node)]

    return copy(root)


def last_terminal(root):
    """The last terminal in preorder whose payoff is not zero."""
    stack, found = [root], None
    while stack:
        node = stack.pop()
        if node.kind == TERMINAL and node.utilities[0] != 0.0:
            found = node
        stack.extend(reversed(node.children))
    return found


@pytest.mark.parametrize("name", ["kuhn_game", "leduc_game"])
@pytest.mark.parametrize(
    "mutation", ["payoff off by a relative 1e-9", "terminal dropped"]
)
def test_a_mutated_game_fails_the_check(request, name, mutation):
    game = request.getfixturevalue(name)
    victim = last_terminal(game.root)
    u = victim.utilities[0]
    wrong = u * (1 + 1e-9) if mutation.startswith("payoff") else 0.0
    root = rebuilt(game.root, lambda n: terminal(wrong) if n is victim else None)
    mutant = make_game(game.game_id, root)
    policy = checked_policy(game, (uniform_profile(game),) * 2)
    assert misses(game, policy) == []
    assert misses(mutant, policy, exact_game=game) != []


def test_chance_nodes_and_terminals_are_covered(games):
    """The random games hold chance nodes, and some terminals with zero
    payoff, so the checks above see both."""
    kinds = set()
    for game in games.values():
        stack = [game.root]
        while stack:
            node = stack.pop()
            kinds.add(node.kind)
            if node.kind == TERMINAL and node.utilities[0] == 0.0:
                kinds.add("zero payoff")
            stack.extend(node.children)
    assert {CHANCE, TERMINAL, "zero payoff"} <= kinds


@pytest.mark.parametrize("name", ["kuhn_game", "leduc_game"])
def test_per_visit_strategy_sums_fail_the_check(request, name):
    """Every poker infoset has several positions, so strategy sums added at
    every visit miss the exact increment at every slot."""
    game = request.getfixturevalue(name)
    layout = game.layout
    slot = layout.decisions[0]
    assert np.bincount(slot).min() >= 2
    policy = checked_policy(game, (uniform_profile(game),) * 2)
    *_, increments = regrets(game, exact_policy(policy))
    per_visit = np.zeros(len(policy))
    np.add.at(per_visit, slot, sequence_reach(layout, policy)[slot])
    n = roundings(game)
    for computed, exact_sum in zip(per_visit.tolist(), increments):
        assert not within(computed, exact_sum, exact_sum, n)
