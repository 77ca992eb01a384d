"""The layout's evaluators against scalar walks over ``GameNode`` trees.

``reference_cfr_pass`` and ``reference_enumerate_infosets`` are the
recursive walks that the loops over ``GameSpec.layout`` replaced, kept here
as the oracle; the CFR pass still adds its regrets in their node order.
The walk adds each infoset's strategy sums at its first visit in preorder,
once per sequence, as CFR's average strategy weights each infoset's
policy by its own reach.
``reference_best_response`` and ``reference_expected_value`` are
pure-Python walks in the order of the evaluators that read the pair table:
``reference_sequence_form`` walks the tree in preorder, numbering slots as
the layout does, and sums each pair's terminals in preorder; each
sequence's value then sums its pairs, in order, and values back up by
sequence. Those two walks once added in node order too, as the recursive
evaluators did; ``exact_oracle`` is the witness that does not depend on
the order. On a few hundred seeded random zero-sum perfect-recall games,
some of whose positions share nodes, the layout code must reproduce the
walks bit for bit: root values, regret and strategy-sum vectors,
best-response values and response rows, dict order included.
``reference_cfr_solve`` runs CFR on tables keyed by infoset over those
walks, and ``solve`` must match its profiles and logs repr for repr.
Best-response values are also checked against a brute-force maximum over
the responder's pure strategies, and a 3000-deep chain game checks that no
traversal needs Python's recursion limit.
"""

import ast
import itertools
import math
import pathlib
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from conftest import by_key
from exact_oracle import roundings, within

import fregret
from fregret.cfr import CFRConfig, cfr_pass, new_tables, regret_policy, solve
from fregret.cli import read_strategy_file
from fregret.efg_core import (
    CHANCE,
    DECISION,
    TERMINAL,
    chance,
    checked_policy,
    decision,
    enumerate_infosets,
    expected_value,
    make_game,
    policy_value,
    sequence_reach,
    terminal,
    uniform_profile,
)
from fregret.eval import (
    BestResponseResult,
    best_response,
    exact_ev,
    exploitability,
    merge_profiles,
    sampled_match,
)
from fregret.rcfr import RCFRConfig, rcfr_solve
from fregret.regret import regret_match


def sum(values, start=0):  # noqa: A001
    """The builtin ``sum`` as it is up to Python 3.11: plain additions in
    order from ``start``. From 3.12 the builtin compensates float sums; the
    walks below were recorded under the plain one and use this copy, so
    they compute the same bits on every Python version."""
    total = start
    for value in values:
        total = total + value
    return total


# ---------------------------------------------------------------------------
# Scalar walks in the evaluators' order


def reference_enumerate_infosets(game):
    """List (player, infoset key, action count), depth-first, first visit."""
    out = []
    seen = set()

    def walk(node):
        if node.kind == DECISION and node.infoset not in seen:
            seen.add(node.infoset)
            out.append((node.player, node.infoset, len(node.actions)))
        for child in node.children:
            walk(child)

    walk(game.root)
    return out


def reference_row(profile, node):
    """``node``'s row of ``profile``, failing as ``checked_policy`` does."""
    try:
        probs = profile[node.infoset]
    except KeyError:
        raise KeyError(f"profile missing infoset '{node.infoset}'") from None
    if len(probs) != len(node.actions):
        raise ValueError(
            f"profile entry for '{node.infoset}' has {len(probs)} "
            f"probabilities for {len(node.actions)} actions"
        )
    return probs


def reference_sequence_form(game, row):
    """The sequence form, by one walk over ``game.root`` in preorder.

    Slots are numbered by infoset in first-visit order, then by action, and
    seat ``i``'s empty sequence is S + ``i``, for S slots. ``row(node)``
    gives each decision node's probabilities; it is called at every visit.
    Returns each infoset's range of slots, by key; the policy and each
    slot's parent sequence, by slot; and, by sequence pair (seat 0's, seat 1's) in sorted
    order, ``[chance reach times seat 0's payoff, chance reach]`` of its
    terminals, each added in preorder from 0.0.
    """
    ranges, slots = {}, 0
    for _, key, n in reference_enumerate_infosets(game):
        ranges[key], slots = range(slots, slots + n), slots + n
    policy, parent, pairs = [0.0] * slots, [0] * slots, {}
    stack = [(game.root, (slots, slots + 1), 1.0)]
    while stack:
        node, at, reach = stack.pop()
        if node.kind == TERMINAL:
            sums = pairs.setdefault(at, [0.0, 0.0])
            sums[0] += reach * node.utilities[0]
            sums[1] += reach
        elif node.kind == CHANCE:
            for p, child in reversed(list(zip(node.chance_probs, node.children))):
                stack.append((child, at, reach * p))
        else:
            probs, k = row(node), ranges[node.infoset].start
            for a in reversed(range(len(node.children))):
                policy[k + a], parent[k + a] = probs[a], at[node.player]
                step = (k + a, at[1]) if node.player == 0 else (at[0], k + a)
                stack.append((node.children[a], step, reach))
    return ranges, policy, parent, dict(sorted(pairs.items()))


def reference_reach(policy, parent):
    """Each sequence's reach: its parent's times its policy, by slot, and
    1.0 at both empty sequences. A parent slot precedes its children."""
    reach = policy + [1.0, 1.0]
    for s, p in enumerate(parent):
        reach[s] = reach[p] * policy[s]
    return reach


def reference_values(pairs, reach, column, negate):
    """By sequence, each seat's sum over its pairs, in order from 0.0, of
    the pair's ``column`` times the other seat's reach; seat 1's terms are
    negated when ``negate`` is set."""
    values = [0.0] * len(reach)
    for (s0, s1), sums in pairs.items():
        values[s0] += sums[column] * reach[s1]
        values[s1] += (-sums[column] if negate else sums[column]) * reach[s0]
    return values


def reference_backup(values, parent, ranges):
    """Back ``values`` up the sequences in place: every slot before its
    parent (the slots from last to first, then the two empty sequences),
    each sequence adding to itself the largest slot value of each infoset
    whose parent it is, in slot order."""
    below = [[] for _ in values]
    for slots in ranges.values():
        below[parent[slots.start]].append(slots)
    for s in [*reversed(range(len(parent))), len(parent), len(parent) + 1]:
        for slots in below[s]:
            values[s] += max(values[t] for t in slots)


def reference_cfr_pass(game, policy_fn, strategy_sums):
    """One full-width traversal under the policies given by ``policy_fn``.
    Each infoset adds its own reach times its policy into ``strategy_sums``
    at its first visit in preorder, and every visit adds its counterfactual
    regrets into the returned deltas."""
    deltas, seen = {}, set()

    def walk(node, reach0, reach1, chance_reach):
        if node.kind == TERMINAL:
            return node.utilities[0]
        if node.kind == CHANCE:
            total = 0.0
            for prob, child in zip(node.chance_probs, node.children):
                total += prob * walk(child, reach0, reach1, chance_reach * prob)
            return total
        policy = policy_fn(node.infoset)
        player = node.player
        if node.infoset not in seen:
            seen.add(node.infoset)
            my_reach = reach0 if player == 0 else reach1
            sums = strategy_sums.setdefault(node.infoset, [0.0] * len(policy))
            for a, prob in enumerate(policy):
                sums[a] += my_reach * prob
        child_values = []
        node_value = 0.0
        for prob, child in zip(policy, node.children):
            if player == 0:
                value = walk(child, reach0 * prob, reach1, chance_reach)
            else:
                value = walk(child, reach0, reach1 * prob, chance_reach)
            child_values.append(value)
            node_value += prob * value
        counterfactual = (reach1 if player == 0 else reach0) * chance_reach
        vec = deltas.setdefault(node.infoset, [0.0] * len(policy))
        if player == 0:
            for a in range(len(policy)):
                vec[a] += counterfactual * (child_values[a] - node_value)
        else:
            # Seat 1's value is the negation, so the advantage flips sign.
            for a in range(len(policy)):
                vec[a] += counterfactual * (node_value - child_values[a])
        return node_value

    root_value = walk(game.root, 1.0, 1.0, 1.0)
    return root_value, deltas


def reference_best_response(game, opponent_profile, responder):
    """``best_response`` as a scalar walk in its order: each sequence's
    payoff terms summed over the pairs, then backed up by sequence, each
    infoset adding its largest slot value; reachable where the same backup
    of the chance reaches is positive somewhere in the infoset."""
    if responder not in (0, 1):
        raise ValueError("responder must be 0 or 1")

    def row(node):
        if node.player == responder:
            return (0.0,) * len(node.actions)
        return reference_row(opponent_profile, node)

    ranges, policy, parent, pairs = reference_sequence_form(game, row)
    reach = reference_reach(policy, parent)
    tables = []
    for column, negate in ((0, True), (1, False)):
        values = reference_values(pairs, reach, column, negate)
        reference_backup(values, parent, ranges)
        tables.append(values)
    values, mass = tables
    response = {}
    for player, key, n in reference_enumerate_infosets(game):
        if player != responder:
            continue
        slots = ranges[key]
        scores = [values[s] for s in slots]
        if max(mass[s] for s in slots) > 0.0:
            picked = scores.index(max(scores))
            response[key] = tuple(1.0 if a == picked else 0.0 for a in range(n))
        else:
            response[key] = (1.0 / n,) * n
    value = values[len(policy) + responder]
    return BestResponseResult(value=value, response=response, responder=responder)


def reference_expected_value(game, profile):
    """``expected_value`` as a scalar walk: each pair's payoff times both
    seats' reach, the terms added by ``numpy.sum``, as ``policy_value``
    adds them."""
    _, policy, parent, pairs = reference_sequence_form(
        game, lambda node: reference_row(profile, node)
    )
    reach = reference_reach(policy, parent)
    terms = [sums[0] * reach[s0] * reach[s1] for (s0, s1), sums in pairs.items()]
    value = float(np.sum(terms))
    return value, 0.0 - value


# ---------------------------------------------------------------------------
# Random games and profiles

SEEDS = range(200)
MAX_DEPTH = 6
DYADIC_CHANCE = {
    2: ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25)),
    3: ((0.5, 0.25, 0.25), (0.25, 0.25, 0.5), (0.125, 0.375, 0.5)),
}
DYADIC_ROWS = {
    1: ((1.0,),),
    2: ((0.5, 0.5), (0.25, 0.75), (1.0, 0.0), (0.0, 1.0)),
    3: ((0.5, 0.25, 0.25), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.25, 0.0, 0.75)),
}


def is_dyadic(seed):
    """Odd seeds use only dyadic probabilities and integer payoffs, so every
    value is computed exactly; even seeds use arbitrary floats."""
    return seed % 2 == 1


def random_distribution(rng, n, zero_share):
    weights = [
        0.0 if rng.random() < zero_share else rng.random() + 0.05 for _ in range(n)
    ]
    if not any(weights):
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_game(seed, shared=False):
    """A random two-player zero-sum perfect-recall game.

    Each seat's infoset key is everything it has seen: its own moves, plus
    the chance outcomes and opponent moves it happens to observe. Unobserved
    chance nodes and opponent moves sit on some paths and not on others, so
    the nodes of one infoset lie at different tree depths. Payoffs come from
    a few integers, so actions often tie.

    With ``shared``, positions share nodes, in three ways. There is one
    terminal object per payoff, so one node may be several children of one
    parent, at many depths. The outcomes of some chance nodes that no seat
    observes lead to one subtree, under chance reaches that differ where
    the probabilities do. And the actions of some moves that the opponent
    does not observe lead to one subtree in which only the opponent acts,
    under different opponent sequences. Without it, the game is the one
    this function has always grown from ``seed``.
    """
    rng = random.Random(seed)
    dyadic = is_dyadic(seed)
    n_actions, terminals = {}, {}

    def payoff():
        if not dyadic and rng.random() < 0.3:
            return rng.uniform(-3.0, 3.0)
        return float(rng.choice((-2, -1, 0, 1, 2)))

    def leaf():
        u = payoff()
        if not shared:
            return terminal(u)
        if u not in terminals:
            terminals[u] = terminal(u)
        return terminals[u]

    def grow(depth, views, banned=None):
        """The subtree at ``depth`` under ``views``; seat ``banned``, if
        any, does not act in it."""
        if depth >= MAX_DEPTH or (depth >= 2 and rng.random() < 0.3):
            return leaf()
        if rng.random() < 0.25:
            outcomes = rng.choice((2, 3))
            if dyadic:
                probs = rng.choice(DYADIC_CHANCE[outcomes])
            else:
                probs = random_distribution(rng, outcomes, 0.0)
            watcher = rng.choice((None, None, 0, 1))
            if shared and watcher is None and rng.random() < 0.6:
                return chance(probs, [grow(depth + 1, views, banned)] * outcomes)
            children = []
            for outcome in range(outcomes):
                seen = list(views)
                if watcher is not None:
                    seen[watcher] += (f"o{outcome}",)
                children.append(grow(depth + 1, tuple(seen), banned))
            return chance(probs, children)
        seat = rng.choice((0, 1)) if banned is None else 1 - banned
        key = f"p{seat}:" + ".".join(views[seat])
        count = n_actions.setdefault(key, rng.choice((1, 2, 2, 3, 3)))
        labels = [f"a{a}" for a in range(count)]
        watched = rng.random() < 0.5
        if shared and not watched and banned is None and rng.random() < 0.5:
            # The mover does not act below, so its own views are not read.
            return decision(seat, key, labels, [grow(depth + 1, views, seat)] * count)
        children = []
        for action in range(count):
            seen = list(views)
            seen[seat] += (f"a{action}",)
            if watched:
                seen[1 - seat] += (f"x{action}",)
            children.append(grow(depth + 1, tuple(seen), banned))
        return decision(seat, key, labels, children)

    name = "shared" if shared else "random"
    return make_game(f"{name}{seed}", grow(0, ((), ())))


def random_profile(game, rng, dyadic):
    """A profile with zero-probability actions at many infosets."""
    profile = {}
    for _, key, n in enumerate_infosets(game):
        if dyadic:
            profile[key] = rng.choice(DYADIC_ROWS[n])
        else:
            profile[key] = random_distribution(rng, n, 0.3)
    return profile


def tree_nodes(game):
    """(node, tree depth) pairs of the whole tree in preorder."""
    out = []
    stack = [(game.root, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


@pytest.fixture(scope="module")
def games():
    return {seed: random_game(seed) for seed in SEEDS}


SHARED_SEEDS = range(60)


@pytest.fixture(scope="module")
def shared_games():
    return {seed: random_game(seed, shared=True) for seed in SHARED_SEEDS}


# ---------------------------------------------------------------------------
# Layout and traversals against the references


def position_rows(game):
    """Every position in preorder as (node, parent position, action, both
    seats' sequences, chance reach): the root's parent and action are None,
    sequences are numbered as ``reference_sequence_form`` numbers them, and
    the chance reach is the product of the chance probabilities above, from
    the root down."""
    ranges, *_ = reference_sequence_form(game, lambda node: (0.0,) * len(node.actions))
    slots = sum(len(r) for r in ranges.values())
    rows, stack = [], [(game.root, None, None, (slots, slots + 1), 1.0)]
    while stack:
        node, above, action, at, reach = stack.pop()
        rows.append((node, above, action, at, reach))
        here = len(rows) - 1
        for a in reversed(range(len(node.children))):
            child, step, factor = node.children[a], at, 1.0
            if node.kind == CHANCE:
                factor = node.chance_probs[a]
            else:
                s = ranges[node.infoset][a]
                step = (s, at[1]) if node.player == 0 else (at[0], s)
            stack.append((child, here, a, step, reach * factor))
    return rows


def node_numbers(game):
    """Each node object's number by ``id``, in the order of its first
    position in preorder, and the nodes in that order."""
    numbers, nodes = {}, []
    for node, _ in tree_nodes(game):
        if id(node) not in numbers:
            numbers[id(node)] = len(nodes)
            nodes.append(node)
    return numbers, nodes


def decision_edges(rows, seats=(0, 1)):
    """The decision edges of the seats in ``seats`` at every position, from
    ``position_rows``, as (parent position, action, child node): parent
    positions in preorder, each one's in action order. The walk meets each
    edge at its child position, and a stable sort by parent position keeps
    each position's action order."""
    edges = [
        (p, a, node) for node, p, a, _, _ in rows
        if p is not None and rows[p][0].kind == DECISION and rows[p][0].player in seats
    ]
    return sorted(edges, key=lambda edge: edge[0])


def test_layout_is_the_tree_in_preorder(games, shared_games, kuhn_game, leduc_game):
    """Nodes are numbered by their first positions in preorder, with their
    kinds and payoffs, and node ``n``'s row of the edge list, ``first[n]``
    to ``last[n]``, holds its edges in action order: each one's child and
    weight, its slot or its chance probability."""
    for game in [*games.values(), *shared_games.values(), kuhn_game, leduc_game]:
        numbers, nodes = node_numbers(game)
        layout = game.layout
        infosets = enumerate_infosets(game)
        assert infosets == reference_enumerate_infosets(game)
        offset = [0]
        for _, _, n in infosets:
            offset.append(offset[-1] + n)
        assert layout.offset == offset
        assert layout.offset[-1] == len(new_tables(game).regrets)
        ids = {key: k for k, (_, key, _) in enumerate(infosets)}
        assert layout.terminal.tolist() == [node.kind == TERMINAL for node in nodes]
        assert layout.chance_node.tolist() == [node.kind == CHANCE for node in nodes]
        payoffs = [node.utilities[0] if node.utilities else 0.0 for node in nodes]
        assert repr(layout.utility.tolist()) == repr(payoffs)
        parent, child = layout.parent.tolist(), layout.child.tolist()
        source, tail = layout.source.tolist(), layout.tail.tolist()
        for n, node in enumerate(nodes):
            expected = []
            for a, below in enumerate(node.children):
                if node.kind == DECISION:
                    weight = ("slot", offset[ids[node.infoset]] + a)
                else:
                    weight = ("chance", repr(node.chance_probs[a]))
                expected.append((n, numbers[id(below)], weight))
            found = []
            if node.children:
                for e in range(layout.first[n], layout.last[n] + 1):
                    if source[e] < offset[-1]:
                        weight = ("slot", source[e])
                    else:
                        weight = ("chance", repr(tail[source[e] - offset[-1]]))
                    found.append((parent[e], child[e], weight))
            else:
                assert layout.first[n] == layout.last[n] == 0
            assert found == expected
        assert len(child) == sum(len(node.children) for node in nodes)


def test_edge_list_serves_play_and_the_pass(games, shared_games, kuhn_game, leduc_game):
    """The nodes' rows tile the edge list, so it holds each node's edges
    once. ``levels`` tiles it by parent height, lowest first, one height a
    level, so the bottom-up sweep values every child before its parent.
    ``decisions`` lists both seats' decision edges at every position, with
    their parent positions in preorder, each position's in action order,
    by slot, as the strategy sums and regrets add them; a position's class
    is its (slot, parent node, child node, opponent sequence, chance reach
    as bits), one class for each such tuple; and a seat 0 class gains its
    child node's value and loses its parent's, a seat 1 class the reverse."""
    for game in [*games.values(), *shared_games.values(), kuhn_game, leduc_game]:
        numbers, nodes = node_numbers(game)
        layout, rows = game.layout, position_rows(game)
        # Each node's height, from its positions in reverse preorder; every
        # position of a node has the same.
        climb = [0] * len(rows)
        for p in reversed(range(1, len(rows))):
            above = rows[p][1]
            climb[above] = max(climb[above], climb[p] + 1)
        height = {}
        for (node, *_), h in zip(rows, climb):
            assert height.setdefault(numbers[id(node)], h) == h
        parent, child = layout.parent.tolist(), layout.child.tolist()
        spans = sorted(
            (int(layout.first[n]), int(layout.last[n]) + 1)
            for n, node in enumerate(nodes)
            if node.children
        )
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert (spans[-1][1] if spans else 0) == len(parent)
        ends = [0] + [level.stop for level in layout.levels]
        assert [level.start for level in layout.levels] == ends[:-1]
        assert ends[-1] == len(parent)
        seen = [
            {height[parent[e]] for e in range(lv.start, lv.stop)} for lv in layout.levels
        ]
        assert all(len(h) == 1 for h in seen)
        assert [min(h) for h in seen] == sorted({min(h) for h in seen})
        assert all(height[c] < height[p] for p, c in zip(parent, child))
        ids = {key: k for k, (_, key, _) in enumerate(layout.infosets)}
        slot, kind, gain, loss, opponent, by_chance = layout.decisions
        assert slot.tolist() == [
            layout.offset[ids[rows[p][0].infoset]] + a
            for p, a, _ in decision_edges(rows)
        ]
        assert sorted(set(kind.tolist())) == list(range(len(gain)))
        mover = layout.seat[layout.owner[slot]]
        for seat in (0, 1):
            keys = []
            for p, a, down in decision_edges(rows, (seat,)):
                up, _, _, at, reach = rows[p]
                start = layout.offset[ids[up.infoset]]
                keys.append((
                    start + a, numbers[id(up)], numbers[id(down)], at[1 - seat],
                    reach.hex(),
                ))
            above, below = (loss, gain) if seat == 0 else (gain, loss)
            own = kind[mover == seat]
            found = list(zip(
                slot[mover == seat].tolist(), above[own].tolist(),
                below[own].tolist(), opponent[own].tolist(),
                [r.hex() for r in by_chance[own].tolist()],
            ))
            assert found == keys
            assert len(set(own.tolist())) == len(set(keys))


def terminal_pairs(game):
    """Each terminal visit, in preorder, as ((seat 0's sequence, seat 1's),
    chance reach as a float product from the root, seat 0's payoff), from
    ``reference_sequence_form``'s numbering."""
    ranges, *_ = reference_sequence_form(
        game, lambda node: (0.0,) * len(node.actions)
    )
    slots = sum(len(r) for r in ranges.values())
    rows, stack = [], [(game.root, (slots, slots + 1), 1.0)]
    while stack:
        node, at, reach = stack.pop()
        if node.kind == TERMINAL:
            rows.append((at, reach, node.utilities[0]))
        for a in reversed(range(len(node.children))):
            if node.kind == CHANCE:
                stack.append((node.children[a], at, reach * node.chance_probs[a]))
            else:
                s = ranges[node.infoset][a]
                step = (s, at[1]) if node.player == 0 else (at[0], s)
                stack.append((node.children[a], step, reach))
    return rows


def test_pair_table_holds_every_terminal_once(
    games, shared_games, kuhn_game, leduc_game
):
    """Every terminal lands in exactly one pair. A pair's payoff and chance
    reach are its terminals' chance reach times payoff, and chance reach,
    added in preorder from 0.0, bit for bit; seat 1's payoff row is the
    negation. The exact sum of the pair payoffs is the sum of chance reach
    times payoff over the terminals, within the exact oracle's bound, and
    equal to it on the dyadic games, whose arithmetic is exact. Kuhn has
    30 pairs, and Leduc's 5,520 terminals fall into 1,116."""
    assert kuhn_game.layout.pairs.shape == (2, 30)
    assert leduc_game.layout.pairs.shape == (2, 1116)
    assert len(terminal_pairs(leduc_game)) == 5520
    poker = [(0, kuhn_game), (0, leduc_game)]
    for seed, game in [*games.items(), *shared_games.items(), *poker]:
        layout, rows = game.layout, terminal_pairs(game)
        pairs = {}
        for at, reach, payoff in rows:
            sums = pairs.setdefault(at, [0.0, 0.0])
            sums[0] += reach * payoff
            sums[1] += reach
        assert list(zip(*layout.pairs.tolist())) == sorted(pairs)
        weights = [pairs[at] for at in sorted(pairs)]
        assert repr(layout.payoff[0].tolist()) == repr([w for w, _ in weights])
        assert repr(layout.chance.tolist()) == repr([c for _, c in weights])
        assert layout.payoff[1].tobytes() == np.negative(layout.payoff[0]).tobytes()
        exact = sum((Fraction(r) * Fraction(u) for _, r, u in rows), Fraction(0))
        stored = sum(map(Fraction, layout.payoff[0].tolist()), Fraction(0))
        scale = sum((abs(Fraction(r) * Fraction(u)) for _, r, u in rows), Fraction(0))
        assert within(float(stored), exact, scale, roundings(game))
        if is_dyadic(seed):
            assert stored == exact


def test_generator_covers_the_hard_cases(games):
    depths, counts = {}, set()
    for game in games.values():
        for node, depth in tree_nodes(game):
            if node.kind == DECISION:
                depths.setdefault((game.game_id, node.infoset), set()).add(depth)
                counts.add(len(node.actions))
    assert counts == {1, 2, 3}
    assert sum(len(d) > 1 for d in depths.values()) >= 100
    sizes = [len(tree_nodes(game)) for game in games.values()]
    assert max(sizes) < 2000


def filled(game, table):
    """A table keyed by infoset, in table order, with zeros where the
    reference pass left an infoset out."""
    return {key: table.get(key, [0.0] * n) for _, key, n in enumerate_infosets(game)}


def node_reach(game, policy):
    """Seat 0's, seat 1's and chance's reach of every node, in preorder:
    each parent's reach times the edge's factor, 1.0 where another mover
    moves, as the CFR pass once carried them down the tree."""
    layout = game.layout
    ids = {key: k for k, (_, key, _) in enumerate(layout.infosets)}
    rows, stack = [], [(game.root, (1.0, 1.0, 1.0))]
    while stack:
        node, reach = stack.pop()
        rows.append(reach)
        for a in range(len(node.children) - 1, -1, -1):
            factor = [1.0, 1.0, 1.0]
            if node.kind == CHANCE:
                factor[2] = node.chance_probs[a]
            else:
                factor[node.player] = policy[layout.offset[ids[node.infoset]] + a]
            stack.append((node.children[a], tuple(map(mul, reach, factor))))
    return np.array(rows).T


def test_sequence_reach_is_node_reach(games, shared_games, leduc_game):
    """At every decision edge of every position, ``sequence_reach`` gives
    the acting seat's reach times its policy and the opponent's reach, and
    the edge's class in ``decisions`` the chance reach; at every terminal
    position, the reach of its pair's sequences is each seat's reach there;
    all bit for bit. ``sequences`` lists every slot once, each level's
    infosets as whole runs."""
    for seed, game in [*games.items(), *shared_games.items(), (0, leduc_game)]:
        layout, rng = game.layout, random.Random(seed)
        levels = [slots.tolist() for slots, _, _ in layout.sequences]
        assert sorted(sum(levels, [])) == list(range(layout.offset[-1]))
        for slots, _, starts in layout.sequences:
            owners = layout.owner[slots]
            assert owners[starts].tolist() == sorted(set(owners.tolist()))
        rows = position_rows(game)
        ends = [p for p, (node, *_) in enumerate(rows) if node.kind == TERMINAL]
        at = [pair for pair, _, _ in terminal_pairs(game)]
        parents = [
            [p for p, _, _ in decision_edges(rows, (seat,))] for seat in (0, 1)
        ]
        slot, kind, _, _, opponent, by_chance = layout.decisions
        mover = layout.seat[layout.owner[slot]]
        for profile in (uniform_profile(game), random_profile(game, rng, False)):
            policy = checked_policy(game, (profile, profile))
            reach = sequence_reach(layout, policy)
            nodes = node_reach(game, policy.tolist())
            for seat in (0, 1):
                ours = reach[[pair[seat] for pair in at]]
                assert ours.tobytes() == nodes[seat][ends].tobytes()
            for seat in (0, 1):
                own, other = nodes[seat], nodes[1 - seat]
                parent = parents[seat]
                slots, classes = slot[mover == seat], kind[mover == seat]
                expected = own[parent] * policy[slots]
                assert reach[slots].tobytes() == expected.tobytes()
                assert reach[opponent[classes]].tobytes() == other[parent].tobytes()
                assert by_chance[classes].tobytes() == nodes[2][parent].tobytes()


def assert_pass_matches_reference(game, iterations):
    """``iterations`` regret-matched passes against ``reference_cfr_pass``,
    repr for repr: root values, regrets and strategy sums."""
    slots = game.layout.offset[-1]
    regrets, sums = np.zeros(slots), np.zeros(slots)
    old_regrets = {key: [0.0] * n for _, key, n in enumerate_infosets(game)}
    old_sums = {}
    for _ in range(iterations):
        policy = regret_policy(game, regrets)
        value, deltas = cfr_pass(game, policy, sums)
        regrets = regrets + deltas
        old_value, old_deltas = reference_cfr_pass(
            game, lambda key: regret_match(old_regrets[key]), old_sums
        )
        for key, vec in old_deltas.items():
            for a, delta in enumerate(vec):
                old_regrets[key][a] += delta
        assert repr(value) == repr(old_value)
        assert repr(by_key(game, deltas)) == repr(filled(game, old_deltas))
    assert repr(by_key(game, regrets)) == repr(old_regrets)
    assert repr(by_key(game, sums)) == repr(filled(game, old_sums))


def test_shared_games_share_what_the_classes_tell_apart(shared_games):
    """The shared games hold what the pass's classes must keep apart:
    decision edges of one node whose positions differ in the opponent's
    sequence, or in the chance reach, and nodes that reach one child by
    several actions."""
    sequences = reaches = doubled = 0
    for game in shared_games.values():
        layout = game.layout
        slot, kind, gain, loss, opponent, by_chance = layout.decisions
        # Seat 0 loses its parent node's value, and seat 1 gains it.
        seat0 = layout.seat[layout.owner[slot]] == 0
        above = np.where(seat0, loss[kind], gain[kind])
        edges = {}
        for s, node, k in zip(slot.tolist(), above.tolist(), kind.tolist()):
            edges.setdefault((s, node), set()).add(k)
        for classes in edges.values():
            classes = list(classes)
            sequences += len(set(opponent[classes].tolist())) > 1
            reaches += len(set(by_chance[classes].tolist())) > 1
        pairs = list(zip(layout.parent.tolist(), layout.child.tolist()))
        doubled += len(pairs) - len(set(pairs))
    assert sequences >= 200 and reaches >= 150 and doubled >= 200


def one_seat_game(seat):
    """Three deals, each a decision of ``seat`` over a terminal and a
    chance node that leads to a second decision; with ``seat`` None, each
    deal is a terminal, so no seat acts."""

    def deal(k):
        if seat is None:
            return terminal(k - 1.0)
        return decision(seat, f"p{seat}:{k}", ("a", "b"), [
            terminal(float(k)),
            chance((0.25, 0.75), [
                decision(seat, f"p{seat}:{k}b", ("c", "d", "e"), [
                    terminal(-2.0), terminal(0.5), terminal(k + 1.0),
                ]),
                terminal(-1.0),
            ]),
        ])

    return make_game(f"seat-{seat}", chance((0.5, 0.25, 0.25), map(deal, range(3))))


def test_cfr_pass_matches_reference(games, leduc_game):
    """On random games, Leduc, and games where only seat 0, only seat 1 or
    no seat acts, so the pass's decision table holds one seat or none."""
    for game in games.values():
        assert_pass_matches_reference(game, 4)
    assert_pass_matches_reference(leduc_game, 3)
    for seat in (0, 1, None):
        game = one_seat_game(seat)
        slot = game.layout.decisions[0]
        assert set(game.layout.seat[game.layout.owner[slot]].tolist()) == (
            set() if seat is None else {seat}
        )
        assert_pass_matches_reference(game, 4)


def test_cfr_pass_matches_reference_on_shared_games(shared_games):
    """One node's regret terms differ between positions with other opponent
    sequences or chance reaches; the pass must still add each position's."""
    for game in shared_games.values():
        assert_pass_matches_reference(game, 4)


def reference_average(strategy_sums):
    """Normalized strategy sums; infosets with zero mass fall back to uniform."""
    profile = {}
    for key, sums in strategy_sums.items():
        total = sum(sums)
        if total > 0.0:
            profile[key] = tuple(s / total for s in sums)
        else:
            profile[key] = (1.0 / len(sums),) * len(sums)
    return profile


def reference_exploitability(game, profile):
    return (
        reference_best_response(game, profile, 0).value
        + reference_best_response(game, profile, 1).value
    )


def reference_cfr_solve(game, config):
    """CFR over tables keyed by infoset, driving ``reference_cfr_pass``:
    the loop ``solve`` must match. Returns the average profile and the
    (t, exploitability, max positive regret sum) log."""
    infosets = reference_enumerate_infosets(game)
    regrets = {key: [0.0] * n for _, key, n in infosets}
    strategy_sums = {key: [0.0] * n for _, key, n in infosets}
    log = []
    for t in range(1, config.iterations + 1):
        _, deltas = reference_cfr_pass(
            game, lambda key: regret_match(regrets[key]), strategy_sums
        )
        for key, vec in deltas.items():
            for a, delta in enumerate(vec):
                regrets[key][a] += delta
        if t % config.log_every == 0 or t == config.iterations:
            bound = sum(max(0.0, max(row)) for row in regrets.values())
            average = reference_average(strategy_sums)
            log.append((t, reference_exploitability(game, average), bound))
    return reference_average(strategy_sums), log


def assert_solve_matches_reference(game, config):
    profile, log = solve(game, config)
    expected_profile, expected_log = reference_cfr_solve(game, config)
    assert repr(profile) == repr(expected_profile)
    assert repr(
        [(row.t, row.exploitability, row.max_pos_regret_sum) for row in log]
    ) == repr(expected_log)


@pytest.mark.parametrize(
    "game_fixture, iterations, log_every",
    [("kuhn_game", 50, 10), ("leduc_game", 4, 2)],
)
def test_solve_matches_reference_on_poker(
    request, game_fixture, iterations, log_every
):
    config = CFRConfig(iterations=iterations, log_every=log_every)
    assert_solve_matches_reference(request.getfixturevalue(game_fixture), config)


def test_solve_matches_reference_on_random_games(games):
    config = CFRConfig(iterations=6, log_every=2)
    for seed in SEEDS[::8]:
        assert_solve_matches_reference(games[seed], config)


def test_expected_value_matches_reference(games):
    for seed, game in games.items():
        rng = random.Random(seed)
        for profile in (
            uniform_profile(game),
            random_profile(game, rng, is_dyadic(seed)),
        ):
            assert repr(expected_value(game, profile)) == repr(
                reference_expected_value(game, profile)
            )


def seat_mixed_exact_ev(game, profile_a, profile_b):
    """Exact EV by its definition over slot vectors: ``policy_value`` of
    the two profiles' rows mixed by seat, a in seat 0 and then in seat 1."""
    layout = game.layout
    policy_a, policy_b = (checked_policy(game, (p, p)) for p in (profile_a, profile_b))
    seat0 = layout.seat[layout.owner] == 0
    return 0.5 * (
        policy_value(layout, np.where(seat0, policy_a, policy_b))
        - policy_value(layout, np.where(seat0, policy_b, policy_a))
    )


def test_exact_ev_is_the_seat_mixed_value(games, kuhn_game, leduc_game):
    """``exact_ev`` takes one sequence reach per profile; each seat's reach
    reads only its own slots, so it must give the seat-mixed value bit for
    bit, on dyadic and arbitrary profiles alike."""
    cases = [*games.items(), *((seed, kuhn_game) for seed in range(4))]
    cases += [(seed, leduc_game) for seed in range(4)]
    for seed, game in cases:
        rng = random.Random(seed)
        profiles = [uniform_profile(game)] + [
            random_profile(game, rng, is_dyadic(seed)) for _ in range(2)
        ]
        for a in profiles:
            for b in profiles:
                fast, mixed = exact_ev(game, a, b), seat_mixed_exact_ev(game, a, b)
                assert fast.hex() == mixed.hex(), (game.game_id, seed)


def test_best_response_matches_reference(games):
    for seed, game in games.items():
        rng = random.Random(seed)
        for profile in (
            uniform_profile(game),
            random_profile(game, rng, is_dyadic(seed)),
        ):
            for responder in (0, 1):
                new = best_response(game, profile, responder)
                old = reference_best_response(game, profile, responder)
                assert repr(new.value) == repr(old.value)
                assert repr(list(new.response.items())) == repr(
                    list(old.response.items())
                )
                assert new.responder == responder


def test_best_response_matches_reference_on_leduc(leduc_game):
    """Both responders against three fixed Leduc profiles: uniform, the
    stored CFR profile and one seeded random profile."""
    stored = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
    profiles = (
        uniform_profile(leduc_game),
        read_strategy_file(str(stored))[1],
        random_profile(leduc_game, random.Random(0), False),
    )
    for profile in profiles:
        for responder in (0, 1):
            new = best_response(leduc_game, profile, responder)
            old = reference_best_response(leduc_game, profile, responder)
            assert repr(new.value) == repr(old.value)
            assert repr(list(new.response.items())) == repr(list(old.response.items()))


def outcome(run, *args):
    """("ok", repr of the value) or (error type, message) of one call."""
    try:
        result = run(*args)
    except (KeyError, ValueError) as error:
        return type(error), str(error)
    return "ok", repr(getattr(result, "value", result))


def test_profile_errors_match_reference(games):
    """A damaged profile fails on the same infoset as in the walks: the
    first one in preorder, with the same message."""
    checked = 0
    for seed, game in games.items():
        rng = random.Random(seed)
        infosets = enumerate_infosets(game)
        if not infosets:
            continue
        for damage in ("drop", "truncate", "extend"):
            profile = random_profile(game, rng, False)
            _, victim, _ = rng.choice(infosets)
            if damage == "drop":
                del profile[victim]
            elif damage == "truncate":
                profile[victim] = profile[victim][:-1]
            else:
                profile[victim] = profile[victim] + (0.0,)
            new = outcome(expected_value, game, profile)
            old = outcome(reference_expected_value, game, profile)
            assert new[0] == (KeyError if damage == "drop" else ValueError)
            assert new == old
            checked += 1
            for seat in (0, 1):
                new = outcome(best_response, game, profile, seat)
                assert new == outcome(reference_best_response, game, profile, seat)
                checked += new[0] != "ok"
    assert checked >= 900


def responder_infosets(game, responder):
    return [(key, n) for p, key, n in enumerate_infosets(game) if p == responder]


def test_best_response_value_is_a_brute_force_maximum(games):
    brute_forced = 0
    for seed, game in games.items():
        rng = random.Random(seed)
        profile = random_profile(game, rng, is_dyadic(seed))
        for responder in (0, 1):
            own = responder_infosets(game, responder)
            if math.prod(n for _, n in own) > 2000:
                continue
            brute_forced += 1
            result = best_response(game, profile, responder)
            best = -math.inf
            for picks in itertools.product(*(range(n) for _, n in own)):
                pure = {
                    key: tuple(1.0 if a == pick else 0.0 for a in range(n))
                    for (key, n), pick in zip(own, picks)
                }
                merged = {**profile, **pure}
                best = max(best, expected_value(game, merged)[responder])
            assert result.value == pytest.approx(best, rel=1e-12, abs=1e-12)
            played = expected_value(game, {**profile, **result.response})
            assert played[responder] == pytest.approx(best, rel=1e-12, abs=1e-12)
    assert brute_forced >= 200


def played_infosets(game, response, responder):
    """Keys of the responder infosets its own ``response`` reaches."""
    reached = set()
    stack = [game.root]
    while stack:
        node = stack.pop()
        if node.kind == DECISION and node.player == responder:
            reached.add(node.infoset)
            row = response[node.infoset]
            stack.extend(c for c, p in zip(node.children, row) if p > 0.0)
        else:
            stack.extend(node.children)
    return reached


def test_ties_go_to_the_lowest_action(games):
    """On the exact (dyadic) games, switching a responder infoset that the
    response plays into, and the opponent and chance can reach, to another
    action keeps the value exactly when the two actions tie; every such
    action must come after the chosen one. Unreachable responder infosets
    get uniform rows."""
    ties = uniform_rows = 0
    for seed, game in games.items():
        if not is_dyadic(seed):
            continue
        profile = random_profile(game, random.Random(seed), True)
        for responder in (0, 1):
            result = best_response(game, profile, responder)
            played = played_infosets(game, result.response, responder)
            for key, row in result.response.items():
                n = len(row)
                if 1.0 not in row:
                    assert row == (1.0 / n,) * n
                    uniform_rows += n > 1
                    continue
                if key not in played:
                    continue
                picked = row.index(1.0)
                for other in range(n):
                    if other == picked:
                        continue
                    switched = dict(result.response)
                    switched[key] = tuple(1.0 if a == other else 0.0 for a in range(n))
                    value = expected_value(game, {**profile, **switched})[responder]
                    assert value <= result.value
                    if value == result.value:
                        assert other > picked
                        ties += 1
    assert ties >= 50
    assert uniform_rows >= 20


# ---------------------------------------------------------------------------
# A chain deeper than Python's default recursion limit

CHAIN_DEPTH = 3000


def chain_key(seat, depth):
    """A Kuhn-shaped key, ``depth`` in base 3 over the action characters,
    eight digits. No Kuhn node has such a key, so the tabular estimator
    applies and the tree estimator's features reject it."""
    digits = ""
    for _ in range(8):
        depth, digit = divmod(depth, 3)
        digits = "fcr"[digit] + digits
    return f"p{seat}:J:-:{digits}"


def chain_game():
    """Seats alternate along a 3000-deep chain; at each node the mover folds
    ("f") for a fixed payoff or continues ("c"). Built bottom-up, no
    recursion."""
    node = terminal(0.5)
    for depth in reversed(range(CHAIN_DEPTH)):
        stop = terminal(float(depth % 5 - 2))
        seat = depth % 2
        node = decision(seat, chain_key(seat, depth), ("f", "c"), (stop, node))
    return make_game("kuhn", chance((0.25, 0.75), (terminal(1.0), node)))


def test_deep_chain_needs_no_recursion():
    game = chain_game()
    assert len(enumerate_infosets(game)) == CHAIN_DEPTH
    assert repr(game.root) == (
        "GameNode(kind='chance', player=None, infoset=None, actions=(), "
        "chance_probs=(0.25, 0.75), utilities=None)"
    )
    assert hash(game.root) == hash(game.root)
    assert game == game and game != chain_game()
    assert repr(game) == "GameSpec(game_id='kuhn', utility_range=4.0)"
    profile, log = solve(game, CFRConfig(iterations=3))
    assert [row.t for row in log] == [1, 2, 3]
    assert all(math.isfinite(row.exploitability) for row in log)
    tabular, _, _ = rcfr_solve(
        game, RCFRConfig(iterations=3, estimator_kind="tabular")
    )
    assert tabular == profile
    with pytest.raises(ValueError, match="malformed infoset key"):
        rcfr_solve(game, RCFRConfig(iterations=2, min_leaf_weight=64.0))
    assert exploitability(game, profile) >= -1e-12
    uniform = uniform_profile(game)
    u0, u1 = expected_value(game, merge_profiles(game, profile, uniform))
    assert u0 == -u1
    assert exact_ev(game, profile, profile) == 0.0
    assert math.isfinite(exact_ev(game, profile, uniform))
    for duplicate in (False, True):
        match = sampled_match(
            game, profile, uniform, hands=4, seed=1, duplicate=duplicate
        )
        assert match.hands == 4 and math.isfinite(match.mean)


# ---------------------------------------------------------------------------
# No recursion in the core modules


def calls_itself(tree):
    """Names of functions in ``tree`` that reach themselves through calls to
    functions defined in the same module, directly or via nested ones."""
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    names = {node.name for node in defs}
    calls = {name: set() for name in names}
    for node in defs:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name):
                if inner.func.id in names:
                    calls[node.name].add(inner.func.id)
    looping = set()
    for start in names:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name == start:
                looping.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])
    return looping


@pytest.mark.parametrize("module", ["efg_core", "cfr", "rcfr", "estimator", "eval"])
def test_core_modules_do_not_recurse(module):
    path = pathlib.Path(fregret.__file__).parent / f"{module}.py"
    assert calls_itself(ast.parse(path.read_text())) == set()


def test_recursion_detector_sees_nested_walks():
    source = (
        "def outer(x):\n"
        "    def walk(n):\n"
        "        return [walk(c) for c in n]\n"
        "    return walk(x)\n"
    )
    assert calls_itself(ast.parse(source)) == {"walk"}
