"""Exact evaluation in rational arithmetic: an oracle whose answers do not
depend on the order in which anything is added.

Every number here is a ``fractions.Fraction``. Chance probabilities,
payoffs and policy entries are floats, and ``Fraction(x)`` converts each
exactly, so sums and products over them are the exact values that a float
evaluation approximates. The walks go over ``game.root``. Values are
memoized by node object, so a subtree that several parents share is valued
once; reaches are carried down every visit.

A fast path is checked against these values by the a priori bound of
Higham (*Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3). A
float result built from terms by products and sums, in any order, where no
term passes through more than n roundings, is within γₙ·Σ|terms| of the
exact result, with γₙ = n·u / (1 − n·u) and u = 2⁻⁵³. Each exact value
comes with its Σ|terms|: the same evaluation with every payoff replaced by
its absolute value and every difference by a sum. ``roundings`` counts n
from the game's shape. No tolerance is fitted to any computed error.
"""

from fractions import Fraction

from fregret.efg_core import CHANCE, TERMINAL

U = Fraction(1, 2**53)


def gamma(n: int) -> Fraction:
    """γₙ = n·u / (1 − n·u), for unit roundoff u = 2⁻⁵³."""
    return n * U / (1 - n * U)


def roundings(game) -> int:
    """An upper bound on the roundings that any one term of a game-wide sum
    passes through, in any evaluation order.

    A term is one terminal's payoff times its chance reach and both seats'
    reaches. Each edge above the terminal adds at most two products: its
    factor in a reach, and one where an evaluator weighs a value by a
    probability. Each sum rounds a term once per addition it takes part in,
    and a term meets fewer additions than there are terminals. Eight more
    cover the payoff product, the last weighting, and the differences and
    halvings that regrets, exploitability and exact EV take.
    """
    terminals, depth = 0, 0
    stack = [(game.root, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        terminals += node.kind == TERMINAL
        stack.extend((child, level + 1) for child in node.children)
    return terminals + 2 * depth + 8


def _starts(game):
    """Each infoset key's first slot."""
    layout = game.layout
    return {key: layout.offset[k] for k, (_, key, _) in enumerate(layout.infosets)}


def _probs(node, starts, policy):
    """The exact weights of ``node``'s edges: its chance probabilities, or
    its infoset's rows of ``policy``."""
    if node.kind == CHANCE:
        return [Fraction(p) for p in node.chance_probs]
    k = starts[node.infoset]
    return policy[k : k + len(node.children)]


def exact_policy(policy):
    """A float slot vector as exact fractions."""
    return [Fraction(x) for x in policy]


def node_values(game, policy):
    """Seat 0's exact value of every node object under slot vector
    ``policy`` (fractions), and the same value over |payoff|: two dicts
    keyed by ``id(node)``."""
    starts = _starts(game)
    values, sizes = {}, {}

    def walk(node):
        if id(node) in values:
            return
        if node.kind == TERMINAL:
            payoff = Fraction(node.utilities[0])
            values[id(node)], sizes[id(node)] = payoff, abs(payoff)
            return
        value = size = Fraction(0)
        for p, child in zip(_probs(node, starts, policy), node.children):
            walk(child)
            value += p * values[id(child)]
            size += p * sizes[id(child)]
        values[id(node)], sizes[id(node)] = value, size

    walk(game.root)
    return values, sizes


def regrets(game, policy):
    """What ``cfr_pass`` computes, exactly: seat 0's root value and its
    Σ|terms|, by slot the immediate counterfactual regret and its
    Σ|terms|, and by slot the strategy-sum increment. At each visit of an
    infoset's node, slot ``a`` gains the opponent-and-chance reach times
    the acting seat's gain from playing ``a`` there rather than the policy.
    The increment is the acting seat's own reach times ``a``'s policy, once
    per sequence: under perfect recall that reach is the same at every
    visit, so the first visit gives it. It is one product of non-negative
    terms, so it is its own Σ|terms|."""
    starts = _starts(game)
    values, sizes = node_values(game, policy)
    slots = game.layout.offset[-1]
    delta, scale = [Fraction(0)] * slots, [Fraction(0)] * slots
    sums, seen = [Fraction(0)] * slots, set()
    stack = [(game.root, (Fraction(1), Fraction(1)), Fraction(1))]
    while stack:
        node, reach, by_chance = stack.pop()
        if node.kind == TERMINAL:
            continue
        probs = _probs(node, starts, policy)
        if node.kind == CHANCE:
            for p, child in zip(probs, node.children):
                stack.append((child, reach, by_chance * p))
            continue
        seat, k = node.player, starts[node.infoset]
        weight = reach[1 - seat] * by_chance
        sign = 1 if seat == 0 else -1
        if k not in seen:
            seen.add(k)
            for a, p in enumerate(probs):
                sums[k + a] = reach[seat] * p
        for a, (p, child) in enumerate(zip(probs, node.children)):
            gain = values[id(child)] - values[id(node)]
            delta[k + a] += sign * weight * gain
            scale[k + a] += weight * (sizes[id(child)] + sizes[id(node)])
            step = (reach[0] * p, reach[1]) if seat == 0 else (reach[0], reach[1] * p)
            stack.append((child, step, by_chance))
    return values[id(game.root)], sizes[id(game.root)], delta, scale, sums


def best_response(game, policy, responder):
    """The exact value of ``responder``'s best response to the other seat's
    rows of ``policy`` (fractions), and a Σ|terms| that bounds every pure
    response's: the same recursion over |payoff|, each infoset taking its
    largest score over |payoff|."""
    starts = _starts(game)
    members = {}  # responder infoset -> [(node, opponent-and-chance reach)]
    stack = [(game.root, Fraction(1))]
    while stack:
        node, weight = stack.pop()
        if node.kind == TERMINAL:
            continue
        if node.kind != CHANCE and node.player == responder:
            members.setdefault(node.infoset, []).append((node, weight))
            stack.extend((child, weight) for child in node.children)
            continue
        for p, child in zip(_probs(node, starts, policy), node.children):
            stack.append((child, weight * p))

    def solve(payoff):
        memo, picks = {}, {}

        def value(node):
            if id(node) in memo:
                return memo[id(node)]
            if node.kind == TERMINAL:
                result = payoff(Fraction(node.utilities[responder]))
            elif node.kind != CHANCE and node.player == responder:
                result = value(node.children[pick(node.infoset)])
            else:
                result = Fraction(0)
                for p, child in zip(_probs(node, starts, policy), node.children):
                    result += p * value(child)
            memo[id(node)] = result
            return result

        def pick(key):
            if key not in picks:
                rows = members[key]
                scores = [
                    sum((w * value(node.children[a]) for node, w in rows), Fraction(0))
                    for a in range(len(rows[0][0].children))
                ]
                picks[key] = scores.index(max(scores))
            return picks[key]

        return value(game.root)

    return solve(lambda u: u), solve(abs)


def seated(game, first, second):
    """The slot vector with seat 0's rows from ``first`` and seat 1's from
    ``second``."""
    layout = game.layout
    seat = layout.seat[layout.owner].tolist()
    return [a if s == 0 else b for a, b, s in zip(first, second, seat)]


def exact_ev(game, policy_a, policy_b):
    """``eval.exact_ev`` exactly, for two slot vectors (fractions): the mean
    of a's seat-0 value seated first and its negated seat-0 value seated
    second, with its Σ|terms|."""
    root = id(game.root)
    first = node_values(game, seated(game, policy_a, policy_b))
    second = node_values(game, seated(game, policy_b, policy_a))
    value = (first[0][root] - second[0][root]) / 2
    return value, (first[1][root] + second[1][root]) / 2


def within(computed: float, exact: Fraction, scale: Fraction, n: int) -> bool:
    """Whether float ``computed`` is within γₙ·``scale`` of ``exact``."""
    return abs(Fraction(computed) - exact) <= gamma(n) * scale
