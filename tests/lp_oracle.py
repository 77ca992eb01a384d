"""Equilibria by linear programming, as a witness that shares no code with
the solvers under test.

The sequence form (Koller, Megiddo & von Stengel, STOC 1994) writes a
seat's strategy as a realization plan: one weight per sequence, that is
per (infoset, action) pair of the seat's own moves, with the empty
sequence weighing 1 and each infoset's actions splitting its parent
sequence's weight. Payoffs are bilinear in the two plans, so a seat's
maximin plan solves one linear program, here by scipy's HiGHS.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, hstack

from fregret.efg_core import CHANCE, TERMINAL


def sequence_form(game):
    """Walk ``game.root``. Returns, per seat, its sequences numbered from
    0, the empty one (``None``), as a dict from (infoset key, action) and
    its infosets as a dict from key to (parent sequence, action count);
    and seat 0's payoff matrix over sequence pairs, each terminal adding
    its chance reach times its payoff."""
    sequences = ({None: 0}, {None: 0})
    infosets = ({}, {})
    payoff = {}
    stack = [(game.root, (0, 0), 1.0)]
    while stack:
        node, at, reach = stack.pop()
        if node.kind == TERMINAL:
            payoff[at] = payoff.get(at, 0.0) + reach * node.utilities[0]
        elif node.kind == CHANCE:
            for p, child in zip(node.chance_probs, node.children):
                stack.append((child, at, reach * p))
        else:
            seat, key = node.player, node.infoset
            infosets[seat].setdefault(key, (at[seat], len(node.actions)))
            for a, child in enumerate(node.children):
                own = sequences[seat].setdefault((key, a), len(sequences[seat]))
                step = (own, at[1]) if seat == 0 else (at[0], own)
                stack.append((child, step, reach))
    rows, cols = zip(*payoff)
    shape = (len(sequences[0]), len(sequences[1]))
    matrix = coo_array((list(payoff.values()), (rows, cols)), shape=shape)
    return sequences, infosets, matrix.tocsr()


def constraints(sequences, infosets):
    """The realization-plan constraints ``E x = e`` as the sparse ``E``:
    row 0 sets the empty sequence to 1, and each infoset's row says its
    actions' weights sum to its parent sequence's."""
    rows, cols, values = [0], [0], [1.0]
    for r, (key, (parent, n)) in enumerate(infosets.items(), start=1):
        rows.append(r)
        cols.append(parent)
        values.append(-1.0)
        for a in range(n):
            rows.append(r)
            cols.append(sequences[key, a])
            values.append(1.0)
    shape = (len(infosets) + 1, len(sequences))
    return coo_array((values, (rows, cols)), shape=shape).tocsr()


def maximin(game, seat):
    """Seat ``seat``'s game value and a maximin behavioral strategy, as a
    profile over its infosets; uniform where its own plan puts no weight.

    With ``M`` the seat's payoff matrix, ``E x = e`` its plan's constraints
    and ``F y = f`` the opponent's, the opponent's best reply to ``x`` is
    the LP ``min y^T M^T x`` over ``F y = f, y >= 0``, whose dual is
    ``max f^T q`` over ``F^T q <= M^T x``. So the seat solves
    ``max q_0`` over ``x >= 0``, free ``q``, ``E x = e`` and
    ``F^T q - M^T x <= 0``.
    """
    sequences, infosets, matrix = sequence_form(game)
    payoff = matrix if seat == 0 else -matrix.T
    own = constraints(sequences[seat], infosets[seat])
    other = constraints(sequences[1 - seat], infosets[1 - seat])
    n, m = own.shape[1], other.shape[0]
    cost = np.zeros(n + m)
    cost[n] = -1.0
    result = linprog(
        cost,
        A_ub=hstack([-payoff.T, other.T]),
        b_ub=np.zeros(other.shape[1]),
        A_eq=hstack([own, coo_array((own.shape[0], m))]),
        b_eq=np.eye(own.shape[0])[0],
        bounds=[(0, None)] * n + [(None, None)] * m,
        method="highs",
    )
    assert result.status == 0, result.message
    plan = np.maximum(result.x[:n], 0.0)
    profile = {}
    for key, (_, count) in infosets[seat].items():
        weights = plan[[sequences[seat][key, a] for a in range(count)]]
        total = weights.sum()
        profile[key] = tuple(
            (weights / total).tolist() if total > 0.0 else [1.0 / count] * count
        )
    return -result.fun, profile


def equilibrium(game):
    """Seat 0's game value from seat 0's program and from seat 1's, and the
    profile of both seats' maximin strategies."""
    value, first = maximin(game, 0)
    other, second = maximin(game, 1)
    return value, -other, {**first, **second}
