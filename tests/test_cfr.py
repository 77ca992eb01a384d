"""Tabular CFR: iteration arithmetic, tables, averaging, and convergence."""

import functools
import hashlib
import math
import random
import re

import numpy as np
import pytest
from conftest import by_key, infoset_slots
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exact_oracle import misses
from test_game_oracle import SHARED_SEEDS, is_dyadic, random_game, random_profile

from fregret.cfr import (
    CFRConfig,
    CFRTables,
    average_strategy,
    cfr_iteration,
    cfr_pass,
    checkpoints,
    max_positive_regret_sum,
    new_tables,
    regret_policy,
    solve,
)
from fregret.cli import write_strategy_file
from fregret.efg_core import (
    checked_policy,
    decision,
    expected_value,
    make_game,
    terminal,
    uniform_profile,
)
from fregret.eval import exploitability
from fregret.games import build_leduc, build_matrix
from fregret.regret import RegretMatcher, regret_match, rm_update

RANKS = "JQK"
DEALS = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def kuhn_value_under_uniform(rank0, rank1, history):
    """Seat 0's expected payoff from ``history`` on with uniform play."""
    showdown = 1.0 if rank0 > rank1 else -1.0
    if history == "cc":
        return showdown
    if history == "crf":
        return -1.0
    if history in ("crc", "rc"):
        return 2.0 * showdown
    if history == "rf":
        return 1.0
    nxt = {"": "cr", "c": "cr", "r": "fc", "cr": "fc"}[history]
    return 0.5 * sum(
        kuhn_value_under_uniform(rank0, rank1, history + move) for move in nxt
    )


def kuhn_first_iteration_regrets():
    """Immediate regrets of iteration 1, by flat enumeration over deals.

    Everyone plays uniform, so each opponent decision in the prefix
    contributes reach 1/2 and each deal chance 1/6; the regret of an action
    is its weighted advantage over the infoset's expected value.
    """
    infosets = [
        (0, "", "cr", 1.0),
        (0, "cr", "fc", 0.5),
        (1, "c", "cr", 0.5),
        (1, "r", "fc", 0.5),
    ]
    out = {}
    for player, history, moves, opp_reach in infosets:
        for rank in range(3):
            key = f"p{player}:{RANKS[rank]}:-:{history}"
            totals = [0.0] * len(moves)
            for rank0, rank1 in DEALS:
                mine = rank0 if player == 0 else rank1
                if mine != rank:
                    continue
                weight = (1.0 / 6.0) * opp_reach
                sign = 1.0 if player == 0 else -1.0
                values = [
                    sign * kuhn_value_under_uniform(rank0, rank1, history + move)
                    for move in moves
                ]
                node_value = 0.5 * (values[0] + values[1])
                for a, value in enumerate(values):
                    totals[a] += weight * (value - node_value)
            out[key] = totals
    return out


class TestTables:
    def test_fresh_tables_cover_every_infoset(self, kuhn_game):
        tables = new_tables(kuhn_game)
        assert kuhn_game.layout.offset == list(range(0, 26, 2))
        assert tables.regrets.tolist() == [0.0] * 24
        assert tables.strategy_sums.tolist() == [0.0] * 24
        assert tables.iterations == 0

    def test_current_policy_is_uniform_when_fresh(self, kuhn_game):
        tables = new_tables(kuhn_game)
        _, slots = infoset_slots(kuhn_game, "p0:J:-:")
        assert regret_policy(kuhn_game, tables.regrets)[slots].tolist() == [0.5, 0.5]

    def test_current_policy_drops_nonpositive_regret_actions(self, kuhn_game):
        tables = new_tables(kuhn_game)
        _, slots = infoset_slots(kuhn_game, "p1:K:-:r")
        tables.regrets[slots] = [2.0, 0.0]
        assert regret_policy(kuhn_game, tables.regrets)[slots].tolist() == [1.0, 0.0]

    def test_current_policy_matches_regret_match_bitwise(self, kuhn_game):
        tables = new_tables(kuhn_game)
        _, slots = infoset_slots(kuhn_game, "p0:Q:-:")
        tables.regrets[slots] = [0.3, -1.2]
        policy = regret_policy(kuhn_game, tables.regrets)
        assert tuple(policy[slots].tolist()) == regret_match([0.3, -1.2])


@functools.cache
def matching_game(name):
    return build_leduc() if name == "leduc" else random_game(int(name))


# Entries past 1e307 overflow a sum when two of them meet in one infoset.
SPECIALS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 9e307)


@st.composite
def regret_vectors(draw, slots):
    """Zeros of both signs, subnormals and values over ten decades, both
    signs, drawn from a seeded generator; then a few slots, alone or with
    their neighbour, overwritten with NaN, an infinity or an entry big
    enough to overflow a sum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    kind = rng.choice(4, size=slots, p=np.add(shares, 1) / sum(np.add(shares, 1)))
    sign = rng.choice((-1.0, 1.0), size=slots)
    scaled = rng.uniform(1.0, 10.0, slots) * 10.0 ** rng.integers(-5, 5, slots)
    tiny = rng.integers(1, 2**52, slots) * 5e-324
    vector = sign * np.choose(kind, (np.zeros(slots), tiny, scaled, scaled))
    injections = st.tuples(
        st.integers(0, slots - 1), st.sampled_from(SPECIALS), st.integers(1, 2)
    )
    for slot, value, width in draw(st.lists(injections, max_size=3)):
        vector[slot : slot + width] = value
    return vector


class TestVectorisedRegretMatching:
    """``regret_policy`` equals ``regret_match`` at every infoset, bit for
    bit, and raises for the same vectors with the same message."""

    @pytest.mark.parametrize("name", ["leduc", "0", "7", "42", "131"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_regret_match(self, name, data):
        game = matching_game(name)
        layout = game.layout
        regrets = data.draw(regret_vectors(layout.offset[-1]))
        expected, error = [], None
        for k, (_, key, _) in enumerate(layout.infosets):
            row = regrets[layout.offset[k] : layout.offset[k + 1]].tolist()
            try:
                expected.append(regret_match(row))
            except ValueError as failure:
                error = f"infoset '{key}': {failure}"
                break
        if error is not None:
            with pytest.raises(ValueError) as raised:
                regret_policy(game, regrets)
            assert str(raised.value) == error
        else:
            policy = by_key(game, regret_policy(game, regrets))
            assert repr([tuple(row) for row in policy.values()]) == repr(expected)

    def test_totals_run_in_order(self, kuhn_game):
        # Sequential totals of 1.0, 1e-16, 1e-16 are exactly 1.0; the
        # compensated builtin ``sum`` of Python 3.12+ is 1.0000000000000002.
        tables = new_tables(kuhn_game)
        for key, regret in (("p0:J:-:", 1.0), ("p0:Q:-:", 1e-16), ("p0:K:-:", 1e-16)):
            tables.regrets[infoset_slots(kuhn_game, key)[1]] = [regret, 0.0]
        assert max_positive_regret_sum(tables) == 1.0
        game = make_game(
            "toy3",
            decision(0, "p0:x", ("a", "b", "c"), [terminal(0.0)] * 3),
        )
        sums = np.array([1.0, 1e-16, 1e-16])
        assert average_strategy(game, sums) == {"p0:x": (1.0, 1e-16, 1e-16)}


class TestIteration:
    def test_first_iteration_matches_flat_enumeration(self, kuhn_game):
        tables = new_tables(kuhn_game)
        deltas = by_key(kuhn_game, cfr_iteration(kuhn_game, tables))
        oracle = kuhn_first_iteration_regrets()
        assert sorted(deltas) == sorted(oracle)
        for key, expect in oracle.items():
            for got, want in zip(deltas[key], expect):
                assert abs(got - want) < 1e-12, key

    def test_shared_games_are_within_the_exact_bound(self):
        # The pass computes one regret term per class of positions; each
        # regret, and every other evaluator, must still lie within the
        # exact oracle's bound on games whose positions share nodes.
        for seed in SHARED_SEEDS:
            game = random_game(seed, shared=True)
            spread = random_profile(game, random.Random(seed), is_dyadic(seed))
            for profile in (uniform_profile(game), spread):
                assert misses(game, checked_policy(game, (profile, profile))) == []

    def test_tables_accumulate_the_returned_deltas(self, kuhn_game):
        tables = new_tables(kuhn_game)
        first = cfr_iteration(kuhn_game, tables)
        assert tables.regrets.tolist() == first.tolist()
        assert tables.iterations == 1
        before = list(tables.regrets)
        second = cfr_iteration(kuhn_game, tables)
        for slot, value in enumerate(tables.regrets):
            assert value == before[slot] + second[slot]

    def test_policy_weighted_regret_is_zero(self, kuhn_game):
        tables = new_tables(kuhn_game)
        for _ in range(5):
            policies = by_key(kuhn_game, regret_policy(kuhn_game, tables.regrets))
            deltas = by_key(kuhn_game, cfr_iteration(kuhn_game, tables))
            for policy, vec in zip(policies.values(), deltas.values()):
                mix = sum(p * d for p, d in zip(policy, vec))
                assert abs(mix) < 1e-9

    def test_root_value_matches_expected_value(self, kuhn_game):
        tables = new_tables(kuhn_game)
        value, _ = cfr_pass(
            kuhn_game, regret_policy(kuhn_game, tables.regrets), tables.strategy_sums
        )
        uniform_ev = expected_value(kuhn_game, uniform_profile(kuhn_game))
        assert abs(value - uniform_ev[0]) < 1e-12

    def test_equal_child_values_give_exactly_zero_regret(self):
        game = make_game(
            "toy",
            decision(0, "p0:x", ("a", "b"), (terminal(1.0), terminal(1.0))),
        )
        deltas = cfr_iteration(game, new_tables(game))
        assert deltas.tolist() == [0.0, 0.0]

    def test_single_action_infoset_gets_zero_regret(self):
        game = make_game(
            "toy1", decision(0, "p0:only", ("a",), (terminal(2.0),))
        )
        deltas = cfr_iteration(game, new_tables(game))
        assert deltas.tolist() == [0.0]

    def test_leduc_first_iteration_covers_every_infoset(self, leduc_game):
        tables = new_tables(leduc_game)
        deltas = by_key(leduc_game, cfr_iteration(leduc_game, tables))
        assert len(deltas) == 288
        assert all(any(row) for row in deltas.values())

    def test_nan_regret_names_its_infoset(self, leduc_game):
        tables = new_tables(leduc_game)
        cfr_iteration(leduc_game, tables)
        offset = leduc_game.layout.offset
        _, key, _ = leduc_game.layout.infosets[100]
        tables.regrets[offset[100] + 1] = math.nan
        tables.regrets[offset[200]] = math.inf
        with pytest.raises(ValueError, match=re.escape(f"infoset '{key}'")):
            cfr_iteration(leduc_game, tables)


def one_move_game(name):
    """The matrix game ``name`` as a GameSpec: seat 0 picks at ``p0:<name>``,
    then seat 1 picks at one ``p1:<name>`` infoset below each of seat 0's
    actions, without seeing it."""
    matrix = build_matrix(name)
    actions = [f"a{j}" for j in range(matrix.n_cols)]
    rows = [
        decision(1, f"p1:{name}", actions, [terminal(u) for u in row])
        for row in matrix.payoffs
    ]
    moves = [f"a{i}" for i in range(matrix.n_rows)]
    return matrix, make_game(name, decision(0, f"p0:{name}", moves, rows))


def selfplay_against_cfr(name, steps):
    """Run CFR on the one-move game beside ``rm_update`` self-play; yields
    CFR's policy and regrets, then self-play's, once per step."""
    matrix, game = one_move_game(name)
    tables = new_tables(game)
    row = RegretMatcher.fresh(matrix.n_rows)
    col = RegretMatcher.fresh(matrix.n_cols)
    for _ in range(steps):
        row_policy, col_policy = regret_match(row.regrets), regret_match(col.regrets)
        policy = regret_policy(game, tables.regrets)
        cfr_iteration(game, tables)
        row = rm_update(row, matrix.row_payoffs(col_policy))
        col = rm_update(col, matrix.col_payoffs(row_policy))
        yield (
            policy.tolist(),
            tables.regrets.tolist(),
            [*row_policy, *col_policy],
            [*row.regrets, *col.regrets],
        )


class TestOneMoveGame:
    """CFR on a one-move game is regret-matching self-play on its matrix."""

    def test_rps_equals_regret_matching_selfplay_bit_for_bit(self):
        # From uniform play RPS self-play never leaves the equilibrium, so
        # every regret is exactly 0.0 along the way on both sides.
        for policy, regrets, rm_policy, rm_regrets in selfplay_against_cfr(
            "rps", 2_000
        ):
            assert policy == rm_policy
            assert regrets == rm_regrets

    def test_moving_selfplay_agrees_to_rounding(self):
        # Here the regrets move, and the pass adds its terms in another order
        # than the matrix's row and column payoffs.
        for policy, regrets, rm_policy, rm_regrets in selfplay_against_cfr(
            "biased_mp", 2_000
        ):
            assert np.max(np.abs(np.subtract(policy, rm_policy))) < 1e-9
            assert np.max(np.abs(np.subtract(regrets, rm_regrets))) < 1e-9
        assert max(map(abs, rm_regrets)) > 1.0


class TestAveraging:
    def test_zero_mass_falls_back_to_uniform(self, kuhn_game):
        profile = average_strategy(kuhn_game, new_tables(kuhn_game).strategy_sums)
        assert all(row == (0.5, 0.5) for row in profile.values())

    def test_average_after_one_iteration_is_uniform(self, kuhn_game):
        tables = new_tables(kuhn_game)
        cfr_iteration(kuhn_game, tables)
        profile = average_strategy(kuhn_game, tables.strategy_sums)
        assert all(row == (0.5, 0.5) for row in profile.values())

    def test_rows_are_distributions(self, kuhn_game):
        tables = new_tables(kuhn_game)
        for _ in range(20):
            cfr_iteration(kuhn_game, tables)
        for row in average_strategy(kuhn_game, tables.strategy_sums).values():
            assert all(p >= 0.0 for p in row)
            assert abs(sum(row) - 1.0) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_sums_name_the_first_infoset(self, kuhn_game, bad):
        # No such row normalizes to a distribution. Infoset 7 fails too, so
        # the error must name the first bad infoset in table order.
        offset = kuhn_game.layout.offset
        _, key, _ = kuhn_game.layout.infosets[3]
        sums = new_tables(kuhn_game).strategy_sums
        sums[offset[3] : offset[4]] = [2.0, bad]
        sums[offset[7]] = math.nan
        message = f"infoset '{key}': non-finite or negative strategy sums"
        message += f" {(2.0, bad)!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            average_strategy(kuhn_game, sums)


class TestSolve:
    def test_single_iteration_returns_uniform(self, kuhn_game):
        profile, log = solve(kuhn_game, CFRConfig(iterations=1))
        assert profile == uniform_profile(kuhn_game)
        assert len(log) == 1 and log[0].t == 1

    def test_log_cadence_and_final_row(self, kuhn_game):
        _, log = solve(kuhn_game, CFRConfig(iterations=25, log_every=10))
        assert [row.t for row in log] == [10, 20, 25]

    def test_folk_bound_holds_at_every_logged_point(self, kuhn_game):
        _, log = solve(kuhn_game, CFRConfig(iterations=60, log_every=5))
        for row in log:
            assert row.exploitability <= row.max_pos_regret_sum / row.t + 1e-9

    def test_kuhn_exploitability_decays_by_decade(self, kuhn_game):
        _, log = solve(kuhn_game, CFRConfig(iterations=200, log_every=20))
        assert log[-1].exploitability < log[0].exploitability
        assert log[-1].exploitability < 0.1

    def test_repeat_runs_are_identical_except_timing(self, kuhn_game):
        config = CFRConfig(iterations=40, log_every=10)
        profile_a, log_a = solve(kuhn_game, config)
        profile_b, log_b = solve(kuhn_game, config)
        assert profile_a == profile_b
        for row_a, row_b in zip(log_a, log_b):
            assert row_a.t == row_b.t
            assert row_a.exploitability == row_b.exploitability
            assert row_a.max_pos_regret_sum == row_b.max_pos_regret_sum

    def test_wall_clock_is_nondecreasing(self, kuhn_game):
        _, log = solve(kuhn_game, CFRConfig(iterations=30, log_every=10))
        times = [row.wall_ms for row in log]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_leduc_short_run_improves(self, leduc_game):
        _, log = solve(leduc_game, CFRConfig(iterations=30, log_every=10))
        assert [row.t for row in log] == [10, 20, 30]
        assert log[-1].exploitability < log[0].exploitability

    def test_leduc_solve_is_pinned(self, leduc_game, tmp_path):
        # The regret bound was recorded before the pass took its reach from
        # the sequence form; regrets never read the strategy sums, so it
        # holds. The strategy file and the exploitability column, which
        # read the average, were re-recorded when the strategy sums began
        # to add once per sequence rather than once per visit.
        profile, log = solve(leduc_game, CFRConfig(iterations=50, log_every=10))
        path = tmp_path / "strategy.csv"
        write_strategy_file(str(path), leduc_game, profile)
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == "c06f2af91e85a55db346fb4e177ac3274c2a81350660390b19b4e029ee8d6197"
        )
        assert repr([(r.t, r.max_pos_regret_sum) for r in log]) == (
            "[(10, 40.35458158013761), (20, 48.55640091167942), "
            "(30, 52.5783499497267), (40, 56.70139323061777), "
            "(50, 59.77817921146938)]"
        )
        assert repr([(r.t, r.exploitability) for r in log]) == (
            "[(10, 1.8540371439353385), (20, 1.1823247725284567), "
            "(30, 0.7671142736660242), (40, 0.6067904670573698), "
            "(50, 0.5618290274323172)]"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CFRConfig(iterations=0)
        with pytest.raises(ValueError):
            CFRConfig(iterations=5, log_every=0)

    @pytest.mark.parametrize(
        "options",
        [
            dict(iterations=2.5),
            dict(iterations=5, log_every=1.5),
            dict(iterations=math.inf),
            dict(iterations=math.nan),
            dict(iterations=5, log_every=-math.inf),
            dict(iterations=None),
            dict(iterations=5, log_every=None),
            dict(iterations=[5]),
            dict(iterations=5j),
            dict(iterations="5"),
        ],
    )
    def test_fractional_counts_fail_at_the_config(self, options):
        with pytest.raises(ValueError, match="positive integer"):
            CFRConfig(**options)

    def test_integral_float_counts_are_stored_as_ints(self, kuhn_game):
        config = CFRConfig(iterations=4.0, log_every=2.0)
        assert type(config.iterations) is int and type(config.log_every) is int
        _, log = solve(kuhn_game, config)
        assert [row.t for row in log] == [2, 4]


class TestCheckpoints:
    def test_steps_every_iteration_and_logs_on_cadence(self, kuhn_game):
        tables = new_tables(kuhn_game)
        calls = []

        def step():
            calls.append(len(calls) + 1)
            cfr_iteration(kuhn_game, tables)

        config = CFRConfig(iterations=25, log_every=10)
        seen = []
        for t, exploit, wall_ms in checkpoints(
            kuhn_game, config, step, tables.strategy_sums
        ):
            assert len(calls) == t
            average = average_strategy(kuhn_game, tables.strategy_sums)
            assert exploit == exploitability(kuhn_game, average)
            seen.append((t, wall_ms))
        assert len(calls) == 25
        assert [t for t, _ in seen] == [10, 20, 25]
        times = [wall_ms for _, wall_ms in seen]
        assert times == sorted(times) and times[0] >= 0.0


class TestRegretBookkeeping:
    def test_max_positive_regret_sum_clips_at_zero(self, kuhn_game):
        tables = new_tables(kuhn_game)
        assert max_positive_regret_sum(tables) == 0.0
        tables.regrets[infoset_slots(kuhn_game, "p0:J:-:")[1]] = [-3.0, -1.0]
        tables.regrets[infoset_slots(kuhn_game, "p0:Q:-:")[1]] = [2.0, -5.0]
        assert max_positive_regret_sum(tables) == 2.0

    def test_tables_repr_stays_compact(self, kuhn_game):
        text = repr(new_tables(kuhn_game))
        assert "p0:J" not in text
        assert isinstance(new_tables(kuhn_game), CFRTables)

    def test_average_regret_vanishes(self, kuhn_game):
        tables = new_tables(kuhn_game)
        for _ in range(500):
            cfr_iteration(kuhn_game, tables)
        bound = max_positive_regret_sum(tables) / tables.iterations
        assert bound < 0.1
        assert bound > 0.0

    def test_regret_sum_growth_is_sublinear(self, kuhn_game):
        tables = new_tables(kuhn_game)
        for _ in range(100):
            cfr_iteration(kuhn_game, tables)
        at_100 = max_positive_regret_sum(tables) / 100.0
        for _ in range(300):
            cfr_iteration(kuhn_game, tables)
        at_400 = max_positive_regret_sum(tables) / 400.0
        assert at_400 < at_100
