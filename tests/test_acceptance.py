"""Acceptance gate: the eight headline checks for the whole package.

Each test states its claim and tolerance directly; shared solver runs are
module-scoped fixtures so the expensive Leduc work happens once.
"""

import random

import numpy as np
import pytest
from conftest import brute_force_best_value, random_profile

from fregret.cfr import (
    CFRConfig,
    average_strategy,
    cfr_iteration,
    new_tables,
    regret_policy,
    solve,
)
from fregret.efg_core import expected_value, uniform_profile
from fregret.estimator import (
    fit_tree,
    parse_tree,
    predict,
    serialize_tree,
)
from fregret.eval import (
    best_response,
    exact_ev,
    exploitability,
    merge_profiles,
    sampled_match,
)
from fregret.games import build_matrix
from fregret.rcfr import (
    RCFRConfig,
    new_state,
    rcfr_iteration,
    rcfr_solve,
)
from fregret.regret import (
    NO_NOISE,
    NoiseModel,
    RegretMatcher,
    regret_bound,
    regret_match,
    rm_update,
    rrm_selfplay,
)

TREE_GRANULARITIES = (64.0, 16.0, 4.0)


@pytest.fixture(scope="module")
def kuhn_cfr_10k(kuhn_game):
    return solve(kuhn_game, CFRConfig(iterations=10_000, log_every=10_000))


@pytest.fixture(scope="module")
def leduc_cfr_1000(leduc_game):
    return solve(leduc_game, CFRConfig(iterations=1_000, log_every=10))


@pytest.fixture(scope="module")
def leduc_tree_runs(leduc_game):
    """Tree-estimator RCFR at three leaf-weight granularities, 1000 rounds."""
    runs = {}
    for weight in TREE_GRANULARITIES:
        runs[weight] = rcfr_solve(
            leduc_game,
            RCFRConfig(
                iterations=1_000,
                estimator_kind="tree",
                min_leaf_weight=weight,
                log_every=10,
                seed=0,
            ),
        )
    return runs


@pytest.mark.parametrize("game_fixture", ["kuhn_game", "leduc_game"])
def test_criterion_1_tabular_rcfr_reproduces_cfr(game_fixture, request):
    """Both target modes track CFR's policies and averages for all t <= 200."""
    game = request.getfixturevalue(game_fixture)
    tables = new_tables(game)
    configs = {
        mode: RCFRConfig(iterations=200, estimator_kind="tabular", target_mode=mode)
        for mode in ("exact", "bootstrap")
    }
    states = {mode: new_state(game, cfg) for mode, cfg in configs.items()}
    worst = 0.0
    for _ in range(200):
        cfr_iteration(game, tables)
        reference_policy = regret_policy(game, tables.regrets)
        reference_average = average_strategy(game, tables.strategy_sums)
        for mode, state in states.items():
            rcfr_iteration(game, state, configs[mode])
            policy = regret_policy(game, state.predictions)
            worst = max(worst, float(np.abs(policy - reference_policy).max()))
            mirrored = average_strategy(game, state.strategy_sums)
            for key, row in reference_average.items():
                gap = max(abs(a - b) for a, b in zip(mirrored[key], row))
                worst = max(worst, gap)
    assert worst <= 1e-9


def test_criterion_2_kuhn_cfr_converges(kuhn_game, kuhn_cfr_10k):
    """10^4 Kuhn iterations: near-zero exploitability and the known game value.

    The first mover's value against a best-responding opponent approaches
    -1/18; the profile's own exploitability certifies the target.
    """
    profile, log = kuhn_cfr_10k
    assert log[-1].t == 10_000
    assert log[-1].exploitability <= 1e-2
    opponent = best_response(kuhn_game, profile, 1).response
    value = expected_value(kuhn_game, merge_profiles(kuhn_game, profile, opponent))[0]
    assert abs(value - (-1.0 / 18.0)) <= 5e-3


def test_criterion_3_leduc_cfr_decays_and_respects_folk_bound(leduc_cfr_1000):
    _, log = leduc_cfr_1000
    by_t = {row.t: row.exploitability for row in log}
    assert by_t[1_000] <= 0.25 * by_t[100]
    assert by_t[100] <= 0.25 * by_t[10]
    for row in log:
        assert row.exploitability <= row.max_pos_regret_sum / row.t + 1e-9


def test_criterion_4_noisy_regret_bound_holds_over_seeds():
    """Average regret stays under the noise-aware ceiling; zero noise is plain.

    Rock-paper-scissors, box noise at 0, 0.1 and 0.5 of the payoff spread,
    20 seeds, every logged point up to T = 10^4.
    """
    game = build_matrix("rps")
    spread = game.utility_range
    for fraction in (0.0, 0.1, 0.5):
        epsilon = fraction * spread
        noise = NO_NOISE if epsilon == 0.0 else NoiseModel.bounded_linf(epsilon)
        for seed in range(20):
            rows = rrm_selfplay(
                game, steps=10_000, noise_model=noise, seed=seed, log_every=250
            )
            assert rows[-1].t == 10_000
            for row in rows:
                assert row.epsilon == epsilon
                assert row.bound == regret_bound(row.t, spread, 3, epsilon)
                assert row.avg_regret <= row.bound

    # The zero-noise harness curve is plain regret matching, float for float.
    for seed in (0, 7):
        logged = [
            row.avg_regret
            for row in rrm_selfplay(game, steps=2_000, seed=seed, log_every=100)
        ]
        row_state = RegretMatcher.fresh(3)
        col_state = RegretMatcher.fresh(3)
        replayed = []
        for t in range(1, 2_001):
            row_policy = regret_match(row_state.regrets)
            col_policy = regret_match(col_state.regrets)
            row_state = rm_update(row_state, game.row_payoffs(col_policy))
            col_state = rm_update(col_state, game.col_payoffs(row_policy))
            if t % 100 == 0:
                replayed.append(
                    max(max(row_state.regrets), max(col_state.regrets)) / t
                )
        assert logged == replayed


def _random_dataset(rng):
    n_rows = rng.randint(2, 40)
    n_features = rng.randint(1, 6)
    features = []
    for _ in range(n_rows):
        row = []
        for j in range(n_features):
            if j % 2 == 0:
                row.append(float(rng.randint(0, 3)))
            else:
                row.append(rng.uniform(-1.0, 1.0))
        features.append(row)
    targets = [rng.uniform(-5.0, 5.0) for _ in range(n_rows)]
    return features, targets


def _sse(values):
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def _best_depth1_sse(features, targets):
    """Exhaustive search over every feature and boundary threshold."""
    best = _sse(targets)
    n_features = len(features[0])
    for j in range(n_features):
        order = sorted(range(len(targets)), key=lambda i: features[i][j])
        xs = [features[i][j] for i in order]
        ys = [targets[i] for i in order]
        for cut in range(1, len(xs)):
            if xs[cut - 1] == xs[cut]:
                continue
            best = min(best, _sse(ys[:cut]) + _sse(ys[cut:]))
    return best


def test_criterion_5_tree_learner_is_exact_and_round_trips():
    rng = random.Random(505)
    for _ in range(100):
        features, targets = _random_dataset(rng)
        tree = fit_tree(features, targets, max_depth=1)
        achieved = sum(
            (predict(tree, row) - target) ** 2
            for row, target in zip(features, targets)
        )
        oracle = _best_depth1_sse(features, targets)
        assert achieved <= oracle + 1e-9
        assert achieved >= oracle - 1e-9

        variance = _sse(targets) / len(targets)
        for depth in (0, 2, None):
            fitted = fit_tree(features, targets, max_depth=depth)
            mse = sum(
                (predict(fitted, row) - target) ** 2
                for row, target in zip(features, targets)
            ) / len(targets)
            assert mse <= variance + 1e-12
            round_tripped = parse_tree(serialize_tree(fitted))
            assert round_tripped == fitted
            assert serialize_tree(round_tripped) == serialize_tree(fitted)


def test_criterion_6_tree_rcfr_plateaus_above_tabular_cfr(
    leduc_tree_runs, leduc_cfr_1000
):
    """Finer trees reach lower exploitability floors, all above exact CFR.

    The improvement claim is checked on the finest (reference) run; the
    coarsest model is too small to improve at all, which is itself part of
    the approximation-floor story.
    """
    floors = {}
    curves = {}
    for weight, (_, convergence, _) in leduc_tree_runs.items():
        curve = {row.t: row.exploitability for row in convergence}
        curves[weight] = curve
        floors[weight] = curve[1_000]
        assert floors[weight] > 0.0

    finest = min(TREE_GRANULARITIES)
    reference = curves[finest]
    assert reference[1_000] < reference[10]
    late_drift = abs(reference[1_000] - reference[500])
    total_drop = reference[10] - reference[1_000]
    assert late_drift < 0.25 * total_drop

    tabular_floor = {row.t: row.exploitability for row in leduc_cfr_1000[1]}[1_000]
    for weight, floor in floors.items():
        assert floor > tabular_floor, weight

    fine, mid, coarse = sorted(TREE_GRANULARITIES)
    orderings = [
        floors[fine] <= floors[mid],
        floors[mid] <= floors[coarse],
        floors[fine] <= floors[coarse],
    ]
    assert sum(orderings) >= 2


def test_criterion_7_one_on_one_protocol(leduc_game, leduc_tree_runs):
    uniform = uniform_profile(leduc_game)
    for weight, (profile, _, _) in leduc_tree_runs.items():
        assert exact_ev(leduc_game, profile, uniform) > 0.0, weight

    profile = leduc_tree_runs[16.0][0]
    exact = exact_ev(leduc_game, profile, uniform)
    match = sampled_match(
        leduc_game, profile, uniform, hands=100_000, seed=0, duplicate=True
    )
    assert match.hands == 100_000
    assert abs(match.mean - exact) <= 3.0 * match.stderr

    wins = 0
    for seed in range(10):
        plain = sampled_match(
            leduc_game, profile, uniform, hands=10_000, seed=seed
        )
        paired = sampled_match(
            leduc_game, profile, uniform, hands=10_000, seed=seed, duplicate=True
        )
        wins += paired.stderr <= plain.stderr
    assert wins >= 9


def test_criterion_8_exploitability_matches_pure_enumeration(kuhn_game):
    for seed in range(25):
        profile = random_profile(kuhn_game, seed)
        oracle = brute_force_best_value(
            kuhn_game, profile, 0
        ) + brute_force_best_value(kuhn_game, profile, 1)
        assert abs(exploitability(kuhn_game, profile) - oracle) <= 1e-9
