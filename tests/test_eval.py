"""Best response, exploitability, exact EV, and sampled matches."""

import math
import re

import pytest
from conftest import brute_force_best_value, one_hot, random_profile, seat_keys
from test_game_oracle import random_game

from fregret.efg_core import enumerate_infosets, expected_value, uniform_profile
from fregret.eval import (
    MatchResult,
    best_response,
    exact_ev,
    exploitability,
    merge_profiles,
    sampled_match,
)


def constant_profile(game, index):
    """Every infoset plays the given action index (all are binary in Kuhn)."""
    return {key: one_hot(index, n) for _, key, n in enumerate_infosets(game)}


class TestBestResponse:
    def test_matches_pure_enumeration_on_random_profiles(self, kuhn_game):
        for seed in range(5):
            profile = random_profile(kuhn_game, seed)
            for responder in (0, 1):
                oracle = brute_force_best_value(kuhn_game, profile, responder)
                got = best_response(kuhn_game, profile, responder)
                assert abs(got.value - oracle) < 1e-9

    def test_beats_or_ties_the_profile_itself(self, kuhn_game):
        for seed in range(5):
            profile = random_profile(kuhn_game, seed)
            evs = expected_value(kuhn_game, profile)
            for responder in (0, 1):
                value = best_response(kuhn_game, profile, responder).value
                assert value >= evs[responder] - 1e-12

    def test_response_achieves_the_reported_value(self, kuhn_game):
        profile = random_profile(kuhn_game, 42)
        br0 = best_response(kuhn_game, profile, 0)
        merged0 = merge_profiles(kuhn_game, br0.response, profile)
        assert abs(expected_value(kuhn_game, merged0)[0] - br0.value) < 1e-9
        br1 = best_response(kuhn_game, profile, 1)
        merged1 = merge_profiles(kuhn_game, profile, br1.response)
        assert abs(expected_value(kuhn_game, merged1)[1] - br1.value) < 1e-9

    def test_response_achieves_value_on_leduc(self, leduc_game):
        profile = uniform_profile(leduc_game)
        br = best_response(leduc_game, profile, 1)
        merged = merge_profiles(leduc_game, profile, br.response)
        assert abs(expected_value(leduc_game, merged)[1] - br.value) < 1e-9

    def test_covers_every_responder_infoset(self, kuhn_game):
        profile = uniform_profile(kuhn_game)
        br = best_response(kuhn_game, profile, 1)
        assert sorted(br.response) == sorted(k for k, _ in seat_keys(kuhn_game, 1))
        assert br.responder == 1

    def test_reachable_infosets_get_pure_rows(self, kuhn_game):
        profile = uniform_profile(kuhn_game)
        br = best_response(kuhn_game, profile, 0)
        for row in br.response.values():
            assert sorted(row) == [0.0, 1.0]

    def test_unreachable_infosets_get_uniform_rows(self, kuhn_game):
        # Seat 0 always bets, so seat 1's facing-a-check infosets are dead.
        opponent = {
            key: one_hot(1, n) for key, n in seat_keys(kuhn_game, 0)
        }
        br = best_response(kuhn_game, opponent, 1)
        for rank in "JQK":
            assert br.response[f"p1:{rank}:-:c"] == (0.5, 0.5)
            assert sorted(br.response[f"p1:{rank}:-:r"]) == [0.0, 1.0]

    def test_tie_prefers_lowest_action_index(self):
        # Both actions of the lone infoset lead to identical payoffs.
        from fregret.efg_core import decision, make_game, terminal

        game = make_game(
            "toy",
            decision(0, "p0:x", ("a", "b"), (terminal(1.0), terminal(1.0))),
        )
        br = best_response(game, {}, 0)
        assert br.response["p0:x"] == (1.0, 0.0)
        assert br.value == 1.0

    def test_missing_opponent_infoset_is_an_error(self, kuhn_game):
        opponent = {key: one_hot(0, n) for key, n in seat_keys(kuhn_game, 1)}
        del opponent["p1:J:-:c"]
        with pytest.raises(KeyError) as err:
            best_response(kuhn_game, opponent, 0)
        assert "p1:J:-:c" in str(err.value)

    def test_wrong_length_row_is_an_error(self, kuhn_game):
        opponent = {key: one_hot(0, n) for key, n in seat_keys(kuhn_game, 1)}
        opponent["p1:J:-:c"] = (1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            best_response(kuhn_game, opponent, 0)

    def test_bad_responder_rejected(self, kuhn_game):
        with pytest.raises(ValueError):
            best_response(kuhn_game, uniform_profile(kuhn_game), 2)

    @pytest.mark.parametrize("responder", [0.5, -1, 2.0, None, "1", [1], 1j])
    def test_responder_that_is_not_a_seat_is_worded(self, kuhn_game, responder):
        with pytest.raises(ValueError, match="responder must be 0 or 1, got"):
            best_response(kuhn_game, uniform_profile(kuhn_game), responder)

    @pytest.mark.parametrize(
        "responder, seat", [(0.0, 0), (1.0, 1), (False, 0), (True, 1)]
    )
    def test_integral_responder_is_its_int(self, kuhn_game, responder, seat):
        profile = random_profile(kuhn_game, 5)
        result = best_response(kuhn_game, profile, responder)
        assert type(result.responder) is int
        assert result == best_response(kuhn_game, profile, seat)


class TestExploitability:
    def test_matches_pure_enumeration(self, kuhn_game):
        for seed in range(3):
            profile = random_profile(kuhn_game, seed)
            oracle = brute_force_best_value(
                kuhn_game, profile, 0
            ) + brute_force_best_value(kuhn_game, profile, 1)
            assert abs(exploitability(kuhn_game, profile) - oracle) < 1e-9

    def test_nonnegative_for_any_profile(self, kuhn_game):
        for seed in range(3):
            profile = random_profile(kuhn_game, seed)
            assert exploitability(kuhn_game, profile) >= -1e-12

    def test_uniform_leduc_is_clearly_exploitable(self, leduc_game):
        assert exploitability(leduc_game, uniform_profile(leduc_game)) > 1.0

    @pytest.mark.parametrize(
        "name", ["kuhn", "leduc", "random1", "random3", "random21", "random29"]
    )
    def test_is_the_sum_of_both_best_responses(self, golden_games, name):
        # Both evaluators back up the same per-sequence sums, so the sum of
        # the two responses is exploitability bit for bit, zero rows too.
        game = golden_games[name]
        profiles = [random_profile(game, seed) for seed in range(8)]
        profiles += [constant_profile(game, 0), uniform_profile(game)]
        for profile in profiles:
            values = [best_response(game, profile, seat).value for seat in (0, 1)]
            assert exploitability(game, profile) == values[0] + values[1]


class TestExactEv:
    def test_self_play_is_exactly_zero(self, kuhn_game):
        profile = random_profile(kuhn_game, 7)
        assert exact_ev(kuhn_game, profile, profile) == 0.0

    def test_antisymmetry_is_exact(self, kuhn_game):
        a = random_profile(kuhn_game, 1)
        b = random_profile(kuhn_game, 2)
        assert exact_ev(kuhn_game, a, b) == -exact_ev(kuhn_game, b, a)

    def test_always_bet_crushes_always_fold(self, kuhn_game):
        bettor = constant_profile(kuhn_game, 1)
        folder = constant_profile(kuhn_game, 0)
        # Wins one ante in both seatings: bets take the pot, checks get
        # raised and then folded to.
        assert abs(exact_ev(kuhn_game, bettor, folder) - 1.0) < 1e-12

    def test_uniform_mirror_is_zero_on_leduc(self, leduc_game):
        profile = uniform_profile(leduc_game)
        assert exact_ev(leduc_game, profile, profile) == 0.0

    def test_seat_average_beats_single_seating_bias(self, kuhn_game):
        # Uniform vs uniform has nonzero seat-0 EV but zero seat-averaged EV.
        profile = uniform_profile(kuhn_game)
        assert expected_value(kuhn_game, profile)[0] != 0.0
        assert exact_ev(kuhn_game, profile, profile) == 0.0


class TestSampledMatch:
    def test_same_seed_is_identical(self, kuhn_game):
        a = random_profile(kuhn_game, 3)
        b = random_profile(kuhn_game, 4)
        first = sampled_match(kuhn_game, a, b, hands=500, seed=11)
        second = sampled_match(kuhn_game, a, b, hands=500, seed=11)
        assert first == second

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("seed", [3, 2**70])
    def test_negative_seed_plays_its_absolute_value(self, leduc_game, duplicate, seed):
        a, b = uniform_profile(leduc_game), random_profile(leduc_game, 4)
        negative, positive = (
            sampled_match(leduc_game, a, b, 301, seed=s, duplicate=duplicate)
            for s in (-seed, seed)
        )
        assert (negative.seed, positive.seed) == (-seed, seed)
        assert (negative.hands, negative.mean, negative.stderr) == (
            positive.hands, positive.mean, positive.stderr
        )

    def test_deterministic_matchup_has_zero_spread(self, kuhn_game):
        bettor = constant_profile(kuhn_game, 1)
        folder = constant_profile(kuhn_game, 0)
        result = sampled_match(kuhn_game, bettor, folder, hands=200, seed=0)
        assert result.mean == 1.0
        assert result.stderr == 0.0

    def test_duplicate_self_play_is_exactly_zero_for_pure_strategies(
        self, kuhn_game
    ):
        bettor = constant_profile(kuhn_game, 1)
        result = sampled_match(
            kuhn_game, bettor, bettor, hands=100, seed=5, duplicate=True
        )
        assert result.mean == 0.0
        assert result.stderr == 0.0

    def test_hand_accounting(self, kuhn_game):
        profile = uniform_profile(kuhn_game)
        assert sampled_match(kuhn_game, profile, profile, hands=7).hands == 7
        assert (
            sampled_match(
                kuhn_game, profile, profile, hands=7, duplicate=True
            ).hands
            == 6
        )
        assert (
            sampled_match(
                kuhn_game, profile, profile, hands=1, duplicate=True
            ).hands
            == 2
        )
        single = sampled_match(kuhn_game, profile, profile, hands=1)
        assert single.hands == 1 and single.stderr == 0.0
        with pytest.raises(ValueError):
            sampled_match(kuhn_game, profile, profile, hands=0)

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("hands", [0, -2, 2.5, math.inf, math.nan, "7"])
    def test_rejects_hands_that_are_not_positive_integers(
        self, kuhn_game, hands, duplicate
    ):
        profile = uniform_profile(kuhn_game)
        with pytest.raises(ValueError, match="hands must be a positive integer"):
            sampled_match(kuhn_game, profile, profile, hands, duplicate=duplicate)

    @pytest.mark.parametrize("seed", [2.5, math.inf, math.nan, None, "2", [2], 2j])
    def test_rejects_seeds_that_are_not_integers(self, kuhn_game, seed):
        profile = uniform_profile(kuhn_game)
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            sampled_match(kuhn_game, profile, profile, 10, seed=seed)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_integral_seeds_count_as_ints(self, leduc_game, duplicate):
        a, b = uniform_profile(leduc_game), random_profile(leduc_game, 4)
        for seed, plays in ((2.0, 2), (-3.0, -3), (True, 1), (2.0**70, 2**70)):
            result, expected = (
                sampled_match(leduc_game, a, b, 301, seed=s, duplicate=duplicate)
                for s in (seed, plays)
            )
            assert type(result.seed) is int and result == expected

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_integral_hands_count_as_ints(self, kuhn_game, duplicate):
        profile = uniform_profile(kuhn_game)
        for hands, played in ((True, 1), (4.0, 4), (5.0, 5)):
            result = sampled_match(
                kuhn_game, profile, profile, hands, duplicate=duplicate
            )
            expected = max(2, played - played % 2) if duplicate else played
            assert type(result.hands) is int and result.hands == expected

    def test_mean_tracks_exact_ev(self, kuhn_game):
        uniform = uniform_profile(kuhn_game)
        bettor = constant_profile(kuhn_game, 1)
        exact = exact_ev(kuhn_game, uniform, bettor)
        result = sampled_match(
            kuhn_game, uniform, bettor, hands=20000, seed=9, duplicate=True
        )
        assert result.stderr > 0.0
        assert abs(result.mean - exact) < 5.0 * result.stderr

    def test_duplicate_cuts_deal_variance(self, kuhn_game):
        uniform = uniform_profile(kuhn_game)
        bettor = constant_profile(kuhn_game, 1)
        wins = 0
        for seed in range(6):
            plain = sampled_match(kuhn_game, uniform, bettor, 4000, seed=seed)
            paired = sampled_match(
                kuhn_game, uniform, bettor, 4000, seed=seed, duplicate=True
            )
            wins += paired.stderr <= plain.stderr
        assert wins >= 5

    @pytest.mark.parametrize("seed", [0, 10])
    def test_duplicate_is_unbiased_where_chance_differs_by_path(self, seed):
        # These games have chance nodes with different distributions at one
        # event order, so replaying an outcome drawn at one of them at
        # another would bias the mean by many stderr at this hand count.
        game = random_game(seed)
        a, b = uniform_profile(game), random_profile(game, 7)
        result = sampled_match(game, a, b, hands=100_000, seed=0, duplicate=True)
        assert abs(result.mean - exact_ev(game, a, b)) < 4.0 * result.stderr

    def test_result_records_settings(self, kuhn_game):
        profile = uniform_profile(kuhn_game)
        result = sampled_match(
            kuhn_game, profile, profile, hands=10, seed=21, duplicate=True
        )
        assert result.seed == 21
        assert result.duplicate is True


class TestProfileCheck:
    """Every evaluator rejects a profile with a row that is not a
    distribution, or with a key the game lacks, and names the infoset."""

    EVALUATORS = {
        "expected_value": expected_value,
        # Seat 1's best response reads seat 0's rows only.
        "best_response": lambda game, p: best_response(game, p, 1),
        "exploitability": exploitability,
        "exact_ev": lambda game, p: exact_ev(game, uniform_profile(game), p),
        "sampled_match": lambda game, p: sampled_match(
            game, uniform_profile(game), p, hands=10
        ),
    }

    @staticmethod
    def damaged(game, damage):
        """(profile, infoset the error must name)."""
        profile = uniform_profile(game)
        if damage == "scaled":
            # Every row sums to 3/4: the first infoset in table order is named.
            scaled = {key: tuple(0.75 * p for p in row) for key, row in profile.items()}
            return scaled, enumerate_infosets(game)[0][1]
        if damage in ("unknown", "swapped"):
            if damage == "swapped":  # one key replaced: the size is kept
                del profile[enumerate_infosets(game)[0][1]]
            profile["p0:A:-:"] = (0.5, 0.5)
            return profile, "p0:A:-:"
        victim = "p0:K:-:cr"
        profile[victim] = (math.nan, 0.5) if damage == "nan" else (-0.25, 1.25)
        return profile, victim

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize(
        "damage", ["scaled", "nan", "negative", "unknown", "swapped"]
    )
    def test_rejects_and_names_the_infoset(self, kuhn_game, evaluator, damage):
        profile, victim = self.damaged(kuhn_game, damage)
        with pytest.raises(ValueError, match=re.escape(f"infoset '{victim}'")):
            self.EVALUATORS[evaluator](kuhn_game, profile)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize("entry", [None, "a", [0.5], 0.5 + 0j])
    def test_unreadable_entries_are_worded(self, kuhn_game, evaluator, entry):
        profile = uniform_profile(kuhn_game)
        victim = "p0:K:-:cr"
        profile[victim] = (0.5, entry)
        message = f"infoset '{victim}' are not all numbers"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.EVALUATORS[evaluator](kuhn_game, profile)

    def test_rows_within_tolerance_are_accepted(self, kuhn_game):
        profile = {
            key: (0.5 + 4e-7, 0.5 + 4e-7) for key in uniform_profile(kuhn_game)
        }
        for evaluator in self.EVALUATORS.values():
            evaluator(kuhn_game, profile)

    def test_merge_profiles_checks_the_rows_it_takes(self, kuhn_game):
        seat0 = {key: (1.0, 0.0) for key, _ in seat_keys(kuhn_game, 0)}
        seat1 = {key: (0.0, 1.0) for key, _ in seat_keys(kuhn_game, 1)}
        merged = merge_profiles(kuhn_game, seat0, seat1)
        assert list(merged) == [key for _, key, _ in enumerate_infosets(kuhn_game)]
        seat1["p1:K:-:r"] = (0.5, 0.4)
        with pytest.raises(ValueError, match="'p1:K:-:r' sum to 0.9"):
            merge_profiles(kuhn_game, seat0, seat1)


# ---------------------------------------------------------------------------
# Sampled play, pinned bit for bit

# (game, duplicate, hands asked, seed, hands played, mean, stderr) of
# uniform play against ``random_profile(game, 7)``. The random games have
# integer payoffs, so every mean is an exact sum. In duplicate mode Leduc
# swaps pair marks in at every round with a hand at a chance node, and the
# game with no chance node at none.
GOLDEN_MATCHES = [
    ('kuhn', False, 1, 0, 1, -1.0, 0.0),
    ('kuhn', False, 1, 3, 1, -1.0, 0.0),
    ('kuhn', False, 5, 0, 5, 0.0, 0.8366600265340755),
    ('kuhn', False, 5, 3, 5, 0.2, 0.7348469228349533),
    ('kuhn', False, 2001, 0, 2001, 0.08295852073963018, 0.032411910702882046),
    ('kuhn', False, 2001, 3, 2001, 0.063968015992004, 0.03215487607596281),
    ('kuhn', True, 1, 0, 2, 0.0, 0.0),
    ('kuhn', True, 1, 3, 2, -0.5, 0.0),
    ('kuhn', True, 5, 0, 4, -1.5, 0.0),
    ('kuhn', True, 5, 3, 4, 1.0, 0.5),
    ('kuhn', True, 2001, 0, 2000, 0.0745, 0.023964015189947285),
    ('kuhn', True, 2001, 3, 2000, 0.032, 0.02412587942558899),
    ('leduc', False, 1, 0, 1, -9.0, 0.0),
    ('leduc', False, 1, 3, 1, 3.0, 0.0),
    ('leduc', False, 5, 0, 5, 3.2, 3.2924155266308657),
    ('leduc', False, 5, 3, 5, 1.0, 1.0488088481701516),
    ('leduc', False, 2001, 0, 2001, -0.0384807596201899, 0.09670229355391742),
    ('leduc', False, 2001, 3, 2001, -0.054972513743128434, 0.09818690300600741),
    ('leduc', True, 1, 0, 2, -2.0, 0.0),
    ('leduc', True, 1, 3, 2, -2.0, 0.0),
    ('leduc', True, 5, 0, 4, 2.0, 0.0),
    ('leduc', True, 5, 3, 4, -3.5, 1.4999999999999998),
    ('leduc', True, 2001, 0, 2000, -0.017, 0.08429006949703989),
    ('leduc', True, 2001, 3, 2000, 0.0515, 0.08302403712624881),
    ('random1', False, 1, 0, 1, -1.0, 0.0),
    ('random1', False, 1, 3, 1, -1.0, 0.0),
    ('random1', False, 5, 0, 5, -0.2, 0.916515138991168),
    ('random1', False, 5, 3, 5, 1.0, 0.5477225575051661),
    ('random1', False, 2001, 0, 2001, -0.07746126936531735, 0.03287412389404763),
    ('random1', False, 2001, 3, 2001, -0.00399800099950025, 0.03267962706313382),
    ('random1', True, 1, 0, 2, 0.5, 0.0),
    ('random1', True, 1, 3, 2, 0.0, 0.0),
    ('random1', True, 5, 0, 4, -0.25, 0.25),
    ('random1', True, 5, 3, 4, -1.0, 1.0),
    ('random1', True, 2001, 0, 2000, -0.0775, 0.022533341995840332),
    ('random1', True, 2001, 3, 2000, -0.0195, 0.02313882354734473),
    ('random3', False, 1, 0, 1, 2.0, 0.0),
    ('random3', False, 1, 3, 1, 2.0, 0.0),
    ('random3', False, 5, 0, 5, 0.0, 0.8944271909999159),
    ('random3', False, 5, 3, 5, 1.0, 0.5477225575051661),
    ('random3', False, 2001, 0, 2001, 0.08095952023988005, 0.035044358831163414),
    ('random3', False, 2001, 3, 2001, 0.051974012993503245, 0.035553012071110154),
    ('random3', True, 1, 0, 2, -0.5, 0.0),
    ('random3', True, 1, 3, 2, 0.5, 0.0),
    ('random3', True, 5, 0, 4, -1.5, 0.0),
    ('random3', True, 5, 3, 4, 0.0, 2.0),
    ('random3', True, 2001, 0, 2000, 0.023, 0.02967914843542267),
    ('random3', True, 2001, 3, 2000, 0.0585, 0.028951095245532868),
    ('random21', False, 1, 0, 1, 1.0, 0.0),
    ('random21', False, 1, 3, 1, 2.0, 0.0),
    ('random21', False, 5, 0, 5, 0.2, 0.916515138991168),
    ('random21', False, 5, 3, 5, -1.2, 0.48989794855663565),
    ('random21', False, 2001, 0, 2001, 0.15442278860569716, 0.0384718182463556),
    ('random21', False, 2001, 3, 2001, 0.14042978510744628, 0.03866700452552167),
    ('random21', True, 1, 0, 2, 0.0, 0.0),
    ('random21', True, 1, 3, 2, 1.5, 0.0),
    ('random21', True, 5, 0, 4, 0.0, 0.0),
    ('random21', True, 5, 3, 4, 0.5, 0.5),
    ('random21', True, 2001, 0, 2000, 0.146, 0.020250780086063205),
    ('random21', True, 2001, 3, 2000, 0.089, 0.019594972900286514),
    ('random29', False, 1, 0, 1, 1.0, 0.0),
    ('random29', False, 1, 3, 1, 0.0, 0.0),
    ('random29', False, 5, 0, 5, 0.2, 0.7999999999999999),
    ('random29', False, 5, 3, 5, 0.8, 0.48989794855663565),
    ('random29', False, 2001, 0, 2001, 0.1489255372313843, 0.03236327172579841),
    ('random29', False, 2001, 3, 2001, 0.21189405297351324, 0.03266505361270737),
    ('random29', True, 1, 0, 2, -0.5, 0.0),
    ('random29', True, 1, 3, 2, 0.0, 0.0),
    ('random29', True, 5, 0, 4, 0.5, 1.0),
    ('random29', True, 5, 3, 4, -0.5, 0.5),
    ('random29', True, 2001, 0, 2000, 0.2005, 0.029324216266759108),
    ('random29', True, 2001, 3, 2000, 0.1555, 0.029213407421476417),
    ('nochance', False, 1, 0, 1, -1.0, 0.0),
    ('nochance', False, 1, 3, 1, -2.0, 0.0),
    ('nochance', False, 5, 0, 5, -0.2, 0.3),
    ('nochance', False, 5, 3, 5, -0.1, 0.458257569495584),
    ('nochance', False, 2001, 0, 2001, -0.31284357821089454, 0.025781924408331054),
    ('nochance', False, 2001, 3, 2001, -0.26811594202898553, 0.02562270843766368),
    ('nochance', True, 1, 0, 2, 0.5, 0.0),
    ('nochance', True, 1, 3, 2, 0.25, 0.0),
    ('nochance', True, 5, 0, 4, -1.0, 0.25),
    ('nochance', True, 5, 3, 4, -1.25, 0.25),
    ('nochance', True, 2001, 0, 2000, -0.23425, 0.024569658231355308),
    ('nochance', True, 2001, 3, 2000, -0.29425, 0.023828496275147847),
]


@pytest.fixture(scope="module")
def golden_games(kuhn_game, leduc_game, no_chance_game):
    games = {"kuhn": kuhn_game, "leduc": leduc_game, "nochance": no_chance_game}
    for seed in (1, 3, 21, 29):
        games[f"random{seed}"] = random_game(seed)
    return games


@pytest.mark.parametrize(
    "name", ["kuhn", "leduc", "nochance", "random1", "random3", "random21", "random29"]
)
def test_sampled_match_is_pinned(golden_games, name):
    """Every draw and every hand's payoff as recorded: a change to how play
    walks the game shows here."""
    game = golden_games[name]
    a, b = uniform_profile(game), random_profile(game, 7)
    for _, duplicate, hands, seed, played, mean, stderr in (
        row for row in GOLDEN_MATCHES if row[0] == name
    ):
        result = sampled_match(game, a, b, hands, seed=seed, duplicate=duplicate)
        expected = MatchResult(played, mean, stderr, seed, duplicate)
        assert repr(result) == repr(expected)
