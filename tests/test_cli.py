"""Command-line interface: formats, round-trips, exit codes, and outputs."""

import math
import os
import subprocess
import sys

import pytest

import fregret
from fregret.cli import (
    format_float,
    main,
    read_strategy_file,
    write_strategy_file,
)
from fregret.efg_core import decision, make_game, terminal, uniform_profile
from fregret.eval import exploitability


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_into(tmp_path, capsys, name, extra):
    out = tmp_path / name
    argv = ["solve", "--out", str(out)] + extra
    code, _, err = run(argv, capsys)
    assert code == 0, err
    return out / "strategy.csv", out / "convergence.csv"


class TestStrategyFiles:
    def test_solve_one_iteration_encodes_uniform(self, tmp_path, capsys, kuhn_game):
        strategy, _ = solve_into(
            tmp_path, capsys, "u",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        game_id, profile = read_strategy_file(str(strategy))
        assert game_id == "kuhn"
        assert profile == uniform_profile(kuhn_game)

    def test_write_read_write_is_byte_identical(self, tmp_path, capsys):
        strategy, _ = solve_into(
            tmp_path, capsys, "r",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "30"],
        )
        from fregret.games import build_kuhn

        game = build_kuhn()
        _, profile = read_strategy_file(str(strategy))
        rewritten = tmp_path / "rewritten.csv"
        write_strategy_file(str(rewritten), game, profile)
        assert rewritten.read_bytes() == strategy.read_bytes()

    def test_lines_are_sorted_by_key_then_action(self, tmp_path, capsys):
        strategy, _ = solve_into(
            tmp_path, capsys, "s",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "2"],
        )
        body = strategy.read_text().splitlines()[1:]
        fields = [line.split(",") for line in body]
        assert fields == sorted(fields, key=lambda f: (f[0], int(f[1])))

    def test_rejects_profile_with_unknown_infoset(self, kuhn_game, tmp_path):
        profile = dict(uniform_profile(kuhn_game))
        profile["p0:A:-:"] = (0.5, 0.5)
        with pytest.raises(ValueError, match="p0:A"):
            write_strategy_file(str(tmp_path / "bad.csv"), kuhn_game, profile)

    def test_rejects_incomplete_profile(self, kuhn_game, tmp_path):
        profile = dict(uniform_profile(kuhn_game))
        del profile["p0:J:-:"]
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="missing infoset 'p0:J:-:'"):
            write_strategy_file(str(path), kuhn_game, profile)
        assert not path.exists()


def one_infoset_game(game_id, key):
    return make_game(
        game_id, decision(0, key, ("a", "b"), (terminal(1.0), terminal(-1.0)))
    )


class TestStrategyWriterMatchesReader:
    """The writer raises, before it opens the file, on whatever the reader
    would reject."""

    @pytest.mark.parametrize(
        "game_id, key, row",
        [
            ("my game", "p0:x", (0.5, 0.5)),
            ("", "p0:x", (0.5, 0.5)),
            ("toy", "a,b", (0.5, 0.5)),
            ("toy", "k\nx", (0.5, 0.5)),
            ("toy", "a\rb", (0.5, 0.5)),
            ("toy", "a\u2028b", (0.5, 0.5)),
            ("toy", "p0:x", (math.nan, 1.0)),
            ("toy", "p0:x", (math.inf, 0.0)),
            ("toy", "p0:x", (0.2, 0.2)),
        ],
    )
    def test_unreadable_input_raises_and_writes_nothing(
        self, tmp_path, game_id, key, row
    ):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            write_strategy_file(str(path), one_infoset_game(game_id, key), {key: row})
        assert not path.exists()

    def test_valid_profile_round_trips_byte_for_byte(self, tmp_path):
        game = one_infoset_game("toy-1", "p0: x;y")
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_strategy_file(str(first), game, {"p0: x;y": (0.25, 0.75)})
        game_id, profile = read_strategy_file(str(first))
        assert (game_id, profile) == ("toy-1", {"p0: x;y": (0.25, 0.75)})
        write_strategy_file(str(second), game, profile)
        assert second.read_bytes() == first.read_bytes()


class TestStrategyParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "file.csv"
        path.write_text(text)
        return str(path)

    def test_bad_header_reports_line_one(self, tmp_path):
        path = self.write(tmp_path, "not a header\n")
        with pytest.raises(ValueError, match="line 1"):
            read_strategy_file(path)

    def test_malformed_line_is_numbered(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\n"
            "garbage line without commas\n",
        )
        with pytest.raises(ValueError, match="line 3"):
            read_strategy_file(path)

    def test_bad_probability_is_numbered(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,half\n",
        )
        with pytest.raises(ValueError, match="line 2"):
            read_strategy_file(path)

    def test_negative_probability_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,-0.25\n"
            "p0:J:-:,1,1.25\n",
        )
        with pytest.raises(ValueError, match="line 2"):
            read_strategy_file(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\n"
            "p0:J:-:,0,0.5\n",
        )
        with pytest.raises(ValueError, match="line 3"):
            read_strategy_file(path)

    def test_gap_in_action_indices_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\n"
            "p0:J:-:,2,0.5\n",
        )
        with pytest.raises(ValueError, match="p0:J:-:"):
            read_strategy_file(path)

    def test_bad_sum_names_the_infoset(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\n"
            "p0:J:-:,1,0.3\n",
        )
        with pytest.raises(ValueError) as err:
            read_strategy_file(path)
        assert "p0:J:-:" in str(err.value)
        assert "0.8" in str(err.value)

    def test_sum_slack_within_tolerance_is_accepted(self, tmp_path):
        path = self.write(
            tmp_path,
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.50000001\n"
            "p0:J:-:,1,0.5\n",
        )
        _, profile = read_strategy_file(path)
        assert profile["p0:J:-:"] == (0.50000001, 0.5)


class TestSolveCommand:
    def test_repeat_runs_differ_only_in_wall_ms(self, tmp_path, capsys):
        args = ["--game", "kuhn", "--algo", "cfr", "--iters", "20",
                "--log-every", "5"]
        strat_a, conv_a = solve_into(tmp_path, capsys, "a", args)
        strat_b, conv_b = solve_into(tmp_path, capsys, "b", args)
        assert strat_a.read_bytes() == strat_b.read_bytes()
        rows_a = [line.split(",") for line in conv_a.read_text().splitlines()]
        rows_b = [line.split(",") for line in conv_b.read_text().splitlines()]
        assert rows_a[0] == ["t", "exploitability", "max_pos_regret_sum", "wall_ms"]
        for row_a, row_b in zip(rows_a, rows_b):
            assert row_a[:3] == row_b[:3]

    def test_rcfr_tabular_matches_cfr_strategy_file(self, tmp_path, capsys):
        cfr_strat, _ = solve_into(
            tmp_path, capsys, "cfr",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "40"],
        )
        rcfr_strat, _ = solve_into(
            tmp_path, capsys, "rcfr",
            ["--game", "kuhn", "--algo", "rcfr", "--iters", "40",
             "--estimator", "tabular"],
        )
        assert rcfr_strat.read_bytes() == cfr_strat.read_bytes()

    def test_rcfr_convergence_csv_has_model_columns(self, tmp_path, capsys):
        _, conv = solve_into(
            tmp_path, capsys, "t",
            ["--game", "kuhn", "--algo", "rcfr", "--iters", "5",
             "--log-every", "5"],
        )
        lines = conv.read_text().splitlines()
        assert lines[0] == "t,exploitability,mse_p1,mse_p2,leaves_p1,leaves_p2,wall_ms"
        assert len(lines) == 2

    def test_unwritable_out_path_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, err = run(
            ["solve", "--game", "kuhn", "--algo", "cfr", "--iters", "1",
             "--out", str(blocker)],
            capsys,
        )
        assert code == 3
        assert err.startswith("fregret:")

    def test_bad_flags_are_usage_errors(self, capsys):
        assert run(["solve", "--game", "chess", "--algo", "cfr",
                    "--iters", "1", "--out", "x"], capsys)[0] == 2
        assert run(["solve", "--game", "kuhn"], capsys)[0] == 2
        assert run(["bogus-command"], capsys)[0] == 2
        assert run([], capsys)[0] == 2

    def test_bad_iteration_count_is_a_validation_error(self, tmp_path, capsys):
        code, _, err = run(
            ["solve", "--game", "kuhn", "--algo", "cfr", "--iters", "0",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 4
        assert "iterations" in err

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"], capsys)[0] == 0


class TestExploitCommand:
    def test_uniform_matches_eval_oracle(self, tmp_path, capsys, kuhn_game):
        strategy, _ = solve_into(
            tmp_path, capsys, "u",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        code, out, _ = run(
            ["exploit", "--game", "kuhn", "--strategy", str(strategy)], capsys
        )
        assert code == 0
        oracle = exploitability(kuhn_game, uniform_profile(kuhn_game))
        assert out == f"exploitability,{format_float(oracle)}\n"

    def test_solver_output_round_trips(self, tmp_path, capsys):
        strategy, conv = solve_into(
            tmp_path, capsys, "s",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "100",
             "--log-every", "100"],
        )
        code, out, _ = run(
            ["exploit", "--game", "kuhn", "--strategy", str(strategy)], capsys
        )
        assert code == 0
        printed = float(out.split(",")[1])
        logged = float(conv.read_text().splitlines()[-1].split(",")[1])
        assert printed == logged

    def test_bad_sum_file_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\np0:J:-:,1,0.3\n"
        )
        code, _, err = run(
            ["exploit", "--game", "kuhn", "--strategy", str(path)], capsys
        )
        assert code == 4
        assert "p0:J:-:" in err

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["exploit", "--game", "kuhn",
             "--strategy", str(tmp_path / "absent.csv")],
            capsys,
        )
        assert code == 3

    def test_game_mismatch_is_a_validation_error(self, tmp_path, capsys):
        strategy, _ = solve_into(
            tmp_path, capsys, "k",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        code, _, err = run(
            ["exploit", "--game", "leduc", "--strategy", str(strategy)], capsys
        )
        assert code == 4
        assert "kuhn" in err and "leduc" in err


class TestCompeteCommand:
    def test_exact_self_play_is_zero(self, tmp_path, capsys):
        strategy, _ = solve_into(
            tmp_path, capsys, "s",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "10"],
        )
        code, out, _ = run(
            ["compete", "--game", "kuhn", "--a", str(strategy),
             "--b", str(strategy), "--exact"],
            capsys,
        )
        assert code == 0
        assert out == "exact_ev,0\n"

    def test_sampled_output_shape_and_reproducibility(self, tmp_path, capsys):
        strategy, _ = solve_into(
            tmp_path, capsys, "s",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "10"],
        )
        argv = ["compete", "--game", "kuhn", "--a", str(strategy),
                "--b", str(strategy), "--hands", "500", "--seed", "3",
                "--duplicate"]
        code_a, out_a, _ = run(argv, capsys)
        code_b, out_b, _ = run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.splitlines()
        assert lines[0] == "hands,mean,stderr,seed,duplicate"
        cells = lines[1].split(",")
        assert cells[0] == "500" and cells[3] == "3" and cells[4] == "true"

    def test_sampled_mean_agrees_with_exact(self, tmp_path, capsys):
        solved, _ = solve_into(
            tmp_path, capsys, "s",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "200"],
        )
        uniform, _ = solve_into(
            tmp_path, capsys, "u",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        base = ["compete", "--game", "kuhn", "--a", str(solved),
                "--b", str(uniform)]
        _, exact_out, _ = run(base + ["--exact"], capsys)
        exact = float(exact_out.split(",")[1])
        _, out, _ = run(
            base + ["--hands", "40000", "--seed", "1", "--duplicate"], capsys
        )
        _, mean_text, stderr_text, _, _ = out.splitlines()[1].split(",")
        assert abs(float(mean_text) - exact) <= 3.0 * float(stderr_text)

    def test_game_mismatch_between_files_fails(self, tmp_path, capsys):
        kuhn_strat, _ = solve_into(
            tmp_path, capsys, "k",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        leduc_strat, _ = solve_into(
            tmp_path, capsys, "l",
            ["--game", "leduc", "--algo", "cfr", "--iters", "1"],
        )
        code, _, err = run(
            ["compete", "--game", "kuhn", "--a", str(kuhn_strat),
             "--b", str(leduc_strat)],
            capsys,
        )
        assert code == 4
        assert "leduc" in err


def child_env():
    """Environment in which ``python -m fregret`` imports the package these
    tests import, installed or not."""
    package_root = os.path.dirname(os.path.dirname(fregret.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    return env


class TestConsoleEntry:
    def test_module_invocation_works(self, tmp_path):
        out = tmp_path / "cli"
        result = subprocess.run(
            [sys.executable, "-m", "fregret", "solve", "--game", "kuhn",
             "--algo", "cfr", "--iters", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        assert (out / "strategy.csv").exists()
        assert (out / "convergence.csv").exists()

    def test_module_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "fregret", "compete"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 2
