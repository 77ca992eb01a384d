"""Command-line interface: formats, round-trips, exit codes, and outputs."""

import dataclasses
import gc
import hashlib
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from test_game_oracle import random_game, random_profile

import fregret
from fregret import cli
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


STORED = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"


def sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


EDGE_FLOATS = (-0.0, 0.0, 5e-324)


def edge_case_profile(game):
    """A random profile in which every other row, in key order, holds -0.0,
    0.0 and the least subnormal around one entry of 1 - 2**-53."""
    profile = random_profile(game, random.Random(game.game_id), False)
    for k, key in enumerate(sorted(profile)):
        if k % 2 == 0:
            n = len(profile[key])
            row = [EDGE_FLOATS[(k + a) % 3] for a in range(n)]
            row[k % n] = 1 - 2**-53
            profile[key] = tuple(row)
    return profile


class TestStrategyFiles:
    def test_solve_one_iteration_encodes_uniform(self, tmp_path, capsys, kuhn_game):
        strategy, _ = solve_into(
            tmp_path, capsys, "u",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        game_id, profile = read_strategy_file(str(strategy))
        assert game_id == "kuhn"
        assert profile == uniform_profile(kuhn_game)

    def test_write_read_write_is_byte_identical(self, tmp_path, capsys, leduc_game):
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
        # Leduc and random oracle games, with rows holding float edge cases:
        # every row reads back bit for bit, in the writer's key order.
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        for game in (leduc_game, *map(random_game, range(0, 200, 25))):
            profile = edge_case_profile(game)
            write_strategy_file(str(first), game, profile)
            game_id, read = read_strategy_file(str(first))
            assert game_id == game.game_id
            assert list(read) == sorted(profile)
            for key, row in profile.items():
                assert list(map(float.hex, read[key])) == list(map(float.hex, row))
            write_strategy_file(str(second), game, read)
            assert second.read_bytes() == first.read_bytes()

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

    @pytest.mark.parametrize(
        "game_id, key", [("toy", "p0:\ud800"), ("toy\udcff", "p0:x")]
    )
    def test_text_utf8_cannot_encode_raises_and_writes_nothing(
        self, tmp_path, game_id, key
    ):
        path = tmp_path / "bad.csv"
        game = one_infoset_game(game_id, key)
        with pytest.raises(ValueError, match="cannot be written as UTF-8"):
            write_strategy_file(str(path), game, {key: (0.5, 0.5)})
        assert not path.exists()

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale the file is still UTF-8 and reads back."""
        path = tmp_path / "e.csv"
        script = (
            "import sys\n"
            "from fregret.cli import read_strategy_file, write_strategy_file\n"
            "from fregret.efg_core import decision, make_game, terminal\n"
            "key = 'p0:\\u00e9'\n"
            "game = make_game('toy', decision(0, key, ('a', 'b'),"
            " (terminal(1.0), terminal(-1.0))))\n"
            "write_strategy_file(sys.argv[1], game, {key: (0.25, 0.75)})\n"
            "assert read_strategy_file(sys.argv[1]) == ('toy', {key: (0.25, 0.75)})\n"
        )
        env = dict(child_env(), PYTHONUTF8="0", LC_ALL="C")
        env.pop("PYTHONIOENCODING", None)
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "p0:\u00e9,0,0.25\n".encode("utf-8") in path.read_bytes()

    def test_valid_profile_round_trips_byte_for_byte(self, tmp_path):
        game = one_infoset_game("toy-1", "p0: x;y")
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_strategy_file(str(first), game, {"p0: x;y": (0.25, 0.75)})
        game_id, profile = read_strategy_file(str(first))
        assert (game_id, profile) == ("toy-1", {"p0: x;y": (0.25, 0.75)})
        write_strategy_file(str(second), game, profile)
        assert second.read_bytes() == first.read_bytes()


class TestStrategyTemplate:
    """The writer's cached per-game template."""

    def test_template_is_built_once_and_dropped_with_its_game(self, tmp_path):
        from fregret.games import build_kuhn

        game, path = build_kuhn(), tmp_path / "s.csv"
        write_strategy_file(str(path), game, uniform_profile(game))
        cached = cli._TEMPLATES[game.layout]
        write_strategy_file(str(path), game, uniform_profile(game))
        assert cli._TEMPLATES[game.layout] is cached
        layout, count = weakref.ref(game.layout), len(cli._TEMPLATES)
        del game
        gc.collect()
        assert layout() is None and len(cli._TEMPLATES) == count - 1

    def test_a_renamed_game_writes_its_own_id(self, tmp_path, kuhn_game):
        # A copy with another game id shares the layout, not the header.
        renamed = dataclasses.replace(kuhn_game, game_id="kuhn%copy")
        path, profile = tmp_path / "s.csv", uniform_profile(kuhn_game)
        for game in (kuhn_game, renamed, kuhn_game):
            write_strategy_file(str(path), game, profile)
            assert read_strategy_file(str(path)) == (game.game_id, profile)

    @pytest.mark.parametrize("game_id, key", [("toy", "a,b"), ("toy", "p0:\ud800")])
    def test_a_game_that_fails_caches_nothing(self, tmp_path, game_id, key):
        game = one_infoset_game(game_id, key)
        for _ in range(2):
            with pytest.raises(ValueError):
                write_strategy_file(str(tmp_path / "bad.csv"), game, {key: (0.5, 0.5)})
        assert game.layout not in cli._TEMPLATES


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

    def test_negative_probability_rejected(self, tmp_path, capsys):
        # NaN and inf fail at their own line too, not at the row's sum.
        for bad in ("-0.25", "nan", "inf", "-inf"):
            path = self.write(
                tmp_path,
                "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
                "p0:J:-:,0,0.5\n"
                f"p0:J:-:,1,{bad}\n",
            )
            message = f"line 3: probability {bad} must be finite and >= 0"
            with pytest.raises(ValueError, match=re.escape(message)):
                read_strategy_file(path)
            argv = ["exploit", "--game", "kuhn", "--strategy", path]
            code, _, err = run(argv, capsys)
            assert code == 4 and message in err

    @pytest.mark.parametrize("token", [" +01", "1_0", "-1", "\u0661", "", "1 "])
    def test_action_index_is_plain_ascii_digits(self, tmp_path, capsys, token):
        # int() reads all of these but the empty one; the writer writes none.
        path = tmp_path / "file.csv"
        path.write_text(
            "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            "p0:J:-:,0,0.5\n"
            f"p0:J:-:,{token},0.5\n",
            encoding="utf-8",
        )
        path = str(path)
        message = f"line 3: bad action index '{token}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_strategy_file(path)
        code, _, err = run(["exploit", "--game", "kuhn", "--strategy", path], capsys)
        assert code == 4 and message in err

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

    def test_valid_files_never_reach_the_line_pass(
        self, tmp_path, capsys, monkeypatch, leduc_game
    ):
        """The bulk pass reads every valid file by itself; the line pass,
        which is slower, only words the fault in a bad one."""
        solved = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
        kuhn, _ = solve_into(
            tmp_path, capsys, "kuhn",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "40"],
        )
        profiles = [edge_case_profile(leduc_game)] + [
            random_profile(leduc_game, random.Random(seed), seed % 2 == 1)
            for seed in range(4)
        ]
        written = []
        for k, profile in enumerate(profiles):
            written.append(tmp_path / f"leduc{k}.csv")
            write_strategy_file(str(written[-1]), leduc_game, profile)

        def line_pass(path, body):
            raise AssertionError(f"{path} went to the line pass")

        monkeypatch.setattr(fregret.cli, "_read_lines", line_pass)
        assert read_strategy_file(str(solved))[0] == "leduc"
        assert read_strategy_file(str(kuhn))[0] == "kuhn"
        for path, profile in zip(written, profiles):
            assert read_strategy_file(str(path)) == ("leduc", profile)


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

    def test_kuhn_tree_rcfr_is_pinned(self, tmp_path, capsys):
        # Kuhn's keys through featurize and the tree, end to end. The CI
        # workflow checks the same digest through the console script.
        strategy, _ = solve_into(
            tmp_path, capsys, "tree",
            ["--game", "kuhn", "--algo", "rcfr", "--estimator", "tree",
             "--min-leaf", "1", "--iters", "40"],
        )
        assert hashlib.sha256(strategy.read_bytes()).hexdigest() == (
            "a75c624220ec0413de97d45a477d4118e0e7f6996db3b873faf33679da14abb1"
        )

    def test_leduc_cfr_log_columns_are_pinned(self, tmp_path, capsys):
        # The CI workflow checks the same digests through the console
        # script, of the log as ``cut -d, -f1-3`` and ``cut -d, -f1,3``
        # print it: without wall_ms, and its t and regret-bound columns.
        _, conv = solve_into(
            tmp_path, capsys, "leduc-cfr",
            ["--game", "leduc", "--algo", "cfr", "--iters", "50",
             "--log-every", "10"],
        )
        rows = [line.split(",") for line in conv.read_text().splitlines()]

        def cut_digest(fields):
            text = "".join(",".join(row[f] for f in fields) + "\n" for row in rows)
            return hashlib.sha256(text.encode()).hexdigest()

        assert cut_digest([0, 1, 2]) == (
            "eeb331081e64e9a41e36ae389c42890e2d23b4080e933a1f96b02e2f58a4891a"
        )
        assert cut_digest([0, 2]) == (
            "038e5f9648b680ddaa049ca7cfd2b2b5d49c09dfc6a9448dcaba0bbdd93629c3"
        )

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

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--min-leaf", "nan"], "min_leaf_weight"),
            (["--min-leaf", "-1"], "min_leaf_weight"),
            (["--max-depth", "-3"], "max_depth"),
            (["--log-every", "0"], "log_every"),
        ],
    )
    def test_bad_tree_shape_is_a_validation_error_in_any_mode(
        self, tmp_path, capsys, flags, name
    ):
        out = tmp_path / "x"
        code, _, err = run(
            ["solve", "--game", "kuhn", "--algo", "rcfr", "--estimator",
             "tabular", "--iters", "2", "--out", str(out)] + flags,
            capsys,
        )
        assert code == 4
        assert name in err
        assert not out.exists()

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

    def test_kuhn_cfr_exploitability_is_pinned(self, tmp_path, capsys):
        # The CI workflow checks the same line through the console script.
        strategy, _ = solve_into(
            tmp_path, capsys, "cfr",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "40"],
        )
        code, out, _ = run(
            ["exploit", "--game", "kuhn", "--strategy", str(strategy)], capsys
        )
        assert code == 0
        assert out == "exploitability,0.087229265856648031\n"

    def test_leduc_stored_exploitability_is_pinned(self, capsys):
        # The Leduc build, the strategy reader and best response, end to end.
        # The CI workflow checks the same line through the console script.
        solved = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
        code, out, _ = run(
            ["exploit", "--game", "leduc", "--strategy", str(solved)], capsys
        )
        assert code == 0
        assert out == "exploitability,0.079626596628128293\n"

    def test_profile_is_checked_once(self, monkeypatch, capsys):
        # The slot vector of the reader's check goes on to best response.
        calls = []
        real = cli.checked_policy

        def counting(game, seats):
            calls.append(game.game_id)
            return real(game, seats)

        monkeypatch.setattr(cli, "checked_policy", counting)
        monkeypatch.setattr(fregret.eval, "checked_policy", counting)
        solved = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
        code, out, _ = run(
            ["exploit", "--game", "leduc", "--strategy", str(solved)], capsys
        )
        assert code == 0
        assert out == "exploitability,0.079626596628128293\n"
        assert calls == ["leduc"]

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

    @pytest.mark.parametrize("row", [0.5, None])
    def test_row_without_a_length_is_a_validation_error(
        self, monkeypatch, capsys, kuhn_game, row
    ):
        # The file reader only gives tuples; a profile handed in by other
        # code may hold a row without a length, which must still exit 4.
        profile = {**uniform_profile(kuhn_game), "p0:J:-:": row}
        monkeypatch.setattr(
            "fregret.cli.read_strategy_file", lambda path: ("kuhn", profile)
        )
        code, _, err = run(
            ["exploit", "--game", "kuhn", "--strategy", "unread.csv"], capsys
        )
        assert code == 4
        assert f"profile entry for 'p0:J:-:' is {row!r}, not a row of 2" in err

    def test_file_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
            b"p0:\xe9,0,1\n"
        )
        message = f"{path}: not UTF-8 text (invalid continuation byte at byte 58)"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_strategy_file(str(path))
        code, _, err = run(
            ["exploit", "--game", "kuhn", "--strategy", str(path)], capsys
        )
        assert code == 4 and message in err

    def test_byte_order_mark_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbf# fregret-strategy v1 game=kuhn exploit_convention=sum\n"
        )
        message = (
            f"{path}, line 1: starts with a UTF-8 byte-order mark; "
            f"strategy files have none"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            read_strategy_file(str(path))
        code, _, err = run(
            ["exploit", "--game", "kuhn", "--strategy", str(path)], capsys
        )
        assert code == 4 and message in err

    @pytest.mark.parametrize("token", ["half", "1_0"])
    def test_bad_probability_in_stored_file_fails_at_its_line(
        self, tmp_path, capsys, token
    ):
        # As CI's sed '3s/,[^,]*$/,<token>/' on the stored Leduc file.
        solved = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
        lines = solved.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{token}\n"
        path = tmp_path / f"{token}.csv"
        path.write_text("".join(lines), encoding="utf-8")
        code, _, err = run(
            ["exploit", "--game", "leduc", "--strategy", str(path)], capsys
        )
        assert code == 4 and f"line 3: bad probability '{token}'" in err

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

    def leduc_match(self, tmp_path, capsys, *flags):
        """The output of one Leduc ``compete`` of the stored CFR profile
        against uniform play, with ``flags``."""
        uniform, _ = solve_into(
            tmp_path, capsys, "u",
            ["--game", "leduc", "--algo", "cfr", "--iters", "1"],
        )
        solved = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
        code, out, _ = run(
            ["compete", "--game", "leduc", "--a", str(solved), "--b", str(uniform),
             *flags],
            capsys,
        )
        assert code == 0
        return out

    def test_leduc_duplicate_match_is_pinned(self, tmp_path, capsys):
        # The CI workflow checks the same line through the console script.
        flags = ("--duplicate", "--hands", "20000", "--seed", "1")
        assert self.leduc_match(tmp_path, capsys, *flags).splitlines() == [
            "hands,mean,stderr,seed,duplicate",
            "20000,0.72004999999999997,0.024338951049784799,1,true",
        ]

    def test_leduc_plain_match_is_pinned(self, tmp_path, capsys):
        # Plain mode draws every chance event from its own mark. The CI
        # workflow checks the same line through the console script.
        flags = ("--hands", "20000", "--seed", "1")
        assert self.leduc_match(tmp_path, capsys, *flags).splitlines() == [
            "hands,mean,stderr,seed,duplicate",
            "20000,0.77195000000000003,0.030915852719478217,1,false",
        ]

    def test_leduc_exact_ev_is_pinned(self, tmp_path, capsys):
        # The CI workflow checks the same line through the console script.
        # Re-recorded when the strategy sums began to add once per sequence:
        # every 3-action row of the one-pass average now reads the double
        # nearest 1/3, where 126 of the 288 entries read one ulp above.
        out = self.leduc_match(tmp_path, capsys, "--exact")
        assert out == "exact_ev,0.74677303712406351\n"

    @pytest.mark.parametrize(
        "flags, line",
        [
            (("--duplicate", "--hands", "2001"), "2000,0.01,0.012472191289246473,0,true"),
            (("--seed", "-3"), "10000,0.00040000000000000002,0.013552060722819372,-3,false"),
        ],
        ids=["duplicate", "negative-seed"],
    )
    def test_kuhn_match_is_pinned(self, tmp_path, capsys, flags, line):
        # The CI workflow checks the same lines through the console script:
        # 40 iterations of CFR against tabular RCFR, which plays the same.
        cfr, _ = solve_into(
            tmp_path, capsys, "cfr",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "40"],
        )
        rcfr, _ = solve_into(
            tmp_path, capsys, "rcfr",
            ["--game", "kuhn", "--algo", "rcfr", "--estimator", "tabular",
             "--iters", "40"],
        )
        code, out, _ = run(
            ["compete", "--game", "kuhn", "--a", str(cfr), "--b", str(rcfr), *flags],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["hands,mean,stderr,seed,duplicate", line]

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


class TestConsoleScriptTwins:
    """In-process twins, through ``cli.main``, of the CI workflow's checks
    of the installed console script that no other test repeats. Each
    docstring quotes the check."""

    def test_tabular_rcfr_matches_cfr_in_both_target_modes(
        self, tmp_path, capsys
    ):
        """``cmp`` of Kuhn CFR against bootstrap tabular RCFR at 40
        iterations, and of Leduc CFR against tabular RCFR in both target
        modes at 20."""
        for game, iters in (("kuhn", "40"), ("leduc", "20")):
            base = ["--game", game, "--iters", iters]
            cfr, _ = solve_into(
                tmp_path, capsys, f"{game}-cfr", base + ["--algo", "cfr"]
            )
            for mode in ("exact", "bootstrap"):
                rcfr, _ = solve_into(
                    tmp_path, capsys, f"{game}-rcfr-{mode}",
                    base + ["--algo", "rcfr", "--estimator", "tabular",
                            "--target-mode", mode],
                )
                assert rcfr.read_bytes() == cfr.read_bytes(), (game, mode)

    def test_stored_leduc_file_rewrites_byte_for_byte(self, tmp_path, leduc_game):
        """``write(out, build_leduc(), read(stored)[1])``, then ``cmp`` of
        ``out`` with the stored file."""
        rewritten = tmp_path / "rewritten.csv"
        _, profile = read_strategy_file(str(STORED))
        write_strategy_file(str(rewritten), leduc_game, profile)
        assert rewritten.read_bytes() == STORED.read_bytes()

    def test_kuhn_exact_ev_of_cfr_against_tabular_rcfr_is_zero(
        self, tmp_path, capsys
    ):
        """``fregret compete --game kuhn --a cfr --b rcfr --exact`` prints
        ``exact_ev,0``."""
        cfr, _ = solve_into(
            tmp_path, capsys, "cfr",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "40"],
        )
        rcfr, _ = solve_into(
            tmp_path, capsys, "rcfr",
            ["--game", "kuhn", "--algo", "rcfr", "--estimator", "tabular",
             "--iters", "40"],
        )
        argv = ["compete", "--game", "kuhn", "--a", str(cfr), "--b", str(rcfr),
                "--exact"]
        assert run(argv, capsys)[:2] == (0, "exact_ev,0\n")

    def test_leduc_min_leaf_4_tree_rcfr_is_pinned_and_ignores_its_seed(
        self, tmp_path, capsys
    ):
        """Two runs of ``--min-leaf 4 --iters 20`` and one with ``--seed 7``
        write the same file, whose digest is pinned; the log's header, and
        its digests as ``cut -d, -f1-6`` and ``cut -d, -f1,3-6`` print it."""
        argv = ["--game", "leduc", "--algo", "rcfr", "--estimator", "tree",
                "--min-leaf", "4", "--iters", "20"]
        first, log = solve_into(tmp_path, capsys, "tree1", argv)
        second, _ = solve_into(tmp_path, capsys, "tree2", argv)
        seeded, _ = solve_into(tmp_path, capsys, "seed7", argv + ["--seed", "7"])
        assert first.read_bytes() == second.read_bytes() == seeded.read_bytes()
        assert sha256(first) == (
            "1106e709da38c44347c563d519f2efbb7ab79eda14becc4ed66e6b51ca6ea5e9"
        )
        rows = [line.split(",") for line in log.read_text().splitlines()]
        assert rows[0] == [
            "t", "exploitability", "mse_p1", "mse_p2", "leaves_p1", "leaves_p2",
            "wall_ms",
        ]

        def cut_digest(fields):
            text = "".join(",".join(row[f] for f in fields) + "\n" for row in rows)
            return hashlib.sha256(text.encode()).hexdigest()

        assert cut_digest(range(6)) == (
            "d8bf378673c79b63981c832ff223209cf016d7eaa2c0797f7ac4b22cff9126b1"
        )
        assert cut_digest([0, 2, 3, 4, 5]) == (
            "f0046c4483bcff2a430a128ffb6a5923107954605c6a6708dedb2a0d47fd117b"
        )

    def test_leduc_bootstrap_min_leaf_16_is_pinned(self, tmp_path, capsys):
        """``--min-leaf 16 --target-mode bootstrap --iters 20``'s digest."""
        strategy, _ = solve_into(
            tmp_path, capsys, "boot16",
            ["--game", "leduc", "--algo", "rcfr", "--estimator", "tree",
             "--min-leaf", "16", "--target-mode", "bootstrap", "--iters", "20"],
        )
        assert sha256(strategy) == (
            "beccec8cb58f32f1e20408febbb1c5fde3fb87c1e8567ab9c1aecf4c379153b2"
        )

    def test_leduc_cfr_is_pinned(self, tmp_path, capsys):
        """``--iters 50 --log-every 10``'s digest and the log's header."""
        strategy, log = solve_into(
            tmp_path, capsys, "leduc-cfr",
            ["--game", "leduc", "--algo", "cfr", "--iters", "50",
             "--log-every", "10"],
        )
        assert sha256(strategy) == (
            "c06f2af91e85a55db346fb4e177ac3274c2a81350660390b19b4e029ee8d6197"
        )
        assert log.read_text().splitlines()[0] == (
            "t,exploitability,max_pos_regret_sum,wall_ms"
        )

    def test_kuhn_row_summing_to_0_8_and_an_unknown_game(self, tmp_path, capsys):
        """``sed '2s/,0\\.5$/,0.3/'`` on the one-iteration Kuhn file exits 4,
        and ``--game nosuch`` exits 2."""
        uniform, _ = solve_into(
            tmp_path, capsys, "uniform",
            ["--game", "kuhn", "--algo", "cfr", "--iters", "1"],
        )
        lines = uniform.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].endswith(",0.5\n")
        lines[1] = lines[1][: -len("0.5\n")] + "0.3\n"
        short = tmp_path / "short.csv"
        short.write_text("".join(lines), encoding="utf-8")
        argv = ["exploit", "--game", "kuhn", "--strategy", str(short)]
        code, _, err = run(argv, capsys)
        assert code == 4, err
        assert "for infoset 'p0:J:-:' sum to 0.80000000000000004" in err
        argv = ["exploit", "--game", "nosuch", "--strategy", str(short)]
        assert run(argv, capsys)[0] == 2

    def exploit_stored(self, tmp_path, capsys, data):
        """``fregret exploit --game leduc`` of a file holding ``data``."""
        path = tmp_path / "edited.csv"
        path.write_bytes(data)
        code, out, err = run(
            ["exploit", "--game", "leduc", "--strategy", str(path)], capsys
        )
        return code, out, err, str(path)

    def test_line_written_twice_fails_at_its_second_copy(self, tmp_path, capsys):
        """``sed '3p'`` on the stored file exits 4 with ``line 4: duplicate
        entry for 'p0:J:-:/' action 1``."""
        lines = STORED.read_bytes().splitlines(keepends=True)
        data = b"".join([*lines[:3], lines[2], *lines[3:]])
        code, _, err, _ = self.exploit_stored(tmp_path, capsys, data)
        assert code == 4
        assert "line 4: duplicate entry for 'p0:J:-:/' action 1" in err

    def test_two_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys):
        """``printf '\\377\\376'`` exits 4 and names the file."""
        code, _, err, path = self.exploit_stored(tmp_path, capsys, b"\xff\xfe")
        assert code == 4 and path in err

    def test_byte_order_mark_before_the_stored_file_fails_at_line_1(
        self, tmp_path, capsys
    ):
        """``printf '\\357\\273\\277' | cat - leduc_cfr1000.csv`` exits 4 with
        ``line 1: starts with a UTF-8 byte-order mark``."""
        data = b"\xef\xbb\xbf" + STORED.read_bytes()
        code, _, err, _ = self.exploit_stored(tmp_path, capsys, data)
        assert code == 4
        assert "line 1: starts with a UTF-8 byte-order mark" in err

    def test_crlf_copy_of_the_stored_file_reads_as_the_original(
        self, tmp_path, capsys
    ):
        """``sed 's/$/\\r/'`` on the stored file: ``exploit`` prints the
        stored file's line, and ``compete --exact`` against the original
        prints ``exact_ev,0``."""
        data = STORED.read_bytes().replace(b"\n", b"\r\n")
        code, out, _, path = self.exploit_stored(tmp_path, capsys, data)
        assert (code, out) == (0, "exploitability,0.079626596628128293\n")
        argv = ["compete", "--game", "leduc", "--a", str(STORED), "--b", path,
                "--exact"]
        assert run(argv, capsys)[:2] == (0, "exact_ev,0\n")


def hexed(result):
    """A read's (game id, profile) with every probability as ``float.hex``,
    in key order."""
    game_id, profile = result
    return game_id, [(key, list(map(float.hex, row))) for key, row in profile.items()]


class TestRepeatedReads:
    """Reads of one file share nothing the caller can change, and leave
    nothing behind."""

    def test_mutating_a_returned_profile_changes_no_later_read(self):
        expected = hexed(read_strategy_file(str(STORED)))
        _, profile = read_strategy_file(str(STORED))
        first, second = list(profile)[:2]
        profile[first] = (1.0,)
        del profile[second]
        profile["p9:new"] = (0.5, 0.5)
        again = read_strategy_file(str(STORED))
        assert again[1] is not profile and hexed(again) == expected

    def test_memory_the_reader_holds_stays_flat_over_200_reads(self):
        """Counts what ``cli``'s own lines allocated and still hold; numpy's
        internal caches, which fill over the first few thousand calls, are
        allocated in numpy's frames and left out."""
        own = [tracemalloc.Filter(True, cli.__file__)]

        def held():
            gc.collect()
            traces = tracemalloc.take_snapshot().filter_traces(own)
            return sum(stat.size for stat in traces.statistics("filename"))

        tracemalloc.start()
        try:
            read_strategy_file(str(STORED))
            before = held()
            for _ in range(200):
                read_strategy_file(str(STORED))
            after = held()
        finally:
            tracemalloc.stop()
        assert after - before < 1024, (before, after)
