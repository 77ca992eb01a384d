"""Command-line experiment runner and text formats for strategies and logs.

Three subcommands: ``solve`` writes a strategy file plus a convergence CSV,
``exploit`` prints the exploitability of a stored strategy, and ``compete``
pits two stored strategies against each other (exact or sampled).

Strategy files open with ``# fregret-strategy v1 game=<id>
exploit_convention=sum`` and then hold one ``infoset_key,action_index,
probability`` line per action, sorted by key then index. The convention tag
records that exploitability values are the sum over both seats' best
responses; halve them for a per-seat average. All floats are written with 17
significant digits, so write -> read -> write is byte-identical.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 validation error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from ._validation import format_float
from .cfr import CFRConfig, solve
from .efg_core import check_row, checked_policy
from .eval import exact_ev, exploitability, sampled_match
from .games import build_kuhn, build_leduc
from .rcfr import RCFRConfig, rcfr_solve

GAME_BUILDERS = {"kuhn": build_kuhn, "leduc": build_leduc}
ALGORITHMS = ("cfr", "rcfr")
STRATEGY_HEADER_PATTERN = re.compile(
    r"# fregret-strategy v1 game=(\S+) exploit_convention=sum"
)
STRATEGY_FILENAME = "strategy.csv"
CONVERGENCE_FILENAME = "convergence.csv"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def format_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_strategy_file(path: str, game, profile) -> None:
    """Check the profile against the game and store it sorted.

    Raises ValueError, before the file is opened, on anything the reader or
    ``efg_core.checked_policy`` would reject: a game id that is empty or has
    whitespace, a key with a comma or a line break, or a profile that fails
    the check.
    """
    try:
        checked_policy(game, (profile, profile))
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    header = f"# fregret-strategy v1 game={game.game_id} exploit_convention=sum"
    if STRATEGY_HEADER_PATTERN.fullmatch(header) is None:
        raise ValueError(f"game id {game.game_id!r} is empty or has whitespace")
    lines = [header]
    for key in sorted(profile):
        # The reader splits the file with str.splitlines, at more than "\n".
        if "," in key or "".join(key.splitlines()) != key:
            raise ValueError(f"infoset key {key!r} has a comma or a line break")
        for index, prob in enumerate(profile[key]):
            lines.append(f"{key},{index},{format_float(prob)}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_strategy_file(path: str):
    """Parse a strategy file; returns (game id, profile).

    Every malformed line is reported with its line number; per-infoset
    probabilities must be contiguous from action index 0 and pass
    ``efg_core.check_row``.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}, line 1: empty strategy file")
    match = STRATEGY_HEADER_PATTERN.fullmatch(lines[0])
    if match is None:
        raise ValueError(
            f"{path}, line 1: expected header "
            f"'# fregret-strategy v1 game=<id> exploit_convention=sum'"
        )
    game_id = match.group(1)
    by_infoset: dict[str, dict[int, float]] = {}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(
                f"{path}, line {number}: expected "
                f"'infoset_key,action_index,probability'"
            )
        key, index_text, prob_text = parts
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"{path}, line {number}: bad action index '{index_text}'"
            ) from None
        try:
            prob = float(prob_text)
        except ValueError:
            raise ValueError(
                f"{path}, line {number}: bad probability '{prob_text}'"
            ) from None
        if not prob >= 0.0:
            raise ValueError(
                f"{path}, line {number}: negative probability {prob_text}"
            )
        row = by_infoset.setdefault(key, {})
        if index in row:
            raise ValueError(
                f"{path}, line {number}: duplicate entry for "
                f"'{key}' action {index}"
            )
        row[index] = prob
    profile: dict[str, tuple[float, ...]] = {}
    where = f"{path}: "
    for key, row in by_infoset.items():
        count = len(row)
        if sorted(row) != list(range(count)):
            raise ValueError(
                f"{path}: infoset '{key}' is missing some action indices"
            )
        probs = tuple(row[i] for i in range(count))
        check_row(key, probs, where)
        profile[key] = probs
    return game_id, profile


def _load_for_game(path: str, game):
    file_game, profile = read_strategy_file(path)
    if file_game != game.game_id:
        raise ValueError(
            f"{path}: strategy is for game '{file_game}', expected "
            f"'{game.game_id}'"
        )
    checked_policy(game, (profile, profile))
    return profile


def cmd_solve(args) -> int:
    game = GAME_BUILDERS[args.game]()
    if args.algo == "cfr":
        profile, log = solve(
            game, CFRConfig(iterations=args.iters, log_every=args.log_every)
        )
        header = ["t", "exploitability", "max_pos_regret_sum", "wall_ms"]
        rows = [
            (row.t, row.exploitability, row.max_pos_regret_sum, row.wall_ms)
            for row in log
        ]
    else:
        profile, convergence, sizes = rcfr_solve(
            game,
            RCFRConfig(
                iterations=args.iters,
                estimator_kind=args.estimator,
                target_mode=args.target_mode,
                min_leaf_weight=args.min_leaf,
                max_depth=args.max_depth,
                seed=args.seed,
                log_every=args.log_every,
            ),
        )
        header = [
            "t",
            "exploitability",
            "mse_p1",
            "mse_p2",
            "leaves_p1",
            "leaves_p2",
            "wall_ms",
        ]
        rows = [
            (
                conv.t,
                conv.exploitability,
                conv.mse_p1,
                conv.mse_p2,
                size.leaves_p1,
                size.leaves_p2,
                conv.wall_ms,
            )
            for conv, size in zip(convergence, sizes)
        ]
    os.makedirs(args.out, exist_ok=True)
    write_strategy_file(
        os.path.join(args.out, STRATEGY_FILENAME), game, profile
    )
    with open(os.path.join(args.out, CONVERGENCE_FILENAME), "w") as handle:
        handle.write(format_csv(header, rows))
    return 0


def cmd_exploit(args) -> int:
    game = GAME_BUILDERS[args.game]()
    profile = _load_for_game(args.strategy, game)
    print(f"exploitability,{format_float(exploitability(game, profile))}")
    return 0


def cmd_compete(args) -> int:
    game = GAME_BUILDERS[args.game]()
    profile_a = _load_for_game(args.a, game)
    profile_b = _load_for_game(args.b, game)
    if args.exact:
        print(f"exact_ev,{format_float(exact_ev(game, profile_a, profile_b))}")
        return 0
    result = sampled_match(
        game,
        profile_a,
        profile_b,
        hands=args.hands,
        seed=args.seed,
        duplicate=args.duplicate,
    )
    sys.stdout.write(
        format_csv(
            ["hands", "mean", "stderr", "seed", "duplicate"],
            [
                (
                    result.hands,
                    result.mean,
                    result.stderr,
                    result.seed,
                    result.duplicate,
                )
            ],
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fregret",
        description="Solve and evaluate small poker games with CFR variants.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve_cmd = commands.add_parser(
        "solve", help="run a solver and write strategy + convergence files"
    )
    solve_cmd.add_argument("--game", required=True, choices=sorted(GAME_BUILDERS))
    solve_cmd.add_argument("--algo", required=True, choices=ALGORITHMS)
    solve_cmd.add_argument("--iters", required=True, type=int)
    solve_cmd.add_argument(
        "--estimator", choices=("tabular", "tree"), default="tree"
    )
    solve_cmd.add_argument("--min-leaf", type=float, default=1.0)
    solve_cmd.add_argument("--max-depth", type=int, default=None)
    solve_cmd.add_argument(
        "--target-mode", choices=("exact", "bootstrap"), default="exact"
    )
    solve_cmd.add_argument("--seed", type=int, default=0)
    solve_cmd.add_argument("--log-every", type=int, default=1)
    solve_cmd.add_argument("--out", required=True)
    solve_cmd.set_defaults(func=cmd_solve)

    exploit_cmd = commands.add_parser(
        "exploit", help="print the exploitability of a stored strategy"
    )
    exploit_cmd.add_argument("--game", required=True, choices=sorted(GAME_BUILDERS))
    exploit_cmd.add_argument("--strategy", required=True)
    exploit_cmd.set_defaults(func=cmd_exploit)

    compete_cmd = commands.add_parser(
        "compete", help="play two stored strategies against each other"
    )
    compete_cmd.add_argument("--game", required=True, choices=sorted(GAME_BUILDERS))
    compete_cmd.add_argument("--a", required=True)
    compete_cmd.add_argument("--b", required=True)
    compete_cmd.add_argument("--hands", type=int, default=10000)
    compete_cmd.add_argument("--seed", type=int, default=0)
    compete_cmd.add_argument("--duplicate", action="store_true")
    compete_cmd.add_argument("--exact", action="store_true")
    compete_cmd.set_defaults(func=cmd_compete)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"fregret: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"fregret: {message}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
