"""Command-line experiment runner and text formats for strategies and logs.

Three subcommands: ``solve`` writes a strategy file plus a convergence CSV,
``exploit`` prints the exploitability of a stored strategy, and ``compete``
pits two stored strategies against each other (exact or sampled).

Strategy files are UTF-8 text without a byte-order mark: the header
``# fregret-strategy v1 game=<id> exploit_convention=sum``, then one
``infoset_key,action_index,probability`` line per action, sorted by key then
index. The convention tag records that exploitability values are the sum
over both seats' best responses; halve them for a per-seat average. Floats
are written with 17 significant digits, so write -> read -> write is
byte-identical; the reader takes only the number forms the writer writes
(``_validation.NUMBER`` and ``INDEX``).

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 validation error.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import math
import os
import re
import sys

import numpy as np

from ._validation import INDEX, INDEX_PATTERN, NUMBER, format_float
from .cfr import CFRConfig, solve
from .efg_core import bad_rows, check_row, checked_policy
from .eval import exact_ev, exploitability, sampled_match
from .games.poker import RULES, build_poker
from .rcfr import ESTIMATOR_KINDS, TARGET_MODES, RCFRConfig, rcfr_solve

ALGORITHMS = ("cfr", "rcfr")
STRATEGY_HEADER_PATTERN = re.compile(
    r"# fregret-strategy v1 game=(\S+) exploit_convention=sum"
)
# Strategy-file body lines, each ended by "\n", in the forms the writer writes.
_STRATEGY_LINES = re.compile(rf"(?:[^,]*,{INDEX},(?:{NUMBER})\n)*")
STRATEGY_FILENAME = "strategy.csv"
CONVERGENCE_FILENAME = "convergence.csv"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def format_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_strategy_file(path: str, game, profile) -> None:
    """Check the profile against the game and store it sorted, as UTF-8.

    Raises ValueError, before the file is opened, on anything the reader or
    ``efg_core.checked_policy`` would reject: a game id that is empty or has
    whitespace, a key with a comma or a line break, text that UTF-8 cannot
    encode, or a profile that fails the check.
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
    try:
        data = ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError as error:
        text = error.object[error.start : error.end]
        raise ValueError(f"{text!r} cannot be written as UTF-8") from None
    with open(path, "wb") as handle:
        handle.write(data)


def read_strategy_file(path: str):
    """Parse a UTF-8 strategy file; returns (game id, profile), the profile's
    keys in order of first appearance.

    A file that starts with a UTF-8 byte-order mark, or is not UTF-8,
    raises ValueError. A malformed line raises ValueError with its line
    number, the first such line in the file; an action index must be an
    ``_validation.INDEX`` and a probability an ``_validation.NUMBER``, the
    forms the writer writes. Then each infoset's indices must run 0..n-1
    and its row pass ``efg_core.check_row``; the first infoset to fail, in
    order of first appearance, is reported, a missing index before a bad
    sum.

    All rows are checked at once: one regex match finds the first malformed
    line, numpy converts each column before it in one call, and a stable
    sort by (infoset, action index) groups the rows, so an infoset is valid
    exactly when its sorted indices are 0..n-1.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(codecs.BOM_UTF8):
        raise ValueError(
            f"{path}, line 1: starts with a UTF-8 byte-order mark; "
            f"strategy files have none"
        )
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as error:
        raise ValueError(
            f"{path}: not UTF-8 text ({error.reason} at byte {error.start})"
        ) from None
    if not lines:
        raise ValueError(f"{path}, line 1: empty strategy file")
    match = STRATEGY_HEADER_PATTERN.fullmatch(lines[0])
    if match is None:
        raise ValueError(
            f"{path}, line 1: expected header "
            f"'# fregret-strategy v1 game=<id> exploit_convention=sum'"
        )
    game_id = match.group(1)
    body = lines[1:]
    count = len(body)
    # One match finds the first line the writer could not have written. Its
    # key is ``[^,]*``, not the slower ``[^,\n]*``, so a key may take in
    # lines with no comma: then the fields fall short, and the first is it.
    text = "\n".join([*body, ""])
    end = _STRATEGY_LINES.match(text).end()
    parsed = count if end == len(text) else text.count("\n", 0, end)
    fields = ",".join(body[:parsed]).split(",") if parsed else []
    if len(fields) != 3 * parsed:
        parsed = next(i for i, line in enumerate(body) if "," not in line)
        del fields[3 * parsed :]
    # Faults as (body line, rank, message): the earliest line wins, and on
    # one line the rank orders the checks as a line-by-line reader makes
    # them. The lines before the first malformed one are checked further.
    faults = []
    if parsed < count:
        _, *rest = body[parsed].split(",")
        if len(rest) != 2:
            message = "expected 'infoset_key,action_index,probability'"
        elif INDEX_PATTERN.fullmatch(rest[0]) is None:
            message = f"bad action index '{rest[0]}'"
        else:
            message = f"bad probability '{rest[1]}'"
        faults.append((parsed, 0, message))
    keys, index_texts, prob_texts = fields[0::3], fields[1::3], fields[2::3]
    # numpy reads each token as ``int`` and ``float`` do.
    prob = np.array(prob_texts, dtype=np.float64)
    outside = ~((prob >= 0.0) & (prob < math.inf))
    if outside.any():
        at = int(outside.argmax())
        faults.append(
            (at, 1, f"probability {prob_texts[at]} must be finite and >= 0")
        )
    first = dict.fromkeys(keys)
    ids = dict(zip(first, range(len(first))))
    owner = np.fromiter(map(ids.__getitem__, keys), np.intp, parsed)
    try:
        index = np.array(index_texts, dtype=np.int64)
    except OverflowError:  # past int64: compare the Python ints themselves
        index = np.array(list(map(int, index_texts)), dtype=object)
    # The stable sort puts each repeat of an (infoset, index) pair right
    # after its first line; the earliest repeating line is the duplicate.
    order = np.lexsort((index, owner))
    owner, index = owner[order], index[order]
    again = (owner[1:] == owner[:-1]) & (index[1:] == index[:-1])
    if again.any():
        at = int(order[1:][again].min())
        message = f"duplicate entry for '{keys[at]}' action {int(index_texts[at])}"
        faults.append((at, 2, message))
    if faults:
        at, _, message = min(faults)
        raise ValueError(f"{path}, line {at + 2}: {message}")
    prob = prob[order]
    sizes = np.bincount(owner, minlength=len(first))
    ends = np.cumsum(sizes)
    gap = np.zeros(len(first), dtype=bool)
    gap[owner[index != np.arange(count) - np.repeat(ends - sizes, sizes)]] = True
    bad = gap | bad_rows(owner, prob, len(first))
    flat, ends = prob.tolist(), ends.tolist()
    rows = [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]
    if bad.any():
        k = int(bad.argmax())
        key = list(first)[k]
        if gap[k]:
            raise ValueError(
                f"{path}: infoset '{key}' is missing some action indices"
            )
        check_row(key, rows[k], f"{path}: ")
    return game_id, dict(zip(first, rows))


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
    game = build_poker(RULES[args.game])
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
    convergence_path = os.path.join(args.out, CONVERGENCE_FILENAME)
    with open(convergence_path, "w", encoding="utf-8") as handle:
        handle.write(format_csv(header, rows))
    return 0


def cmd_exploit(args) -> int:
    game = build_poker(RULES[args.game])
    profile = _load_for_game(args.strategy, game)
    print(f"exploitability,{format_float(exploitability(game, profile))}")
    return 0


def cmd_compete(args) -> int:
    game = build_poker(RULES[args.game])
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
    header = [field.name for field in dataclasses.fields(result)]
    sys.stdout.write(format_csv(header, [dataclasses.astuple(result)]))
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
    solve_cmd.add_argument("--game", required=True, choices=sorted(RULES))
    solve_cmd.add_argument("--algo", required=True, choices=ALGORITHMS)
    solve_cmd.add_argument("--iters", required=True, type=int)
    solve_cmd.add_argument("--estimator", choices=ESTIMATOR_KINDS, default="tree")
    solve_cmd.add_argument(
        "--min-leaf", type=float, default=1.0, help="least rows per leaf"
    )
    solve_cmd.add_argument("--max-depth", type=int, default=None)
    solve_cmd.add_argument("--target-mode", choices=TARGET_MODES, default="exact")
    solve_cmd.add_argument(
        "--seed",
        type=int,
        default=0,
        help="accepted for compatibility; changes no output",
    )
    solve_cmd.add_argument("--log-every", type=int, default=1)
    solve_cmd.add_argument("--out", required=True)
    solve_cmd.set_defaults(func=cmd_solve)

    exploit_cmd = commands.add_parser(
        "exploit", help="print the exploitability of a stored strategy"
    )
    exploit_cmd.add_argument("--game", required=True, choices=sorted(RULES))
    exploit_cmd.add_argument("--strategy", required=True)
    exploit_cmd.set_defaults(func=cmd_exploit)

    compete_cmd = commands.add_parser(
        "compete", help="play two stored strategies against each other"
    )
    compete_cmd.add_argument("--game", required=True, choices=sorted(RULES))
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
