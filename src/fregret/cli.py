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
(``_validation.NUMBER`` and ``INDEX``). The writer fills one cached
template per game, a ``%.17g`` per probability, from the checked slot
vector in one ``%`` call, which is why a ``%`` in a key or the game id is
escaped there as ``%%``. The reader cuts text that ends in "\\n" and has
no other line break at "\\n" alone; any other text goes through
``str.splitlines``, so every line end it honours reads the same.

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
import weakref

import numpy as np

from ._validation import INDEX, INDEX_PATTERN, NUMBER, NUMBER_PATTERN, format_float
from .cfr import CFRConfig, ConvergenceRow, solve
from .efg_core import bad_rows, check_row, checked_policy
from .eval import policy_exact_ev, policy_exploitability, policy_sampled_match
from .games.poker import RULES, build_poker
from .rcfr import ESTIMATOR_KINDS, TARGET_MODES, RCFRConfig, rcfr_solve
from .rcfr import ModelSizeRow, RcfrConvergenceRow

ALGORITHMS = ("cfr", "rcfr")
STRATEGY_HEADER = "# fregret-strategy v1 game={} exploit_convention=sum"
STRATEGY_HEADER_PATTERN = re.compile(STRATEGY_HEADER.format(r"(\S+)"))
# Strategy-file body lines, each ended by "\n", in the forms the writer writes.
_STRATEGY_LINES = re.compile(rf"(?:[^,]*,{INDEX},(?:{NUMBER})\n)*")
# The line breaks str.splitlines honours besides "\n".
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
STRATEGY_FILENAME = "strategy.csv"
CONVERGENCE_FILENAME = "convergence.csv"
# Each game's id, strategy-file template and slot order, keyed as rcfr._PLANS.
_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
    encode, or a profile that fails the check. A game that fails a check
    caches no template, so it raises again on the next call.
    """
    try:
        policy = checked_policy(game, (profile, profile))
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    layout, cached = game.layout, _TEMPLATES.get(game.layout)
    if cached is None or cached[0] != game.game_id:
        header = STRATEGY_HEADER.format(game.game_id)
        if STRATEGY_HEADER_PATTERN.fullmatch(header) is None:
            raise ValueError(f"game id {game.game_id!r} is empty or has whitespace")
        lines, order = [header.replace("%", "%%")], []
        rows = sorted((key, k, n) for k, (_, key, n) in enumerate(layout.infosets))
        for key, k, n in rows:
            # The reader splits the file with str.splitlines, at more than "\n".
            if "," in key or "".join(key.splitlines()) != key:
                raise ValueError(f"infoset key {key!r} has a comma or a line break")
            lines += [f"{key.replace('%', '%%')},{a},%.17g" for a in range(n)]
            order += range(layout.offset[k], layout.offset[k] + n)
        try:
            template = ("\n".join(lines) + "\n").encode("utf-8")
        except UnicodeEncodeError as error:
            text = error.object[error.start : error.end]
            raise ValueError(f"{text!r} cannot be written as UTF-8") from None
        cached = _TEMPLATES[layout] = (game.game_id, template, np.array(order, np.intp))
    _, template, order = cached
    with open(path, "wb") as handle:
        handle.write(template % tuple(policy[order].tolist()))


def read_strategy_file(path: str):
    """Parse a UTF-8 strategy file; returns (game id, profile), the profile's
    keys in order of first appearance.

    A file that starts with a UTF-8 byte-order mark, is not UTF-8, is empty
    or has a bad header raises ValueError. Text that ends in "\\n" with no
    other break ``str.splitlines`` honours (``_OTHER_BREAKS``) is cut at its
    first "\\n"; other text is split by ``splitlines`` and rejoined by "\\n".
    Then ``_read_bulk`` decides in bulk whether the body is valid, and one
    it rejects goes to ``_read_lines``, which reads a line at a time and
    raises ValueError on the first fault.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(codecs.BOM_UTF8):
        raise ValueError(
            f"{path}, line 1: starts with a UTF-8 byte-order mark; "
            f"strategy files have none"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(
            f"{path}: not UTF-8 text ({error.reason} at byte {error.start})"
        ) from None
    if text.endswith("\n") and not any(map(text.__contains__, _OTHER_BREAKS)):
        header, _, body = text.partition("\n")
    elif text:
        header, *lines = text.splitlines()
        body = "\n".join([*lines, ""])
    else:
        raise ValueError(f"{path}, line 1: empty strategy file")
    match = STRATEGY_HEADER_PATTERN.fullmatch(header)
    if match is None:
        expected = STRATEGY_HEADER.format("<id>")
        raise ValueError(f"{path}, line 1: expected header '{expected}'")
    profile = _read_bulk(body)
    if profile is None:
        profile = _read_lines(path, body.split("\n")[:-1])
    return match.group(1), profile


def _read_bulk(body):
    """The profile of a valid body, its lines each ended by "\\n", or None
    for any other. One regex match checks the form of every line, numpy
    converts each column in one call, and after a stable sort by (infoset,
    action index) each infoset's indices must be 0..n-1, which catches
    duplicates and gaps at once, and ``efg_core.bad_rows`` must pass every
    row."""
    # _STRATEGY_LINES reads a key as ``[^,]*``, not the slower ``[^,\n]*``,
    # so a key may take in lines with no comma; then fields fall short.
    if _STRATEGY_LINES.fullmatch(body) is None:
        return None
    fields = body.replace("\n", ",").split(",")[:-1]
    if len(fields) != 3 * body.count("\n"):
        return None
    keys, prob = fields[0::3], np.array(fields[2::3], dtype=np.float64)
    try:
        index = np.array(fields[1::3], dtype=np.int64)
    except OverflowError:  # no row has that many actions
        return None
    ids = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    owner = np.fromiter(map(ids.__getitem__, keys), np.intp, len(keys))
    order = np.lexsort((index, owner))
    owner, index, prob = owner[order], index[order], prob[order]
    sizes = np.bincount(owner, minlength=len(ids))
    ends = np.cumsum(sizes)
    gap = index != np.arange(len(keys)) - np.repeat(ends - sizes, sizes)
    if gap.any() or bad_rows(owner, prob, len(ids)).any():
        return None
    flat, ends = prob.tolist(), ends.tolist()
    return dict(zip(ids, (tuple(flat[a:b]) for a, b in zip([0, *ends], ends))))


def _read_lines(path: str, body):
    """The profile of ``body`` read one line at a time. Raises ValueError
    with the line number on the first line, in file order, with a field
    count other than three, an index or probability outside the grammar
    the writer writes (``_validation.INDEX`` and ``NUMBER``), a probability
    not finite and >= 0, or a duplicate; then on the first infoset, in
    order of first appearance, with a missing index or, failing that, a row
    that ``efg_core.check_row`` rejects."""
    rows = {}
    for number, line in enumerate(body, start=2):
        fields = line.split(",")
        key, index, prob = fields if len(fields) == 3 else ("", "", "")
        if len(fields) != 3:
            fault = "expected 'infoset_key,action_index,probability'"
        elif INDEX_PATTERN.fullmatch(index) is None:
            fault = f"bad action index '{index}'"
        elif NUMBER_PATTERN.fullmatch(prob) is None:
            fault = f"bad probability '{prob}'"
        elif not 0.0 <= float(prob) < math.inf:
            fault = f"probability {prob} must be finite and >= 0"
        elif int(index) in rows.get(key, ()):
            fault = f"duplicate entry for '{key}' action {int(index)}"
        else:
            rows.setdefault(key, {})[int(index)] = float(prob)
            continue
        raise ValueError(f"{path}, line {number}: {fault}")
    profile = {}
    for key, row in rows.items():
        if sorted(row) != list(range(len(row))):
            raise ValueError(
                f"{path}: infoset '{key}' is missing some action indices"
            )
        profile[key] = tuple(map(row.__getitem__, range(len(row))))
        check_row(key, profile[key], f"{path}: ")
    return profile


def _load_for_game(path: str, game):
    """The checked slot vector of the profile stored at ``path`` for
    ``game``, ``efg_core.checked_policy`` of it for both seats."""
    file_game, profile = read_strategy_file(path)
    if file_game != game.game_id:
        raise ValueError(
            f"{path}: strategy is for game '{file_game}', expected "
            f"'{game.game_id}'"
        )
    return checked_policy(game, (profile, profile))


def _names(row_class) -> list:
    return [field.name for field in dataclasses.fields(row_class)]


def _before_last(values, extra) -> list:
    return [*values[:-1], *extra, values[-1]]


def cmd_solve(args) -> int:
    game = build_poker(RULES[args.game])
    if args.algo == "cfr":
        profile, log = solve(
            game, CFRConfig(iterations=args.iters, log_every=args.log_every)
        )
        header = _names(ConvergenceRow)
        rows = list(map(dataclasses.astuple, log))
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
        # The leaf counts, without their t, go before wall_ms.
        header = _before_last(_names(RcfrConvergenceRow), _names(ModelSizeRow)[1:])
        rows = [
            _before_last(dataclasses.astuple(conv), dataclasses.astuple(size)[1:])
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
    policy = _load_for_game(args.strategy, game)
    print(f"exploitability,{format_float(policy_exploitability(game, policy))}")
    return 0


def cmd_compete(args) -> int:
    game = build_poker(RULES[args.game])
    policy_a = _load_for_game(args.a, game)
    policy_b = _load_for_game(args.b, game)
    if args.exact:
        print(f"exact_ev,{format_float(policy_exact_ev(game, policy_a, policy_b))}")
        return 0
    result = policy_sampled_match(
        game,
        policy_a,
        policy_b,
        hands=args.hands,
        seed=args.seed,
        duplicate=args.duplicate,
    )
    header = _names(result)
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
