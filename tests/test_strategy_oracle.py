"""The strategy-file reader against the line-by-line reader it replaced.

``reference_read_strategy_file`` is the reader that parsed and checked one
line at a time before ``read_strategy_file`` converted whole columns at
once, kept here unchanged but for the encoding, which is UTF-8 in both, and
the number forms: both read an action index only as plain ASCII digits and
a probability only in a form ``format_float`` or ``repr`` writes, a token
outside these failing at its line. The reference checks them against its
own copy of that grammar, ``PROBABILITY``, not the reader's. On
every input both must return the same (game id, profile), by ``float.hex``
and key order, or raise the same exception type with the same message. The
inputs are fixed edge cases plus thousands of seeded mutations of valid
Kuhn, Leduc and random-game files: lines deleted, duplicated, swapped,
shuffled and inserted, fields garbled, commas added and removed, indices
and keys changed, and line ends varied.
"""

import math
import pathlib
import random
import re

import pytest
from test_game_oracle import random_game, random_profile

from fregret.cfr import CFRConfig, solve
from fregret.cli import STRATEGY_HEADER_PATTERN, read_strategy_file
from fregret.efg_core import check_row, uniform_profile

STORED = pathlib.Path(__file__).parents[1] / "benchmarks/data/leduc_cfr1000.csv"
HEADER = "# fregret-strategy v1 game={} exploit_convention=sum"
# The probability forms fregret writes, copied rather than imported.
PROBABILITY = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?|-?inf|nan")


def reference_read_strategy_file(path: str):
    """Parse a strategy file; returns (game id, profile).

    Every malformed line is reported with its line number; per-infoset
    probabilities must be contiguous from action index 0 and pass
    ``efg_core.check_row``.
    """
    with open(path, encoding="utf-8") as handle:
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
            if not (index_text.isascii() and index_text.isdigit()):
                raise ValueError(index_text)
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"{path}, line {number}: bad action index '{index_text}'"
            ) from None
        try:
            if not PROBABILITY.fullmatch(prob_text):
                raise ValueError(prob_text)
            prob = float(prob_text)
        except ValueError:
            raise ValueError(
                f"{path}, line {number}: bad probability '{prob_text}'"
            ) from None
        if not 0.0 <= prob < math.inf:
            raise ValueError(
                f"{path}, line {number}: probability {prob_text} must be "
                f"finite and >= 0"
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


def outcome(reader, path):
    """("ok", game id, [(key, row as float.hex)]) or (error type, message)."""
    try:
        game_id, profile = reader(path)
    except Exception as error:  # noqa: BLE001 - any difference is a failure
        return type(error), str(error)
    rows = [(key, [float.hex(p) for p in row]) for key, row in profile.items()]
    return "ok", game_id, rows


def assert_same(path, text):
    path.write_bytes(text.encode("utf-8"))
    new = outcome(read_strategy_file, str(path))
    assert new == outcome(reference_read_strategy_file, str(path)), text
    return new


def file_text(game_id, body, end="\n"):
    return end.join([HEADER.format(game_id), *body]) + end


# Fixed bodies, each read under a Kuhn header.
KUHN_ROWS = ["p0:J:-:,0,0.75", "p0:J:-:,1,0.25", "p1:Q:b:,0,0.5", "p1:Q:b:,1,0.5"]
FIXED = {
    "valid": KUHN_ROWS,
    "empty body": [],
    "several faults, the first line wins": [
        "p0:J:-:,0,0.5",
        "p0:J:-:,x,0.5",
        "p0:J:-:,1,half",
        "p0:J:-:,1",
        "p0:J:-:,1,-1",
    ],
    "bad probability before a later bad index": [
        "p0:J:-:,0,half",
        "p0:J:-:,x,0.5",
    ],
    "range fault before a later field count": ["p0:J:-:,0,-0.5", "a,b"],
    "duplicate before a later parse fault": [
        "p0:J:-:,0,0.5",
        "p0:J:-:,0,0.5",
        "p0:J:-:,1,half",
    ],
    "duplicate after an earlier parse fault": [
        "p0:J:-:,0,0.5",
        "p0:J:-:,1,half",
        "p0:J:-:,0,0.5",
    ],
    "duplicate line with a bad probability": ["p0:J:-:,0,0.5", "p0:J:-:,0,nan"],
    "duplicate spelled differently": ["p0:J:-:,1,0.5", "p0:J:-:, +01,0.5"],
    "gap in a key after a key with a bad sum": [
        "p0:J:-:,0,0.5",
        "p0:J:-:,1,0.3",
        "p1:Q:b:,0,0.5",
        "p1:Q:b:,2,0.5",
    ],
    "bad sum in a key after a key with a gap": [
        "p0:J:-:,0,0.5",
        "p0:J:-:,2,0.5",
        "p1:Q:b:,0,0.5",
        "p1:Q:b:,1,0.3",
    ],
    "interleaved keys out of order": [
        "p1:Q:b:,1,0.5",
        "p0:J:-:,1,0.25",
        "p1:Q:b:,0,0.5",
        "p0:J:-:,0,0.75",
    ],
    "negative index": ["p0:J:-:,-1,0.5", "p0:J:-:,0,0.5"],
    "index past int64": ["p0:J:-:,0,0.5", "p0:J:-:,99999999999999999999,0.5"],
    "index past int64 twice": [
        "p0:J:-:,99999999999999999999,0.5",
        "p0:J:-:,99999999999999999999,0.5",
    ],
    "index below int64 twice": [
        "p0:J:-:,-99999999999999999999,0.5",
        "p0:J:-:,-99999999999999999999,0.5",
    ],
    "two indices past int64": [
        "p0:J:-:,99999999999999999999,0.5",
        "p0:J:-:,99999999999999999998,0.5",
    ],
    "nan": ["p0:J:-:,0,nan", "p0:J:-:,1,1"],
    "inf": ["p0:J:-:,0,inf", "p0:J:-:,1,0"],
    "negative zero": ["p0:J:-:,0,-0", "p0:J:-:,1,1", "p1:Q:b:,0,-0.0", "p1:Q:b:,1,1"],
    "tiny negative rounds to negative zero": ["p0:J:-:,0,-1e-400", "p0:J:-:,1,1"],
    "blank line": ["p0:J:-:,0,0.5", "", "p0:J:-:,1,0.5"],
    "one-action rows": ["a,0,1", "b,0,1.0000001", "c,0,0.9999999"],
    "sum just outside the slack": ["a,0,0.5", "a,1,0.500002"],
    "non-ASCII key": ["p0:é,0,0.5", "p0:é,1,0.5"],
    "lines without commas that join into a row": ["a", "0", "1", "k,0,1"],
}


@pytest.mark.parametrize("name", sorted(FIXED))
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_fixed_cases_match_reference(tmp_path, name, end):
    assert_same(tmp_path / "file.csv", file_text("kuhn", FIXED[name], end))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "not a header\n",
        HEADER.format("a b") + "\n",
    ],
)
def test_header_faults_match_reference(tmp_path, text):
    assert assert_same(tmp_path / "file.csv", text)[0] is ValueError


def test_first_fault_in_file_order_is_reported(tmp_path):
    path = tmp_path / "file.csv"
    expected = {
        "several faults, the first line wins": "line 3: bad action index 'x'",
        "bad probability before a later bad index": "line 2: bad probability",
        "duplicate before a later parse fault": "line 3: duplicate entry",
        "duplicate after an earlier parse fault": "line 3: bad probability",
        "duplicate spelled differently": "line 3: bad action index ' +01'",
        "gap in a key after a key with a bad sum": "sum to 0.80000000000000004",
        "bad sum in a key after a key with a gap": "'p0:J:-:' is missing",
        "index past int64 twice": "line 3: duplicate entry",
        "two indices past int64": "missing some action indices",
    }
    for name, fragment in expected.items():
        error = assert_same(path, file_text("kuhn", FIXED[name]))
        assert error[0] is ValueError and fragment in error[1], (name, error)


def test_shuffled_valid_files_keep_first_appearance_order(tmp_path):
    rng = random.Random(1)
    body = STORED.read_text(encoding="utf-8").splitlines()[1:]
    for _ in range(5):
        rng.shuffle(body)
        result = assert_same(tmp_path / "file.csv", file_text("leduc", body))
        order = list(dict.fromkeys(line.split(",")[0] for line in body))
        assert result[0] == "ok" and [key for key, _ in result[2]] == order


INDEX_TOKENS = (
    "", "x", "-1", "+1", " 1", "1 ", "01", "1_0", "1.0", "2", "3", "0",
    "99999999999999999999999", "-99999999999999999999", "9223372036854775808",
    "0x1", "\u0661", "nan",
)
PROB_TOKENS = (
    "", "half", "nan", "NaN", "inf", "-inf", "-0", "-0.0", "0", "1", "1e400",
    "-1e-400", "5e-324", "0.5", "-0.5", "1.0000001", "0.999999", " 0.5",
    "0x1p-1", "1_0", "infinity", "1e-7", "+0.5", ".5", "5.", "1E-5", "1e5",
    "Infinity", "\u0660.\u0665", "0.5 ",
)
KEY_TOKENS = ("", " ", "p0:é", "p0:J:-:", "p9:zz")
GARBAGE_LINES = ("", "garbage", "a,b", "a,b,c,d", ",,", ",0,1", "p0:x,0,1")


def mutate(rng, body):
    """``body`` with one random change; returns the new list."""
    body = list(body)
    kind = rng.randrange(11)
    at = rng.randrange(len(body)) if body else 0
    if not body or kind == 0:
        body.insert(at, rng.choice(GARBAGE_LINES))
    elif kind == 1:
        del body[at]
    elif kind == 2:
        body.insert(rng.randrange(len(body) + 1), body[at])
    elif kind == 3:
        other = rng.randrange(len(body))
        body[at], body[other] = body[other], body[at]
    elif kind == 4:
        rng.shuffle(body)
    elif kind == 5:
        line = body[at]
        body[at] = line + "," if rng.random() < 0.5 else line.replace(",", "", 1)
    elif kind == 10 and rng.random() < 0.2:
        body = []
    else:
        parts = body[at].split(",")
        if len(parts) != 3:
            return body
        if kind == 6:
            parts[1] = rng.choice(INDEX_TOKENS)
        elif kind == 7:
            parts[2] = rng.choice(PROB_TOKENS)
        elif kind == 8:
            other = rng.choice(body).split(",")[0]
            parts[0] = rng.choice((*KEY_TOKENS, other))
        elif kind == 9:
            shift = rng.choice((-1, 1, 2))
            parts[1] = str(int(parts[1]) + shift) if parts[1].isdigit() else "0"
        else:
            scale = rng.choice((0.0, 1 - 1e-5, 1 + 1e-7, 1 + 1e-5, 2.0))
            try:
                parts[2] = repr(float(parts[2]) * scale)
            except ValueError:
                parts[2] = "0.5"
        body[at] = ",".join(parts)
    return body


def base_files(kuhn_game):
    """(game id, body lines, mutation count) of the valid files mutated."""
    kuhn_cfr, _ = solve(kuhn_game, CFRConfig(iterations=30, log_every=30))
    files = [
        ("kuhn", kuhn_cfr, 2000),
        ("kuhn", uniform_profile(kuhn_game), 1000),
        ("leduc", None, 150),
    ]
    for seed in range(20):
        game = random_game(seed)
        profile = random_profile(game, random.Random(seed), seed % 2 == 1)
        files.append((game.game_id, profile, 80))
    for game_id, profile, n in files:
        if profile is None:
            lines = STORED.read_text(encoding="utf-8").splitlines()[1:]
        else:
            lines = [
                f"{key},{index},{prob!r}"
                for key in sorted(profile)
                for index, prob in enumerate(profile[key])
            ]
        yield game_id, lines, n


def test_mutated_files_match_reference(tmp_path, kuhn_game):
    """4,750 seeded mutations: the same result or the same error."""
    rng = random.Random(20)
    path = tmp_path / "file.csv"
    seen = {}
    for game_id, lines, n in base_files(kuhn_game):
        for _ in range(n):
            body = lines
            for _ in range(rng.choice((1, 1, 2, 3))):
                body = mutate(rng, body)
            end = rng.choice(("\n", "\n", "\n", "\r\n", "\r"))
            result = assert_same(path, file_text(game_id, body, end))
            kind = "ok" if result[0] == "ok" else result[1].split(": ", 1)[1]
            seen[kind] = seen.get(kind, 0) + 1
    # The mutations reach every check, valid files included.
    assert seen["ok"] > 300
    for fragment in (
        "expected 'infoset_key",
        "bad action index",
        "bad probability",
        "probability ",
        "duplicate entry for",
        "infoset",
        "probabilities",
    ):
        assert any(kind.startswith(fragment) for kind in seen), fragment


def scale_row(body, key, factor):
    """``body`` with every probability of infoset ``key`` times ``factor``."""
    out = []
    for line in body:
        row_key, index, prob = line.split(",")
        if row_key == key:
            prob = repr(float(prob) * factor)
        out.append(",".join((row_key, index, prob)))
    return out


@pytest.mark.parametrize("token", ["half", "1_0", "-0.5", "nan", "inf", "0.8 sum"])
def test_probability_faults_match_reference(tmp_path, kuhn_game, token):
    """A fault in the probabilities alone, in a file whose key and index
    columns are valid, fails at the reference's line with its message."""
    rng = random.Random(token)
    path = tmp_path / "file.csv"
    for game_id, lines, _ in base_files(kuhn_game):
        at = rng.randrange(len(lines))
        if token == "0.8 sum":
            body = scale_row(lines, lines[at].split(",")[0], 0.8)
        else:
            body = list(lines)
            body[at] = body[at].rsplit(",", 1)[0] + "," + token
        error = assert_same(path, file_text(game_id, body))
        assert error[0] is ValueError
        if token == "0.8 sum":
            assert "probabilities" in error[1] and ", line " not in error[1]
        else:
            assert f", line {at + 2}: " in error[1]


# Every line end str.splitlines honours but "\n".
LINE_BREAKS = (
    "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
    "\u2029",
)


@pytest.mark.parametrize("name", sorted(FIXED))
@pytest.mark.parametrize("end", LINE_BREAKS)
def test_every_line_break_reads_as_reference_and_its_newline_twin(
    tmp_path, name, end
):
    """Only text that ends in "\\n" with no other break ``splitlines``
    honours is cut at "\\n" alone; the rest must read as the reference
    does, and each valid file as its "\\n" twin."""
    path, body = tmp_path / "file.csv", FIXED[name]
    twin = assert_same(path, file_text("kuhn", body))
    # All ends this break, one line ended by it among "\n" ends, and no
    # final line end.
    mixed = [line + (end if k == 1 else "\n") for k, line in enumerate(body)]
    texts = (
        file_text("kuhn", body, end),
        HEADER.format("kuhn") + "\n" + "".join(mixed),
        file_text("kuhn", body, end)[: -len(end)],
        file_text("kuhn", body)[:-1],
    )
    for text in texts:
        result = assert_same(path, text)
        if result[0] == "ok":
            assert result == twin, repr(text)


def test_a_line_break_inside_a_key_reads_as_reference(tmp_path):
    path = tmp_path / "file.csv"
    for end in LINE_BREAKS:
        body = [f"p0:J{end}x,0,0.5", f"p0:J{end}x,1,0.5"]
        assert assert_same(path, file_text("kuhn", body))[0] is ValueError
