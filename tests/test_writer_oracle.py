"""The strategy-file writer against the line-by-line writer it replaced.

``reference_write_strategy_file`` is ``cli.write_strategy_file`` as it was
before it filled one cached template per game: after the same checks, in
the same order, it builds one line per action with an f-string and
formats each entry of the profile itself with ``float`` and ``.17g``,
where the writer formats the slot vector ``checked_policy`` returns. On
every input both must write the same bytes, or raise the same exception
type with the same message and write nothing. The inputs are Kuhn, Leduc
and random oracle games under random and edge-case profiles, rows given
as ``float``, ``np.float64``, ``np.float32``, ``int``, ``bool`` and
numeric strings, and games whose game id or keys hold a ``%``, a comma, a
line break, a lone surrogate or whitespace. Each input is written twice,
so the second call meets the first's cached template, or its absence.
"""

import random

import numpy as np
import pytest
from test_cli import edge_case_profile
from test_game_oracle import SEEDS, is_dyadic, random_game, random_profile

from fregret.cli import STRATEGY_HEADER, STRATEGY_HEADER_PATTERN, write_strategy_file
from fregret.efg_core import checked_policy, decision, make_game, terminal


def reference_write_strategy_file(path: str, game, profile) -> None:
    try:
        checked_policy(game, (profile, profile))
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    header = STRATEGY_HEADER.format(game.game_id)
    if STRATEGY_HEADER_PATTERN.fullmatch(header) is None:
        raise ValueError(f"game id {game.game_id!r} is empty or has whitespace")
    lines = [header]
    for key in sorted(profile):
        if "," in key or "".join(key.splitlines()) != key:
            raise ValueError(f"infoset key {key!r} has a comma or a line break")
        for index, prob in enumerate(profile[key]):
            lines.append(f"{key},{index},{float(prob):.17g}")
    try:
        data = ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError as error:
        text = error.object[error.start : error.end]
        raise ValueError(f"{text!r} cannot be written as UTF-8") from None
    with open(path, "wb") as handle:
        handle.write(data)


def outcome(writer, path, game, profile):
    """The bytes ``writer`` writes, or the type and message it raises."""
    if path.exists():
        path.unlink()
    try:
        writer(str(path), game, profile)
    except Exception as error:  # compared, not swallowed
        assert not path.exists()
        return type(error), str(error)
    return path.read_bytes()


def assert_writes_as_reference(tmp_path, game, profile):
    expected = outcome(reference_write_strategy_file, tmp_path / "ref.csv", game, profile)
    for _ in range(2):
        assert outcome(write_strategy_file, tmp_path / "new.csv", game, profile) == expected


def test_kuhn_and_leduc_match_reference(tmp_path, kuhn_game, leduc_game):
    for game in (kuhn_game, leduc_game):
        rng = random.Random(game.game_id)
        for _ in range(20):
            profile = random_profile(game, rng, False)
            assert_writes_as_reference(tmp_path, game, profile)
        assert_writes_as_reference(tmp_path, game, edge_case_profile(game))


@pytest.mark.parametrize("seed", SEEDS[::10])
def test_random_games_match_reference(tmp_path, seed):
    for shared in (False, True):
        game = random_game(seed, shared)
        rng = random.Random(seed)
        assert_writes_as_reference(tmp_path, game, random_profile(game, rng, is_dyadic(seed)))
        assert_writes_as_reference(tmp_path, game, edge_case_profile(game))


# Each turns a row's float into the entry type a caller may hand in.
ENTRY_TYPES = {
    "float": float,
    "float64": np.float64,
    "float32": np.float32,
    "repr": repr,
    "str17": lambda x: f"{x:.17g}",
    "padded": lambda x: f" {x!r}\n",
    "underscored": lambda x: "1_0" if x == 1.0 else repr(x),
}


@pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
def test_entry_types_match_reference(tmp_path, leduc_game, kind):
    convert = ENTRY_TYPES[kind]
    rng = random.Random(kind)
    for _ in range(3):
        profile = random_profile(leduc_game, rng, False)
        typed = {key: tuple(map(convert, row)) for key, row in profile.items()}
        assert_writes_as_reference(tmp_path, leduc_game, typed)


@pytest.mark.parametrize("kind", [int, bool, np.int64, np.bool_, str])
def test_pure_rows_as_integers_match_reference(tmp_path, kuhn_game, leduc_game, kind):
    for game in (kuhn_game, leduc_game):
        profile = {}
        for k, (_, key, n) in enumerate(game.layout.infosets):
            profile[key] = tuple(kind(int(a == k % n)) for a in range(n))
        assert_writes_as_reference(tmp_path, game, profile)


def test_entries_float_cannot_read_match_reference(tmp_path, kuhn_game):
    key = sorted(kuhn_game.action_labels)[1]
    for row in (("half", "0.5"), (b"0.5", 0.5), (0.5, 1 + 0j), (10**400, 0.0)):
        profile = {k: (0.5, 0.5) for k in kuhn_game.action_labels}
        profile[key] = row
        assert_writes_as_reference(tmp_path, kuhn_game, profile)


def two_infoset_game(game_id, first, second):
    return make_game(
        game_id,
        decision(
            0,
            first,
            ("a", "b"),
            (
                decision(1, second, ("c", "d", "e"), tuple(map(terminal, (1.0, 0.0, -1.0)))),
                terminal(-1.0),
            ),
        ),
    )


EDGE_GAMES = [
    ("toy", "p0:x", "p1:y"),
    ("toy", "p0:100%", "p1:%s%%d"),
    ("g%d%%", "p0:x", "p1:%.17g"),
    ("%", "%", "%%"),
    ("toy", "p0:,x", "p1:y"),
    ("toy", "p0:x", "p1:y,"),
    ("toy", "p0:\rx", "p1:y"),
    ("toy", "p0:x", "p1:y\x85"),
    ("toy", "p0: ", "p1:y"),
    ("toy", "p0:\ud800", "p1:y"),
    ("toy\udcff", "p0:x", "p1:y"),
    ("toy\udcff", "p0:\ud800", "p1:y"),
    ("toy", "p0:𐏿%", "p1:,"),
    ("toy", "p1:,", "p0:\ud800"),
    ("my toy", "p0:x", "p1:y"),
    ("", "p0:x", "p1:y"),
    ("my toy", "p0:,x", "p1:\ud800"),
    ("toy", "p0:é", "p1:\U0001f0a1"),
    ("toy", "", "p1: y;z"),
]


@pytest.mark.parametrize("game_id, first, second", EDGE_GAMES)
def test_edge_games_match_reference(tmp_path, game_id, first, second):
    game = two_infoset_game(game_id, first, second)
    profile = {first: (0.25, 0.75), second: (0.5, 0.0, 0.5)}
    assert_writes_as_reference(tmp_path, game, profile)
    # A missing key, an unknown key and a bad row fail before any other check.
    assert_writes_as_reference(tmp_path, game, {first: (0.25, 0.75)})
    assert_writes_as_reference(tmp_path, game, {**profile, "p0:z": (1.0,)})
    assert_writes_as_reference(tmp_path, game, {**profile, second: (0.5, 0.5)})


def test_game_without_infosets_matches_reference(tmp_path):
    for game_id in ("toy", "%d%%", "my toy"):
        game = make_game(game_id, terminal(0.0))
        assert_writes_as_reference(tmp_path, game, {})
        assert_writes_as_reference(tmp_path, game, {"p0:x": (1.0,)})
