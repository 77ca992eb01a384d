"""The number grammar both file readers share.

``_validation.NUMBER`` must take every form that ``format_float`` and
``repr`` write for a float64, and both readers, ``parse_tree`` and
``read_strategy_file``, must refuse at its line each form that ``float``
reads but fregret never writes.
"""

import math
import random
import re
import struct

import pytest

from fregret._validation import INDEX_PATTERN, NUMBER_PATTERN, format_float
from fregret.cli import read_strategy_file
from fregret.estimator import parse_tree, serialize_tree

TREE_HEADER = "# fregret-tree v1 n_features=1 min_leaf_weight=0 max_depth=none\n"
STRATEGY_HEADER = "# fregret-strategy v1 game=kuhn exploit_convention=sum\n"


def seeded_doubles(count=12_000, seed=7):
    """Edge values, then doubles from random bit patterns (every exponent,
    both signs, NaN payloads), random subnormals, fractions and integers."""
    rng = random.Random(seed)
    values = [
        0.0, -0.0, 1e-07, 1e22, -1e22, 1e16, 0.1, 5e-324, -5e-324,
        2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        math.inf, -math.inf, math.nan, -math.nan,
    ]
    draws = (
        lambda: rng.getrandbits(64),
        lambda: rng.getrandbits(52) | rng.getrandbits(1) << 63,  # subnormal
        lambda: struct.unpack("<Q", struct.pack("<d", rng.random()))[0],
        lambda: struct.unpack("<Q", struct.pack("<d", float(rng.getrandbits(60))))[0],
    )
    while len(values) < count:
        bits = draws[len(values) % len(draws)]()
        values.append(struct.unpack("<d", struct.pack("<Q", bits))[0])
    return values


def test_every_written_form_is_in_the_grammar():
    values = seeded_doubles()
    assert sum(0 < abs(v) < 2.2250738585072014e-308 for v in values) > 2_000
    assert format_float(-0.0) == "-0" and NUMBER_PATTERN.fullmatch("-0")
    for value in values:
        for text in (format_float(value), repr(value)):
            assert NUMBER_PATTERN.fullmatch(text), text
    for index in (0, 1, 9, 10, 672, 2**63):
        assert INDEX_PATTERN.fullmatch(str(index))


def test_every_written_form_reads_back_exactly():
    finite = [v for v in seeded_doubles(2_000, seed=11) if math.isfinite(v)]
    for form in (format_float, repr):
        text = TREE_HEADER + "".join(
            f"node,0,{form(a)}\nleaf,{form(b)}\n" for a, b in zip(finite, finite[1:])
        )
        tree = parse_tree(text + f"leaf,{form(finite[0])}\n")
        pairs = [(a.hex(), b.hex()) for a, b in zip(finite, finite[1:])]
        read = zip(tree.threshold[0::2].tolist(), tree.value[1::2].tolist())
        assert [(a.hex(), b.hex()) for a, b in read] == pairs
        assert parse_tree(serialize_tree(tree)) == tree


# ``float`` reads every one of these; fregret writes none of them.
NEVER_WRITTEN = (
    " 0.5", "0.5 ", "+0.5", ".5", "5.", "1E-5", "1e5", "1_0",
    "infinity", "Infinity", "NaN", "٠.٥",
)


@pytest.mark.parametrize("token", NEVER_WRITTEN)
def test_forms_never_written_fail_in_both_readers(tmp_path, token):
    float(token)
    message = f"tree line 2: leaf value {token!r} is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_tree(TREE_HEADER + f"leaf,{token}\n")
    path = tmp_path / "strategy.csv"
    path.write_text(
        STRATEGY_HEADER + f"p0:J:-:,0,0.5\np0:J:-:,1,{token}\n", encoding="utf-8"
    )
    message = f"line 3: bad probability '{token}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_strategy_file(str(path))


def test_an_exponent_needs_its_sign(tmp_path):
    # format_float writes 1e+22, never 1e22: "1e400" is malformed, while
    # "1e+400" is a number, which is then refused for not being finite.
    path = tmp_path / "strategy.csv"
    for token, message in (
        ("1e400", "line 3: bad probability '1e400'"),
        ("1e+400", "line 3: probability 1e+400 must be finite and >= 0"),
    ):
        path.write_text(STRATEGY_HEADER + f"p0:J:-:,0,0\np0:J:-:,1,{token}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_strategy_file(str(path))
