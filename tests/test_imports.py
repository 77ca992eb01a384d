"""No module imports a name it never uses.

Each name a module binds by a module-level import, ``__future__`` aside,
must be read somewhere in the module, be a function parameter (pytest
hands fixtures imported from another test module in that way), or be
listed in ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that ``source`` imports at module level and never uses."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES]
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_rule_sees_each_way_a_name_is_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from a import read, fixture, exported, idle\n"
        "__all__ = ['exported']\n"
        "def test(fixture):\n"
        "    return read, os.sep\n"
    )
    assert unused_imports(source) == ["regex", "idle"]
