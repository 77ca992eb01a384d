"""README's command examples print what they show.

README is the one home of the output lines it shows: this test runs each
plain code block that holds both ``fregret`` commands and output, in README
order in one directory, so a block may read a file an earlier one wrote.
"""

import pathlib
import re
import shlex

from fregret.cli import main

ROOT = pathlib.Path(__file__).parents[1]


def examples():
    """(commands, output lines) of each README block that shows output; a
    command is its argv after ``fregret``, joined across ``\\`` line ends."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        typed = [line.startswith("fregret ") for line in lines]
        commands = [shlex.split(line)[1:] for line, t in zip(lines, typed) if t]
        output = [line for line, t in zip(lines, typed) if not t]
        if commands and output:
            yield commands, output


def test_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shown = list(examples())
    assert len(shown) == 3
    for commands, output in shown:
        printed = []
        for argv in commands:
            # The stored profiles are read from the checkout.
            argv = [str(ROOT / a) if a.startswith("benchmarks/") else a for a in argv]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, captured.err
            printed += captured.out.splitlines()
        assert printed == output, commands
