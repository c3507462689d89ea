"""The command-line examples in README.md, run in-process."""

import pathlib
import shlex

import pytest

from weilkit.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples(text):
    """(argv, output lines) of every `$ weilkit ...` line in a sh block,
    backslash continuations joined; the output runs to the next blank
    line, prompt or fence."""
    lines, examples, in_sh = text.splitlines(), [], False
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not (in_sh and line.startswith("$ weilkit ")):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines[i]
            i += 1
        shown = []
        while i < len(lines) and lines[i] and not lines[i].startswith(("$ ", "```")):
            shown.append(lines[i])
            i += 1
        examples.append((shlex.split(command)[1:], shown))
    return examples


EXAMPLES = _examples(README.read_text())


def test_the_readme_shows_the_subcommands():
    assert {argv[0] for argv, _ in EXAMPLES} >= {"jet", "weil", "vertical"}


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a[:2]) for a, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown
