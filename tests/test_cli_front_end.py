"""The command front end, pinned: every ``--help`` text and every argument.

``cli_help.txt`` holds the ``--help`` output of ``cvgec`` and of each
subcommand at 80 columns; ``cli_arguments.json`` holds each subcommand's
argument table: option strings, dest, type, nargs, default (as its repr),
choices, required and help.  Both were recorded from the parser before its
shared flags were declared once, so a change to how the parser is built
cannot change what a user sees or what a command receives.
"""

import json
import pathlib
import re

import pytest

from cvgec.cli import _build_parser, main

HERE = pathlib.Path(__file__).resolve().parent
COMMANDS = ("sweep-coherent", "sweep-entangle", "trace", "synth", "optimize")


def help_text(argv, capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def pinned_help() -> dict[str, str]:
    """Command line -> text, from the ``$ cvgec ... --help`` headed sections."""
    parts = re.split(r"^\$ (.*)\n", (HERE / "cli_help.txt").read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def argument_table(parser) -> list[list]:
    return [
        [
            a.option_strings,
            a.dest,
            a.type and a.type.__name__,
            a.nargs,
            repr(a.default),
            a.choices and list(a.choices),
            a.required,
            a.help,
        ]
        for a in parser._actions
    ]


def subparsers():
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


@pytest.mark.parametrize("argv", [(), *((c,) for c in COMMANDS)], ids=["cvgec", *COMMANDS])
def test_help_text_is_pinned(argv, capsys, monkeypatch):
    line = " ".join(["cvgec", *argv, "--help"])
    assert help_text(argv, capsys, monkeypatch) == pinned_help()[line]


def test_every_help_text_is_pinned():
    lines = [" ".join(["cvgec", *argv, "--help"]) for argv in [(), *((c,) for c in COMMANDS)]]
    assert list(pinned_help()) == lines


@pytest.mark.parametrize("command", COMMANDS)
def test_argument_table_is_pinned(command):
    pinned = json.loads((HERE / "cli_arguments.json").read_text())
    assert list(subparsers()) == list(pinned) == list(COMMANDS)
    assert argument_table(subparsers()[command]) == pinned[command]
