"""The verb table and the parsers `main` builds.

`main` parses an argv that starts with a verb with `build_parser(verb)`,
which holds that verb alone, and every other argv, or one that leaves a
token unparsed, with `build_parser()`, the full parser and the reference.
A verb's own parser must be the same in both.  The shell entry point,
`python -m spinaltri`, reads `sys.argv` and must answer as `main` does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinaltri
from spinaltri.cli import VERBS, build_parser
from test_golden_cli import GOLDEN, run_command

SRC = Path(spinaltri.__file__).resolve().parents[1]


def _verbs(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_the_full_parser_has_every_verb_in_table_order():
    assert list(_verbs(build_parser())) == list(VERBS)


@pytest.mark.parametrize("verb", list(VERBS))
def test_a_verbs_own_parser_is_the_full_parsers(verb):
    one = _verbs(build_parser(verb))
    assert list(one) == [verb]
    full = _verbs(build_parser())[verb]
    assert one[verb].format_help() == full.format_help()
    assert one[verb].format_usage() == full.format_usage()


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """The verbs whose parsers are built, in order."""
    names: list[str] = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


@pytest.mark.parametrize("verb", list(VERBS))
def test_a_verb_first_argv_builds_that_verb_alone(verb, built):
    assert run_command([verb, "-h"])[0] == 0
    assert built == [verb]


def test_a_command_builds_one_parser(built):
    assert run_command(["everest", "volume", "2", "2"])[0] == 0
    assert built == ["everest"]


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 2),
        (["-h"], 0),
        (["--pretty", "facets", "inputs/cube3.json"], 2),
        (["frobnicate"], 2),
    ],
)
def test_any_other_argv_builds_the_full_parser(argv, code, built):
    assert run_command(argv)[0] == code
    assert built == list(VERBS)


def test_an_unparsed_token_goes_to_the_full_parser(built):
    assert run_command(["fold", "inputs/cube3.json", "--set", "0,7", "--bogus"])[0] == 2
    assert built == ["fold", *VERBS]


@pytest.mark.parametrize("argv", [["fold", "inputs/cube3.json", "--set", "0,7"], []])
def test_the_shell_entry_point_answers_as_main(argv, monkeypatch):
    # A fixed width, so that argparse wraps usage lines alike in both.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    shell = subprocess.run(
        [sys.executable, "-m", "spinaltri", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (shell.returncode, shell.stdout, shell.stderr) == run_command(argv)
    if argv:
        assert json.loads(shell.stdout)["simplices"]
    else:
        assert shell.returncode == 2 and shell.stderr.startswith("usage: spinaltri")
