"""The command line on fuzzed argv: one `error:` line, a usage error or an
answer.

Hypothesis builds argv from `build_parser()`'s own subparsers and actions:
any verb, its positionals, and any subset of its options in any order.
Every value is drawn from one of four pools, picked evenly: the action's
choices, hostile tokens (empty, a lone comma, 5,000 nines, a non-ASCII
digit, `+1`, `1_0`, signs and whitespace), small plain integers and index
sets, which let a case get past the parser, and the files of
`tests/golden/inputs/`.  About one case in four puts a token before the
verb, and about one in four appends a token that no verb takes.  Every case
must exit 0 with nothing on stderr, exit 1 with nothing on stdout and
exactly one stderr line that starts with `error:`, or exit 2 from argparse
with its usage message.  No case may raise.

`main` parses an argv that starts with a verb with that verb's parser
alone, and every other argv with the full parser.  On every case its parse
outcome (the namespace, or the exit code with stdout and stderr) must be
the full parser's; that test empties the verb table's applicability rows,
which `main` checks after the parse.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spinaltri import cli
from spinaltri.cli import build_parser
from test_cli_fuzz import run_bounded
from test_golden_cli import GOLDEN

HOSTILE = [
    "", ",", "9" * 5000, "٣", "+1", "1_0", "-", "+", "-1", "+-1", "--",
    " ", "\t", " 2 ", "\n1\n", "1, 2", " , ",
]

PLAIN = ["0", "1", "2", "3", "7", "0,7"]

FILES = sorted(str(p) for p in (GOLDEN / "inputs").iterdir())

# Before the verb: the top-level options, an option every verb takes, the
# end of options and an unknown option.  After the verb's arguments: tokens
# that no verb takes.
BEFORE = ["-h", "--help", "--pretty", "--", "-x"]
AFTER = ["--bogus", "-z", "stray", "--"]

VERBS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


def _value(action: argparse.Action):
    values = st.one_of(*map(st.sampled_from, [HOSTILE, PLAIN, FILES]))
    if action.choices:
        return st.one_of(st.sampled_from(list(action.choices)), values)
    return values


def _maybe(tokens: list[str]):
    """One of tokens in about one case in four, and none otherwise."""
    pick = st.tuples(st.sampled_from([True, False, False, False]), st.sampled_from(tokens))
    return pick.map(lambda p: [p[1]] if p[0] else [])


@st.composite
def argvs(draw) -> list[str]:
    verb = draw(st.sampled_from(sorted(VERBS)))
    argv = draw(_maybe(BEFORE)) + [verb]
    options = []
    for action in VERBS[verb]._actions:
        if action.option_strings:
            options.append(action)
        else:
            argv.append(draw(_value(action)))
    for action in draw(st.lists(st.sampled_from(options), unique=True)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(_value(action)))
    return argv + draw(_maybe(AFTER))


@functools.lru_cache(maxsize=None)
def _outcome(argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    # The CLI is deterministic; a repeated argv (such as a bare `selftest`,
    # about a second) runs once.
    return run_bounded(list(argv))


@settings(max_examples=250)
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    code, out, err, _ = _outcome(tuple(argv))
    short = [a[:40] for a in argv]
    if code == 0:
        assert err == "", (short, err)
    elif code == 1:
        assert out == "", (short, out)
        assert err.endswith("\n") and err.count("\n") == 1, (short, err)
        assert err.startswith("error: "), (short, err)
    else:
        assert code == 2, (short, code, err)
        assert out == "" and err.startswith("usage: spinaltri"), (short, err)
        assert "error: " in err.splitlines()[-1], (short, err)


def _parse_outcome(parse, argv: list[str]):
    """("namespace", its attributes), or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "namespace", vars(parse(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


def _echo(args: argparse.Namespace) -> argparse.Namespace:
    return args


@settings(max_examples=300)
@given(argvs())
def test_main_parses_as_the_full_parser(argv):
    # Every handler returns its namespace, and no row of the table refuses
    # an option, so main returns what it parsed.
    echo = {
        name: (_echo, help_line, arguments, [])
        for name, (_, help_line, arguments, _) in cli.VERBS.items()
    }
    with mock.patch.dict(cli.VERBS, echo):
        got = _parse_outcome(cli.main, argv)
        want = _parse_outcome(lambda a: build_parser().parse_args(a), argv)
    assert got == want, [a[:40] for a in argv]


def test_every_verb_and_option_is_drawn():
    # argvs() reads the parser, so a new verb or option is fuzzed too;
    # this checks that reading the parser finds what it has now.
    assert set(VERBS) >= {
        "facets", "spine-check", "spine-enum", "triangulate", "fold", "lift",
        "volume", "verify-lifting", "everest", "birkhoff", "selftest",
    }
    options = {s for p in VERBS.values() for a in p._actions for s in a.option_strings}
    assert {"--set", "--order", "--star", "--min-size", "--only", "--method"} <= options
