"""`cli.main` parses an argv that starts with a command name with that
command's parser alone.  The oracle is the full parser's `parse_args`, the
route every argv took before: on each argv below both routes must end in
the same exit or `SystemExit` code, stdout, stderr and Namespace.

The commands themselves are replaced by a recorder of their Namespace, so
only the dispatch is compared; their outputs are pinned by
`test_cli_bytes.py`.
"""

from __future__ import annotations

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threeweight import cli

import test_cli_fuzz as fuzz

FILES = ["F.txt", "-F.txt"]
NOISE = ("extra", "--bogus", "--gr", "-h", "--", "--s", "9", "verify")

HAND_CASES = {
    "empty": [],
    "help": ["-h"],
    "help before a command": ["--help", "verify"],
    "command help": ["verify", "-h"],
    "abbreviated option": ["verify", "F", "--gr"],
    "unknown option": ["verify", "F", "--bogus"],
    "extra argument": ["graph", "F", "--s", "9", "extra"],
    "double dash": ["verify", "--", "F"],
    "unknown command": ["nosuch"],
    "no file": ["verify"],
}


@pytest.fixture
def parser(monkeypatch):
    """A full parser whose commands record their Namespace, installed as
    the one `main` uses."""
    parser = cli.build_parser()
    for sub in parser.commands.values():
        sub.set_defaults(func=lambda args: ("ran", args))
    monkeypatch.setattr(cli, "_parser", parser)
    return parser


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _full_route(parser):
    def call(argv):
        args = parser.parse_args(argv)
        return args.func(args)

    return call


def _assert_same_dispatch(parser, argv):
    got = _outcome(cli.main, argv)
    assert got == _outcome(_full_route(parser), argv), argv
    return got


@pytest.mark.parametrize("argv", HAND_CASES.values(), ids=HAND_CASES.keys())
def test_hand_cases(parser, argv):
    _assert_same_dispatch(parser, argv)


@pytest.mark.parametrize("argv", [["verify", "F", "--graph"], ["graph", "F", "--s", "9", "extra"]])
def test_argv_none_reads_sys_argv(parser, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["threeweight", *argv])
    assert _assert_same_dispatch(parser, None) == _outcome(cli.main, argv)


def test_a_command_sets_its_name_and_leftovers_exit_2(parser):
    (tag, args), _, _ = _outcome(cli.main, ["graph", "F", "--s", "9"])
    assert (tag, args.command, args.file, args.s) == ("ran", "graph", "F", 9)
    result, out, err = _outcome(cli.main, ["graph", "F", "extra"])
    assert (result, out) == (("exit", 2), "")
    assert err.startswith("usage: threeweight [-h]")
    assert err.endswith("threeweight: error: unrecognized arguments: extra\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the parser is stateless
@given(data=st.data())
def test_generated_argv(parser, data):
    argv = data.draw(fuzz.argvs(FILES))
    if data.draw(st.booleans()):  # a stray token anywhere, the command's place included
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(NOISE)))
    _assert_same_dispatch(parser, argv)
