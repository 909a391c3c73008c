"""The command line's strict parse against argparse, over every command of
the table: whenever the strict parse returns a namespace, argparse parses
the same argv without error to the same attributes."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import cli

COMMANDS = [(group, cmd) for group, (_, commands) in cli._COMMANDS.items() for cmd in commands]

# Values each type reads, some of them in surprising ways, and values that
# argparse treats specially or refuses.
VALID = {int: ["3", "0", "1_0", " 7 ", "12"], float: ["nan", "2.5", "inf", "1e-3", "3"],
         str: ["O", "x", "", "a b", "pow:1", "exp:1/2"]}
ODD = ["-3", "-", "--", "-x", "x", "nan", "1_0", ""]


def _arguments(group, cmd):
    return cli._COMMANDS[group][1][cmd][1]


@st.composite
def argvs(draw):
    """A call that often parses: each required argument once, each option
    zero to two times, in any order.  Each argument is sometimes made odd:
    dropped, given a value starting with '-' or of the wrong type, written
    --opt=value or abbreviated, left without its value, or preceded by -h or
    --; sometimes a surplus token follows."""
    group, cmd = draw(st.sampled_from(COMMANDS))
    chunks = []
    for flags, kwargs in _arguments(group, cmd):
        positional = not flags[0].startswith("-")
        count = 1 if positional or kwargs.get("required") else draw(st.sampled_from([0, 0, 1, 2]))
        for _ in range(count):
            value = draw(st.sampled_from(kwargs.get("choices", VALID[kwargs.get("type", str)])))
            if positional:
                chunks.append([value])
            elif kwargs.get("action") == "store_true":
                chunks.append([draw(st.sampled_from(flags))])
            else:
                chunks.append([draw(st.sampled_from(flags)), value])
    perturbed = []
    for chunk in chunks:
        form = draw(st.sampled_from(["keep"] * 7 + ["drop", "value", "equals", "abbrev",
                                                     "missing", "help", "dashes"]))
        if form == "value":
            chunk = chunk[:-1] + [draw(st.sampled_from(ODD))]
        elif form == "equals" and len(chunk) == 2:
            chunk = [f"{chunk[0]}={chunk[1]}"]
        elif form == "abbrev" and chunk[0].startswith("--"):
            chunk = [chunk[0][:-1], *chunk[1:]]
        elif form == "missing":
            chunk = chunk[:1]
        elif form in ("help", "dashes"):
            chunk = [{"help": "-h", "dashes": "--"}[form], *chunk]
        if form != "drop":
            perturbed.append(chunk)
    if draw(st.integers(0, 7)) == 0:
        perturbed.append([draw(st.sampled_from(["extra", *ODD]))])
    chunks = perturbed
    order = draw(st.permutations(range(len(chunks))))
    return [group, cmd] + [token for i in order for token in chunks[i]]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _argparse_vars(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser(argv).parse_args(argv))
        except SystemExit as exc:
            pytest.fail(f"strict parse accepted {argv!r}, argparse exited {exc.code}")


@given(argv=argvs())
@settings(max_examples=1000, deadline=None)
def test_strict_parse_agrees_with_argparse(argv):
    strict = cli._strict_parse(argv)
    if strict is None:
        return
    expected = _argparse_vars(argv)
    got = vars(strict)
    assert got.keys() == expected.keys()
    assert all(_same(got[k], expected[k]) for k in expected), (got, expected)


# One argv of each call shape the benchmark issues.
BENCHMARK_SHAPES = [
    ["seq", "signature", "pow:2", "--json"],
    ["seq", "compare", "--mode", "o", "pow:1", "pow:2", "--json"],
    ["seq", "compare", "--mode", "O", "--numeric", "pow:1", "pow:2", "--json"],
    ["seq", "delta2", "exp:1/2", "--json"],
    ["ideal", "soft", "exp:1/2", "--json"],
    ["ideal", "idempotent", "pow:1", "--json"],
    ["ideal", "report", "pow:1", "--json"],
    ["ideal", "member", "exp:1/3", "idealprod(exp:1/2,compact)", "--json"],
    ["lie", "simple", "--file", "F", "--json"],
    ["lie", "check-closure", "--file", "F", "--json"],
    ["lie", "killing", "--file", "F", "--json"],
    ["lie", "derived", "--file", "F", "--json"],
    ["lie", "ideal-gen", "--file", "F", "--seeds", "S", "--json"],
    ["witness", "build", "--generator", "pow:1", "--partner", "pow:2", "--truncation", "64",
     "-o", "C", "--json"],
    ["witness", "verify", "--file", "C", "--json"],
]


@pytest.mark.parametrize("argv", BENCHMARK_SHAPES, ids=" ".join)
def test_benchmark_call_shapes_take_the_strict_parse(argv):
    strict = cli._strict_parse(argv)
    assert strict is not None
    assert vars(strict) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["lie", "simple", "--file=F"],
    ["lie", "simple", "--fil", "F"],
    ["lie", "simple", "--file", "F", "-h"],
    ["lie", "simple", "--", "--file", "F"],
    ["lie", "simple", "--file", "-x"],
    ["seq", "signature", "-x"],
    ["seq", "signature", "-3"],
    ["seq", "compare", "--mode", "O", "--nmax", "-3", "pow:1", "pow:2"],
    ["seq", "compare", "--mode", "x", "pow:1", "pow:2"],
    ["seq", "compare", "--mode", "O", "pow:1"],
    ["seq", "signature", "pow:1", "pow:2"],
    ["lie", "simple"],
    ["lie"],
    ["nope", "simple"],
], ids=" ".join)
def test_other_forms_go_to_argparse(argv):
    assert cli._strict_parse(argv) is None
