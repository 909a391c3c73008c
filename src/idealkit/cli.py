"""Command line front end.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 on
bad input (an InputError, malformed JSON included, or an OSError on a
file).  Any other exception is a bug and propagates with its traceback.
Reports go to stdout (text by default, machine-readable with --json);
diagnostics go to stderr.

Every command and its arguments are data in ``_COMMANDS``.  A call in the
plain form (group, command, then exact option strings and positionals) is
read from that table directly; anything else, including every help request
and usage error, goes to the argparse parser built from the same table, so
argparse is imported only when it has something to print.

``main`` is the one dispatcher: it imports the called group's module,
``cli_<group>``, whose ``handle`` returns the report's own fields and the
text lines, and it stamps every report with ``schema_version`` and
``command``.  No group module imports this one.
"""

from __future__ import annotations

import json
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .base import DEFAULT_EPS, DEFAULT_NMAX, MAX_RATIONAL_DIGITS, InputError, write_json

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"

_USER_ERRORS = (InputError, OSError)

# Past this many characters an error message keeps only its head and tail,
# so that one echoing a long input still prints one short line.  Every
# message the tests pin is shorter (at most 120), and argparse's line, prog
# included, stays under 200.
_ERROR_WIDTH = 160


def _bounded(message: str) -> str:
    """message, or its head and tail around "..." when it is longer than _ERROR_WIDTH."""
    if len(message) <= _ERROR_WIDTH:
        return message
    half = (_ERROR_WIDTH - 3) // 2
    return f"{message[:half]}...{message[-half:]}"

# An argument is (option strings or positional name, argparse keyword arguments).
_COMMON = (
    (("--json",), {"action": "store_true", "help": "emit a machine-readable report"}),
    (("-o", "--output"), {"metavar": "FILE", "help": "also write the JSON report to FILE"}),
)
_NUMERIC = (
    (("--numeric",), {"action": "store_true", "help": "add numeric corroboration"}),
    (("--nmax",), {"type": int, "help": "numeric probe grid limit"}),
    (("--eps",), {"type": float, "help": "numeric probe tolerance"}),
)
_SEQUENCE = (("sequence",), {})
_IDEAL = (("ideal",), {})
_ALGEBRA_FILE = (("--file",), {"required": True, "help": "algebra JSON file"})
# Options parsed as None when absent, so that main can refuse them where they
# do nothing; main fills them in after those checks.
_LATE_DEFAULTS = {"nmax": DEFAULT_NMAX, "eps": DEFAULT_EPS, "seed": 0}

# group: (help, {command: (help, arguments in the order argparse lists them)})
_COMMANDS = {
    "seq": ("sequence calculus", {
        "signature": ("asymptotic signature of a sequence", (_SEQUENCE, *_COMMON)),
        "compare": ("decide big-O / little-o between two sequences", (
            (("--mode",), {"choices": ["O", "o"], "required": True}),
            (("xi",), {}),
            (("eta",), {}),
            *_NUMERIC, *_COMMON)),
        "delta2": ("dyadic ratio boundedness check", (_SEQUENCE, *_COMMON)),
    }),
    "ideal": ("ideal calculus", {
        "soft": ("is the ideal soft-edged", (_IDEAL, *_NUMERIC, *_COMMON)),
        "member": ("does the sequence belong to the ideal", (_SEQUENCE, _IDEAL, *_COMMON)),
        "idempotent": ("does the ideal equal its square", (_IDEAL, *_COMMON)),
        "report": ("joint softness diagnostics for a generator", (_SEQUENCE, *_COMMON)),
    }),
    "lie": ("matrix Lie algebra engine", {
        "build": ("construct a catalog algebra and save it", (
            (("kind",), {"help": "catalog algebra kind; an unknown kind lists the known ones"}),
            (("--n",), {"type": int, "required": True, "help": "size parameter"}),
            (("--weights",), {"help": "weight sequence, for kind=shift only"}),
            (("--name",), {"help": "override the presentation name"}),
            *_COMMON)),
        "check-closure": ("is the basis closed under the bracket", (_ALGEBRA_FILE, *_COMMON)),
        "derived": ("derived algebra of a closed presentation", (_ALGEBRA_FILE, *_COMMON)),
        "killing": ("Killing form and its rank", (_ALGEBRA_FILE, *_COMMON)),
        "simple": ("simplicity decision", (
            _ALGEBRA_FILE,
            (("--cross-check",), {"type": int, "default": 0, "metavar": "N",
                                  "help": "also run a seeded random ideal search with N samples"}),
            (("--seed",), {"type": int}),
            *_COMMON)),
        "ideal-gen": ("Lie ideal generated by seed elements", (
            _ALGEBRA_FILE,
            (("--seeds",), {"required": True,
                            "help": "JSON file with flat row-major seed matrices"}),
            *_COMMON)),
    }),
    "witness": ("non-simplicity certificates", {
        "build": ("build a certificate for a shift generator", (
            (("--generator",), {"required": True, "help": "generator weight sequence"}),
            (("--partner",), {"action": "append", "default": [],
                              "help": "candidate partner weight sequence (repeatable)"}),
            (("--truncation",), {"type": int, "default": 64}),
            (("--window",), {"type": int, "help": "default: witness.DEFAULT_SCAN_WINDOW"}),
            *_COMMON)),
        "verify": ("verify a stored certificate", (
            (("--file",), {"required": True, "help": "certificate JSON file"}),
            *_COMMON)),
    }),
}


def _parser() -> argparse.ArgumentParser:
    """The argparse parser of every command in ``_COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):  # its subparsers are of this class too
        def error(self, message):
            super().error(_bounded(message))

    parser = Parser(
        prog="idealkit",
        description="softness/membership calculus for operator ideals, exact Lie "
        "algebra simplicity decisions, and non-simplicity certificates",
    )
    top = parser.add_subparsers(dest="group", metavar="{seq,ideal,lie,witness}")
    for group, (desc, commands) in _COMMANDS.items():
        subparsers = top.add_parser(group, help=desc).add_subparsers(dest="cmd")
        for cmd, (help_text, arguments) in commands.items():
            p = subparsers.add_parser(cmd, help=help_text)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return parser


def _dest(flags: tuple) -> str:
    """The attribute argparse stores an option under."""
    long = [f for f in flags if f.startswith("--")]
    return (long or flags)[0].lstrip("-").replace("-", "_")


def _strict_parse(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse would return for a call in the plain form, or
    None for argparse to handle.

    The plain form is a group, one of its commands, then tokens that are
    each an exact option string of that command or a positional; an
    option's value is the next token, which must not start with '-'.
    ``store_true``, ``append``, ``type``, ``choices`` and ``required`` apply
    as in argparse.  Anything else (help, abbreviations, ``--opt=value``,
    ``--``, a value starting with '-', a bad value, a missing or surplus
    argument) returns None.
    """
    if len(argv) < 2 or argv[0] not in _COMMANDS:
        return None
    group, cmd = argv[0], argv[1]
    command = _COMMANDS[group][1].get(cmd)
    if command is None:
        return None
    values = {"group": group, "cmd": cmd}
    options, pending, required = {}, [], set()
    for flags, kwargs in command[1]:
        if not flags[0].startswith("-"):
            pending.append((flags[0], kwargs))
            continue
        dest = _dest(flags)
        for flag in flags:
            options[flag] = (dest, kwargs)
        action = kwargs.get("action")
        values[dest] = (False if action == "store_true"
                        else list(kwargs["default"]) if action == "append"
                        else kwargs.get("default"))
        if kwargs.get("required"):
            required.add(dest)
    tokens = iter(argv[2:])
    for token in tokens:
        if token in options:
            dest, kwargs = options[token]
            if kwargs.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None or token.startswith("-"):
                return None
            required.discard(dest)
        elif token.startswith("-") or not pending:
            return None
        else:
            dest, kwargs = pending.pop(0)
        try:
            value = kwargs.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if kwargs.get("action") == "append":
            values[dest].append(value)
        else:
            values[dest] = value
    if pending or required:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    # Input within the digit cap must not trip a lower interpreter limit (0: none).
    if 0 < sys.get_int_max_str_digits() < MAX_RATIONAL_DIGITS:
        sys.set_int_max_str_digits(MAX_RATIONAL_DIGITS)
    if argv is None:
        # A command-line process: freeze the heap at exit, so that shutdown
        # does not run full cyclic collections over every start-up object.
        # A caller that passes argv keeps its own gc and atexit state.
        import atexit
        import gc

        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    args = _strict_parse(argv)
    if args is None:
        parser = _parser()
        args = parser.parse_args(argv)
        if not args.group:
            parser.print_help()
            return 2
    try:
        if args.cmd is None:
            raise InputError(f"missing {args.group} subcommand; see idealkit {args.group} --help")
        if vars(args).get("numeric") is False and (args.nmax, args.eps) != (None, None):
            raise InputError("--nmax and --eps act only with --numeric")
        if vars(args).get("cross_check", 0) < 0:
            raise InputError(f"--cross-check needs a count of at least 0, got {args.cross_check}")
        if vars(args).get("seed") is not None and args.cross_check <= 0:
            raise InputError("--seed acts only with a positive --cross-check")
        for dest, default in _LATE_DEFAULTS.items():
            if vars(args).get(dest, default) is None:
                setattr(args, dest, default)
        fields, lines = import_module(f"{__package__}.cli_{args.group}").handle(args)
        report = {"schema_version": SCHEMA_VERSION, "command": f"{args.group} {args.cmd}",
                  **fields}
        # For the two build commands -o names the artifact file, written by
        # the handler; everywhere else it duplicates the JSON report.
        if args.output and (args.group, args.cmd) not in {("lie", "build"), ("witness", "build")}:
            write_json(args.output, report)
    except _USER_ERRORS as exc:
        print(f"error: {_bounded(str(exc))}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
