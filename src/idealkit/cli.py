"""Command line front end.

Exit codes: 0 when the analysis completed (whatever the verdict), 2 on
bad input (an InputError, an unreadable file or malformed JSON).  Any
other exception is a bug and propagates with its traceback.
Reports go to stdout (text by default, machine-readable with --json);
diagnostics go to stderr.

Every command and its arguments are data in ``_COMMANDS``.  A call in the
plain form (group, command, then exact option strings and positionals) is
read from that table directly; anything else, including every help request
and usage error, goes to the argparse parser built from the same table, so
argparse is imported only when it has something to print.
"""

from __future__ import annotations

import json
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .base import DEFAULT_EPS, DEFAULT_NMAX, MAX_RATIONAL_DIGITS, InputError

if TYPE_CHECKING:
    import argparse

    from .seqspace import Verdict

SCHEMA_VERSION = "1"

_USER_ERRORS = (InputError, OSError, json.JSONDecodeError)

# An argument is (option strings or positional name, argparse keyword arguments).
_COMMON = (
    (("--json",), {"action": "store_true", "help": "emit a machine-readable report"}),
    (("-o", "--output"), {"metavar": "FILE", "help": "also write the JSON report to FILE"}),
)
_NUMERIC = (
    (("--numeric",), {"action": "store_true", "help": "add numeric corroboration"}),
    (("--nmax",), {"type": int, "default": DEFAULT_NMAX, "help": "numeric probe grid limit"}),
    (("--eps",), {"type": float, "default": DEFAULT_EPS, "help": "numeric probe tolerance"}),
)
_SEQUENCE = (("sequence",), {})
_IDEAL = (("ideal",), {})
_ALGEBRA_FILE = (("--file",), {"required": True, "help": "algebra JSON file"})

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
            (("--seed",), {"type": int, "default": 0}),
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


def _parser(argv) -> argparse.ArgumentParser:
    """The full parser, except that when argv[0] names a group only that
    group's subcommands are added; the other groups' parsers exist but stay
    empty, as nothing in such a call can reach them."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="idealkit",
        description="softness/membership calculus for operator ideals, exact Lie "
        "algebra simplicity decisions, and non-simplicity certificates",
    )
    top = parser.add_subparsers(dest="group", metavar="{seq,ideal,lie,witness}")
    called = argv[0] if argv and argv[0] in _COMMANDS else None
    for group, (desc, commands) in _COMMANDS.items():
        subparsers = top.add_parser(group, help=desc).add_subparsers(dest="cmd")
        if called in (None, group):
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


# ---------------------------------------------------------------------------
# Rendering shared by the groups
# ---------------------------------------------------------------------------


def _verdict_line(label: str, v: Verdict) -> str:
    return f"{label}: {v.status.value} ({v.method.value})"


def _evidence_lines(v: Verdict) -> list:
    return [f"  {key}: {value}" for key, value in v.to_json()["evidence"].items()]


def _report(command: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


# ---------------------------------------------------------------------------
# Handlers: each group's module loads only when that group is called
# ---------------------------------------------------------------------------


def _handler(group: str):
    def handle(args):
        return import_module(f"{__package__}.cli_{group}").handle(args)
    return handle


_HANDLERS = {group: _handler(group) for group in _COMMANDS}


def main(argv=None) -> int:
    # Input within the digit cap must not trip a lower interpreter limit (0: none).
    if 0 < sys.get_int_max_str_digits() < MAX_RATIONAL_DIGITS:
        sys.set_int_max_str_digits(MAX_RATIONAL_DIGITS)
    if argv is None:
        argv = sys.argv[1:]
    args = _strict_parse(argv)
    if args is None:
        parser = _parser(argv)
        args = parser.parse_args(argv)
        if not args.group:
            parser.print_help()
            return 2
    try:
        if args.cmd is None:
            raise InputError(f"missing {args.group} subcommand; see idealkit {args.group} --help")
        report, lines = _HANDLERS[args.group](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        print(payload)
    else:
        for line in lines:
            print(line)
    # For the two build commands -o names the artifact file, written by the
    # handler; everywhere else it duplicates the JSON report.
    if args.output and (args.group, args.cmd) not in {("lie", "build"), ("witness", "build")}:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    # Run as ``python -m idealkit.cli``: the handlers' ``from .cli import``
    # then finds this module instead of compiling a second copy.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
