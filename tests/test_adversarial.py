"""One table of adversarial inputs to the command line.

A row is one call ``idealkit *argv``, run in process by ``run_main`` and
stopped at its budget.  Each section runs under the test id its checks had
in test_input_boundary, test_cli or test_witness, through ``table_test``, so
every check keeps its id.  The open time bombs run here, as strict xfails
naming the ROADMAP item whose fix makes them pass.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from idealkit import cli, cli_lie, matlie
from idealkit.base import MAX_RATIONAL_DIGITS
from idealkit.catalog import algebra_to_json, sl
from idealkit.dsl import parse_seq
from idealkit.matlie import MAX_ALGEBRA_ENTRIES
from idealkit.seqspace import MAX_WEIGHT_BITS, Exp, Pow, Product
from idealkit.witness import DEFAULT_SCAN_WINDOW, ShiftModel, build_certificate, certificate_to_json

from conftest import BudgetExceeded, run_main, textbook_rank


class Row(NamedTuple):
    id: str
    argv: object  # a list, or a seeded function returning one
    files: dict = {}
    exit: int = 2
    expect: object = None
    budget: float = 1
    usage: bool = False  # argparse prints its usage text before the error line


def check(row: Row, tmp_path) -> None:
    """Run a row's call and hold it to the table's rule: exit 2 with exactly
    one ``error: `` line under 200 characters on stderr (after argparse's
    usage text for a ``usage`` row), or exit 0 with nothing on stderr.

    ``files`` maps a placeholder in argv to bytes, or to a seeded function
    returning them; ``{sl2}`` is an sl(2) algebra file and ``{out}`` a path
    the call may write.  A function argv is built before the budget starts.
    A string ``expect`` is the error line, or a part of it if it does not
    start with ``error: ``; a function is called with stdout and the
    placeholders' paths.
    """
    paths = {"{out}": str(tmp_path / "out.json")}
    for name, data in {"{sl2}": SL2, **row.files}.items():
        path = tmp_path / f"{name.strip('{}')}.json"
        path.write_bytes(data() if callable(data) else data)
        paths[name] = str(path)
    argv = row.argv() if callable(row.argv) else row.argv
    code, out, err = run_main([paths.get(a, a) for a in argv], row.budget)
    assert code == row.exit, (out[-400:], err[-400:])
    lines = [line for line in err.splitlines() if "error: " in line]
    if code == 2:
        assert len(lines) == 1 and len(lines[0]) < 200 and err.endswith(lines[0] + "\n"), err
        assert err.startswith("usage: " if row.usage else "error: "), err
        assert row.usage or err == lines[0] + "\n", err
    else:
        assert err == ""
    if isinstance(row.expect, str):
        assert (lines[0] == row.expect if row.expect.startswith("error: ")
                else row.expect in lines[0]), lines
    elif row.expect is not None:
        row.expect(out, paths)


def table_test(section):
    """A test of a section's rows (or pytest params of rows), one case per row."""
    @pytest.mark.parametrize("row", section, ids=lambda row: row.id)
    def test(row, tmp_path):
        check(row, tmp_path)

    return test


def _json(value) -> bytes:
    return json.dumps(value).encode()


def _file(value) -> dict:
    return {"{file}": _json(value)}


SL2 = _json({"name": "sl2", "ambient_dim": 2, "basis": [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]]})
NINES = "9" * MAX_RATIONAL_DIGITS  # the largest integer a rational may be written with


_SEEDS = ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"]
_SIMPLE, _VERIFY = ["lie", "simple", "--file", "{file}"], ["witness", "verify", "--file", "{file}"]
_CLOSURE = ["lie", "check-closure", "--file", "{file}"]
_EMPTY = {"name": "x", "ambient_dim": 2, "basis": []}

EXIT_TWO = [
    Row("seeds-no-elements", _SEEDS, _file({"foo": 1})),
    Row("seeds-number", _SEEDS, _file(5)),
    Row("seed-2-entries", _SEEDS, _file([[0, 1]])),
    Row("seed-6-entries", _SEEDS, _file([[0, 1, 0, 0, 0, 0]])),
    Row("basis-number", _CLOSURE, _file({"name": "x", "ambient_dim": 2, "basis": [5]})),
    Row("first-value-digits", ["witness", "build", "--generator", "pow:100000",
                               "--partner", "pow:1", "--truncation", "8"]),
    Row("witness-no-partner", ["witness", "build", "--generator", "pow:1", "--truncation", "8"]),
    Row("truncation-floor", ["witness", "build", "--generator", "exp:1/2",
                             "--partner", "pow:1", "--truncation", "2"]),
    Row("sl-size-zero", ["lie", "build", "sl", "--n", "0"]),
    Row("shift-no-weights", ["lie", "build", "shift", "--n", "4"]),
    Row("shift-inexact-weights", ["lie", "build", "shift", "--n", "4", "--weights", "pow:1/2"],
        expect="error: shift truncation needs exactly evaluable weights"),
    Row("weights-not-shift", ["lie", "build", "sl", "--n", "3", "--weights", "pow:1"]),
    Row("report-finite", ["ideal", "report", "finite:[1]"]),
    Row("eps-zero", ["seq", "compare", "--mode", "O", "pow:1", "pow:1", "--numeric", "--eps", "0"]),
    *[Row(f"eps-{eps}", ["seq", "compare", "--mode", "o", "--numeric", f"--eps={eps}",
                         "pow:2", "pow:1", "--json"]) for eps in ("nan", "inf", "-inf")],
    Row("soft-eps-nan", ["ideal", "soft", "pow:1", "--numeric", "--eps", "nan"]),
    Row("nmax-eps-without-numeric",
        ["seq", "compare", "--mode", "O", "pow:2", "pow:1", "--nmax", "0", "--eps", "nan"]),
    Row("soft-eps-without-numeric", ["ideal", "soft", "pow:1", "--eps", "nan"]),
    Row("soft-numeric-compact", ["ideal", "soft", "compact", "--numeric"]),
    Row("soft-numeric-product", ["ideal", "soft", "idealprod(exp:1/2,compact)", "--numeric",
                                 "--nmax", "4096"]),
    Row("sl-40-over-size-cap", ["lie", "build", "sl", "--n", "40"]),
    Row("sl-80-over-size-cap", ["lie", "build", "sl", "--n", "80"]),
    Row("sl-15-over-size-cap", ["lie", "build", "sl", "--n", "15"],
        expect=f"error: 224 matrices of size 15 x 15 exceed the limit of {MAX_ALGEBRA_ENTRIES} "
               "entries"),
    # a misuse of --weights is named before a size past the cap
    Row("weights-before-size-cap", ["lie", "build", "sl", "--n", "15", "--weights", "pow:1"],
        expect="error: weights apply to kind 'shift' only, not 'sl'"),
    Row("no-weights-before-size-cap", ["lie", "build", "shift", "--n", "1000"],
        expect="error: shift truncation needs a weight sequence"),
    Row("seeds-over-size-cap", _SEEDS, _file([[0, 0, 0, 0]] * (MAX_ALGEBRA_ENTRIES // 4 + 1))),
    Row("lie-no-subcommand", ["lie"]),
    Row("killing-empty-basis", ["lie", "killing", "--file", "{file}"], _file(_EMPTY)),
    Row("seed-without-cross-check", ["lie", "simple", "--file", "{sl2}", "--seed", "7"]),
    Row("negative-cross-check", ["lie", "simple", "--file", "{sl2}", "--cross-check", "-3"]),
    # refusals of numbers past the digit cap: a weight past the weight limit
    # is refused with no bit count, and a count past the cap prints as the marker
    Row("witness-bits-past-cap", ["witness", "build", "--generator", f"pow:{NINES}",
                                  "--partner", "pow:1"]),
    Row("shift-bits-past-cap", ["lie", "build", "shift", "--n", "3", "--weights", f"pow:{NINES}"]),
    Row("shift-sub-bits-past-cap", ["lie", "build", "shift", "--n", "3",
                                    "--weights", f"sub:{NINES};exp:1/3"]),
    Row("sl-entries-past-cap", ["lie", "build", "sl", "--n", "9" * 2200]),
    Row("witness-fractional-generator", ["witness", "build", "--generator", "pow:1/2",
                                         "--partner", "pow:2"]),
    Row("rational-zero-denominator", ["seq", "signature", "pow:1/0"]),
    # a shift truncation whose weights 1..n-1 are all zero spans no algebra
    Row("shift-zero-weight", ["lie", "build", "shift", "--n", "2", "--weights", "finite:[0]"]),
    Row("shift-empty-weights", ["lie", "build", "shift", "--n", "2", "--weights", "finite:[]"]),
    Row("shift-explicit-zero", ["lie", "build", "shift", "--n", "2",
                                "--weights", "explicit:[0];tail=pow:1"]),
    Row("shift-zero-weights-n3", ["lie", "build", "shift", "--n", "3",
                                  "--weights", "finite:[0,0]"]),
    # an empty basis is refused by every command that reads an algebra file;
    # the last file is an empty seed list too
    Row("check-closure-empty-basis", _CLOSURE, _file({**_EMPTY, "ambient_dim": 10 ** 100})),
    Row("derived-empty-basis", ["lie", "derived", "--file", "{file}"], _file(_EMPTY)),
    Row("ideal-gen-empty-basis", ["lie", "ideal-gen", "--file", "{file}", "--seeds", "{file}"],
        _file({**_EMPTY, "elements": []})),
    # a refusal that echoes a long input still prints one short line
    Row("head-50000-letters", ["seq", "signature", "x" * 50_000]),
    Row("kind-50000-letters", ["lie", "build", "x" * 50_000, "--n", "3"]),
    Row("path-50000-chars", ["lie", "simple", "--file", "x" * 50_000]),
    *[Row(f"{form}-negative-nines", ["seq", "signature", f"{form}:-{NINES}{tail}"])
      for form, tail in (("pow", ""), ("exp", ""), ("scale", ";pow:1"))],
    Row("cross-check-negative-nines", ["lie", "simple", "--file", "{sl2}",
                                       "--cross-check", f"-{NINES}"]),
    # a sample count past the work limit, for sl(2) of dimension 3
    Row("cross-check-past-limit", ["lie", "simple", "--file", "{sl2}", "--cross-check",
                                   str(cli_lie.MAX_CROSS_CHECK_WORK // 27 + 1)]),
    Row("cross-check-4000-nines", ["lie", "simple", "--file", "{sl2}",
                                   "--cross-check", "9" * 4000]),
    Row("sl-size-negative-4000-nines", ["lie", "build", "sl", "--n", "-" + "9" * 4000]),
    *[Row(f"{option}-4000-nines", ["witness", "build", "--generator", "pow:1", "--partner",
                                   "pow:2", f"--{option}", "9" * 4000])
      for option in ("truncation", "window")],
    Row("nmax-negative-4000-nines", ["seq", "compare", "--mode", "O", "pow:1", "pow:2",
                                     "--numeric", "--nmax", "-" + "9" * 4000]),
    Row("nmax-4000-nines", ["seq", "compare", "--mode", "O", "--numeric", "pow:1", "pow:1000",
                            "--nmax", "9" * 4000], expect="n_max must be at most 2**64, got 9"),
    Row("eps-4000-nines", ["seq", "compare", "--mode", "O", "--numeric", "pow:1", "pow:2",
                           "--eps", "9" * 4000],
        expect="error: eps must be finite and positive, got inf"),
]


def _says(text: str):
    """An ``expect`` that finds text in stdout."""
    def expect(out, paths):
        assert text in out, out[-400:]
    return expect


# valid calls with a value at the far end of its range, which answer (exit 0)
_BIG = "1" + "0" * 400
VALID_EXTREMES = [
    Row("seed-4000-nines", ["lie", "simple", "--file", "{sl2}", "--cross-check", "1",
                            "--seed", "9" * 4000], exit=0, expect=_says("no proper ideal found")),
    # an exponent past the float range makes a log of -inf from n = 2 on
    Row("soft-numeric-pow-401-digits", ["ideal", "soft", "--numeric", f"pow:{_BIG}"], exit=0,
        expect=_says("numeric corroboration: Unknown")),
    Row("compare-numeric-eta-pow-401-digits", ["seq", "compare", "--mode", "O", "--numeric",
                                               "pow:1", f"pow:{_BIG}"], exit=0,
        expect=_says("log of eta underflows the float range at n=2")),
    Row("compare-numeric-powlog-401-digits", ["seq", "compare", "--mode", "o", "--numeric",
                                              f"powlog:1,{_BIG}", "pow:1"], exit=0),
    # the generator's rate is (1/2)^t with t 1e-20 above 10, so the least
    # ampliation index is 11, not 10
    Row("member-index-just-above-an-integer",
        ["ideal", "member", "exp:1/2", "exp:100000000000000000000/102400000000000000001024"],
        exit=0, expect=_says("\n  m: 11\n")),
]

_OVER = f"exceeds the limit {MAX_WEIGHT_BITS}"
# past MAX_WEIGHT_BITS a weight's bits are only bounded from below, so the
# line says "more than" instead of a count; an algebra one of whose matrices
# alone passes the entry limit prints no size
_ENTRY_LIMIT = ("error: a single matrix of this size exceeds the limit of "
                f"{MAX_ALGEBRA_ENTRIES} entries")
WEIGHT_LIMIT_LINES = [
    Row("shift-sub-4001-digits", ["lie", "build", "shift", "--n", "3",
                                  "--weights", "sub:1" + "0" * 4000 + ";exp:1/3"],
        expect=f"error: truncation 3 times the bits of weight 3 {_OVER}: "
               f"weight 3 has more than {MAX_WEIGHT_BITS} bits"),
    Row("witness-pow-nines", ["witness", "build", "--generator", f"pow:{NINES}",
                              "--partner", "pow:1"],
        expect=f"error: truncation 64 times the bits of weight 64 {_OVER}: "
               f"weight 64 has more than {MAX_WEIGHT_BITS} bits"),
    Row("shift-pow-1e6-n50", ["lie", "build", "shift", "--n", "50", "--weights", "pow:1000000"],
        expect=f"error: truncation 50 times the 5643858 bits of weight 50 {_OVER}"),
    Row("witness-scan-index", ["witness", "build", "--generator", "pow:2000", "--partner",
                               "prod(pow:1000,pow:1000)", "--truncation", "3"],
        expect=f"error: scan index 512 times the 18002 bits of weight 512 {_OVER}"),
    Row("sl-entries-2200-nines", ["lie", "build", "sl", "--n", "9" * 2200], expect=_ENTRY_LIMIT),
    # a shift truncation's size is checked before any of its weights is built
    Row("shift-entries-before-weights", ["lie", "build", "shift", "--n", "100000",
                                         "--weights", "exp:1/2"], expect=_ENTRY_LIMIT),
]


# Hostile files: each kind of file idealkit reads, as a template whose "@" an
# attack replaces; the template with its own value there is valid.  A
# certificate's template is the (field, "@") replacement in a built one.
_SL2_TEXT = SL2.decode()
_FILE_KINDS = {
    "algebra": (_SIMPLE, _SL2_TEXT.replace("-1", "@"), "-1"),
    "seeds": (_SEEDS, "[[0, @, 0, 0]]", "1"),
    "certificate": (_VERIFY, ('"scan_window": 8', '"scan_window": @'), "8"),
    "certificate-evidence": (_VERIFY, ('"k": 2', '"k": @'), "2"),
    # certificate fields whose refusal echoes the value
    "certificate-index": (_VERIFY, ('"index": 1', '"index": @'), "1"),
    "certificate-truncation": (_VERIFY, ('"generator": {"weights": "pow:1", "truncation": 8}',
                                         '"generator": {"weights": "pow:1", "truncation": @}'),
                               "8"),
    "certificate-schema": (_VERIFY, ('"schema_version": "1"', '"schema_version": @'), '"1"'),
    "certificate-status": (_VERIFY, ('"status": "Fails"', '"status": @'), '"Fails"'),
}


def _file_row(row_id: str, kind: str, value: bytes, **fields) -> Row:
    """The kind's call on its template with value at "@"; a certificate is
    built when the row runs."""
    argv, template, _ = _FILE_KINDS[kind]

    def certificate() -> bytes:
        cert = build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(Pow(2), 8)], scan_window=8)
        text = json.dumps(certificate_to_json(cert))
        assert text.count(template[0]) == 1
        return text.replace(*template).encode().replace(b"@", value)

    data = template.encode().replace(b"@", value) if isinstance(template, str) else certificate
    return Row(row_id, argv, {"{file}": data}, **fields)


FILE_TEMPLATES = [_file_row(kind, kind, _FILE_KINDS[kind][2].encode(), exit=0)
                  for kind in _FILE_KINDS]

_ATTACKS = {
    "5000-digits": b"1" * 5000,
    "nested-100000": b"[" * 100_000,
    "byte-0xff": b"\xff",
    # well-formed lists nested past the reader's bound of 32 levels
    "nested-33": b"[" * 33 + b"]" * 33,
    "nested-600": b"[" * 600 + b"]" * 600,
}
# every attack on every kind, then overlong values at the fields that echo them
HOSTILE_FILES = [
    *[_file_row(f"{kind}-{attack}", kind, data)
      for kind in _FILE_KINDS for attack, data in _ATTACKS.items()],
    *[_file_row(f"{kind}-4000-digits", kind, b"9" * 4000)
      for kind in ("certificate", "certificate-index", "certificate-truncation")],
    *[_file_row(f"{kind}-5000-letters", kind, b'"' + b"x" * 5000 + b'"')
      for kind in ("certificate-schema", "certificate-status")],
]


# algebra files whose field types are refused: (file, the one error line)
_FIELDS = {
    "ambient-dim-true": ('{"name": "x", "ambient_dim": true, "basis": [[1]]}',
                         "error: ambient_dim must be an integer, got true"),
    "name-list": (_SL2_TEXT.replace('"sl2"', '["a"]'), 'error: name must be a string, got ["a"]'),
    "name-number": (_SL2_TEXT.replace('"sl2"', "5"), "error: name must be a string, got 5"),
    "top-level-list": ("[1, 2]", "error: algebra file must be an object, got [1, 2]"),
    "no-name": (_SL2_TEXT.replace('"name": "sl2", ', ""),
                "error: algebra file missing field: 'name'"),
    "no-ambient-dim": (_SL2_TEXT.replace('"ambient_dim": 2, ', ""),
                       "error: algebra file missing field: 'ambient_dim'"),
    "ambient-dim-zero": ('{"name": "x", "ambient_dim": 0, "basis": []}',
                         "error: bad ambient_dim: 0"),
    "entry-zero-denominator": (_SL2_TEXT.replace("-1", '"1/0"'),
                               "error: bad rational '1/0': Fraction(1, 0)"),
    # a matrix size past the entry limit is refused before the shape check prints it
    **{f"ambient-dim-{digits}-digits": (
        '{"name": "h", "ambient_dim": ' + "9" * digits + ', "basis": [[1]]}', _ENTRY_LIMIT)
       for digits in (2151, MAX_RATIONAL_DIGITS)},
    "basis-number-huge-ambient": (
        '{"name": "h", "ambient_dim": 1' + "0" * 100 + ', "basis": 5}', _ENTRY_LIMIT),
    "empty-basis": ('{"name": "x", "ambient_dim": 2, "basis": []}',
                    "error: an algebra file needs at least one basis matrix"),
}
ALGEBRA_FIELDS = [Row(row_id, _SIMPLE, {"{file}": text.encode()}, expect=line)
                  for row_id, (text, line) in _FIELDS.items()]

_EXP_AT_CAP = "exp:1/1" + "0" * 2149  # weight 2 is 10^-4298: 4299 digits


def _not_written(out, paths):
    assert not os.path.exists(paths["{out}"])


def _shift_written(out, paths):
    [shift] = matlie.load_algebra(paths["{out}"]).basis
    r = parse_seq(_EXP_AT_CAP).r
    assert shift.nonzeros() == {(0, 1): r, (1, 2): r ** 2}


# (weights, n, exit code): a shift's built weights go to an algebra file, so
# each must meet the file's digit cap, and n times the bits of weight n the
# weight-size limit a certificate's truncation meets
SHIFT_WEIGHTS = [
    Row(row_id, ["lie", "build", "shift", "--n", str(n), "--weights", weights, "-o", "{out}"],
        exit=code, expect=_not_written if code else _shift_written, budget=2)
    for row_id, weights, n, code in [
        ("pow-20000", "pow:20000", 3, 2),
        ("pow-1e6-n50", "pow:1000000", 50, 2),
        ("exp-at-cap", _EXP_AT_CAP, 3, 0),
        ("exp-over-cap", "exp:1/1" + "0" * 2150, 3, 2),  # weight 2 is 10^-4300: 4301 digits
    ]
]


def _exp_leaves(seed: int, count: int, bits: int) -> list:
    """``exp:a/b`` with seeded random b of the given bit length and 0 < a < b."""
    rng = random.Random(seed)
    bs = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(count)]
    return [f"exp:{rng.randrange(1, b)}/{b}" for b in bs]


def _prod(parts: list, shape: str = "left") -> str:
    """The parts multiplied by a left- or right-nested chain of prod, or by a
    balanced tree."""
    while len(parts) > 1:
        if shape == "balanced":  # an odd last part moves up a level unpaired
            pairs = zip(parts[::2], parts[1::2])
            parts = [f"prod({x},{y})" for x, y in pairs] + parts[len(parts) & ~1:]
        elif shape == "left":
            parts = [f"prod({parts[0]},{parts[1]})"] + parts[2:]
        else:
            parts = parts[:-2] + [f"prod({parts[-2]},{parts[-1]})"]
    return parts[0]


def tree_chain(shape: str) -> str:
    """A chain of 150 balanced 8-leaf trees of 40-bit rates: 43 KB."""
    leaves = _exp_leaves(1, 1200, 40)
    return _prod([_prod(leaves[i:i + 8], "balanced") for i in range(0, 1200, 8)], shape)


def rate_one_chain() -> str:
    """100 alternating sub:2; and amp:2; around a balanced product of 8000
    pow:1/2 leaves: 112 KB, nested 113 levels; the limiting ratio reads the
    power of the whole product under every amp: and sub:."""
    return "sub:2;amp:2;" * 50 + _prod(["pow:1/2"] * 8000, "balanced")


def chain_pair() -> list:
    """Two 190-factor chains of 400-bit rates: 48 KB each."""
    return [_prod(_exp_leaves(2, 190, 400)), _prod(_exp_leaves(3, 190, 400))]


def _chain_row(row_id: str, command: list, chains) -> Row:
    """A row of command on the chains that chains() builds, each over 40 KB."""
    def argv() -> list:
        assert min(map(len, texts := chains())) > 40_000
        return command + texts
    return Row(row_id, argv, exit=0, budget=10)


# each product merges the shorter vector's numbers into the longer one's
# base, which is already coprime; a row builds its chains when it runs
_COMPARE = ["seq", "compare", "--mode", "O"]
PRODUCT_CHAINS = [_chain_row(*row) for row in [
    ("signature-43kb-tree-chain", ["seq", "signature"], lambda: [tree_chain("left")]),
    ("signature-43kb-right-nested", ["seq", "signature"], lambda: [tree_chain("right")]),
    ("compare-48kb-chains", _COMPARE, chain_pair),
    ("member-48kb-chains", ["ideal", "member"], chain_pair),
    ("idempotent-43kb-tree-chain", ["ideal", "idempotent"], lambda: [tree_chain("left")]),
    ("report-43kb-tree-chain", ["ideal", "report"], lambda: [tree_chain("left")]),
    ("compare-112kb-rate-one-chain", _COMPARE, lambda: [rate_one_chain()] * 2),
    ("soft-112kb-rate-one-chain", ["ideal", "soft"], lambda: [rate_one_chain()]),
    ("member-112kb-rate-one-chain", ["ideal", "member"], lambda: [rate_one_chain()] * 2),
    ("report-112kb-rate-one-chain", ["ideal", "report"], lambda: [rate_one_chain()]),
]]
# the probe's widest grid, which overflows down to the minimum grid
PRODUCT_CHAINS.append(Row(
    "compare-numeric-112kb-chain-nmax-2-64",
    lambda: _COMPARE + ["--numeric", "--nmax", str(2 ** 64), "pow:1", rate_one_chain()],
    exit=0, expect=_says("grid shrunk to n_max=1024"), budget=4))

# ambient_dim 1, so the entries are the basis size; the second matrix repeats
# the first, which the closure scan reports once decoded
FILE_CAP = [
    Row(row_id, _CLOSURE,
        {"{file}": lambda over=over: _json(
            {"name": "big", "ambient_dim": 1, "basis": [[1]] * (MAX_ALGEBRA_ENTRIES + over)})},
        expect=expect)
    for row_id, over, expect in [("at-cap", 0, "depends on earlier ones"),
                                 ("over-cap", 1, f"limit of {MAX_ALGEBRA_ENTRIES} entries")]
]


def first_index_file(index: int) -> bytes:
    """A commutator certificate of pow:1 against exp:1/2 at truncation 8 whose
    first nonzero weight is said to be at index."""
    cert = build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(Exp(F(1, 2)), 8)])
    payload = certificate_to_json(cert)
    assert payload["scan_window"] == DEFAULT_SCAN_WINDOW
    payload["first_nonzero"]["index"] = index
    return _json(payload)


FIRST_INDEX = [
    Row(row_id, _VERIFY, {"{file}": lambda index=index: first_index_file(index)},
        expect=f"outside 1..{DEFAULT_SCAN_WINDOW}")
    for row_id, index in [("window+1", DEFAULT_SCAN_WINDOW + 1), ("0", 0), ("1000000000", 10 ** 9)]
]

# usage errors whose argparse message echoes a long argument
USAGE_ERRORS = [Row(row_id, argv, usage=True) for row_id, argv in [
    ("size-50000-letters", ["lie", "build", "sl", "--n", "x" * 50_000]),
    ("mode-5000-letters", ["seq", "compare", "--mode", "x" * 5000, "pow:1", "pow:2"]),
    ("extra-5000-letters", ["seq", "signature", "pow:1", "x" * 5000]),
]]

# a run of scale factors whose fused factor passes the digit cap
SCALE_RUNS = [
    Row(str(count), ["seq", "signature", "scale:10;" * count + "pow:1"],
        expect=f"error: offset 38700: fused scale factor with more than {MAX_RATIONAL_DIGITS} "
               "digits in its numerator or denominator")
    for count in (4300, 5000)
]

_HALF = 10 ** 2200
FUSED_INDICES = [
    Row(f"{head}-{leaf}", ["seq", "signature", f"{head}:{_HALF};{head}:{_HALF};{leaf}"],
        expect=f"error: offset 0: fused {head} index with more than {MAX_RATIONAL_DIGITS} digits")
    for head, leaf in [("amp", "exp:1/2"), ("sub", "pow:1"), ("sub", "scale:2;sub:10;exp:1/2")]
]


def _partner_past_the_limit() -> bytes:
    # the truncation check builds the partner's weights at the generator's
    # truncation, whatever truncation the file stores for the partner
    payload = certificate_to_json(
        build_certificate(ShiftModel(Pow(1), 1024), [ShiftModel(Exp(F(1, 2)), 1024)]))
    payload["partner"] = {"weights": "exp:1/1" + "0" * 100, "truncation": 3}
    payload["pool"] = [payload["partner"]]
    return _json(payload)


def _window_mode_past_the_limit() -> bytes:
    # a central certificate in window mode replays the scan on its window
    cert = build_certificate(ShiftModel(Pow(4000), 3),
                             [ShiftModel(Product(Pow(2000), Pow(2000)), 3)], 64)
    assert cert.central_mode == "window"
    payload = certificate_to_json(cert)
    payload["scan_window"] = 1024
    return _json(payload)


PARTNER_WEIGHTS = Row(
    "partner-weights", _VERIFY, {"{file}": _partner_past_the_limit},
    expect=f"error: truncation 1024 times the 340167 bits of weight 1024 {_OVER}")
# pairs that commute without being proportional, so that the scan runs to the
# end of its window unless the weight-size limit stops it
SCAN_WEIGHTS = [
    Row(f"pow-{power}", ["witness", "build", "--generator", f"pow:{power}", "--partner",
                         f"prod(pow:{power // 2},pow:{power // 2})", "--window", "1024",
                         "--truncation", "3"],
        expect=f"error: scan index {index} times the {bits} bits of weight {index} {_OVER}",
        budget=2)
    for power, index, bits in [(40000, 64, 240002), (4000, 512, 36002)]
]
SCAN_WEIGHTS_VERIFY = Row(
    "scan-weights-verify", _VERIFY, {"{file}": _window_mode_past_the_limit},
    expect=f"error: scan index 512 times the 36002 bits of weight 512 {_OVER}", budget=2)


# The open time bombs: plain seeded generators build each input, with no
# pytest in them, so a benchmark workload can run the same calls.

def digit_cap_membership() -> list:
    """A membership whose least ampliation index, near the digit cap, takes
    certified logs of 2 and 3 at thousands of digits."""
    return ["ideal", "member", f"amp:{NINES};exp:1/2", "amp:10;exp:1/3"]


def scaled_sl(n: int, digits: int = 4000, seed: int = 0) -> bytes:
    """sl(n) with each basis matrix scaled by a seeded rational whose
    numerator and denominator have ``digits`` digits."""
    rng = random.Random(seed)

    def part() -> int:
        return rng.randrange(10 ** (digits - 1), 10 ** digits)

    payload = algebra_to_json(sl(n))
    for flat in payload["basis"]:
        scale = F(part(), part())
        flat[:] = [str(scale * F(v)) for v in flat]
    return _json(payload)


def rebased_sl(n: int, seed: int = 0) -> bytes:
    """sl(n) whose basis is the catalog basis times a seeded invertible matrix
    with entries in {-1, 0, 1}: the same algebra and span, with almost every
    structure constant nonzero."""
    rng = random.Random(seed)
    payload = algebra_to_json(sl(n))
    flats = [list(map(F, flat)) for flat in payload["basis"]]
    d = len(flats)
    while True:
        change = [[F(rng.choice((-1, 0, 1))) for _ in range(d)] for _ in range(d)]
        if textbook_rank(change) == d:
            break
    payload["basis"] = [[str(sum(c * flat[k] for c, flat in zip(row, flats)))
                         for k in range(n * n)] for row in change]
    return _json(payload)


def _open(item: int, row: Row):
    """The row of a bomb that ROADMAP item ``item`` defuses; its budget is the item's exit gate."""
    return pytest.param(row, marks=pytest.mark.xfail(
        strict=True, raises=BudgetExceeded, reason=f"ROADMAP item {item}"))


TIME_BOMBS = [
    _open(4, Row("digit-cap-membership", digit_cap_membership, exit=0)),
    _open(6, Row("scaled-sl7", _SIMPLE, {"{file}": lambda: scaled_sl(7)}, exit=0)),
    _open(13, Row("rebased-sl5", _SIMPLE, {"{file}": lambda: rebased_sl(5)}, exit=0, budget=3)),
]

test_time_bomb = table_test(TIME_BOMBS)


def test_every_typed_option_meets_a_huge_value():
    """Each option that the CLI converts with a ``type`` gets an unsigned
    value of at least 2000 digits in some row of the table."""
    sections = [value for value in list(globals().values()) if isinstance(value, (list, Row))]
    rows = [getattr(row, "values", [row])[0] for section in sections
            for row in (section if isinstance(section, list) else [section])]
    argvs = [[part for arg in row.argv for part in arg.split("=", 1)]
             for row in rows if isinstance(row, Row) and isinstance(row.argv, list)]
    met = {option for argv in argvs for option, value in zip(argv, argv[1:])
           if value.isdigit() and len(value) >= 2000}
    typed = {flag for _, commands in cli._COMMANDS.values() for _, arguments in commands.values()
             for flags, kwargs in arguments if "type" in kwargs for flag in flags}
    assert typed - met == set()
