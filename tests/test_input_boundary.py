"""The input boundary: bad input is an InputError and exits 2 with one
``error:`` line; every other exception is a bug and surfaces as one."""

from __future__ import annotations

import ast
import inspect
import json
import os
import random
import subprocess
import sys
import time

import pytest

import idealkit
from idealkit import cli, cli_lie, cli_seq, matlie
from idealkit.base import MAX_RATIONAL_DIGITS, InputError
from idealkit.catalog import _SHAPES, make_algebra
from idealkit.dsl import DslError, format_seq, parse_seq
from idealkit.idealcalc import (Principal, ZeroIdealError, implication_report, is_idempotent,
                                is_soft, member)
from idealkit.matlie import MAX_ALGEBRA_ENTRIES, NotClosedError, matrices_from_json
from idealkit.seqspace import InvalidSequenceError, Mode, Pow, compare, signature_of
from idealkit.witness import (
    MIN_TRUNCATION,
    CertificateError,
    ShiftModel,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)


def test_error_classes_are_input_errors():
    for cls in (DslError, InvalidSequenceError, ZeroIdealError, NotClosedError, CertificateError):
        assert issubclass(cls, InputError)
    assert cli._USER_ERRORS == (InputError, OSError)


@pytest.mark.parametrize("exc", [ValueError("internal"), ZeroDivisionError("internal")])
def test_internal_errors_propagate(monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli_seq, "handle", broken)
    with pytest.raises(type(exc), match="internal"):
        cli.main(["seq", "signature", "pow:1"])


def _caught_names(expr, assignments) -> set:
    if expr is None:
        return {"BaseException"}  # a bare except
    if isinstance(expr, ast.Tuple):
        return set().union(*(_caught_names(e, assignments) for e in expr.elts))
    if isinstance(expr, ast.Name) and expr.id in assignments:
        return _caught_names(assignments[expr.id], assignments)
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Attribute):
        return {expr.attr}
    return {ast.dump(expr)}


def test_main_catches_no_broad_exception():
    tree = ast.parse(inspect.getsource(cli))
    assignments = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h for node in ast.walk(main) if isinstance(node, ast.Try) for h in node.handlers]
    assert handlers
    for handler in handlers:
        caught = _caught_names(handler.type, assignments)
        assert not caught & {"ValueError", "Exception", "BaseException"}, caught


def _write(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


SL2_BASIS = [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]]
NINES = "9" * MAX_RATIONAL_DIGITS  # the largest integer a rational may be written with

# (id, argv, payload): "{sl2}" in argv names an sl(2) algebra file, "{file}"
# a file holding the payload
EXIT_TWO = [
    ("seeds-no-elements", ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"], {"foo": 1}),
    ("seeds-number", ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"], 5),
    ("seed-2-entries", ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"], [[0, 1]]),
    ("seed-6-entries", ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"],
     [[0, 1, 0, 0, 0, 0]]),
    ("basis-number", ["lie", "check-closure", "--file", "{file}"],
     {"name": "x", "ambient_dim": 2, "basis": [5]}),
    ("first-value-digits", ["witness", "build", "--generator", "pow:100000",
                            "--partner", "pow:1", "--truncation", "8"], None),
    ("witness-no-partner", ["witness", "build", "--generator", "pow:1", "--truncation", "8"],
     None),
    ("truncation-floor", ["witness", "build", "--generator", "exp:1/2",
                          "--partner", "pow:1", "--truncation", "2"], None),
    ("sl-size-zero", ["lie", "build", "sl", "--n", "0"], None),
    ("shift-no-weights", ["lie", "build", "shift", "--n", "4"], None),
    ("weights-not-shift", ["lie", "build", "sl", "--n", "3", "--weights", "pow:1"], None),
    ("report-finite", ["ideal", "report", "finite:[1]"], None),
    ("eps-zero", ["seq", "compare", "--mode", "O", "pow:1", "pow:1", "--numeric", "--eps", "0"],
     None),
    *[(f"eps-{eps}", ["seq", "compare", "--mode", "o", "--numeric", f"--eps={eps}",
                      "pow:2", "pow:1", "--json"], None) for eps in ("nan", "inf", "-inf")],
    ("soft-eps-nan", ["ideal", "soft", "pow:1", "--numeric", "--eps", "nan"], None),
    ("nmax-eps-without-numeric",
     ["seq", "compare", "--mode", "O", "pow:2", "pow:1", "--nmax", "0", "--eps", "nan"], None),
    ("soft-eps-without-numeric", ["ideal", "soft", "pow:1", "--eps", "nan"], None),
    ("soft-numeric-compact", ["ideal", "soft", "compact", "--numeric"], None),
    ("soft-numeric-product", ["ideal", "soft", "idealprod(exp:1/2,compact)", "--numeric",
                              "--nmax", "4096"], None),
    ("sl-40-over-size-cap", ["lie", "build", "sl", "--n", "40"], None),
    ("sl-80-over-size-cap", ["lie", "build", "sl", "--n", "80"], None),
    ("seeds-over-size-cap", ["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"],
     [[0, 0, 0, 0]] * (MAX_ALGEBRA_ENTRIES // 4 + 1)),
    ("lie-no-subcommand", ["lie"], None),
    ("killing-empty-basis", ["lie", "killing", "--file", "{file}"],
     {"name": "x", "ambient_dim": 2, "basis": []}),
    ("seed-without-cross-check", ["lie", "simple", "--file", "{sl2}", "--seed", "7"], None),
    ("negative-cross-check", ["lie", "simple", "--file", "{sl2}", "--cross-check", "-3"], None),
    # refusals of numbers past the digit cap: a weight past the weight limit
    # is refused with no bit count, and a count past the cap prints as the marker
    ("witness-bits-past-cap", ["witness", "build", "--generator", f"pow:{NINES}",
                               "--partner", "pow:1"], None),
    ("shift-bits-past-cap", ["lie", "build", "shift", "--n", "3", "--weights", f"pow:{NINES}"],
     None),
    ("shift-sub-bits-past-cap", ["lie", "build", "shift", "--n", "3",
                                 "--weights", f"sub:{NINES};exp:1/3"], None),
    ("sl-entries-past-cap", ["lie", "build", "sl", "--n", "9" * 2200], None),
    ("witness-fractional-generator", ["witness", "build", "--generator", "pow:1/2",
                                      "--partner", "pow:2"], None),
    ("rational-zero-denominator", ["seq", "signature", "pow:1/0"], None),
    # a shift truncation whose weights 1..n-1 are all zero spans no algebra
    ("shift-zero-weight", ["lie", "build", "shift", "--n", "2", "--weights", "finite:[0]"],
     None),
    ("shift-empty-weights", ["lie", "build", "shift", "--n", "2", "--weights", "finite:[]"],
     None),
    ("shift-explicit-zero", ["lie", "build", "shift", "--n", "2",
                             "--weights", "explicit:[0];tail=pow:1"], None),
    ("shift-zero-weights-n3", ["lie", "build", "shift", "--n", "3",
                               "--weights", "finite:[0,0]"], None),
    # an empty basis is refused by every command that reads an algebra file;
    # the last file is an empty seed list too
    ("check-closure-empty-basis", ["lie", "check-closure", "--file", "{file}"],
     {"name": "x", "ambient_dim": 10 ** 100, "basis": []}),
    ("derived-empty-basis", ["lie", "derived", "--file", "{file}"],
     {"name": "x", "ambient_dim": 2, "basis": []}),
    ("ideal-gen-empty-basis", ["lie", "ideal-gen", "--file", "{file}", "--seeds", "{file}"],
     {"name": "x", "ambient_dim": 2, "basis": [], "elements": []}),
    # a refusal that echoes a long input still prints one short line
    ("head-50000-letters", ["seq", "signature", "x" * 50_000], None),
    ("kind-50000-letters", ["lie", "build", "x" * 50_000, "--n", "3"], None),
    ("path-50000-chars", ["lie", "simple", "--file", "x" * 50_000], None),
    *[(f"{form}-negative-nines", ["seq", "signature", f"{form}:-{NINES}{tail}"], None)
      for form, tail in (("pow", ""), ("exp", ""), ("scale", ";pow:1"))],
    ("cross-check-negative-nines", ["lie", "simple", "--file", "{sl2}",
                                    "--cross-check", f"-{NINES}"], None),
    # a sample count past the work limit, for sl(2) of dimension 3
    ("cross-check-past-limit", ["lie", "simple", "--file", "{sl2}", "--cross-check",
                                str(cli_lie.MAX_CROSS_CHECK_WORK // 27 + 1)], None),
    ("cross-check-4000-nines", ["lie", "simple", "--file", "{sl2}",
                                "--cross-check", "9" * 4000], None),
    ("sl-size-negative-4000-nines", ["lie", "build", "sl", "--n", "-" + "9" * 4000], None),
    *[(f"{option}-4000-nines", ["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                                f"--{option}", "9" * 4000], None)
      for option in ("truncation", "window")],
    ("nmax-negative-4000-nines", ["seq", "compare", "--mode", "O", "pow:1", "pow:2",
                                  "--numeric", "--nmax", "-" + "9" * 4000], None),
]


@pytest.mark.parametrize("argv,payload", [p[1:] for p in EXIT_TWO], ids=[p[0] for p in EXIT_TWO])
def test_bad_input_exits_two_with_one_error_line(argv, payload, tmp_path, capsys):
    sl2 = {"name": "sl2", "ambient_dim": 2, "basis": SL2_BASIS}
    files = {
        "{sl2}": _write(tmp_path / "sl2.json", sl2),
        "{file}": _write(tmp_path / "payload.json", payload),
    }
    argv = [files.get(a, a) for a in argv]
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2, captured.out
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert len(err[0]) < 200
    assert "Traceback" not in captured.err
    assert seconds < 1


def test_cross_check_limit_is_exact(monkeypatch, tmp_path, capsys):
    """sl(2) has dimension 3, so a limit of 5 · 3³ admits 5 samples; 6 are
    refused before the ladder or any sample runs."""
    path = _write(tmp_path / "sl2.json", {"name": "sl2", "ambient_dim": 2, "basis": SL2_BASIS})
    monkeypatch.setattr(cli_lie, "MAX_CROSS_CHECK_WORK", 5 * 27)
    assert cli.main(["lie", "simple", "--file", path, "--cross-check", "5"]) == 0
    capsys.readouterr()

    def never(*args):
        raise AssertionError("ran past the refusal")

    monkeypatch.setattr(matlie, "is_simple", never)
    monkeypatch.setattr(matlie, "random_ideal_search", never)
    assert cli.main(["lie", "simple", "--file", path, "--cross-check", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: --cross-check allows at most 5 samples on an algebra of dimension 3\n")


def test_tiny_finite_eps_is_accepted(capsys):
    argv = ["seq", "compare", "--mode", "o", "--numeric", "--eps", "1e-300", "pow:2", "pow:1",
            "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["numeric"]["evidence"]["eps"] == 1e-300


def test_messages_name_the_broken_bound(capsys):
    cli.main(["witness", "build", "--generator", "pow:100000", "--partner", "pow:1",
              "--truncation", "8"])
    assert f"more than {MAX_RATIONAL_DIGITS} digits" in capsys.readouterr().err
    cli.main(["witness", "build", "--generator", "exp:1/2", "--partner", "pow:1",
              "--truncation", "2"])
    err = capsys.readouterr().err
    assert f"below the minimum {MIN_TRUNCATION}" in err and "hypothesis gate" not in err


_OVER = "exceeds the limit 8388608"
# (id, argv, error line): past MAX_WEIGHT_BITS a weight's bits are only
# bounded from below, so the line says "more than" instead of a count; an
# algebra one of whose matrices alone passes the entry limit prints no size
WEIGHT_LIMIT_LINES = [
    ("shift-sub-4001-digits", ["lie", "build", "shift", "--n", "3",
                               "--weights", "sub:1" + "0" * 4000 + ";exp:1/3"],
     f"error: truncation 3 times the bits of weight 3 {_OVER}: "
     "weight 3 has more than 8388608 bits"),
    ("witness-pow-nines", ["witness", "build", "--generator", f"pow:{NINES}",
                           "--partner", "pow:1"],
     f"error: truncation 64 times the bits of weight 64 {_OVER}: "
     "weight 64 has more than 8388608 bits"),
    ("shift-pow-1e6-n50", ["lie", "build", "shift", "--n", "50", "--weights", "pow:1000000"],
     f"error: truncation 50 times the 5643858 bits of weight 50 {_OVER}"),
    ("witness-scan-index", ["witness", "build", "--generator", "pow:2000", "--partner",
                            "prod(pow:1000,pow:1000)", "--truncation", "3"],
     f"error: scan index 512 times the 18002 bits of weight 512 {_OVER}"),
    ("sl-entries-2200-nines", ["lie", "build", "sl", "--n", "9" * 2200],
     f"error: a single matrix of this size exceeds the limit of {MAX_ALGEBRA_ENTRIES} entries"),
]


@pytest.mark.parametrize("argv,line", [row[1:] for row in WEIGHT_LIMIT_LINES],
                         ids=[row[0] for row in WEIGHT_LIMIT_LINES])
def test_weight_limit_line(argv, line, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == line + "\n"
    assert len(line) < 200


@pytest.mark.parametrize("size", [3, 5], ids=["one-short", "one-long"])
def test_seed_of_wrong_length_refused(size):
    with pytest.raises(InputError, match="flat list of 4 rationals"):
        matrices_from_json([[0] * size], 2)
    assert matrices_from_json([[0, 1, 0, 0]], 2)[0].entries == ((0, 1), (0, 0))


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
def test_first_value_digit_cap(over):
    # the first commutator weight of pow:p against pow:1 is (1 - 2^(p-1))/2^p
    p = (10 ** MAX_RATIONAL_DIGITS - 1).bit_length() - 1 + over  # 2^p within the cap
    generator, pool = ShiftModel(Pow(p), 3), [ShiftModel(Pow(1), 3)]
    if over:
        with pytest.raises(CertificateError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
            build_certificate(generator, pool)
    else:
        cert = build_certificate(generator, pool)
        assert cert.first_value.denominator == 2 ** p
        restored = certificate_from_json(certificate_to_json(cert))
        assert restored.first_value == cert.first_value
        assert verify_certificate(restored).holds


class TestAlgebraSizeCap:
    def test_shapes_match_the_built_algebras(self):
        for kind, shape in _SHAPES.items():
            for n in (2, 3, 5):
                algebra = make_algebra(kind, n, Pow(1) if kind == "shift" else None)
                assert shape(n) == (algebra.dim, algebra.ambient), (kind, n)

    def test_catalog_build_below_and_above_the_cap(self):
        assert 14 * 14 * (14 * 14 - 1) <= MAX_ALGEBRA_ENTRIES < 15 * 15 * (15 * 15 - 1)
        assert make_algebra("sl", 14).dim == 14 * 14 - 1
        with pytest.raises(InputError, match=f"limit of {MAX_ALGEBRA_ENTRIES} entries"):
            make_algebra("sl", 15)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
    def test_file_at_and_over_the_cap(self, over, tmp_path, capsys):
        # ambient_dim 1, so the entries are the basis size; the second matrix
        # repeats the first, which the closure scan reports once decoded
        payload = {"name": "big", "ambient_dim": 1, "basis": [[1]] * (MAX_ALGEBRA_ENTRIES + over)}
        path = _write(tmp_path / "big.json", payload)
        start = time.perf_counter()
        assert cli.main(["lie", "check-closure", "--file", path]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        if over:
            assert f"limit of {MAX_ALGEBRA_ENTRIES} entries" in err
        else:
            assert "depends on earlier ones" in err


def test_integer_digit_cap():
    at = "1" + "0" * (MAX_RATIONAL_DIGITS - 1)
    assert parse_seq(f"amp:{at};pow:1").m == 10 ** (MAX_RATIONAL_DIGITS - 1)
    with pytest.raises(DslError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
        parse_seq(f"amp:{at}0;pow:1")


class TestFirstIndexBound:
    @staticmethod
    def _payload():
        cert = build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(parse_seq("exp:1/2"), 8)])
        return certificate_to_json(cert)

    def test_index_at_the_scan_window_loads(self):
        payload = self._payload()
        payload["first_nonzero"]["index"] = payload["scan_window"]
        assert certificate_from_json(payload).first_index == payload["scan_window"]

    @pytest.mark.parametrize("index", ["window+1", 0, 10 ** 9])
    def test_index_outside_the_scan_window_refused(self, index, tmp_path, capsys):
        payload = self._payload()
        window = payload["scan_window"]
        payload["first_nonzero"]["index"] = window + 1 if index == "window+1" else index
        path = _write(tmp_path / "cert.json", payload)
        start = time.perf_counter()
        assert cli.main(["witness", "verify", "--file", path]) == 2
        assert time.perf_counter() - start < 1
        assert f"outside 1..{window}" in capsys.readouterr().err


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


def _tree_chain(shape: str) -> tuple:
    # a chain of 150 balanced 8-leaf trees of 40-bit rates: 43 KB
    leaves = _exp_leaves(1, 1200, 40)
    return (_prod([_prod(leaves[i:i + 8], "balanced") for i in range(0, 1200, 8)], shape),)


def _rate_one_chain() -> tuple:
    # 100 alternating sub:2; and amp:2; around a balanced product of 8000
    # pow:1/2 leaves: 112 KB, nested 113 levels; the limiting ratio reads the
    # power of the whole product under every amp: and sub:
    return ("sub:2;amp:2;" * 50 + _prod(["pow:1/2"] * 8000, "balanced"),)


def _chain_pair() -> tuple:
    # two 190-factor chains of 400-bit rates: 48 KB each
    return _prod(_exp_leaves(2, 190, 400)), _prod(_exp_leaves(3, 190, 400))


@pytest.mark.parametrize("call,inputs", [
    (signature_of, lambda: _tree_chain("left")),
    (signature_of, lambda: _tree_chain("right")),
    (lambda xi, eta: compare(xi, eta, Mode.BIG_O), _chain_pair),
    (lambda xi, gen: member(xi, Principal(gen)), _chain_pair),
    (lambda gen: is_idempotent(Principal(gen)), lambda: _tree_chain("left")),
    (implication_report, lambda: _tree_chain("left")),
    (lambda x: compare(x, x, Mode.BIG_O), _rate_one_chain),
    (lambda x: is_soft(Principal(x)), _rate_one_chain),
    (lambda x: member(x, Principal(x)), _rate_one_chain),
    (implication_report, _rate_one_chain),
], ids=["signature-43kb-tree-chain", "signature-43kb-right-nested", "compare-48kb-chains",
        "member-48kb-chains", "idempotent-43kb-tree-chain", "report-43kb-tree-chain",
        "compare-112kb-rate-one-chain", "soft-112kb-rate-one-chain",
        "member-112kb-rate-one-chain", "report-112kb-rate-one-chain"])
def test_product_chains_answer_in_seconds(call, inputs):
    # each product merges the shorter vector's numbers into the longer one's
    # base, which is already coprime
    exprs = [parse_seq(text) for text in inputs()]
    assert min(len(format_seq(e)) for e in exprs) > 40_000
    start = time.perf_counter()
    call(*exprs)
    assert time.perf_counter() - start < 10


def _src_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(idealkit.__file__)))


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["seq", "delta2", "pow:10000000000", "--json"], "inf"),
        (["seq", "signature", "sub:100000000;exp:1/3", "--json"],
         "rate=3^(-100000000), pow=0, logpow=0"),
    ],
    ids=["delta2", "signature"],
)
def test_digit_cap_ignores_the_interpreter_setting(argv, expected):
    # with the interpreter's limit off, the cap still keeps huge powers unbuilt
    env = dict(os.environ, PYTHONPATH=_src_dir(), PYTHONINTMAXSTRDIGITS="0")
    out = subprocess.run(
        [sys.executable, "-m", "idealkit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    if argv[1] == "delta2":
        assert payload["verdict"]["evidence"]["limiting_ratio"] == expected
    else:
        assert payload["signature"] == expected


# Hostile files: each kind of file idealkit reads, as a template whose "@"
# an attack replaces; the template with its own value there is valid.  A
# certificate's template is the (field, "@") replacement in a built one.
_SL2_TEXT = json.dumps({"name": "sl2", "ambient_dim": 2, "basis": SL2_BASIS})
_FILE_KINDS = {
    "algebra": (["lie", "simple", "--file", "{file}"], _SL2_TEXT.replace("-1", "@"), "-1"),
    "seeds": (["lie", "ideal-gen", "--file", "{sl2}", "--seeds", "{file}"], "[[0, @, 0, 0]]",
              "1"),
    "certificate": (["witness", "verify", "--file", "{file}"],
                    ('"scan_window": 8', '"scan_window": @'), "8"),
    "certificate-evidence": (["witness", "verify", "--file", "{file}"], ('"k": 2', '"k": @'), "2"),
    # certificate fields whose refusal echoes the value
    "certificate-index": (["witness", "verify", "--file", "{file}"],
                          ('"index": 1', '"index": @'), "1"),
    "certificate-truncation": (["witness", "verify", "--file", "{file}"],
                               ('"generator": {"weights": "pow:1", "truncation": 8}',
                                '"generator": {"weights": "pow:1", "truncation": @}'), "8"),
    "certificate-schema": (["witness", "verify", "--file", "{file}"],
                           ('"schema_version": "1"', '"schema_version": @'), '"1"'),
    "certificate-status": (["witness", "verify", "--file", "{file}"],
                           ('"status": "Fails"', '"status": @'), '"Fails"'),
}
_ATTACKS = {
    "5000-digits": b"1" * 5000,
    "nested-100000": b"[" * 100_000,
    "byte-0xff": b"\xff",
    # well-formed lists nested past the reader's bound of 32 levels
    "nested-33": b"[" * 33 + b"]" * 33,
    "nested-600": b"[" * 600 + b"]" * 600,
}
# id: (kind, data): every attack on every kind, then overlong values at the
# fields that echo them
_HOSTILE = {
    **{f"{kind}-{attack}": (kind, data)
       for kind in _FILE_KINDS for attack, data in _ATTACKS.items()},
    **{f"{kind}-4000-digits": (kind, b"9" * 4000)
       for kind in ("certificate", "certificate-index", "certificate-truncation")},
    **{f"{kind}-5000-letters": (kind, b'"' + b"x" * 5000 + b'"')
       for kind in ("certificate-schema", "certificate-status")},
}
# algebra files only: (file, the one error line) for field types that are refused
_ALGEBRA_FIELDS = {
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
        '{"name": "h", "ambient_dim": ' + "9" * digits + ', "basis": [[1]]}',
        f"error: a single matrix of this size exceeds the limit of {MAX_ALGEBRA_ENTRIES} entries")
       for digits in (2151, MAX_RATIONAL_DIGITS)},
    "basis-number-huge-ambient": (
        '{"name": "h", "ambient_dim": 1' + "0" * 100 + ', "basis": 5}',
        f"error: a single matrix of this size exceeds the limit of {MAX_ALGEBRA_ENTRIES} entries"),
    "empty-basis": ('{"name": "x", "ambient_dim": 2, "basis": []}',
                    "error: an algebra file needs at least one basis matrix"),
}


def _template(kind: str) -> str:
    template = _FILE_KINDS[kind][1]
    if isinstance(template, tuple):
        cert = build_certificate(ShiftModel(Pow(1), 8), [ShiftModel(Pow(2), 8)], scan_window=8)
        text = json.dumps(certificate_to_json(cert))
        assert text.count(template[0]) == 1
        template = text.replace(*template)
    return template


def _run_file(kind: str, data: bytes, tmp_path, capsys) -> tuple:
    """(exit code, stderr lines) of the kind's command on a file holding data."""
    (tmp_path / "sl2.json").write_text(_SL2_TEXT)
    (tmp_path / "input.json").write_bytes(data)
    files = {"{sl2}": str(tmp_path / "sl2.json"), "{file}": str(tmp_path / "input.json")}
    code = cli.main([files.get(a, a) for a in _FILE_KINDS[kind][0]])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("kind", _FILE_KINDS)
def test_file_templates_are_valid(kind, tmp_path, capsys):
    data = _template(kind).replace("@", _FILE_KINDS[kind][2]).encode()
    assert _run_file(kind, data, tmp_path, capsys) == (0, [])


@pytest.mark.parametrize("kind,attack", _HOSTILE.values(), ids=_HOSTILE)
def test_hostile_file_exits_two_with_one_error_line(kind, attack, tmp_path, capsys):
    data = _template(kind).encode().replace(b"@", attack)
    code, err = _run_file(kind, data, tmp_path, capsys)
    assert code == 2 and len(err) == 1 and err[0].startswith("error: "), (code, err)
    assert len(err[0]) < 200


@pytest.mark.parametrize("text,error", _ALGEBRA_FIELDS.values(), ids=_ALGEBRA_FIELDS)
def test_algebra_field_types_refused(text, error, tmp_path, capsys):
    assert _run_file("algebra", text.encode(), tmp_path, capsys) == (2, [error])


def test_reader_digit_cap_ignores_the_interpreter_setting(tmp_path):
    # with the interpreter's limit off, a 5000-digit entry is still refused
    path = tmp_path / "big.json"
    path.write_text('{"name": "x", "ambient_dim": 1, "basis": [[' + "1" * 5000 + "]]}")
    env = dict(os.environ, PYTHONPATH=_src_dir(), PYTHONINTMAXSTRDIGITS="0")
    out = subprocess.run(
        [sys.executable, "-m", "idealkit.cli", "lie", "simple", "--file", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 2, out.stdout
    assert out.stderr == f"error: integer with more than {MAX_RATIONAL_DIGITS} digits\n"


def test_unwritable_report_file_exits_two(tmp_path, capsys):
    (tmp_path / "sl2.json").write_text(_SL2_TEXT)
    report = str(tmp_path / "missing" / "report.json")
    assert cli.main(["lie", "simple", "--file", str(tmp_path / "sl2.json"), "-o", report]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# (weights, n, exit code): a shift's built weights go to an algebra file, so
# each must meet the file's digit cap, and n times the bits of weight n the
# weight-size limit a certificate's truncation meets
SHIFT_WEIGHTS = [
    ("pow:20000", 3, 2),
    ("pow:1000000", 50, 2),
    ("exp:1/1" + "0" * 2149, 3, 0),  # weight 2 is 10^-4298: 4299 digits
    ("exp:1/1" + "0" * 2150, 3, 2),  # weight 2 is 10^-4300: 4301 digits
]


@pytest.mark.parametrize("weights,n,code", SHIFT_WEIGHTS,
                         ids=["pow-20000", "pow-1e6-n50", "exp-at-cap", "exp-over-cap"])
def test_shift_weights_within_the_file_caps(weights, n, code, tmp_path):
    path = str(tmp_path / "shift.json")
    env = dict(os.environ, PYTHONPATH=_src_dir())
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "idealkit.cli", "lie", "build", "shift", "--n", str(n),
         "--weights", weights, "-o", path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert out.returncode == code, out.stderr
    if code:
        err = out.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not os.path.exists(path)
    else:
        [shift] = matlie.load_algebra(path).basis
        r = parse_seq(weights).r
        assert shift.nonzeros() == {(0, 1): r, (1, 2): r ** 2}
