"""The input boundary: bad input is an InputError and exits 2 with one
``error:`` line; every other exception is a bug and surfaces as one."""

from __future__ import annotations

import ast
import inspect
import json

import pytest

from idealkit import cli, cli_lie, cli_seq, matlie
from idealkit.base import MAX_RATIONAL_DIGITS, InputError
from idealkit.catalog import _SHAPES, make_algebra
from idealkit.dsl import DslError, parse_seq
from idealkit.idealcalc import ZeroIdealError
from idealkit.matlie import MAX_ALGEBRA_ENTRIES, NotClosedError, matrices_from_json
from idealkit.seqspace import InvalidSequenceError, Pow
from idealkit.witness import (
    DEFAULT_SCAN_WINDOW,
    MIN_TRUNCATION,
    CertificateError,
    ShiftModel,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)

from conftest import run_main, run_process
from test_adversarial import (ALGEBRA_FIELDS, EXIT_TWO, FILE_CAP, FILE_TEMPLATES, FIRST_INDEX,
                              HOSTILE_FILES, PRODUCT_CHAINS, SHIFT_WEIGHTS, SL2,
                              WEIGHT_LIMIT_LINES, first_index_file, table_test)


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
        run_main(["seq", "signature", "pow:1"])


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


test_bad_input_exits_two_with_one_error_line = table_test(EXIT_TWO)


def test_cross_check_limit_is_exact(monkeypatch, tmp_path):
    """sl(2) has dimension 3, so a limit of 5 · 3³ admits 5 samples; 6 are
    refused before the ladder or any sample runs."""
    path = str(tmp_path / "sl2.json")
    (tmp_path / "sl2.json").write_bytes(SL2)
    monkeypatch.setattr(cli_lie, "MAX_CROSS_CHECK_WORK", 5 * 27)
    assert run_main(["lie", "simple", "--file", path, "--cross-check", "5"])[0] == 0

    def never(*args):
        raise AssertionError("ran past the refusal")

    monkeypatch.setattr(matlie, "is_simple", never)
    monkeypatch.setattr(matlie, "random_ideal_search", never)
    code, _, err = run_main(["lie", "simple", "--file", path, "--cross-check", "6"])
    assert code == 2
    assert err == (
        "error: --cross-check allows at most 5 samples on an algebra of dimension 3\n")


def test_tiny_finite_eps_is_accepted():
    argv = ["seq", "compare", "--mode", "o", "--numeric", "--eps", "1e-300", "pow:2", "pow:1",
            "--json"]
    code, out, _ = run_main(argv)
    assert code == 0
    assert json.loads(out)["numeric"]["evidence"]["eps"] == 1e-300


def test_messages_name_the_broken_bound():
    _, _, err = run_main(["witness", "build", "--generator", "pow:100000", "--partner", "pow:1",
                          "--truncation", "8"])
    assert f"more than {MAX_RATIONAL_DIGITS} digits" in err
    _, _, err = run_main(["witness", "build", "--generator", "exp:1/2", "--partner", "pow:1",
                          "--truncation", "2"])
    assert f"below the minimum {MIN_TRUNCATION}" in err and "hypothesis gate" not in err


test_weight_limit_line = table_test(WEIGHT_LIMIT_LINES)


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

    test_file_at_and_over_the_cap = staticmethod(table_test(FILE_CAP))


def test_integer_digit_cap():
    at = "1" + "0" * (MAX_RATIONAL_DIGITS - 1)
    assert parse_seq(f"amp:{at};pow:1").m == 10 ** (MAX_RATIONAL_DIGITS - 1)
    with pytest.raises(DslError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
        parse_seq(f"amp:{at}0;pow:1")


class TestFirstIndexBound:
    def test_index_at_the_scan_window_loads(self):
        payload = json.loads(first_index_file(DEFAULT_SCAN_WINDOW))
        assert certificate_from_json(payload).first_index == DEFAULT_SCAN_WINDOW

    test_index_outside_the_scan_window_refused = staticmethod(table_test(FIRST_INDEX))


test_product_chains_answer_in_seconds = table_test(PRODUCT_CHAINS)


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
    out = run_process(argv, PYTHONINTMAXSTRDIGITS="0")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    if argv[1] == "delta2":
        assert payload["verdict"]["evidence"]["limiting_ratio"] == expected
    else:
        assert payload["signature"] == expected


test_file_templates_are_valid = table_test(FILE_TEMPLATES)
test_hostile_file_exits_two_with_one_error_line = table_test(HOSTILE_FILES)
test_algebra_field_types_refused = table_test(ALGEBRA_FIELDS)


def test_reader_digit_cap_ignores_the_interpreter_setting(tmp_path):
    # with the interpreter's limit off, a 5000-digit entry is still refused
    path = tmp_path / "big.json"
    path.write_text('{"name": "x", "ambient_dim": 1, "basis": [[' + "1" * 5000 + "]]}")
    out = run_process(["lie", "simple", "--file", str(path)], PYTHONINTMAXSTRDIGITS="0")
    assert out.returncode == 2, out.stdout
    assert out.stderr == f"error: integer with more than {MAX_RATIONAL_DIGITS} digits\n"


def test_unwritable_report_file_exits_two(tmp_path):
    (tmp_path / "sl2.json").write_bytes(SL2)
    report = str(tmp_path / "missing" / "report.json")
    code, out, err = run_main(["lie", "simple", "--file", str(tmp_path / "sl2.json"), "-o", report])
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ")


test_shift_weights_within_the_file_caps = table_test(SHIFT_WEIGHTS)
