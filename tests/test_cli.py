"""Command line front end: dispatch, exit codes, JSON determinism."""

from __future__ import annotations

import decimal
import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

from idealkit import cli, witness
from idealkit.base import MAX_RATIONAL_DIGITS
from idealkit.catalog import _KINDS, direct_sum, make_algebra, save_algebra, sl, sp_standard
from idealkit.dsl import MAX_NESTING
from idealkit.seqspace import Pow
from idealkit.witness import DEFAULT_SCAN_WINDOW, MAX_SCAN_WINDOW, MAX_TRUNCATION, MIN_TRUNCATION

from conftest import SRC, run_main, run_process
from test_adversarial import FUSED_INDICES, SCALE_RUNS, USAGE_ERRORS, table_test


class TestSeqCommands:
    def test_signature(self):
        code, out, _ = run_main(["seq", "signature", "pow:2"])
        assert code == 0
        assert "pow=2" in out

    def test_compare_proven_fails_exits_zero(self):
        code, out, _ = run_main(
            ["seq", "compare", "--mode", "o", "pow:1", "amp:2;pow:1"]
        )
        assert code == 0
        assert "Fails (SymbolicProven)" in out

    def test_compare_numeric_exits_zero(self):
        code, out, _ = run_main(
            ["seq", "compare", "--mode", "o", "exp:1/2", "pow:1", "--numeric"]
        )
        assert code == 0
        assert "NumericIndicated" in out

    def test_delta2(self):
        code, out, _ = run_main(["seq", "delta2", "pow:3"])
        assert code == 0
        assert "Holds" in out and "8" in out

    def test_syntax_error_exit_two(self):
        assert run_main(["seq", "signature", "pw:1"])[0] == 2

    def test_constraint_error_exit_two(self):
        assert run_main(["seq", "signature", "exp:2"])[0] == 2

    def test_deep_scale_run_answers(self):
        code, out, _ = run_main(["seq", "signature", "scale:2;" * 3000 + "pow:1"])
        assert code == 0
        assert out.strip() == "signature: rate=1, pow=1, logpow=0"

    @pytest.mark.parametrize(
        "text",
        [
            "sub:2;" * (MAX_NESTING + 1) + "pow:1",
            "prod(pow:1," * (MAX_NESTING + 1) + "pow:1" + ")" * (MAX_NESTING + 1),
        ],
        ids=["sub", "prod"],
    )
    def test_nesting_past_limit_exit_two(self, text):
        code, _, err = run_main(["seq", "signature", text])
        assert code == 2
        assert err.startswith("error: offset ") and "Traceback" not in err

    def test_negative_scale_pair_exit_two(self):
        code, _, err = run_main(["seq", "signature", "scale:-1;scale:-1;pow:1"])
        assert code == 2 and "scale factor must be positive" in err

    def test_trailing_zeros_leave_the_support(self):
        code, out, _ = run_main(["seq", "compare", "--mode", "O", "finite:[1,1/2,0,0]",
                             "finite:[2,1]", "--json"])
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["status"] == "Holds"
        assert verdict["evidence"]["rule"] == "support containment"
        assert verdict["evidence"]["xi_support"] == 2


class TestIdealCommands:
    def test_soft_dichotomy_text(self):
        code, out, _ = run_main(["ideal", "soft", "exp:1/2"])
        assert code == 0 and out.startswith("SOFT (SymbolicProven)")
        code, out, _ = run_main(["ideal", "soft", "pow:1"])
        assert code == 0 and out.startswith("NOT SOFT (SymbolicProven)")

    def test_member(self):
        code, out, _ = run_main(["ideal", "member", "exp:1/2", "exp:1/4"])
        assert code == 0 and "Holds" in out

    def test_idempotent(self):
        code, out, _ = run_main(["ideal", "idempotent", "pow:1"])
        assert code == 0 and "Fails" in out

    def test_report(self):
        code, out, _ = run_main(["ideal", "report", "pow:2"])
        assert code == 0
        assert "delta2: Holds" in out and "soft: Fails" in out
        assert "all consistent" in out

    def test_report_rejects_finite_support(self):
        assert run_main(["ideal", "report", "finite:[1]"])[0] == 2

    @pytest.mark.parametrize("cmd", [["member", "pow:2", "pow:1"], ["idempotent", "pow:1"]])
    def test_numeric_flag_rejected(self, cmd):
        # membership and idempotency are decided symbolically; no numeric probe
        code, _, err = run_main(["ideal", *cmd, "--numeric"])
        assert code == 2 and "unrecognized arguments: --numeric" in err

    def test_rate_base_rounding_to_one_answers(self):
        # ln((10^340 - 1)/10^340) rounds to 0.0 in float; certified logs
        # still give the least m = ceil(ln 2 / -ln(1 - 10^-340))
        big = 10 ** 340
        with decimal.localcontext(decimal.Context(prec=1000)):
            ratio = Decimal(2).ln() / -(1 - Decimal(10) ** -340).ln()
            least_m = int(ratio.to_integral_value(rounding=decimal.ROUND_CEILING))
        out = run_process(["ideal", "member", f"exp:{big - 1}/{big}", "exp:1/2", "--json"])
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        verdict = json.loads(out.stdout)["verdict"]
        assert verdict["status"] == "Holds" and verdict["method"] == "SymbolicProven"
        assert verdict["evidence"]["m"] == least_m

    # (argv, stdout): soft --numeric run to its corroboration line, on a
    # non-soft and a soft generator
    SOFT_NUMERIC = [
        (["ideal", "soft", "pow:1", "--numeric"],
         "NOT SOFT (SymbolicProven)\n"
         "  xi_signature: rate=1, pow=1, logpow=0\n"
         "  eta_signature: rate=1, pow=1, logpow=0\n"
         "  mode: o\n"
         "  reason: equal signatures; ratio does not tend to zero\n"
         "  limiting_ratio: 1/2\n"
         "  k: 2\n"
         "  criterion: subsampled generator little-o of generator\n"
         "numeric corroboration: Fails (NumericIndicated)\n"),
        (["ideal", "soft", "exp:1/2", "--numeric", "--nmax", "4096"],
         "SOFT (SymbolicProven)\n"
         "  rule: strict signature dominance\n"
         "  xi_signature: rate=1/4, pow=0, logpow=0\n"
         "  eta_signature: rate=1/2, pow=0, logpow=0\n"
         "  mode: o\n"
         "  k: 2\n"
         "  criterion: subsampled generator little-o of generator\n"
         "numeric corroboration: Holds (NumericIndicated)\n"),
    ]

    @pytest.mark.parametrize("argv,stdout", SOFT_NUMERIC, ids=["pow-1", "exp-1/2"])
    def test_soft_numeric_table(self, argv, stdout):
        assert run_main(argv) == (0, stdout, "")
        code, out, _ = run_main(argv + ["--json"])
        payload = json.loads(out)
        assert payload["numeric"]["evidence"]["mode"] == "o"
        assert payload["verdict"]["evidence"]["k"] == 2

    def test_json_report_is_valid(self):
        code, out, _ = run_main(["ideal", "soft", "pow:1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["verdict"]["status"] == "Fails"


class TestExactRates:
    # rates whose exact powers run to millions of digits; the timeout
    # catches a comparison that builds them
    @pytest.mark.parametrize(
        "rate,m",
        [
            ("999999/1000000", 693147),
            ("99999999/100000000", 69314718),
            ("999999999999/1000000000000", 693147180560),
        ],
    )
    def test_near_one_membership_least_m(self, rate, m):
        # least m = ceil(ln 2 / -ln(rate))
        out = run_process(["ideal", "member", f"exp:{rate}", "exp:1/2", "--json"])
        assert out.returncode == 0, out.stderr
        verdict = json.loads(out.stdout)["verdict"]
        assert verdict["status"] == "Holds" and verdict["evidence"]["m"] == m

    def test_close_ampliations_compare(self):
        out = run_process(["seq", "compare", "--mode", "O", "amp:1000000000000;exp:1/2",
                            "amp:999999999999;exp:1/2", "--json"])
        assert out.returncode == 0, out.stderr
        verdict = json.loads(out.stdout)["verdict"]
        assert verdict["status"] == "Fails"
        assert verdict["evidence"]["reason"] == "xi decays strictly slower"

    @pytest.mark.parametrize(
        "sequence,rate",
        [
            ("sub:100000000;exp:1/2", "2^(-100000000)"),
            ("prod(amp:1000003;exp:1/3,amp:1000033;exp:1/5)", "3^(-1/1000003)*5^(-1/1000033)"),
            # an exponent past the float range: its size is estimated as infinite
            pytest.param(f"sub:1{'0' * 400};exp:1/3", f"3^(-1{'0' * 400})", id="sub-1e400"),
        ],
    )
    def test_signature_past_the_digit_limit(self, sequence, rate):
        out = run_process(["seq", "signature", sequence, "--json"])
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["sequence"] == sequence
        assert payload["signature"] == f"rate={rate}, pow=0, logpow=0"


def _timed_run(argv):
    """run_process, after the same call within 1 s in this process, which leaves
    out interpreter start-up and imports that a loaded machine can slow."""
    run_main(argv, budget=1)
    return run_process(argv)


BIG = str(10 ** 4299)  # 4300 digits: the most a written rational may have


class TestPastTheDigitLimit:
    # exact evidence whose text form would pass the interpreter's digit
    # limit falls back to floats; the timeout catches a build of the power

    @pytest.mark.parametrize(
        "argv",
        [
            ["seq", "delta2", "pow:10000000000"],
            ["seq", "compare", "--mode", "O", "amp:1000;pow:100000000", "pow:100000000"],
            ["seq", "compare", "--mode", "O", f"scale:{BIG};pow:1", f"scale:1/{BIG};pow:1"],
        ],
        ids=["delta2", "amp", "scale-ratio"],
    )
    def test_limiting_ratio_overflows_to_inf(self, argv):
        out = _timed_run(argv + ["--json"])
        assert out.returncode == 0, out.stderr
        verdict = json.loads(out.stdout)["verdict"]
        assert verdict["status"] == "Holds" and verdict["method"] == "SymbolicProven"
        assert verdict["evidence"]["limiting_ratio"] == "inf"

    @pytest.mark.parametrize(
        "xi,eta",
        [
            ("amp:10;pow:5000", "amp:10;pow:5000"),
            ("prod(amp:10;pow:5000,sub:10;pow:5000)", "pow:10000"),
        ],
        ids=["equal", "cancelling"],
    )
    def test_cancelling_scales_give_an_exact_ratio(self, xi, eta):
        out = _timed_run(["seq", "compare", "--mode", "O", xi, eta, "--json"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["verdict"]["evidence"]["limiting_ratio"] == "1"

    def test_report_on_a_huge_power(self):
        out = _timed_run(["ideal", "report", "pow:10000000000", "--json"])
        assert out.returncode == 0, out.stderr
        def statuses(report):
            return {k: v["status"] for k, v in report.items() if isinstance(v, dict)}

        small = json.loads(run_main(["ideal", "report", "pow:10", "--json"])[1])
        assert statuses(json.loads(out.stdout)) == statuses(small)

    def test_scale_run_up_to_the_digit_cap_answers(self):
        out = _timed_run(["seq", "signature", "scale:10;" * 4299 + "pow:1"])
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "signature: rate=1, pow=1, logpow=0"

    test_scale_run_past_the_digit_cap_is_bad_input = staticmethod(table_test(SCALE_RUNS))

    @pytest.mark.parametrize("order", ["xi", "eta"])
    def test_subsampled_exponential_log_underflows(self, order):
        huge = f"sub:1{'0' * 400};exp:1/2"
        xi, eta = (huge, "exp:1/2") if order == "xi" else ("exp:1/2", huge)
        out = run_process(["seq", "compare", "--mode", "o", "--numeric", xi, eta, "--json"])
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["verdict"] == json.loads(
            run_process(["seq", "compare", "--mode", "o", xi, eta, "--json"]).stdout
        )["verdict"]
        assert payload["verdict"]["status"] == ("Holds" if order == "xi" else "Fails")
        numeric = payload["numeric"]
        if order == "eta":
            assert numeric["status"] == "Unknown"
            assert "underflows" in numeric["evidence"]["notes"][0]
        assert numeric["evidence"].get("reason") != "division by zero tail"


_NINES = "9" * MAX_RATIONAL_DIGITS  # the largest integer a rational may be written with
_MARKER = f"[more than {MAX_RATIONAL_DIGITS} digits]"


class TestReportValuesPastTheCap:
    # valid input whose report holds a number past the digit cap: the number
    # prints as the marker, in the text and in the JSON report
    @pytest.mark.parametrize("sequence", [
        f"prod(pow:{_NINES},pow:{_NINES})",  # pow sums to 4301 digits
        f"prod(pow:1/{_NINES},pow:1/{_NINES[:-1]}8)",  # denominators multiply
    ], ids=["pow-sum", "denominator-product"])
    def test_signature(self, sequence):
        code, out, _ = run_main(["seq", "signature", sequence])
        assert code == 0
        assert out == f"signature: rate=1, pow={_MARKER}, logpow=0\n"

    def test_report(self):
        code, out, _ = run_main(["ideal", "report", f"prod(pow:{_NINES},pow:{_NINES})", "--json"])
        assert code == 0
        assert json.loads(out)["soft"]["evidence"]["xi_signature"] == (
            f"rate=1, pow={_MARKER}, logpow=0")

    @pytest.mark.parametrize("argv,key", [
        (["seq", "compare", "--mode", "O", f"amp:{_NINES};finite:[1,1]", "finite:[1]"],
         "xi_support"),
        (["ideal", "member", f"amp:{_NINES};finite:[1,1]", "finite-rank"], "support"),
    ], ids=["compare", "member"])
    def test_support(self, argv, key):
        code, out, _ = run_main(argv)
        assert code == 0 and f"  {key}: {_MARKER}\n" in out
        code, out, _ = run_main(argv + ["--json"])
        assert code == 0
        assert json.loads(out)["verdict"]["evidence"][key] == _MARKER


_CAP = 10 ** MAX_RATIONAL_DIGITS - 1  # the largest integer within the digit cap
_HALF = 10 ** 2200
_NOT_COMPUTED = f"more than {MAX_RATIONAL_DIGITS} digits; not computed"


def _atanh_inverse(k: int, scale: int) -> tuple:
    """(atanh(1/k) * scale rounded down term by term, a bound on its error)."""
    total, power, n = 0, k, 1
    while power <= scale:
        total += scale // (n * power)
        power *= k * k
        n += 2
    return total, n


def _least_m_for_cap_rates() -> int:
    """ceil(t) for t = _CAP·ln 3 / (10·ln 2), from integer series for
    ln 2 = 2 atanh(1/3) and ln 3 = ln 2 + 2 atanh(1/5), both bounded."""
    scale = 10 ** (MAX_RATIONAL_DIGITS + 40)
    a3, e3 = _atanh_inverse(3, scale)
    a5, e5 = _atanh_inverse(5, scale)
    ln2, ln3, err = 2 * a3, 2 * (a3 + a5), 2 * (e3 + e5)
    lo = -(-_CAP * (ln3 - err) // (10 * (ln2 + err)))
    hi = -(-_CAP * (ln3 + err) // (10 * (ln2 - err)))
    assert lo == hi
    return lo


class TestRatesAtTheDigitCap:
    # each number below is written out in full and fits the cap; a least
    # ampliation index past the cap is neither computed nor printed
    @staticmethod
    def _json(argv):
        out = run_process(argv + ["--json"], timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    @staticmethod
    def _member(sequence, ideal, xi, gen, mode, m):
        return {
            "command": "ideal member", "ideal": ideal, "schema_version": "1",
            "sequence": sequence,
            "verdict": {"method": "SymbolicProven", "status": "Holds", "evidence": {
                "generator_signature": f"rate={gen}, pow=0, logpow=0", "m": m, "mode": mode,
                "rule": "ampliated-rate dominance", "xi_signature": f"rate={xi}, pow=0, logpow=0",
            }},
        }

    def test_rate_next_to_one_at_the_cap(self):
        n = 10 ** (MAX_RATIONAL_DIGITS - 1)
        sequence = f"amp:{n};exp:{n - 1}/{n}"
        assert self._json(["ideal", "member", sequence, "exp:1/2"]) == self._member(
            sequence, "exp:1/2", f"({n - 1}/{n})^(1/{n})", "1/2", "O", _NOT_COMPUTED)

    def test_soft_edge_index_one_past_the_cap(self):
        sequence, ideal = f"amp:{_CAP};exp:1/2", "idealprod(exp:1/2,compact)"
        assert self._json(["ideal", "member", sequence, ideal]) == self._member(
            sequence, ideal, f"(1/2)^(1/{_CAP})", "1/2", "o", _NOT_COMPUTED)

    def test_index_within_the_cap_is_printed(self):
        sequence = f"amp:{_CAP};exp:1/2"
        assert self._json(["ideal", "member", sequence, "amp:10;exp:1/3"]) == self._member(
            sequence, "amp:10;exp:1/3", f"(1/2)^(1/{_CAP})", "(1/3)^(1/10)", "O",
            _least_m_for_cap_rates())

    def test_exponent_past_the_cap_is_not_printed(self):
        sequence = f"amp:{_HALF};prod(amp:{_HALF};exp:1/2,exp:1/3)"
        assert self._json(["seq", "signature", sequence]) == {
            "command": "seq signature", "finite_support": False, "schema_version": "1",
            "sequence": sequence,
            "signature": f"rate=2^([more than {MAX_RATIONAL_DIGITS} digits])*3^(-1/{_HALF}), "
                         "pow=0, logpow=0",
        }

    test_fused_index_past_the_cap_is_bad_input = staticmethod(table_test(FUSED_INDICES))


class TestFileRationals:
    @pytest.fixture
    def sl2(self, tmp_path):
        path = str(tmp_path / "sl2.json")
        run_main(["lie", "build", "sl", "--n", "2", "-o", path])
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _one_written_with(digits):
        # 1 as a decimal whose numerator has 1 + digits digits
        return "1." + "0" * digits

    @pytest.mark.parametrize(
        "digits,code", [(MAX_RATIONAL_DIGITS - 1, 0), (MAX_RATIONAL_DIGITS, 2)],
        ids=["at-cap", "over-cap"],
    )
    def test_algebra_rational_digit_cap(self, sl2, tmp_path, digits, code):
        entry = sl2["basis"][0].index(1)
        sl2["basis"][0][entry] = self._one_written_with(digits)
        path = str(tmp_path / "padded.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sl2, fh)
        got, out, err = run_main(["lie", "check-closure", "--file", path])
        assert got == code
        if code == 0:
            assert "CLOSED" in out
        else:
            assert err.startswith("error: ")

    def test_algebra_rational_exponent_refused(self, sl2, tmp_path):
        sl2["basis"][0][0] = "1e50000000"
        path = str(tmp_path / "exponent.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sl2, fh)
        out = run_process(["lie", "check-closure", "--file", path])
        assert out.returncode == 2 and out.stderr.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "value,code",
        [
            ("1e50000000", 2),
            ("0." + "0" * (MAX_RATIONAL_DIGITS - 1), 0),
            ("0." + "0" * MAX_RATIONAL_DIGITS, 2),
        ],
        ids=["exponent", "at-cap", "over-cap"],
    )
    def test_certificate_value(self, tmp_path, value, code):
        cert_file = str(tmp_path / "cert.json")
        run_main(["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                 "-o", cert_file])
        with open(cert_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["first_nonzero"]["value"] = value
        with open(cert_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = run_process(["witness", "verify", "--file", cert_file])
        assert out.returncode == code
        if code == 0:
            # zero is not the stored commutator weight
            assert "REJECTED" in out.stdout
        else:
            assert out.stderr.splitlines()[-1].startswith("error: ")


class TestLieCommands:
    def test_unknown_kind_lists_the_kinds(self):
        code, _, err = run_main(["lie", "build", "nope", "--n", "3"])
        assert code == 2
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(repr(kind) in err[0] for kind in [*_KINDS, "shift"])

    def test_build_check_simple_flow(self, tmp_path):
        algebra_file = str(tmp_path / "sp2.json")
        code, out, _ = run_main(["lie", "build", "sp", "--n", "2", "-o", algebra_file])
        assert code == 0 and "dim 10" in out
        code, out, _ = run_main(["lie", "check-closure", "--file", algebra_file])
        assert code == 0 and "CLOSED" in out
        code, out, _ = run_main(["lie", "simple", "--file", algebra_file])
        assert code == 0 and out.startswith("SIMPLE")
        code, out, _ = run_main(["lie", "killing", "--file", algebra_file])
        assert code == 0 and "nondegenerate" in out

    def test_skew_variant_audit_flow(self, tmp_path):
        algebra_file = str(tmp_path / "lit2.json")
        assert run_main(["lie", "build", "sp-skew", "--n", "2", "-o", algebra_file])[0] == 0
        code, out, _ = run_main(["lie", "check-closure", "--file", algebra_file, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] is False
        assert payload["counterexample"]["pair"] == [4, 7]
        # simplicity on a non-closed presentation is a user error
        assert run_main(["lie", "simple", "--file", algebra_file])[0] == 2

    def test_derived_and_ideal_gen(self, tmp_path):
        algebra_file = str(tmp_path / "ut3.json")
        run_main(["lie", "build", "ut-sl", "--n", "3", "-o", algebra_file])
        code, out, _ = run_main(["lie", "derived", "--file", algebra_file])
        assert code == 0 and "dim 3 of 5" in out
        seeds_file = str(tmp_path / "seeds.json")
        with open(seeds_file, "w", encoding="utf-8") as fh:
            json.dump({"elements": [[0, 0, 1, 0, 0, 0, 0, 0, 0]]}, fh)
        code, out, _ = run_main(
            ["lie", "ideal-gen", "--file", algebra_file, "--seeds", seeds_file]
        )
        assert code == 0 and "dim 1 of 5" in out

    def test_simple_with_cross_check(self, tmp_path):
        algebra_file = str(tmp_path / "sl2.json")
        run_main(["lie", "build", "sl", "--n", "2", "-o", algebra_file])
        code, out, _ = run_main(
            ["lie", "simple", "--file", algebra_file, "--cross-check", "25", "--seed", "1"]
        )
        assert code == 0 and "no proper ideal found" in out

    def test_shift_build_requires_weights(self, tmp_path):
        assert run_main(["lie", "build", "shift", "--n", "4"])[0] == 2
        algebra_file = str(tmp_path / "shift.json")
        code, out, _ = run_main(
            ["lie", "build", "shift", "--n", "4", "--weights", "pow:1", "-o", algebra_file]
        )
        assert code == 0

    def test_missing_file_exit_two(self):
        assert run_main(["lie", "simple", "--file", "/nonexistent.json"])[0] == 2

    def test_report_value_past_the_digit_cap_prints_the_marker(self, tmp_path):
        # sl(2) with E and F scaled by 10^3000: each entry has 3001 digits,
        # within a file's cap, but the Killing entry K(E, F) is 4 * 10^6000
        big = 10 ** 3000
        algebra_file, report_file = str(tmp_path / "sl2big.json"), str(tmp_path / "k.json")
        with open(algebra_file, "w", encoding="utf-8") as fh:
            json.dump({"name": "sl2big", "ambient_dim": 2,
                       "basis": [[0, big, 0, 0], [0, 0, big, 0], [1, 0, 0, -1]]}, fh)
        marker = f"[more than {MAX_RATIONAL_DIGITS} digits]"
        expected = {
            "schema_version": "1", "command": "lie killing", "name": "sl2big", "rank": 3,
            "dim": 3, "nondegenerate": True,
            "matrix": [[0, marker, 0], [marker, 0, 0], [0, 0, 8]],
        }
        argv = ["lie", "killing", "--file", algebra_file]
        code, out, _ = run_main(argv + ["--json"])
        assert code == 0 and json.loads(out) == expected
        assert run_main(argv + ["-o", report_file]) == (
            0, "Killing form rank 3 of 3 (nondegenerate)\n", "")
        with open(report_file, encoding="utf-8") as fh:
            assert json.load(fh) == expected

    def test_build_name_overrides_the_presentation_name(self, tmp_path):
        algebra_file = str(tmp_path / "tri.json")
        argv = ["lie", "build", "ut-sl", "--n", "2", "--name", "tri", "-o", algebra_file]
        assert run_main(argv) == (0, f"built tri: ambient 2, dim 2\nwrote {algebra_file}\n", "")
        with open(algebra_file, encoding="utf-8") as fh:
            assert json.load(fh) == {"name": "tri", "ambient_dim": 2,
                                     "basis": [[1, 0, 0, -1], [0, 1, 0, 0]]}
        payload = json.loads(run_main(argv[:-2] + ["--json"])[1])
        assert payload["algebra"]["name"] == "tri" and payload["dim"] == 2

    # sha256 of the whole `lie simple --json` stdout, or of `lie ideal-gen
    # --json` when a seed {basis index: coefficient} is given.  The benchmark
    # oracle accepts either summand as the witness, so only these digests
    # catch a changed witness, commutant basis or coordinate.  ut-sl(6) and
    # strictly-upper(5) pin witnesses of the derived-algebra rung; the two
    # seeds, one inside the sp(3) summand and one mixed, pin coordinates read
    # off the closure scan's echelon.
    @pytest.mark.parametrize(
        "algebra,seed,digest",
        [
            (direct_sum(sp_standard(3), sp_standard(2)), None,
             "4ba034fdfea7a354831e5c8816cd50fc1a0ea398f641f4c0df56762fdafbe9da"),
            (direct_sum(sl(2), sl(3)), None,
             "58920d6ced3814aa7cf2bdc6d3f96333740d0167b708cc61947a7bd3f004e9fc"),
            (direct_sum(direct_sum(sl(2), sl(2)), sl(2)), None,
             "7c6e469573580aac0ddb9e745ba6aab881bd9128925543ab16743797e850cabb"),
            (direct_sum(sp_standard(5), sp_standard(5)), None,
             "777c36cd8fbc92513bf4931d8357812fc020c5a116ba5a1a0639ede629bcb807"),
            (make_algebra("ut-sl", 6), None,
             "f3919dc7fbeb67acc83b2838073c0c451f4e318da6ab30d7131809a8187a3e44"),
            (make_algebra("strictly-upper", 5), None,
             "a0ccae8a40209fadeffde9f0340d69a426ae3f10c7ed601ec086a71f8d9abd7c"),
            (direct_sum(sp_standard(3), sp_standard(2)), {2: 1, 7: -3, 15: 2},
             "cc78287c86edbc5cf230239de2ab0fb46dfbd1290948260127ece46f3a83fdeb"),
            (direct_sum(sp_standard(3), sp_standard(2)), {4: 1, 25: 5},
             "9c46cc052886dbdaaa91cbeb43513070101523ccce25a69e2c38a80cbbdee823"),
        ],
        ids=["sp3+sp2", "sl2+sl3", "sl2+sl2+sl2", "sp5+sp5", "ut-sl6", "strictly-upper5",
             "ideal-gen-sp3+sp2-summand", "ideal-gen-sp3+sp2-mixed"],
    )
    def test_simple_json_bytes_pinned(self, tmp_path, algebra, seed, digest):
        algebra_file = str(tmp_path / "algebra.json")
        save_algebra(algebra, algebra_file)
        argv = ["lie", "simple", "--file", algebra_file, "--json"]
        if seed is not None:
            flats = [algebra.basis[k].flat() for k in seed]
            element = [sum(c * flat[i] for c, flat in zip(seed.values(), flats))
                       for i in range(algebra.ambient ** 2)]
            seeds_file = str(tmp_path / "seeds.json")
            with open(seeds_file, "w", encoding="utf-8") as fh:
                json.dump({"elements": [[str(v) for v in element]]}, fh)
            argv[1:2] = ["ideal-gen", "--seeds", seeds_file]
        code, out, _ = run_main(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitnessCommands:
    def test_build_verify_flow(self, tmp_path):
        cert_file = str(tmp_path / "cert.json")
        code, out, _ = run_main(
            [
                "witness", "build",
                "--generator", "pow:1",
                "--partner", "pow:2",
                "-o", cert_file,
            ]
        )
        assert code == 0
        assert "index 1, value 1/4" in out
        code, out, _ = run_main(["witness", "verify", "--file", cert_file])
        assert code == 0 and out.startswith("VERIFIED")

    def test_window_defaults_to_the_library_default(self):
        argv = ["witness", "build", "--generator", "pow:1", "--partner", "pow:2", "--json"]
        certs = [json.loads(run_main(argv + extra)[1])["certificate"]
                 for extra in ([], ["--window", str(DEFAULT_SCAN_WINDOW)])]
        assert certs[0]["scan_window"] == DEFAULT_SCAN_WINDOW
        assert certs[0] == certs[1]

    def test_build_gate_exit_two(self):
        assert run_main(["witness", "build", "--generator", "exp:1/2",
                         "--partner", "pow:2"])[0] == 2

    def test_verify_rejects_tampered_file(self, tmp_path):
        cert_file = str(tmp_path / "cert.json")
        run_main(["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                 "-o", cert_file])
        with open(cert_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["first_nonzero"]["value"] = "1/3"
        with open(cert_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, out, _ = run_main(["witness", "verify", "--file", cert_file])
        assert code == 0 and "REJECTED" in out


    @pytest.mark.parametrize(
        "flag,value,code",
        [
            ("--truncation", MIN_TRUNCATION, 0),
            ("--truncation", MIN_TRUNCATION - 1, 2),
            ("--truncation", MAX_TRUNCATION, 0),
            ("--truncation", MAX_TRUNCATION + 1, 2),
            ("--window", MAX_SCAN_WINDOW, 0),
            ("--window", MAX_SCAN_WINDOW + 1, 2),
            ("--window", 1, 0),
            ("--window", 0, 2),
        ],
    )
    def test_size_limits(self, flag, value, code):
        # a proportional partner gives the central branch: no matrix, no scan
        got, _, err = run_main(["witness", "build", "--generator", "pow:1",
                                "--partner", "scale:3;pow:1", flag, str(value)])
        assert got == code
        if code == 2:
            assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "partner,truncation",
        [(f"exp:1/{10 ** 340}", 1024), ("sub:1000000;exp:99999999/100000000", 3)],
        ids=["tiny-base", "near-one-subsampled"],
    )
    def test_weight_bits_limit_refuses_quickly(self, partner, truncation):
        # weight 1024 of the first has about 1.16 million bits, weight 3 of
        # the second about 160 million: neither is built
        out = run_process(["witness", "build", "--generator", "pow:1", "--partner",
                            partner, "--truncation", str(truncation)])
        assert out.returncode == 2
        assert out.stderr.splitlines()[-1].startswith("error: ")
        assert "exceeds the limit" in out.stderr

    @pytest.mark.parametrize("field", ["truncation", "scan_window"])
    def test_verify_rejects_file_over_limit(self, field, tmp_path):
        cert_file = str(tmp_path / "cert.json")
        run_main(["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                 "-o", cert_file])
        with open(cert_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if field == "truncation":
            payload["generator"]["truncation"] = MAX_TRUNCATION + 1
        else:
            payload["scan_window"] = MAX_SCAN_WINDOW + 1
        with open(cert_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        code, _, err = run_main(["witness", "verify", "--file", cert_file])
        assert code == 2
        assert err.startswith("error: ") and "exceeds the limit" in err


    # sha256 of the whole stdout of `witness build --json` and of `witness
    # verify --json` on the file it wrote, for a commutator certificate (a
    # commuting pool entry before the partner) and both central modes
    @pytest.mark.parametrize(
        "args,build_digest,verify_digest",
        [
            (["--partner", "scale:3;pow:1", "--partner", "pow:2", "--truncation", "16"],
             "e72cc04788df5bdb1e9ad230afe8bf90cc21dfe5538efad75dbab5fdd3d5f0e2",
             "376631bcc6bc3d9ab10d31b6c01e9509093aeba60d54a847e67302782bbd43f1"),
            (["--partner", "scale:3;pow:1", "--partner", "scale:1/7;pow:1", "--truncation", "8"],
             "0554d1659176e4a8a1938598cc8eb3b92f29fc15fe60e20602751293509f80f7",
             "aed4e0f20e1affb62941ffefeea9c9ea5841a8f6fe22ee10aff37090f8c683f3"),
            (["--partner", "exp:1/2", "--window", "1", "--truncation", "8"],
             "a25e0fb542d4ee138353ad4e2485a4244c90cfb2bb925e2d985ca9ccd422b8d2",
             "aed4e0f20e1affb62941ffefeea9c9ea5841a8f6fe22ee10aff37090f8c683f3"),
        ],
        ids=["commutator", "central-structural", "central-window"],
    )
    def test_json_bytes_pinned(self, tmp_path, args, build_digest, verify_digest):
        cert_file = str(tmp_path / "cert.json")
        code, out, _ = run_main(["witness", "build", "--generator", "pow:1", *args, "--json",
                             "-o", cert_file])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == build_digest
        code, out, _ = run_main(["witness", "verify", "--file", cert_file, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == verify_digest

    @pytest.mark.parametrize("window", [0, -5])
    def test_verify_refuses_a_scan_window_below_one(self, window, tmp_path, monkeypatch):
        # the central certificate that an unchecked window built: its scan
        # saw no commutator weight, so it proved nothing
        cert_file = str(tmp_path / "cert.json")
        with monkeypatch.context() as patch:
            patch.setattr(witness, "_check_limits", lambda models, scan_window: None)
            cert = witness.build_certificate(witness.ShiftModel(Pow(1)),
                                             [witness.ShiftModel(Pow(2))], window)
        assert cert.branch == "central"
        witness.save_certificate(cert, cert_file)
        assert run_main(["witness", "verify", "--file", cert_file]) == (
            2, "", f"error: scan window {window} is below the minimum 1\n")


class TestDeterminism:
    COMMANDS = [
        ["seq", "signature", "prod(exp:1/2,pow:3)", "--json"],
        ["seq", "compare", "--mode", "o", "pow:1", "amp:3;pow:1", "--json"],
        ["seq", "compare", "--mode", "O", "exp:1/2", "pow:1", "--numeric", "--json"],
        # the zero weight's log is -inf
        ["seq", "compare", "--mode", "O", "--numeric", "finite:[1,0]", "finite:[1]", "--json"],
        ["seq", "delta2", "powlog:1,1", "--json"],
        ["ideal", "soft", "pow:1", "--json"],
        ["ideal", "member", "exp:1/2", "exp:1/4", "--json"],
        ["ideal", "idempotent", "exp:1/2", "--json"],
        ["ideal", "report", "pow:2", "--json"],
    ]

    def test_repeated_runs_byte_identical(self):
        for argv in self.COMMANDS:
            first = run_main(argv)
            second = run_main(argv)
            assert first == second

    def test_json_reports_round_trip(self):
        for argv in self.COMMANDS:
            code, out, _ = run_main(argv)
            assert code == 0
            parsed = json.loads(out)
            again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
            assert again == out

    def test_seeded_cross_check_deterministic(self, tmp_path):
        algebra_file = str(tmp_path / "sl2.json")
        run_main(["lie", "build", "sl", "--n", "2", "-o", algebra_file])
        argv = ["lie", "simple", "--file", algebra_file, "--cross-check", "10",
                "--seed", "5", "--json"]
        assert run_main(argv) == run_main(argv)

    # sha256 of the files that -o writes, taken while each writer still
    # opened its file itself: an algebra, a certificate, and a report that
    # duplicates --json stdout
    def test_written_files_pinned(self, tmp_path):
        algebra, cert, report = (tmp_path / f"{name}.json" for name in ("sp2", "cert", "report"))
        for argv, path, digest in [
            (["lie", "build", "sp", "--n", "2"], algebra,
             "055903df335e494be2f19f42affedc248f31383eb0d590578a58abf4e39cbb79"),
            (["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
              "--truncation", "16"], cert,
             "81191dfb32ed9a8791a7494ea2bf38aa825b215367fecbda150e1bd27375a8d1"),
            (["lie", "simple", "--file", str(algebra), "--json"], report,
             "5c897b7312d406bf758c6b824cd6bd154c901dedc080ca0699a3d525cb6320b8"),
        ]:
            code, out, _ = run_main([*argv, "-o", str(path)])
            assert code == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, argv
        assert out.encode() == report.read_bytes()


class TestTopLevel:
    def test_no_arguments_prints_help(self):
        code, out, _ = run_main([])
        assert code == 2
        assert "idealkit" in out

    def test_explicit_nmax_reaches_probe(self):
        code, out, _ = run_main(
            ["seq", "compare", "--mode", "O", "pow:2", "pow:1", "--numeric",
             "--nmax", "4096", "--json"]
        )
        assert code == 0
        assert json.loads(out)["numeric"]["evidence"]["n_max"] == 4096

    def test_nmax_zero_is_user_error(self):
        code, _, err = run_main(
            ["seq", "compare", "--mode", "O", "pow:2", "pow:1", "--numeric", "--nmax", "0"]
        )
        assert code == 2
        assert "n_max must be at least" in err

    def test_output_file_duplicate_report(self, tmp_path):
        out_file = str(tmp_path / "report.json")
        code, out, _ = run_main(["ideal", "soft", "pow:1", "--json", "-o", out_file])
        assert code == 0
        with open(out_file, "r", encoding="utf-8") as fh:
            assert json.load(fh)["verdict"]["status"] == "Fails"


# sha256 of "exit code, newline, stdout, NUL, stderr" of the CLI at 80
# columns, taken before the parser was built for the called group only:
# top-level, group and leaf help, and usage errors in every group.  The
# leaf help and usage texts were taken again when --strict was removed, and
# differ from the earlier ones only by its lines.  The digests are of
# CPython 3.11's argparse text.
PARSER_TEXT = [
    ([],
     "c3ebe102137ad744e2aeabf61c7ae8e3245aa01ad21bbd34f775faa1f6b7f4de"),
    (["--help"],
     "1e9550c3583fbed48f5da0814ae789d1378a5dc279c8a039739cfeb9d0683dd0"),
    (["seq", "--help"],
     "641463db88893074aecb373035e8e93247d2bfaedc9e01dc668410da14709530"),
    (["ideal", "--help"],
     "8661f89c7d46d712d2fcd7c32bae93980b6580693f49b25851bb952bef2a6b84"),
    (["lie", "--help"],
     "17b24d7d0a933069e7614bc127deea0300d1c04d5f05e8340038e1c79590570d"),
    (["witness", "--help"],
     "8f0e173dcc019f4bd7b26228d0877adefa7b3baa83c8d3c24363cb79d5fded7f"),
    (["seq", "compare", "--help"],
     "f10facab9870ea178f90db8d1e8f7e1e2d42cb2065c0309968e0ec830cf721ec"),
    (["ideal", "member", "--help"],
     "72761c7e395777bb2da65f242fd84ec8877256655e25d5cd151270cf0cd81220"),
    (["lie", "simple", "--help"],
     "7a82c512270faa4d46770592ecc97b3806bcdda50510d851175d8f4edc27bcbe"),
    (["witness", "build", "--help"],
     "36ed4e7f4f94d060f099b53b2abe734af0d1529d978f415ec360b7e80d84893a"),
    (["seq", "compare", "pow:1", "pow:2"],
     "eeceef4e865d4c306ac272ebceb32292913fa0cfa8a06d9202944b1c4d1835bc"),
    (["ideal", "member", "pow:1"],
     "219c854b9dade088862e355745d9a5f62eb60aa34b049c7c2aa6881049a5bb93"),
    (["lie", "simple"],
     "ba546b043e131fba185f3f89007de3d089a8f4a7144449f07d5dbb556d81411f"),
    (["witness", "build"],
     "49a0ae9c428ee098066e228ccf741893c6b76faa81706323605ef232a45d1d9f"),
    (["nope"],
     "488ad492cf669f1ad5a6dbb3db9fc380c545e3c86595c19303fe32fe3379d81b"),
    (["lie", "nope"],
     "8ecde6746354ee21409c1b587f84677e3174af71aef5f41212eec858037b80c0"),
    (["lie"],
     "59cda95ad275be5dd440331ff452bb84518b05fe9e58b22e54378e46b57e007c"),
    (["-h", "lie"],
     "1e9550c3583fbed48f5da0814ae789d1378a5dc279c8a039739cfeb9d0683dd0"),
]
_PARSER_TEXT_IDS = [" ".join(argv) or "no-args" for argv, _ in PARSER_TEXT]


class TestParserText:
    @pytest.mark.parametrize("argv,digest", PARSER_TEXT, ids=_PARSER_TEXT_IDS)
    def test_help_and_usage_text_pinned(self, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")
        text = "{}\n{}\0{}".format(*run_main(argv))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


_CALLS = [(group, cmd) for group, (_, commands) in cli._COMMANDS.items() for cmd in commands]


@pytest.mark.parametrize("group,cmd", _CALLS, ids=[" ".join(call) for call in _CALLS])
def test_strict_flag_is_a_usage_error(group, cmd):
    """No command takes --strict; a call given it is a usage error (exit 2)."""
    argv = [group, cmd]
    for flags, kwargs in cli._COMMANDS[group][1][cmd][1]:
        if not flags[0].startswith("-"):
            argv.append("pow:1")
        elif kwargs.get("required"):
            argv += [flags[0], kwargs.get("choices", ["1"])[0]]
    assert cli._strict_parse(argv) is not None  # a complete call without it
    code, _, err = run_main(argv + ["--strict"])
    assert code == 2 and "unrecognized arguments: --strict" in err


test_usage_error_prints_one_short_error_line = table_test(USAGE_ERRORS)


def test_module_run_has_no_runpy_warning():
    out = run_process(["seq", "signature", "pow:1"])
    assert out.returncode == 0
    assert "RuntimeWarning" not in out.stderr


# Runs idealkit.cli the way ``python -m`` does, then prints to stderr how
# many distinct module objects in sys.modules were loaded from cli.py.
_MODULE_RUN_PROBE = """
import os, runpy, sys
sys.argv = ["-m", "seq", "signature", "pow:1"]
try:
    runpy._run_module_as_main("idealkit.cli")
except SystemExit as _probe_exit:
    _probe_code = _probe_exit.code
_probe_file = os.path.join("idealkit", "cli.py")
print(len({id(m) for m in list(sys.modules.values())
           if (getattr(m, "__file__", None) or "").endswith(_probe_file)}), file=sys.stderr)
sys.exit(_probe_code)
"""


def test_module_run_imports_cli_once():
    """Run as ``python -m idealkit.cli``, cli is never imported a second
    time, since no group module imports it, and one module object holds its
    code."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_RUN_PROBE],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (out.returncode, out.stdout) == (0, "signature: rate=1, pow=1, logpow=0\n")
    assert out.stderr.splitlines()[-1] == "1"


# Runs cli.main once, with the argv list in argv[1] (JSON; null reads
# sys.argv), and prints how many atexit callbacks the call registered.
_EXIT_FREEZE_PROBE = """
import atexit, io, json, sys
from contextlib import redirect_stdout
from idealkit import cli

argv = json.loads(sys.argv[1])
sys.argv = ["idealkit", "seq", "signature", "pow:1"]
before = atexit._ncallbacks()
with redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
print(atexit._ncallbacks() - before)
"""


@pytest.mark.parametrize("argv,registered", [
    (None, 1),
    (["seq", "signature", "pow:1"], 0),
])
def test_exit_freeze_only_for_command_line_calls(argv, registered):
    """main() reading sys.argv registers gc.freeze at exit; main(argv), the
    library and test entry, leaves atexit (and so gc) untouched."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _EXIT_FREEZE_PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{registered}\n"


def test_witness_build_file_is_complete_after_exit(tmp_path):
    path = tmp_path / "cert.json"
    out = run_process(["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                        "--truncation", "16", "-o", str(path)])
    assert out.returncode == 0, out.stderr
    cert = witness.load_certificate(str(path))
    assert cert.branch == "commutator"
    assert witness.verify_certificate(cert).holds


def test_package_import_reaches_submodules():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = "import idealkit; print(idealkit.catalog.sl(3).dim)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "8"


# Imports idealkit and idealkit.cli in a fresh interpreter, then runs the CLI
# calls given as JSON in argv[1], and prints the idealkit submodules in
# sys.modules after the package import, after the cli import and after the
# calls, with which of numpy, dataclasses, inspect, argparse, gettext and
# locale are loaded at the end.
_IMPORT_MAP_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("idealkit."))

import idealkit
package = loaded()
from idealkit import cli
after_cli = loaded()
with redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert cli.main(argv) == 0, argv
heavy = [m for m in ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")
         if m in sys.modules]
print(json.dumps({"package": package, "cli": after_cli, "calls": loaded(), "heavy": heavy}))
"""


def test_cli_import_leaves_numpy_out(tmp_path):
    """Each kind of call, in its own fresh interpreter, imports exactly the
    layers it runs, and none of them loads numpy, dataclasses or inspect, or
    argparse with its gettext and locale: a successful call never needs it."""
    cert, algebra = str(tmp_path / "cert.json"), str(tmp_path / "sl2.json")
    kinds = {  # in order: lie-build writes the file lie-simple reads
        "lie-build": ([["lie", "build", "sl", "--n", "2", "-o", algebra]],
                      ["base", "catalog", "cli", "cli_lie", "matlie", "ratlinalg"]),
        "lie-simple": ([["lie", "simple", "--file", algebra]],
                       ["base", "cli", "cli_lie", "matlie", "ratlinalg"]),
        "seq": ([["seq", "signature", "pow:1"]], ["base", "cli", "cli_seq", "dsl", "rates",
                                                   "seqspace"]),
        "ideal": ([["ideal", "member", "pow:2", "pow:1"]],
                  ["base", "cli", "cli_ideal", "dsl", "idealcalc", "rates", "seqspace"]),
        "witness": ([["witness", "build", "--generator", "pow:1", "--partner", "pow:2",
                      "-o", cert],
                     ["witness", "verify", "--file", cert]],
                    ["base", "cli", "cli_witness", "dsl", "idealcalc", "rates", "ratlinalg",
                     "seqspace", "witness"]),
    }
    env = dict(os.environ, PYTHONPATH=SRC)
    for kind, (calls, expected) in kinds.items():
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_MAP_PROBE, json.dumps(calls)],
            env=env, capture_output=True, text=True, check=True,
        )
        probe = json.loads(out.stdout)
        assert probe["package"] == [], kind
        assert probe["cli"] == ["base", "cli"], kind
        assert probe["calls"] == expected, kind
        assert probe["heavy"] == [], kind


def test_low_interpreter_digit_limit_is_lifted_to_the_cap():
    argv = ["seq", "signature", "pow:" + "1" * 1000]
    default = run_process(argv)
    low = run_process(argv, PYTHONINTMAXSTRDIGITS="640")
    assert default.returncode == 0, default.stderr
    assert (low.returncode, low.stdout, low.stderr) == (0, default.stdout, "")
