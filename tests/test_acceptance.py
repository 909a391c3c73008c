"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they are produced."""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction as F

from idealkit.catalog import (
    direct_sum,
    sl,
    sp_skew_variant,
    sp_standard,
    strictly_upper,
    upper_triangular_sl,
)
from idealkit.idealcalc import (
    Principal,
    implication_report,
    is_idempotent,
    member,
)
from idealkit.matlie import (
    closure_check,
    is_lie_ideal,
    is_simple,
    killing_form,
)
from idealkit.ratlinalg import bracket
from idealkit.seqspace import (
    Ampliation,
    Exp,
    Mode,
    Pow,
    Product,
    ampliate,
    compare,
    delta2_check,
    eval_log,
    exact_weights,
    numeric_probe,
)
from idealkit.witness import (
    CertificateError,
    ShiftModel,
    _lower_shift,
    build_certificate,
    verify_certificate,
)

from conftest import BATTERY, ambient_span, run_main


def _check(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def test_01_softness_dichotomy():
    t0 = time.perf_counter()
    code_soft, out_soft, _ = run_main(["ideal", "soft", "exp:1/2"])
    t1 = time.perf_counter()
    code_hard, out_hard, _ = run_main(["ideal", "soft", "pow:1"])
    t2 = time.perf_counter()
    ok = (
        code_soft == 0
        and out_soft.startswith("SOFT (SymbolicProven)")
        and code_hard == 0
        and out_hard.startswith("NOT SOFT (SymbolicProven)")
        and (t1 - t0) < 1.0
        and (t2 - t1) < 1.0
    )
    _check(1, "softness dichotomy, symbolically proven in under a second", ok)


def test_02_ampliation_ratio():
    ok = True
    for m in (2, 3, 5):
        probe = numeric_probe(Pow(1), Ampliation(m, Pow(1)), Mode.LITTLE_O, 2 ** 20, 1e-3)
        final = probe.evidence["final_ratio"]
        ok = ok and abs(final - 1 / m) <= 0.01 * (1 / m)
    _check(2, "sampled ampliation ratio within 1% of 1/m for m in {2,3,5}", ok)


def test_03_delta2():
    ok = True
    for p in (1, 2, 3):
        v = delta2_check(Pow(p))
        ok = ok and v.holds and v.proven and v.evidence["limiting_ratio"] == F(2) ** p
    for r in (F(1, 2), F(9, 10)):
        v = delta2_check(Exp(r))
        ok = ok and v.fails and v.proven
    _check(3, "dyadic ratio: exact 2**p for powers, failure for exponentials", ok)


def test_04_implication_audit():
    ok = len(BATTERY) >= 20
    for xi in BATTERY:
        try:
            rep = implication_report(xi)
        except Exception:  # any internal inconsistency fails the criterion
            ok = False
            break
        d2, soft, idem, nec = rep.delta2, rep.soft, rep.idempotent, rep.necessary
        ok = ok and not (d2.holds and soft.holds)
        ok = ok and (not idem.holds or soft.holds)
        ok = ok and (not soft.holds or nec.holds)
    _check(4, "implication chain audited on 20+ generators, zero violations", ok)


def test_05_idempotency():
    v_exp = is_idempotent(Principal(Exp(F(1, 2))))
    v_pow = is_idempotent(Principal(Pow(1)))
    ok = v_exp.holds and v_pow.fails
    # numeric oracle, bounded side: ratio against the certified ampliation
    gen = Exp(F(1, 2))
    m = v_exp.evidence["m"]
    target = ampliate(m, Product(gen, gen))
    ratios = [
        math.exp(eval_log(gen, 2 ** k) - eval_log(target, 2 ** k)) for k in range(10, 21)
    ]
    ok = ok and max(ratios) < 16
    # numeric oracle, unbounded side: at least a hundredfold growth
    gen = Pow(1)
    for m in range(1, 9):
        target = ampliate(m, Product(gen, gen))
        lo = math.exp(eval_log(gen, 2 ** 10) - eval_log(target, 2 ** 10))
        hi = math.exp(eval_log(gen, 2 ** 20) - eval_log(target, 2 ** 20))
        ok = ok and hi >= 100 * lo
    _check(5, "idempotency verdicts with bounded/unbounded numeric oracles", ok)


def test_06_symplectic_simplicity():
    t0 = time.perf_counter()
    ok = True
    for n, dim in ((1, 3), (2, 10), (3, 21)):
        algebra = sp_standard(n)
        ok = ok and algebra.dim == dim
        ok = ok and killing_form(algebra).rank == dim
        rep = is_simple(algebra)
        ok = ok and rep.verdict == "Simple" and rep.commutant_dim == 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _check(6, f"symplectic algebras simple at dims 3/10/21 in {elapsed:.2f}s", ok)


def test_07_skew_variant_closure_audit():
    report = closure_check(sp_skew_variant(2))
    ok = not report.closed and report.residual is not None
    ok = ok and bool(report.residual.nonzeros())
    # the residual genuinely escapes the span: adjoining it raises the rank
    algebra = sp_skew_variant(2)
    ok = ok and len(ambient_span([*algebra.basis, report.residual])) == algebra.dim + 1
    ok = ok and closure_check(sp_standard(2)).closed
    _check(7, "skew-variant constraint set fails closure; standard symplectic passes", ok)


def test_08_triangular_counterexample():
    ut4 = upper_triangular_sl(4)
    rep = is_simple(ut4)
    ok = (
        rep.verdict == "NotSimple"
        and rep.witness is not None
        and rep.witness.dim == 6
        and ambient_span(rep.witness) == ambient_span(strictly_upper(4).basis)
        and is_lie_ideal(ut4, rep.witness).is_ideal
    )
    _check(8, "triangular algebra not simple; witness is the nilpotent part", ok)


def test_09_sanity_oracle():
    ok = is_simple(sl(2)).verdict == "Simple"
    ok = ok and is_simple(sl(3)).verdict == "Simple"
    ds = direct_sum(sl(2), sl(2))
    rep = is_simple(ds)
    ok = (
        ok
        and rep.verdict == "NotSimple"
        and rep.witness is not None
        and 0 < rep.witness.dim < ds.dim
        and is_lie_ideal(ds, rep.witness).is_ideal
    )
    _check(9, "special linear algebras simple; a two-summand sum is not", ok)


def test_10_certificate():
    cert = build_certificate(ShiftModel(Pow(1), 64), [ShiftModel(Pow(2), 64)])
    ok = cert.first_index == 1 and cert.first_value == F(1, 4)
    ok = ok and verify_certificate(cert).holds
    # truncation window agreement at N = 64, checked here directly
    t = _lower_shift(exact_weights(Pow(1), 64))
    s = _lower_shift(exact_weights(Pow(2), 64))
    a = bracket(t, s)
    for i in range(1, 63):
        expected = F(1, i ** 2 * (i + 1) ** 2)
        ok = ok and a.entries[i + 1][i - 1] == expected
    try:
        build_certificate(ShiftModel(Exp(F(1, 2)), 64), [ShiftModel(Pow(2), 64)])
        gate = False
    except CertificateError:
        gate = True
    ok = ok and gate
    _check(10, "certificate round trip, exact first weight 1/4, hypothesis gate", ok)


def test_11_characteristic_set_properties():
    cases = 0
    ok = True
    for xi in BATTERY:
        for m in range(1, 9):
            cases += 1
            ok = ok and member(ampliate(m, xi), Principal(xi)).holds
    for zeta in BATTERY:
        for xi in BATTERY:
            if compare(zeta, xi, Mode.BIG_O).holds:
                cases += 1
                ok = ok and member(zeta, Principal(xi)).holds
    ok = ok and cases >= 500
    _check(11, f"ampliation invariance and hereditary membership, {cases} cases", ok)


def test_12_determinism(tmp_path):
    algebra_file = str(tmp_path / "sp2.json")
    run_main(["lie", "build", "sp", "--n", "2", "-o", algebra_file])
    suite = [
        ["seq", "signature", "prod(exp:1/2,pow:3)", "--json"],
        ["seq", "compare", "--mode", "o", "pow:1", "amp:2;pow:1", "--json"],
        ["seq", "compare", "--mode", "O", "exp:1/2", "pow:1", "--numeric", "--json"],
        ["seq", "delta2", "pow:2", "--json"],
        ["ideal", "soft", "pow:1", "--json"],
        ["ideal", "member", "exp:1/2", "exp:1/4", "--json"],
        ["ideal", "idempotent", "pow:1", "--json"],
        ["ideal", "report", "powlog:1,1", "--json"],
        ["lie", "check-closure", "--file", algebra_file, "--json"],
        ["lie", "simple", "--file", algebra_file, "--cross-check", "10", "--seed", "42",
         "--json"],
        ["witness", "build", "--generator", "pow:1", "--partner", "pow:2", "--json"],
    ]
    ok = True
    for argv in suite:
        first = run_main(argv)
        second = run_main(argv)
        ok = ok and first == second and first[0] == 0
        json.loads(first[1])  # every report is valid JSON
    _check(12, "repeated runs produce byte-identical JSON under a fixed seed", ok)
