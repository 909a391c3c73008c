"""Closed-form known answers for every benchmark call.

Nothing here imports idealkit.  Each check takes the parsed ``--json``
report of one call and returns None when the answer is right, or a short
reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# A float ratio closer than this to an integer is not trusted to decide
# where the ceiling lands; generators reject such draws.
RATIO_MARGIN = 1e-6
SYMBOLIC = "SymbolicProven"


# ---------------------------------------------------------------------------
# Sequence and ideal calculus
# ---------------------------------------------------------------------------


def _ln(f: Fraction) -> float:
    if abs(f - 1) < Fraction(1, 2):
        return math.log1p((f.numerator - f.denominator) / f.denominator)
    return math.log(f.numerator) - math.log(f.denominator)


def ampliation_ratio(a: Fraction, b: Fraction):
    """(ln b / ln a, whether a float ceiling of it can be trusted)."""
    ratio = _ln(b) / _ln(a)
    return ratio, abs(ratio - round(ratio)) >= RATIO_MARGIN


def ampliation_index(a: Fraction, b: Fraction, soft_edge: bool) -> int:
    """Least m with exp:a in the ideal of exp:b (soft edge: its product with
    the compact ideal).  Big-O holds once b**(1/m) >= a, i.e. m >= ln b / ln a;
    little-o needs strict inequality, one more step when the ratio is an
    integer."""
    ratio, clear = ampliation_ratio(a, b)
    if clear:
        return max(1, math.ceil(ratio))
    j = round(ratio)
    if not (1 <= j <= 64 and a ** j == b):
        raise ValueError(f"ln({b}) / ln({a}) is too close to an integer to decide")
    return j + 1 if soft_edge else j


def _status(report, key="verdict"):
    v = report.get(key) or {}
    return v.get("status"), v.get("method")


def check_signature(report, p):
    want = f"rate={p['rate']}, pow={p['pow']}, logpow={p['logpow']}"
    if report.get("signature") != want:
        return f"signature {report.get('signature')!r}, expected {want!r}"
    if report.get("finite_support") is not False:
        return "infinite-support sequence reported as finite support"
    return None


def check_compare(report, p):
    holds = p["p"] >= p["q"] if p["mode"] == "O" else p["p"] > p["q"]
    want = "Holds" if holds else "Fails"
    if _status(report) != (want, SYMBOLIC):
        return f"verdict {_status(report)}, expected ({want}, {SYMBOLIC})"
    if p.get("numeric"):
        got = _status(report, "numeric")
        if got != (want, "NumericIndicated"):
            return f"numeric probe {got}, expected ({want}, NumericIndicated)"
    return None


def check_delta2(report, p):
    want = "Holds" if p["rate_one"] else "Fails"
    if _status(report) != (want, SYMBOLIC):
        return f"verdict {_status(report)}, expected ({want}, {SYMBOLIC})"
    if p["rate_one"] and p["pow"].denominator == 1:
        ratio = report["verdict"]["evidence"].get("limiting_ratio")
        if ratio != str(2 ** p["pow"].numerator):
            return f"limiting ratio {ratio!r}, expected {2 ** p['pow'].numerator}"
    return None


def check_soft(report, p):
    # pow generators are never soft; exp generators always are.
    want = "Fails" if p["rate_one"] else "Holds"
    if _status(report) != (want, SYMBOLIC):
        return f"verdict {_status(report)}, expected ({want}, {SYMBOLIC})"
    return None


check_idempotent = check_soft  # same dichotomy: pow no, exp yes


def check_report(report, p):
    pow_like = p["rate_one"]
    want = {
        "delta2": "Holds" if pow_like else "Fails",
        "soft": "Fails" if pow_like else "Holds",
        "idempotent": "Fails" if pow_like else "Holds",
        "necessary_condition": "Fails" if pow_like else "Holds",
    }
    for key, status in want.items():
        if _status(report, key) != (status, SYMBOLIC):
            return f"{key} {_status(report, key)}, expected ({status}, {SYMBOLIC})"
    if not all(f.get("consistent") for f in report.get("implication_flags", [])):
        return "implication flagged inconsistent"
    return None


def check_member(report, p):
    m = ampliation_index(p["a"], p["b"], p["soft_edge"])
    if _status(report) != ("Holds", SYMBOLIC):
        return f"verdict {_status(report)}, expected (Holds, {SYMBOLIC})"
    got = report["verdict"]["evidence"].get("m")
    if got != m:
        return f"ampliation index {got}, expected {m}"
    return None


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


def sp_dim(n: int) -> int:
    """dim sp(2n) = n(2n+1)."""
    return n * (2 * n + 1)


def sl_dim(n: int) -> int:
    return n * n - 1


def derived_dim(family: str, n: int) -> int:
    """[b, b] of trace-zero upper triangular is strictly upper triangular;
    [n, n] of strictly upper triangular drops the superdiagonal."""
    if family == "ut-sl":
        return n * (n - 1) // 2
    if family == "strictly-upper":
        return (n - 1) * (n - 2) // 2
    raise ValueError(family)


_FAMILY_DIMS = {
    "sp": sp_dim,
    "sl": sl_dim,
    "ut-sl": lambda n: n - 1 + n * (n - 1) // 2,
    "strictly-upper": lambda n: n * (n - 1) // 2,
    "sp-skew": lambda n: 2 * n * n,
}


def algebra_dim(family: str, n: int) -> int:
    """Closed-form dimension of a catalog algebra; "sum" is sp(6) + sp(4)."""
    if family == "sum":
        return sp_dim(3) + sp_dim(2)
    return _FAMILY_DIMS[family](n)


def _trace_product(x, y, amb: int) -> Fraction:
    return sum(
        (x[i * amb + k] * y[k * amb + i] for i in range(amb) for k in range(amb)
         if x[i * amb + k] and y[k * amb + i]),
        Fraction(0),
    )


def killing_closed_form(family: str, n: int, algebra):
    """K(x, y) = 2n tr(xy) on sl(n) and (2n+2) tr(xy) on sp(2n)."""
    amb, basis = algebra
    c = 2 * n if family == "sl" else 2 * n + 2
    return [[c * _trace_product(x, y, amb) for y in basis] for x in basis]


def check_lie_simple(report, p):
    if report.get("verdict") != p["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {p['verdict']!r}"
    witness = report.get("witness")
    if p["verdict"] == "Simple":
        if report.get("commutant_dim") != 1 or witness is not None:
            return "Simple verdict without commutant dimension 1"
        return None
    if witness is None or witness.get("dim") not in p["witness_dims"]:
        got = None if witness is None else witness.get("dim")
        return f"witness dim {got}, expected one of {p['witness_dims']}"
    if "commutant_dim" in p and report.get("commutant_dim") != p["commutant_dim"]:
        return f"commutant dim {report.get('commutant_dim')}, expected {p['commutant_dim']}"
    return None


def check_closure(report, p):
    if report.get("closed") is not p["closed"]:
        return f"closed {report.get('closed')!r}, expected {p['closed']!r}"
    if not p["closed"] and not report.get("counterexample"):
        return "no counterexample for a non-closed basis"
    return None


def check_killing(report, p):
    want = p["matrix"]
    got = [[Fraction(v) for v in row] for row in report.get("matrix", [])]
    if got != want:
        return "Killing matrix differs from the closed form c * tr(xy)"
    if report.get("rank") != len(want) or report.get("nondegenerate") is not True:
        return f"Killing rank {report.get('rank')}, expected {len(want)}"
    return None


def check_derived(report, p):
    got = report.get("derived", {}).get("dim")
    if got != p["dim"] or report.get("proper") is not (p["dim"] < report.get("dim", -1)):
        return f"derived dim {got}, expected {p['dim']}"
    return None


def check_ideal_gen(report, p):
    got = report.get("ideal", {}).get("dim")
    if got != p["dim"]:
        return f"generated ideal dim {got}, expected {p['dim']}"
    return None


# ---------------------------------------------------------------------------
# Weighted-shift certificates
# ---------------------------------------------------------------------------

# Weight specs: ("pow", k), ("exp", r), ("scale", c, inner), ("amp", j, inner).


def spec_text(spec) -> str:
    kind = spec[0]
    if kind == "pow":
        return f"pow:{spec[1]}"
    if kind == "exp":
        return f"exp:{spec[1]}"
    return f"{kind}:{spec[1]};{spec_text(spec[2])}"


def weight(spec, n: int) -> Fraction:
    """Closed-form weight n (1-based)."""
    kind = spec[0]
    if kind == "pow":
        return Fraction(1, n ** spec[1])
    if kind == "exp":
        return spec[1] ** n
    if kind == "scale":
        return spec[1] * weight(spec[2], n)
    if kind == "amp":
        return weight(spec[2], -(-n // spec[1]))
    raise ValueError(kind)


def _strip_scale(spec):
    while spec[0] == "scale":
        spec = spec[2]
    return spec


SCAN_WINDOW = 1024


def certificate_expectation(gen, partner) -> dict:
    """Branch and first nonzero commutator weight a_n = v_n w_{n+1} - w_n v_{n+1}."""
    if _strip_scale(gen) == _strip_scale(partner):
        return {"branch": "central", "first_nonzero": None}
    for n in range(1, SCAN_WINDOW + 1):
        a = weight(partner, n) * weight(gen, n + 1) - weight(gen, n) * weight(partner, n + 1)
        if a:
            return {"branch": "commutator", "first_nonzero": (n, a)}
    raise ValueError("partner commutes with the generator on the whole scan window")


def check_witness_build(report, p):
    cert = report.get("certificate") or {}
    if cert.get("branch") != p["branch"]:
        return f"branch {cert.get('branch')!r}, expected {p['branch']!r}"
    gen = cert.get("generator") or {}
    if gen.get("weights") != p["generator"] or gen.get("truncation") != p["truncation"]:
        return f"generator {gen}, expected {p['generator']} at truncation {p['truncation']}"
    first = cert.get("first_nonzero")
    if p["first_nonzero"] is None:
        return None if first is None else f"first nonzero {first}, expected none"
    index, value = p["first_nonzero"]
    if first is None or first.get("index") != index or Fraction(first.get("value")) != value:
        return f"first nonzero {first}, expected index {index} value {value}"
    return None


def check_witness_verify(report, p):
    if _status(report)[0] != "Holds":
        return f"verification {_status(report)}, expected Holds"
    branch = report["verdict"].get("evidence", {}).get("branch")
    if branch != p["branch"]:
        return f"verified branch {branch!r}, expected {p['branch']!r}"
    return None


CHECKS = {
    "signature": check_signature,
    "compare": check_compare,
    "delta2": check_delta2,
    "soft": check_soft,
    "idempotent": check_idempotent,
    "report": check_report,
    "member": check_member,
    "lie_simple": check_lie_simple,
    "closure": check_closure,
    "killing": check_killing,
    "derived": check_derived,
    "ideal_gen": check_ideal_gen,
    "witness_build": check_witness_build,
    "witness_verify": check_witness_verify,
}

OK, KNOWN_DEFECT, FAILED = "ok", "known_defect", "failed"


def classify(call, returncode, stdout: str, stderr: str, timed_out: bool):
    """(outcome, reason) for one finished call."""
    if timed_out:
        return FAILED, "past the per-call time limit"
    traceback = "Traceback (most recent call last)" in stderr
    if call.known_defect is not None:
        code, marker = call.known_defect
        if returncode == code and marker in stderr:
            return KNOWN_DEFECT, f"exit {code}: {marker}"
    if call.kind == "refused":
        if returncode == 2 and stderr.startswith("error:") and not traceback:
            return OK, None
        return FAILED, f"expected a refusal with exit 2, got exit {returncode}"
    if returncode != 0:
        lines = stderr.strip().splitlines()
        return FAILED, f"exit {returncode}: {lines[-1] if lines else ''}"
    if traceback:
        return FAILED, "traceback on stderr"
    try:
        report = json.loads(stdout)
    except ValueError:
        return FAILED, "stdout is not a JSON report"
    reason = CHECKS[call.kind](report, call.params)
    return (OK, None) if reason is None else (FAILED, reason)
