"""Machine-checkable non-simplicity certificates for weighted-shift models.

The logical core: if the principal ideal of an element T is provably not
soft, the algebra around T cannot be simple, because the Lie ideal generated
by any nonzero commutator [T, S] never reaches back to T (membership would
force T into the soft edge of its own ideal), and if T commutes with
everything then its scalar span is already a proper ideal.  Weighted shifts
make the commutator exactly computable from weight sequences: for forward
shifts with weights w and v, [T_w, T_v] is a two-step shift with weights
a_n = v_n * w_{n+1} - w_n * v_{n+1}.

A certificate stores the generator, the softness verdict, the chosen
partner (or the recorded pool when everything commutes), the first nonzero
commutator weight, and finite truncation evidence.  Verification re-derives
every obligation from stored data alone.  The truncations corroborate; they
are never claimed to prove the infinite-dimensional statement by themselves.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence

from . import dsl
from .base import MAX_RATIONAL_DIGITS, Frozen, InputError, fits_digit_cap, parse_rational
from .idealcalc import Principal, is_soft
from .ratlinalg import RationalMatrix, bracket
from .seqspace import (
    Ampliation,
    Exp,
    Explicit,
    FiniteSupport,
    Method,
    Pow,
    Product,
    Scale,
    SequenceExpr,
    Status,
    Subsample,
    Verdict,
    ensure_valid,
    eval_at,
    has_exact_eval,
    support,
)

__all__ = [
    "Certificate",
    "CertificateError",
    "MAX_SCAN_WINDOW",
    "MAX_TRUNCATION",
    "MAX_WEIGHT_BITS",
    "MIN_TRUNCATION",
    "ShiftBracket",
    "ShiftModel",
    "build_certificate",
    "certificate_from_json",
    "certificate_to_json",
    "load_certificate",
    "save_certificate",
    "shift_bracket",
    "shift_matrix",
    "verify_certificate",
]

SCHEMA_VERSION = "1"
DEFAULT_SCAN_WINDOW = 1024
# Limits on sizes read from the command line or a certificate file.  The
# truncation check holds N exact weights per matrix: linear in N for power
# weights (about 1 s at the limit on a 2-core x86_64 VM), but the k-th
# weight of exp:1/2 has k bits, so there it grows as N^2 (about 3 s and
# 120 MB at the limit).  The scan evaluates up to scan_window commutator
# weights and stores none of them.
MIN_TRUNCATION = 3
MAX_TRUNCATION = 1 << 14
MAX_SCAN_WINDOW = 1 << 16
# Limit on N times the bits (numerator plus denominator) of the N-th weight
# of a model truncated at N, which sizes the exact weights the truncation
# check multiplies: at the limit a build or verify takes about 0.7 s of CLI
# wall time on a 2-core x86_64 VM.  The bits are read off the expression, so
# an oversized weight is refused without being built.
MAX_WEIGHT_BITS = 1 << 23

OBLIGATION_NOT_FINITE_RANK = "generator_not_finite_rank"
OBLIGATION_NOT_SOFT = "generator_ideal_not_soft_symbolic"
OBLIGATION_COMMUTATOR = "commutator_nonzero_at_first_index"
OBLIGATION_TRUNCATION = "truncation_bracket_matches_formula_window"
OBLIGATION_POOL_CENTRAL = "pool_commutators_all_zero"


class CertificateError(InputError):
    """Certificate cannot be built or decoded."""


class ShiftModel(Frozen):
    """Forward weighted shift (basis vector n goes to weight(n) times vector
    n+1) together with a truncation size for finite evidence."""

    def __init__(self, weights: SequenceExpr, truncation: int = 64):
        vars(self).update(weights=weights, truncation=truncation)


def shift_matrix(model: ShiftModel) -> RationalMatrix:
    """N x N truncation: weight i at entry (i+1, i), 1-based."""
    ensure_valid(model.weights)
    if not has_exact_eval(model.weights):
        raise CertificateError("shift model needs exactly evaluable weights")
    n = model.truncation
    return RationalMatrix.from_nonzeros(
        n, n, {(i, i - 1): eval_at(model.weights, i) for i in range(1, n)}
    )


class ShiftBracket(Frozen):
    """Commutator of two forward shifts: a two-step shift with weights
    a_n = v_n * w_{n+1} - w_n * v_{n+1}."""

    # first_nonzero: (index, exact value), or None for AllZero; proven_zero:
    # True for structural proportionality, False for a window scan only
    def __init__(self, w: SequenceExpr, v: SequenceExpr, first_nonzero: Optional[tuple],
                 proven_zero: bool, window: int):
        vars(self).update(w=w, v=v, first_nonzero=first_nonzero, proven_zero=proven_zero,
                          window=window)

    @property
    def all_zero(self) -> bool:
        return self.first_nonzero is None

    def weight_at(self, n: int) -> Fraction:
        a = eval_at(self.v, n) * eval_at(self.w, n + 1)
        b = eval_at(self.w, n) * eval_at(self.v, n + 1)
        return a - b


def _strip_scale(expr: SequenceExpr) -> SequenceExpr:
    while isinstance(expr, Scale):
        expr = expr.inner
    return expr


def shift_bracket(
    w: SequenceExpr, v: SequenceExpr, window: int = DEFAULT_SCAN_WINDOW
) -> ShiftBracket:
    """Exact commutator weights of two shifts, with the least nonzero index.

    Proportional weight sequences commute identically (detected structurally
    after stripping scale factors); otherwise the weights are scanned on a
    finite window, and an all-zero scan is reported as AllZero with the
    window recorded.
    """
    ensure_valid(w)
    ensure_valid(v)
    if not (has_exact_eval(w) and has_exact_eval(v)):
        raise CertificateError("shift brackets need exactly evaluable weights")
    br = ShiftBracket(w, v, None, False, window)
    if _strip_scale(w) == _strip_scale(v):
        return ShiftBracket(w, v, None, True, window)
    for n in range(1, window + 1):
        val = br.weight_at(n)
        if val != 0:
            return ShiftBracket(w, v, (n, val), False, window)
    return br


class Certificate(Frozen):
    """Self-contained non-simplicity witness for a shift model."""

    # branch: "commutator" | "central"; pool: all ShiftModel partners
    # considered; obligations: ((name, bool), ...); central_mode, central
    # branch only: "structural" when every pool commutator vanishes by
    # proportionality, "window" when vanishing was checked on the scan window
    def __init__(self, schema_version: str, generator: ShiftModel, softness: Verdict,
                 branch: str, partner: Optional[ShiftModel], pool: tuple,
                 first_index: Optional[int], first_value: Optional[Fraction],
                 scan_window: int, obligations: tuple, conclusion: str,
                 central_mode: Optional[str] = None):
        vars(self).update(schema_version=schema_version, generator=generator,
                          softness=softness, branch=branch, partner=partner, pool=pool,
                          first_index=first_index, first_value=first_value,
                          scan_window=scan_window, obligations=obligations,
                          conclusion=conclusion, central_mode=central_mode)

    def obligation(self, name: str) -> Optional[bool]:
        for key, ok in self.obligations:
            if key == name:
                return ok
        return None


def _truncation_window_agrees(t: ShiftModel, s: ShiftModel, br: ShiftBracket) -> bool:
    """Matrix bracket of the truncations versus the closed formula: every
    stored nonzero must sit at (i+1, i-1), and each interior index
    i = 1..N-2 must carry the formula's weight there.  Those indices are all
    the positions (i+1, i-1) of an N x N matrix, so a product that is wrong
    anywhere fails the check."""
    n = t.truncation
    a = bracket(shift_matrix(t), shift_matrix(ShiftModel(s.weights, n))).nonzeros()
    if any(r != c + 2 for r, c in a):
        return False
    return all(a.get((i + 1, i - 1), 0) == br.weight_at(i) for i in range(1, n - 1))


def _check_limits(models: Sequence[ShiftModel], scan_window: int) -> None:
    """Refuse a truncation outside its bounds, or a weight size or scan
    window above its limit, before any work."""
    for model in models:
        n = model.truncation
        if n < MIN_TRUNCATION:
            raise CertificateError(f"truncation {n} is below the minimum {MIN_TRUNCATION}")
        if n > MAX_TRUNCATION:
            raise CertificateError(f"truncation {n} exceeds the limit {MAX_TRUNCATION}")
        if has_exact_eval(model.weights):
            bits = _weight_bits(model.weights, n)
            if n * bits > MAX_WEIGHT_BITS:
                raise CertificateError(
                    f"truncation {n} times the {bits} bits of weight {n} exceeds "
                    f"the limit {MAX_WEIGHT_BITS}"
                )
    if scan_window > MAX_SCAN_WINDOW:
        raise CertificateError(f"scan window {scan_window} exceeds the limit {MAX_SCAN_WINDOW}")


def _power_bits(x: int, k: int) -> int:
    """Bits of x ** k for an integer x >= 1, read off log2(x): exact when x
    is a power of two, otherwise at most one too many.  Past the weight
    limit, k alone bounds them from below, which is all the check needs."""
    if x == 1:
        return 1
    if k > MAX_WEIGHT_BITS:
        return k
    return math.floor(k * math.log2(x) * (1 + 2 ** -40)) + 1


def _rational_bits(f: Fraction) -> int:
    return f.numerator.bit_length() + f.denominator.bit_length()


def _weight_bits(expr: SequenceExpr, n: int) -> int:
    """Bits of the numerator plus the denominator of the exactly evaluable
    weight n, or a little more (a product's factors are counted before they
    cancel), computed without building the weight."""
    if isinstance(expr, Pow):
        return 1 + _power_bits(n, expr.p.numerator)
    if isinstance(expr, Exp):
        return _power_bits(expr.r.numerator, n) + _power_bits(expr.r.denominator, n)
    if isinstance(expr, FiniteSupport):
        return _rational_bits(eval_at(expr, n))
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        if n <= k:
            return _rational_bits(expr.prefix[n - 1])
        return max(_rational_bits(expr.prefix[-1]), _weight_bits(expr.tail, n - k))
    if isinstance(expr, Scale):
        return _rational_bits(expr.c) + _weight_bits(expr.inner, n)
    if isinstance(expr, Ampliation):
        return _weight_bits(expr.inner, (n + expr.m - 1) // expr.m)
    if isinstance(expr, Subsample):
        return _weight_bits(expr.inner, n * expr.k)
    if isinstance(expr, Product):
        return _weight_bits(expr.left, n) + _weight_bits(expr.right, n)
    raise TypeError(type(expr).__name__)


def build_certificate(
    generator: ShiftModel, pool: Sequence[ShiftModel], scan_window: int = DEFAULT_SCAN_WINDOW
) -> Certificate:
    """Assemble a certificate for the shift model, refusing unless the
    non-softness hypothesis is symbolically proven."""
    _check_limits([generator, *pool], scan_window)
    # Round-trip all weights through their text form first, so every decision
    # below is made on exactly the structures the certificate will store.
    generator = ShiftModel(
        dsl.parse_seq(dsl.format_seq(generator.weights)), generator.truncation
    )
    pool = [
        ShiftModel(dsl.parse_seq(dsl.format_seq(s.weights)), s.truncation) for s in pool
    ]
    soft = is_soft(Principal(generator.weights))
    if not (soft.fails and soft.proven):
        raise CertificateError(
            "hypothesis gate: the generator's principal ideal must be proven "
            f"not soft, got {soft.status.value} ({soft.method.value})"
        )
    if support(generator.weights) is not None:
        raise CertificateError("hypothesis gate: the generator must have infinite rank")
    if not has_exact_eval(generator.weights):
        raise CertificateError("certificates need exactly evaluable generator weights")

    obligations = [
        (OBLIGATION_NOT_FINITE_RANK, True),
        (OBLIGATION_NOT_SOFT, True),
    ]
    pool_brackets = []
    for s in pool:
        br = shift_bracket(generator.weights, s.weights, scan_window)
        pool_brackets.append(br)
        if not br.all_zero:
            index, value = br.first_nonzero
            if not fits_digit_cap(value):  # a certificate file could not hold it
                raise CertificateError(f"commutator weight {index} has more than "
                                       f"{MAX_RATIONAL_DIGITS} digits in its numerator or "
                                       "denominator")
            agrees = _truncation_window_agrees(generator, s, br)
            obligations.append((OBLIGATION_COMMUTATOR, True))
            obligations.append((OBLIGATION_TRUNCATION, agrees))
            if not agrees:
                raise CertificateError("truncation bracket disagrees with the weight formula")
            return Certificate(
                schema_version=SCHEMA_VERSION,
                generator=generator,
                softness=soft,
                branch="commutator",
                partner=s,
                pool=tuple(pool),
                first_index=index,
                first_value=value,
                scan_window=scan_window,
                obligations=tuple(obligations),
                conclusion=(
                    "the Lie ideal generated by the commutator A = [T, S] is "
                    "nonzero and does not contain T, so no Lie algebra "
                    "containing T and S is simple"
                ),
            )
    obligations.append((OBLIGATION_POOL_CENTRAL, True))
    mode = "structural" if all(br.proven_zero for br in pool_brackets) else "window"
    how = (
        "proportional weights, proven for every index"
        if mode == "structural"
        else f"verified on the first {scan_window} commutator weights only"
    )
    return Certificate(
        schema_version=SCHEMA_VERSION,
        generator=generator,
        softness=soft,
        branch="central",
        partner=None,
        pool=tuple(pool),
        first_index=None,
        first_value=None,
        scan_window=scan_window,
        obligations=tuple(obligations),
        conclusion=(
            "T commutes with every partner in the recorded pool "
            f"({how}); in any Lie algebra where T is central, span(T) is a "
            "proper nonzero Lie ideal (this certificate is conditional on "
            "the recorded pool)"
        ),
        central_mode=mode,
    )


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-derive every obligation from stored data; Holds only if all pass."""
    failures: List[str] = []

    if cert.schema_version != SCHEMA_VERSION:
        return Verdict(
            Status.FAILS,
            cert.softness.method,
            {"failed_obligation": "schema_version", "found": cert.schema_version},
        )

    # (a) softness: the stored verdict must claim a symbolically proven
    # failure, and the re-derivation must agree
    soft = is_soft(Principal(cert.generator.weights))
    stored_ok = (
        cert.softness.status is Status.FAILS
        and cert.softness.method is Method.SYMBOLIC
    )
    if not (stored_ok and soft.fails and soft.proven):
        failures.append(OBLIGATION_NOT_SOFT)
    if support(cert.generator.weights) is not None:
        failures.append(OBLIGATION_NOT_FINITE_RANK)

    if cert.branch == "commutator":
        if cert.partner is None or cert.first_index is None or cert.first_value is None:
            failures.append(OBLIGATION_COMMUTATOR)
        else:
            br = ShiftBracket(
                cert.generator.weights, cert.partner.weights, None, False, cert.scan_window
            )
            # (b) stored value is exact, nonzero, and genuinely the first
            value = br.weight_at(cert.first_index)
            if value == 0 or value != cert.first_value:
                failures.append(OBLIGATION_COMMUTATOR)
            elif any(br.weight_at(n) != 0 for n in range(1, cert.first_index)):
                failures.append(OBLIGATION_COMMUTATOR)
            # (c) truncated bracket window
            if not _truncation_window_agrees(cert.generator, cert.partner, br):
                failures.append(OBLIGATION_TRUNCATION)
    elif cert.branch == "central":
        modes = []
        for s in cert.pool:
            br = shift_bracket(cert.generator.weights, s.weights, cert.scan_window)
            if not br.all_zero:
                failures.append(OBLIGATION_POOL_CENTRAL)
                break
            modes.append("structural" if br.proven_zero else "window")
        else:
            recomputed = "structural" if all(m == "structural" for m in modes) else "window"
            if cert.central_mode != recomputed:
                failures.append(OBLIGATION_POOL_CENTRAL)
    else:
        failures.append("branch")

    # (d) checklist complete and affirmative
    required = {OBLIGATION_NOT_FINITE_RANK, OBLIGATION_NOT_SOFT}
    if cert.branch == "commutator":
        required |= {OBLIGATION_COMMUTATOR, OBLIGATION_TRUNCATION}
    else:
        required |= {OBLIGATION_POOL_CENTRAL}
    recorded = {name for name, _ in cert.obligations}
    if not required <= recorded or any(not ok for _, ok in cert.obligations):
        failures.append("obligation_checklist")

    if failures:
        return Verdict(
            Status.FAILS,
            soft.method,
            {"failed_obligation": failures[0], "all_failures": failures},
        )
    return Verdict(
        Status.HOLDS,
        soft.method,
        {"branch": cert.branch, "obligations": [name for name, _ in cert.obligations]},
    )


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------


def _shift_to_json(model: ShiftModel) -> dict:
    return {"weights": dsl.format_seq(model.weights), "truncation": model.truncation}


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema_version": cert.schema_version,
        "generator": _shift_to_json(cert.generator),
        "softness": cert.softness.to_json(),
        "branch": cert.branch,
        "partner": None if cert.partner is None else _shift_to_json(cert.partner),
        "pool": [_shift_to_json(s) for s in cert.pool],
        "first_nonzero": None
        if cert.first_index is None
        else {"index": cert.first_index, "value": str(cert.first_value)},
        "scan_window": cert.scan_window,
        "obligations": [{"name": name, "passed": ok} for name, ok in cert.obligations],
        "conclusion": cert.conclusion,
        "central_mode": cert.central_mode,
    }


def _shift_from_json(obj: dict) -> ShiftModel:
    return ShiftModel(dsl.parse_seq(obj["weights"]), int(obj["truncation"]))


def certificate_from_json(obj: dict) -> Certificate:
    try:
        version = obj["schema_version"]
        if version != SCHEMA_VERSION:
            raise CertificateError(f"unknown certificate schema version: {version!r}")
        soft_obj = obj["softness"]
        softness = Verdict(
            Status(soft_obj["status"]),
            Method(soft_obj["method"]),
            soft_obj.get("evidence", {}),
        )
        first = obj["first_nonzero"]
        cert = Certificate(
            schema_version=version,
            generator=_shift_from_json(obj["generator"]),
            softness=softness,
            branch=obj["branch"],
            partner=None if obj["partner"] is None else _shift_from_json(obj["partner"]),
            pool=tuple(_shift_from_json(s) for s in obj["pool"]),
            first_index=None if first is None else int(first["index"]),
            first_value=None if first is None else parse_rational(str(first["value"])),
            scan_window=int(obj["scan_window"]),
            obligations=tuple(
                (entry["name"], bool(entry["passed"])) for entry in obj["obligations"]
            ),
            conclusion=obj["conclusion"],
            central_mode=obj.get("central_mode"),
        )
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    partner = [] if cert.partner is None else [cert.partner]
    _check_limits([cert.generator, *partner, *cert.pool], cert.scan_window)
    if first is not None and not 1 <= cert.first_index <= cert.scan_window:
        raise CertificateError(
            f"first nonzero index {cert.first_index} lies outside 1..{cert.scan_window}"
        )
    return cert


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_json(json.load(fh))
