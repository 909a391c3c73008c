"""Machine-checkable non-simplicity certificates for weighted-shift models.

The logical core: if the principal ideal of an element T is provably not
soft, the algebra around T cannot be simple, because the Lie ideal generated
by any nonzero commutator [T, S] never reaches back to T (membership would
force T into the soft edge of its own ideal), and if T commutes with
everything then its scalar span is already a proper ideal.  Weighted shifts
make the commutator exactly computable from weight sequences: for forward
shifts with weights w and v, [T_w, T_v] is a two-step shift with weights
a_n = v_n * w_{n+1} - w_n * v_{n+1}.

A certificate stores the generator, its softness verdict, a pool of partners,
the first of them that does not commute (if any) with its first nonzero
commutator weight, and finite truncation evidence.  Verification re-derives
the whole certificate from the generator, pool and scan window alone and
compares every stored field.  The truncations corroborate; they are never
claimed to prove the infinite-dimensional statement by themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from . import dsl
from .base import (MAX_RATIONAL_DIGITS, Frozen, InputError, fits_digit_cap, parse_rational,
                   read_json, typed)
from .idealcalc import Principal, is_soft
from .ratlinalg import RationalMatrix, bracket
from .seqspace import (
    Method,
    SequenceExpr,
    Status,
    Verdict,
    check_weight_bits,
    ensure_valid,
    eval_at,
    exact_weights,
    has_exact_eval,
    support,
    unscaled,
)

__all__ = [
    "Certificate",
    "CertificateError",
    "MAX_SCAN_WINDOW",
    "MAX_TRUNCATION",
    "MIN_TRUNCATION",
    "ShiftModel",
    "build_certificate",
    "certificate_from_json",
    "certificate_to_json",
    "load_certificate",
    "shift_bracket",
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

OBLIGATION_NOT_FINITE_RANK = "generator_not_finite_rank"
OBLIGATION_NOT_SOFT = "generator_ideal_not_soft_symbolic"
OBLIGATION_COMMUTATOR = "commutator_nonzero_at_first_index"
OBLIGATION_TRUNCATION = "truncation_bracket_matches_formula_window"
OBLIGATION_POOL_CENTRAL = "pool_commutators_all_zero"
# The obligations each branch proves, in the order a certificate records them.
_OBLIGATIONS = {
    "commutator": (OBLIGATION_NOT_FINITE_RANK, OBLIGATION_NOT_SOFT, OBLIGATION_COMMUTATOR,
                   OBLIGATION_TRUNCATION),
    "central": (OBLIGATION_NOT_FINITE_RANK, OBLIGATION_NOT_SOFT, OBLIGATION_POOL_CENTRAL),
}


class CertificateError(InputError):
    """Certificate cannot be built or decoded."""


class ShiftModel(Frozen):
    """Forward weighted shift (basis vector n goes to weight(n) times vector
    n+1) together with a truncation size for finite evidence."""

    def __init__(self, weights: SequenceExpr, truncation: int = 64):
        vars(self).update(weights=weights, truncation=truncation)


def _lower_shift(weights: list) -> RationalMatrix:
    n = len(weights) + 1
    return RationalMatrix.from_nonzeros(n, n, {(i, i - 1): x for i, x in enumerate(weights, 1)})


def _commutator_weight(w_n, w_next, v_n, v_next):
    """Weight n of the two-step shift [T_w, T_v], from weights n and n + 1
    of w and v: a_n = v_n * w_{n+1} - w_n * v_{n+1}."""
    return v_n * w_next - w_n * v_next


def shift_bracket(w: SequenceExpr, v: SequenceExpr, window: int = DEFAULT_SCAN_WINDOW):
    """The least index of a nonzero commutator weight of two shifts, as
    (index, exact value); otherwise the certificate's central mode:
    "structural" for proportional weight sequences, which commute
    identically (detected after stripping scale factors), or "window" when
    the weights 1..window scan to zero.  Before the scan passes each power
    of two n, both sequences must meet the weight-size limit at 2n, which
    bounds every weight the scan evaluates up to there.
    """
    ensure_valid(w)
    ensure_valid(v)
    # exactness first: it is refused before the proportional shortcut and any size refusal
    if not (has_exact_eval(w) and has_exact_eval(v)):
        raise CertificateError("shift brackets need exactly evaluable weights")
    if unscaled(w) == unscaled(v):
        return "structural"
    for n in range(1, window + 1):
        if n & (n - 1) == 0:
            check_weight_bits(w, 2 * n, CertificateError, "scan index")
            check_weight_bits(v, 2 * n, CertificateError, "scan index")
        val = _commutator_weight(eval_at(w, n), eval_at(w, n + 1), eval_at(v, n),
                                 eval_at(v, n + 1))
        if val != 0:
            return n, val
    return "window"


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


def _truncation_window_agrees(t: ShiftModel, s: ShiftModel) -> bool:
    """Matrix bracket of the truncations versus the closed formula: every
    stored nonzero must sit at (i+1, i-1), and each interior index
    i = 1..N-2 must carry the formula's weight there.  Those indices are all
    the positions (i+1, i-1) of an N x N matrix, so a product that is wrong
    anywhere fails the check.  Each weight is evaluated once, for both the
    matrices and the formula."""
    w, v = (exact_weights(x.weights, t.truncation, CertificateError, "shift model")
            for x in (t, s))
    a = bracket(_lower_shift(w), _lower_shift(v)).nonzeros()
    if any(r != c + 2 for r, c in a):
        return False
    # w[i] is weight i+1, so weights i and i+1 are w[i-1] and w[i]
    return all(a.get((i + 1, i - 1), 0) == _commutator_weight(w[i - 1], w[i], v[i - 1], v[i])
               for i in range(1, len(w)))


def _check_limits(models: Sequence[ShiftModel], scan_window: int) -> None:
    """Refuse a truncation or scan window outside its bounds, or a weight
    size above its limit, before any work; inexact weights pass here, and
    each caller refuses them in its own words."""
    for model in models:
        n = model.truncation
        if n < MIN_TRUNCATION:
            raise CertificateError(f"truncation {n} is below the minimum {MIN_TRUNCATION}")
        if n > MAX_TRUNCATION:
            raise CertificateError(f"truncation {n} exceeds the limit {MAX_TRUNCATION}")
        check_weight_bits(model.weights, n, CertificateError)
    if scan_window < 1:
        raise CertificateError(f"scan window {scan_window} is below the minimum 1")
    if scan_window > MAX_SCAN_WINDOW:
        raise CertificateError(f"scan window {scan_window} exceeds the limit {MAX_SCAN_WINDOW}")


def _derive(generator: ShiftModel, pool: Sequence[ShiftModel], scan_window: int,
            softness: Verdict) -> Certificate:
    """The certificate these inputs determine.  The partner is the first pool
    entry whose commutator with the generator is nonzero on the scan window,
    and no later entry is evaluated; with none the branch is central, in mode
    "structural" when every commutator vanishes by proportionality and
    "window" when its vanishing was only scanned."""
    partner, mode = None, "structural"
    for s in pool:
        found = shift_bracket(generator.weights, s.weights, scan_window)
        if found == "window":
            mode = "window"
        elif found != "structural":
            partner = s
            break
    if partner is not None:
        branch, mode, (index, value) = "commutator", None, found
        conclusion = ("the Lie ideal generated by the commutator A = [T, S] is nonzero and "
                      "does not contain T, so no Lie algebra containing T and S is simple")
    else:
        branch, index, value = "central", None, None
        how = ("proportional weights, proven for every index" if mode == "structural"
               else f"verified on the first {scan_window} commutator weights only")
        conclusion = (f"T commutes with every partner in the recorded pool ({how}); in any "
                      "Lie algebra where T is central, span(T) is a proper nonzero Lie ideal "
                      "(this certificate is conditional on the recorded pool)")
    return Certificate(SCHEMA_VERSION, generator, softness, branch, partner, tuple(pool), index,
                       value, scan_window, tuple((name, True) for name in _OBLIGATIONS[branch]),
                       conclusion, mode)


def build_certificate(
    generator: ShiftModel, pool: Sequence[ShiftModel], scan_window: int = DEFAULT_SCAN_WINDOW
) -> Certificate:
    """Assemble a certificate for the shift model, refusing unless the pool
    holds a partner and the non-softness hypothesis is symbolically proven."""
    if not pool:
        raise CertificateError("a certificate needs at least one partner")
    _check_limits([generator, *pool], scan_window)
    # Round-trip all weights through their text form first, so every decision
    # below is made on exactly the structures the certificate will store.
    generator, *pool = [ShiftModel(dsl.parse_seq(dsl.format_seq(s.weights)), s.truncation)
                        for s in (generator, *pool)]
    # a finite-rank generator's ideal is soft, so this gate refuses it too
    soft = is_soft(Principal(generator.weights))
    if not (soft.fails and soft.proven):
        raise CertificateError(
            "hypothesis gate: the generator's principal ideal must be proven "
            f"not soft, got {soft.status.value} ({soft.method.value})"
        )
    if not has_exact_eval(generator.weights):
        raise CertificateError("certificates need exactly evaluable generator weights")
    cert = _derive(generator, pool, scan_window, soft)
    if cert.partner is not None:
        if not fits_digit_cap(cert.first_value):  # a certificate file could not hold it
            raise CertificateError(f"commutator weight {cert.first_index} has more than "
                                   f"{MAX_RATIONAL_DIGITS} digits in its numerator or "
                                   "denominator")
        if not _truncation_window_agrees(generator, cert.partner):
            raise CertificateError("truncation bracket disagrees with the weight formula")
    return cert


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-derive the certificate from its generator, pool and scan window and
    compare every stored field; Holds only if all of them agree."""
    if cert.schema_version != SCHEMA_VERSION:
        return Verdict(Status.FAILS, cert.softness.method,
                       {"failed_obligation": "schema_version", "found": cert.schema_version})
    # the stored partner's truncation check first: inexact weights are
    # refused as a shift model
    agrees = cert.partner is None or _truncation_window_agrees(cert.generator, cert.partner)
    soft = is_soft(Principal(cert.generator.weights))
    derived = _derive(cert.generator, cert.pool, cert.scan_window, soft)
    failures: List[str] = []
    if not (soft.fails and soft.proven) or cert.softness.to_json() != soft.to_json():
        failures.append(OBLIGATION_NOT_SOFT)
    if support(cert.generator.weights) is not None:
        failures.append(OBLIGATION_NOT_FINITE_RANK)
    # every other field but the checklist is the branch's to prove; an empty
    # pool would make T central vacuously
    if not cert.pool or any(value != getattr(derived, f) for f, value in vars(cert).items()
                            if f not in ("softness", "obligations")):
        failures.append({"commutator": OBLIGATION_COMMUTATOR,
                         "central": OBLIGATION_POOL_CENTRAL}.get(cert.branch, "branch"))
    if not agrees:
        failures.append(OBLIGATION_TRUNCATION)
    # the stored branch's checklist, affirmative and in order; an unknown
    # branch, already a failure, is held to the central checklist
    required = _OBLIGATIONS.get(cert.branch, _OBLIGATIONS["central"])
    if cert.obligations != tuple((name, True) for name in required):
        failures.append("obligation_checklist")
    if failures:
        return Verdict(Status.FAILS, soft.method,
                       {"failed_obligation": failures[0], "all_failures": failures})
    return Verdict(Status.HOLDS, soft.method,
                   {"branch": cert.branch, "obligations": [name for name, _ in cert.obligations]})


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
    return ShiftModel(dsl.parse_seq(typed(obj["weights"], str, "weights")),
                      typed(obj["truncation"], int, "truncation"))


def certificate_from_json(obj: dict) -> Certificate:
    try:
        version = obj["schema_version"]
        if version != SCHEMA_VERSION:
            raise CertificateError(f"unknown certificate schema version: {version!r}")
        soft_obj = obj["softness"]
        softness = Verdict(
            Status(soft_obj["status"]),
            Method(soft_obj["method"]),
            typed(soft_obj.get("evidence", {}), dict, "evidence"),
        )
        first = obj["first_nonzero"]
        cert = Certificate(
            schema_version=version,
            generator=_shift_from_json(obj["generator"]),
            softness=softness,
            branch=typed(obj["branch"], str, "branch"),
            partner=None if obj["partner"] is None else _shift_from_json(obj["partner"]),
            pool=tuple(_shift_from_json(s) for s in typed(obj["pool"], list, "pool")),
            first_index=None if first is None else typed(first["index"], int, "index"),
            first_value=None if first is None
            else parse_rational(typed(first["value"], str, "value")),
            scan_window=typed(obj["scan_window"], int, "scan_window"),
            obligations=tuple(
                (typed(entry["name"], str, "name"), typed(entry["passed"], bool, "passed"))
                for entry in typed(obj["obligations"], list, "obligations")
            ),
            conclusion=typed(obj["conclusion"], str, "conclusion"),
            central_mode=typed(obj.get("central_mode"), str, "central_mode", nullable=True),
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


def load_certificate(path: str) -> Certificate:
    return certificate_from_json(read_json(path))
