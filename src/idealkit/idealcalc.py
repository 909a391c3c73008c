"""Calculus of proper two-sided operator ideals via characteristic sets.

An ideal is presented as the finite-rank ideal, the compact ideal, a
principal ideal with a symbolic generator sequence, or a product of such.
Membership of a sequence in a principal ideal means being big-O of some
ampliation of the generator; the product with the compact ideal (the soft
edge) tightens big-O to little-o.  All decisions reduce to exact signature
comparisons in :mod:`idealkit.seqspace`.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

from .base import _DIGITS_BOUND, MAX_RATIONAL_DIGITS, Frozen, InputError
from .rates import RATE_ONE, log_ratio_ceiling
# compare, delta2_check and signature_of, unused here, stay bound for perfbench/tracer.py.
from .seqspace import (
    Mode,
    Product,
    SequenceExpr,
    Status,
    Verdict,
    _compared,
    _delta2,
    _sig,
    ampliate,
    compare,
    delta2_check,
    ensure_valid,
    proven,
    signature_of,
    subsample,
    support,
)

__all__ = [
    "Compact",
    "FiniteRank",
    "IdealExpr",
    "InternalInconsistencyError",
    "Principal",
    "ProductIdeal",
    "ZeroIdealError",
    "COMPACT",
    "FINITE_RANK",
    "ImplicationReport",
    "implication_report",
    "is_idempotent",
    "is_soft",
    "make_ideal",
    "member",
]


class ZeroIdealError(InputError):
    """An identically zero generator gives the zero ideal, which is not modeled."""


class InternalInconsistencyError(RuntimeError):
    """A proven implication between verdicts was violated; signals a bug."""


class IdealExpr(Frozen):
    """Base class for ideal presentations."""

    __slots__ = ()


class FiniteRank(IdealExpr):
    """The ideal of finite rank operators; characteristic set = finite supports."""


class Compact(IdealExpr):
    """The ideal of compact operators; characteristic set = all of c0*."""


class Principal(IdealExpr):
    """The smallest two-sided ideal whose characteristic set contains gen."""

    def __init__(self, gen: SequenceExpr):
        vars(self).update(gen=gen)


class ProductIdeal(IdealExpr):
    """Product of two ideals: sequences dominated by a product of members."""

    def __init__(self, left: IdealExpr, right: IdealExpr):
        vars(self).update(left=left, right=right)


FINITE_RANK = FiniteRank()
COMPACT = Compact()


def _extended(v: Verdict, **extra) -> Verdict:
    """v with extra evidence; a key it already has keeps its place."""
    return Verdict(v.status, v.method, {**v.evidence, **extra})


def _factors(ideal: IdealExpr) -> list:
    """The normalized leaves of a product tree, left to right."""
    if isinstance(ideal, ProductIdeal):
        return _factors(ideal.left) + _factors(ideal.right)
    return [make_ideal(ideal)]


def make_ideal(ideal: IdealExpr) -> IdealExpr:
    """Normalize an ideal presentation.

    Products of principal ideals reduce to the principal ideal of the
    pointwise product of generators (ampliation distributes over pointwise
    products, and a larger ampliation index dominates a smaller one, so the
    two characteristic sets coincide).  Products with the compact or
    finite-rank ideal are kept symbolic with a single special factor on the
    right; a finite-rank generator collapses to the finite-rank ideal.
    """
    if isinstance(ideal, (FiniteRank, Compact)):
        return ideal
    if isinstance(ideal, Principal):
        ensure_valid(ideal.gen)
        s = support(ideal.gen)
        if s == 0:
            raise ZeroIdealError(
                "the zero sequence generates the zero ideal; not a proper ideal model"
            )
        if s is not None:
            return FINITE_RANK
        return ideal
    if isinstance(ideal, ProductIdeal):
        factors = _factors(ideal)  # each finite-rank, compact or principal
        gens = [f.gen for f in factors if isinstance(f, Principal)]
        core = Principal(reduce(Product, gens)) if gens else None
        if FINITE_RANK in factors:
            if core is None and COMPACT not in factors:
                return FINITE_RANK
            return ProductIdeal(core or COMPACT, FINITE_RANK)
        if COMPACT in factors:
            return COMPACT if core is None else ProductIdeal(core, COMPACT)
        return core
    raise TypeError(f"not an IdealExpr: {type(ideal).__name__}")


def _min_ampliation(xi_sig, gen_sig, gen: SequenceExpr, xi: SequenceExpr,
                    mode: Mode) -> Optional[int]:
    """Smallest m such that xi relates to the m-fold ampliation of gen.

    Only called with exponential-type signatures on both sides.  Ampliation
    by m divides ln rate(gen) by m, so the rates meet at
    t = ln rate(gen) / ln rate(xi): for m > t xi's rate is strictly
    smaller, for m < t strictly larger.  So ceil(t), from certified logs,
    answers in both modes unless t is an integer; at that tie pow and logpow
    decide between t and t + 1.  None when that m would have more than
    MAX_RATIONAL_DIGITS digits; it is then neither computed nor printed.
    """
    ceiling = log_ratio_ceiling(gen_sig.rate, xi_sig.rate)
    if ceiling is None:
        return None
    m, tie = ceiling
    if tie and not _compared(xi, xi_sig, ampliate(m, gen), gen_sig.ampliated(m), mode).holds:
        m += 1
    return m if m < _DIGITS_BOUND else None


def _member_principal(xi: SequenceExpr, xi_sig, gen: SequenceExpr, gen_sig,
                      mode: Mode) -> Verdict:
    # valid xi and gen with their signatures; gen has infinite support, as
    # make_ideal turns any other into FINITE_RANK
    if gen_sig.rate == RATE_ONE:
        # Ampliation leaves a rate-one signature fixed: testing m = 1 decides.
        return _extended(_compared(xi, xi_sig, gen, gen_sig, mode), m=1,
                         ampliation_rule="rate-one generator: ampliation preserves the signature")
    ev = {
        "xi_signature": xi_sig.describe(),
        "generator_signature": gen_sig.describe(),
        "mode": mode,
    }
    if xi_sig.is_zero_tail:
        return proven(Status.HOLDS, m=1, rule="finite support", **ev)
    if xi_sig.rate == RATE_ONE:
        return proven(
            Status.FAILS,
            reason="power-log decay is never dominated by an ampliated exponential",
            **ev,
        )
    m = _min_ampliation(xi_sig, gen_sig, gen, xi, mode)
    if m is None:
        m = f"more than {MAX_RATIONAL_DIGITS} digits; not computed"
    return proven(Status.HOLDS, m=m, rule="ampliated-rate dominance", **ev)


def _member_finite(xi: SequenceExpr) -> Verdict:
    s = support(xi)
    if s is not None:
        return proven(Status.HOLDS, rule="finite support", support=s)
    return proven(Status.FAILS, reason="infinite support", support="infinite")


def member(xi: SequenceExpr, ideal: IdealExpr) -> Verdict:
    """Decide membership of the sequence in the (normalized) ideal."""
    ensure_valid(xi)
    ideal = make_ideal(ideal)
    if isinstance(ideal, Compact):
        return proven(Status.HOLDS, rule="the compact ideal contains every null sequence")
    if isinstance(ideal, FiniteRank):
        return _member_finite(xi)
    if isinstance(ideal, Principal):
        return _member_principal(xi, _sig(xi), ideal.gen, _sig(ideal.gen), Mode.BIG_O)
    if isinstance(ideal, ProductIdeal):
        if isinstance(ideal.right, FiniteRank):
            return _extended(_member_finite(xi), rule="finite-rank factor absorbs the product")
        # a compact right factor always comes with a principal left one
        gen = ideal.left.gen
        return _member_principal(xi, _sig(xi), gen, _sig(gen), Mode.LITTLE_O)
    raise TypeError(type(ideal).__name__)


def is_soft(ideal: IdealExpr) -> Verdict:
    """Decide softness: the ideal equals its product with the compact ideal.

    For a principal ideal with infinite-rank generator this is the
    subsampling criterion: some k-fold subsample of the generator must be
    little-o of the generator; within the catalog testing k = 2 decides.
    Idempotent ideals (finite-rank, compact) are soft, and products with the
    compact ideal are soft by construction.
    """
    ideal = make_ideal(ideal)
    if isinstance(ideal, (FiniteRank, Compact)):
        return proven(Status.HOLDS, rule="idempotent ideal, hence soft")
    if isinstance(ideal, ProductIdeal):
        if isinstance(ideal.right, Compact):
            return proven(Status.HOLDS, rule="soft by construction: compact factor")
        return proven(Status.HOLDS, rule="finite-rank factor: the product is finite-rank, hence soft")
    return _soft(ideal.gen, _sig(ideal.gen))


def _soft(gen: SequenceExpr, sig) -> Verdict:
    # is_soft of the principal ideal of a valid infinite-support gen of signature sig
    k = 2
    v = _compared(subsample(k, gen), sig.subsampled(k), gen, sig, Mode.LITTLE_O)
    return _extended(v, k=k, criterion="subsampled generator little-o of generator")


def is_idempotent(ideal: IdealExpr) -> Verdict:
    """Decide whether the ideal equals its own square."""
    ideal = make_ideal(ideal)
    if isinstance(ideal, (FiniteRank, Compact)):
        return proven(Status.HOLDS, rule="classically idempotent ideal")
    if isinstance(ideal, ProductIdeal):
        if isinstance(ideal.right, FiniteRank):
            return proven(Status.HOLDS, rule="reduces to the finite-rank ideal")
        if _sig(ideal.left.gen).rate != RATE_ONE:
            return proven(Status.HOLDS, rule="exponential-type soft edge is idempotent")
        return proven(
            Status.FAILS,
            reason="rate-one soft edge: the squared generator class is strictly smaller",
        )
    return _idempotent(ideal.gen, _sig(ideal.gen))


def _idempotent(gen: SequenceExpr, sig) -> Verdict:
    # is_idempotent of the principal ideal of gen, as _soft
    v = _member_principal(gen, sig, Product(gen, gen), sig * sig, Mode.BIG_O)
    return _extended(v, criterion="generator big-O of an ampliated squared generator")


def _necessary(xi: SequenceExpr, sig) -> Verdict:
    # the necessary condition for softness of the principal ideal of xi: xi
    # is little-o of its own 2-fold ampliation; xi and sig as for _soft
    v = _compared(xi, sig, ampliate(2, xi), sig.ampliated(2), Mode.LITTLE_O)
    if sig.rate == RATE_ONE:
        return _extended(v, m=2, reason="ampliation preserves a rate-one signature; "
                                        "the ratio has a positive limit")
    return _extended(v, m=2)


class ImplicationReport(Frozen):
    """Joint verdicts for the principal ideal of one generator, with the
    implication chain between them re-checked."""

    def __init__(self, generator: SequenceExpr, delta2: Verdict, soft: Verdict,
                 idempotent: Verdict, necessary: Verdict, flags: tuple):
        vars(self).update(generator=generator, delta2=delta2, soft=soft,
                          idempotent=idempotent, necessary=necessary, flags=flags)

    def to_json(self) -> dict:
        return {
            "delta2": self.delta2.to_json(),
            "soft": self.soft.to_json(),
            "idempotent": self.idempotent.to_json(),
            "necessary_condition": self.necessary.to_json(),
            "implication_flags": [
                {"implication": name, "consistent": ok} for name, ok in self.flags
            ],
        }


def implication_report(xi: SequenceExpr) -> ImplicationReport:
    """Run the four principal-ideal diagnostics and verify their implications.

    delta2 forces non-softness; idempotency forces softness; softness forces
    the necessary ampliation condition.  A violated implication is an
    internal inconsistency, never a valid output.
    """
    ensure_valid(xi)
    if support(xi) is not None:
        raise InputError("implication report needs an infinite-support generator")
    sig = _sig(xi)
    d2, soft = _delta2(sig), _soft(xi, sig)
    idem, nec = _idempotent(xi, sig), _necessary(xi, sig)
    flags = (
        ("delta2 holds => not soft", not (d2.holds and soft.holds)),
        ("idempotent => soft", not (idem.holds and not soft.holds)),
        ("soft => necessary condition", not (soft.holds and not nec.holds)),
    )
    for name, ok in flags:
        if not ok:
            raise InternalInconsistencyError(f"violated implication: {name}")
    return ImplicationReport(xi, d2, soft, idem, nec, flags)
