"""The immutable value classes: construction, equality, hashing, repr and
immutability, with every repr pinned to the text the package printed when
these classes were frozen dataclasses."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from idealkit import (base, idealcalc as ic, matlie as ml, rates as rt, seqspace as ss,
                      witness as wt)
from idealkit.ratlinalg import RationalMatrix

_M = "RationalMatrix([['0', '1'], ['0', '0']])"
_V = ("Verdict(status=<Status.HOLDS: 'Holds'>, method=<Method.SYMBOLIC: 'SymbolicProven'>, "
      "evidence={'m': 2})")
_SM = "ShiftModel(weights=Pow(p=Fraction(1, 1)), truncation=8)"


def _verdict():
    return ss.Verdict(ss.Status.HOLDS, ss.Method.SYMBOLIC, {"m": 2})


def _matrix():
    return RationalMatrix([[0, 1], [0, 0]])


def _model():
    return wt.ShiftModel(ss.Pow(1), 8)


# (class, fields -> built afresh on each call, repr)
CASES = [
    (ss.Verdict,
     lambda: dict(status=ss.Status.HOLDS, method=ss.Method.NUMERIC, evidence={"eps": 0.5}),
     "Verdict(status=<Status.HOLDS: 'Holds'>, method=<Method.NUMERIC: 'NumericIndicated'>, "
     "evidence={'eps': 0.5})"),
    (ss.Pow, lambda: dict(p=F(1, 2)), "Pow(p=Fraction(1, 2))"),
    (ss.Exp, lambda: dict(r=F(1, 3)), "Exp(r=Fraction(1, 3))"),
    (ss.PowLog, lambda: dict(p=F(1), q=F(-2)), "PowLog(p=Fraction(1, 1), q=Fraction(-2, 1))"),
    (ss.FiniteSupport, lambda: dict(values=(F(1), F(1, 2))),
     "FiniteSupport(values=(Fraction(1, 1), Fraction(1, 2)))"),
    (ss.Explicit, lambda: dict(prefix=(F(2), F(1)), tail=ss.Pow(1)),
     "Explicit(prefix=(Fraction(2, 1), Fraction(1, 1)), tail=Pow(p=Fraction(1, 1)))"),
    (ss.Scale, lambda: dict(c=F(3), inner=ss.Exp(F(1, 2))),
     "Scale(c=Fraction(3, 1), inner=Exp(r=Fraction(1, 2)))"),
    (ss.Ampliation, lambda: dict(m=2, inner=ss.Pow(1)),
     "Ampliation(m=2, inner=Pow(p=Fraction(1, 1)))"),
    (ss.Subsample, lambda: dict(k=3, inner=ss.Pow(1)),
     "Subsample(k=3, inner=Pow(p=Fraction(1, 1)))"),
    (ss.Product, lambda: dict(left=ss.Pow(1), right=ss.Exp(F(1, 2))),
     "Product(left=Pow(p=Fraction(1, 1)), right=Exp(r=Fraction(1, 2)))"),
    (rt.RootRational, lambda: dict(vector=((2, F(-1, 2)),), index=2),
     "RootRational(vector=((2, Fraction(-1, 2)),), index=2)"),
    (ss.AsymSig, lambda: dict(rate=rt.root_rational(F(1, 2)), pow=F(1), logpow=F(-1)),
     "AsymSig(rate=RootRational(vector=((2, Fraction(-1, 1)),), index=1), pow=Fraction(1, 1), "
     "logpow=Fraction(-1, 1))"),
    (ic.FiniteRank, lambda: dict(), "FiniteRank()"),
    (ic.Compact, lambda: dict(), "Compact()"),
    (ic.Principal, lambda: dict(gen=ss.Pow(1)), "Principal(gen=Pow(p=Fraction(1, 1)))"),
    (ic.ProductIdeal, lambda: dict(left=ic.Principal(ss.Pow(1)), right=ic.COMPACT),
     "ProductIdeal(left=Principal(gen=Pow(p=Fraction(1, 1))), right=Compact())"),
    (ic.ImplicationReport,
     lambda: dict(generator=ss.Pow(1), delta2=_verdict(), soft=_verdict(), idempotent=_verdict(),
                  necessary=_verdict(), flags=("f",)),
     f"ImplicationReport(generator=Pow(p=Fraction(1, 1)), delta2={_V}, soft={_V}, "
     f"idempotent={_V}, necessary={_V}, flags=('f',))"),
    (ml.LieAlgebraPresentation, lambda: dict(ambient=2, basis=(_matrix(),), name="n"),
     f"LieAlgebraPresentation(ambient=2, basis=({_M},), name='n')"),
    (ml.Subspace,
     lambda: dict(parent=ml.LieAlgebraPresentation(2, (_matrix(),), "n"), vectors=((F(1),),)),
     f"Subspace(parent=LieAlgebraPresentation(ambient=2, basis=({_M},), name='n'), "
     "vectors=((Fraction(1, 1),),))"),
    (ml.ClosureReport, lambda: dict(closed=False, pair=(0, 1), residual=_matrix()),
     f"ClosureReport(closed=False, pair=(0, 1), residual={_M})"),
    (ml.IdealCheck, lambda: dict(is_ideal=False, violation=(1, 0)),
     "IdealCheck(is_ideal=False, violation=(1, 0))"),
    (ml.KillingReport, lambda: dict(matrix=_matrix(), rank=0),
     f"KillingReport(matrix={_M}, rank=0)"),
    (ml.SimplicityReport,
     lambda: dict(verdict="NotSimple", witness=None, detail="d", commutant_dim=2, flags=("x",)),
     "SimplicityReport(verdict='NotSimple', witness=None, detail='d', commutant_dim=2, "
     "flags=('x',))"),
    (wt.ShiftModel, lambda: dict(weights=ss.Pow(1), truncation=16),
     "ShiftModel(weights=Pow(p=Fraction(1, 1)), truncation=16)"),
    (wt.Certificate,
     lambda: dict(schema_version="1", generator=_model(), softness=_verdict(), branch="commutator",
                  partner=_model(), pool=(_model(),), first_index=1, first_value=F(1, 2),
                  scan_window=64, obligations=(("soft", True),), conclusion="c",
                  central_mode="window"),
     f"Certificate(schema_version='1', generator={_SM}, softness={_V}, branch='commutator', "
     f"partner={_SM}, pool=({_SM},), first_index=1, first_value=Fraction(1, 2), scan_window=64, "
     "obligations=(('soft', True),), conclusion='c', central_mode='window')"),
]


def test_every_value_class_is_covered():
    classes = {
        obj
        for module in (ss, ic, ml, wt)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, ss.Frozen) and "__init__" in vars(obj)
    }
    assert classes | {ic.FiniteRank, ic.Compact} == {case[0] for case in CASES}
    assert len(CASES) == 25


@pytest.mark.parametrize("cls,fields,text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, fields, text):
    kwargs = fields()
    x = cls(*kwargs.values())
    assert repr(x) == text
    # equal fields, built separately and passed by keyword: equal objects and hashes
    y = cls(**fields())
    assert x == y and not x != y
    values = tuple(kwargs.values())
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes the tuple, and the object, unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        if cls is not rt.RootRational:  # it hashes by rate, not by vector
            assert hash(x) == hash(y) == expected
    # never equal to an instance of another class, nor to its own field tuple
    others = [case for case in CASES if case[0] is not cls]
    assert all(x != c(**f()) for c, f, _ in others)
    assert x != values
    name = next(iter(kwargs), "anything")
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert repr(x) == text


def test_same_fields_in_another_class_are_not_equal():
    assert ss.Pow(F(1, 2)) != ss.Exp(F(1, 2))
    assert ss.Ampliation(2, ss.Pow(1)) != ss.Subsample(2, ss.Pow(1))
    assert ic.FiniteRank() != ic.Compact() and ic.FiniteRank() == ic.FINITE_RANK


def test_defaults():
    assert ss.AsymSig(None) == ss.ZERO_TAIL
    assert (ss.ZERO_TAIL.pow, ss.ZERO_TAIL.logpow) == (0, 0)
    assert wt.ShiftModel(ss.Pow(1)).truncation == 64
    report = ml.SimplicityReport("Simple", None, "d")
    assert (report.commutant_dim, report.flags) == (None, ())
    cert = dict(CASES[-1][1]())
    del cert["central_mode"]
    assert wt.Certificate(**cert).central_mode is None


def test_catalog_values_are_coerced_once():
    assert ss.Pow(2).p == F(2) and ss.Exp("1/2").r == F(1, 2)
    assert ss.FiniteSupport([1, "1/2"]).values == (F(1), F(1, 2))
    assert ss.Scale(3, ss.Pow(1)) == ss.Scale(F(3), ss.Pow(1))


@pytest.mark.parametrize("build", [
    lambda: base.as_fraction(0.5),
    lambda: ss.Pow(0.5),
    lambda: ss.Exp(0.5),
    lambda: ss.PowLog(1, 0.5),
    lambda: ss.FiniteSupport([1, 0.5]),
    lambda: ss.Scale(0.5, ss.Pow(1)),
    lambda: ss.explicit([0.5], ss.Pow(1)),
    lambda: RationalMatrix.from_nonzeros(1, 1, {(0, 0): 0.5}),
    lambda: rt.root_rational(0.5),
], ids=["as_fraction", "Pow", "Exp", "PowLog", "FiniteSupport", "Scale", "explicit",
        "from_nonzeros", "root_rational"])
def test_exact_constructors_refuse_floats(build):
    # a float is refused, never rounded into an exact rational
    with pytest.raises(TypeError, match="^expected int, str or Fraction, got float$"):
        build()


def test_root_rational_keeps_its_rate_equality():
    # 1/2 and (1/4)^(1/2) are one rate over two bases
    half, root_quarter = rt.root_rational(F(1, 2)), rt._rate_root(rt.root_rational(F(1, 4)), 2)
    assert half.vector != root_quarter.vector
    assert half == root_quarter and hash(half) == hash(root_quarter)
    assert rt.root_rational(F(1, 3)) != half
