"""Differential oracles: the exact elimination core against sympy.Matrix, and
the sequence calculus's comparisons and least ampliation index against
sympy limits."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit.dsl import parse_seq
from idealkit.idealcalc import COMPACT, Principal, ProductIdeal, member
from idealkit.ratlinalg import SparseEchelon
from idealkit.seqspace import (
    Ampliation,
    Exp,
    Explicit,
    Mode,
    Pow,
    PowLog,
    Product,
    Scale,
    Subsample,
    compare,
    support,
)

from conftest import dense, exp_type_pairs, random_catalog, sparse

sympy = pytest.importorskip("sympy")

matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(
        st.lists(
            st.builds(F, st.integers(-5, 5), st.integers(1, 3)) | st.just(F(0)),
            min_size=c,
            max_size=c,
        ),
        min_size=1,
        max_size=7,
    )
)


def _sympy_matrix(m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m])


def _as_fractions(vec):
    return [F(int(x.p), int(x.q)) for x in vec]


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rank_and_kernel_match_sympy(m):
    ncols = len(m[0])
    ref = _sympy_matrix(m)
    ech = SparseEchelon(ncols)
    for row in m:
        ech.insert(sparse(row))
    kern = [dense(v, ncols) for v in ech.sparse_kernel()]
    assert ech.rank == ref.rank()
    # sympy's basis is the same canonical one: a unit at each free column
    assert kern == [_as_fractions(v) for v in ref.nullspace()]


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy(m):
    ref, ref_pivots = _sympy_matrix(m).rref()
    ech = SparseEchelon(len(m[0]))
    for row in m:
        ech.insert(sparse(row))
    red = ech.reduced()
    assert [min(row) for row in red] == list(ref_pivots)
    assert [dense(row, len(m[0])) for row in red] == [
        _as_fractions(ref.row(i)) for i in range(len(red))]


@given(m=matrices, data=st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_empty_iff_rank_unchanged(m, data):
    ncols = len(m[0])
    # one probe is a combination of the rows, so both outcomes occur
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
    combo = [sum((c * row[j] for c, row in zip(coeffs, m)), F(0)) for j in range(ncols)]
    other = data.draw(st.lists(st.integers(-3, 3).map(F), min_size=ncols, max_size=ncols))
    ech = SparseEchelon(ncols)
    for row in m:
        ech.insert(sparse(row))
    base = _sympy_matrix(m).rank()
    for v in (combo, other):
        unchanged = _sympy_matrix(m + [v]).rank() == base
        assert (ech.reduce(sparse(v)) == {}) == unchanged


# ---------------------------------------------------------------------------
# The sequence calculus against sympy limits (Gruntz's algorithm)
# ---------------------------------------------------------------------------

_n = sympy.Symbol("n", positive=True)
# Share of the limits that sympy may leave without a number before a test
# fails, so that skipped pairs cannot hide a disagreement.
_UNDECIDED_SHARE = 0.05


def _rational(x):
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def _continuous(expr):
    """Entry n of an infinite-support expression, in a continuous n.  The
    ceiling in an ampliation, an explicit prefix's shift and a power-log's
    running minimum change it only by a factor bounded above and away from
    zero, which leaves the class of a limiting ratio as it is."""
    if isinstance(expr, Pow):
        return _n ** -_rational(expr.p)
    if isinstance(expr, Exp):
        return _rational(expr.r) ** _n
    if isinstance(expr, PowLog):
        return _n ** -_rational(expr.p) * sympy.log(_n + 1) ** -_rational(expr.q)
    if isinstance(expr, Explicit):
        return _continuous(expr.tail)
    if isinstance(expr, Scale):
        return _rational(expr.c) * _continuous(expr.inner)
    if isinstance(expr, Ampliation):
        return _continuous(expr.inner).subs(_n, _n / expr.m)
    if isinstance(expr, Subsample):
        return _continuous(expr.inner).subs(_n, expr.k * _n)
    if isinstance(expr, Product):
        return _continuous(expr.left) * _continuous(expr.right)
    raise TypeError(type(expr).__name__)


def _limit_class(ratio):
    """The class of the limit of ratio as n tends to infinity: "zero",
    "finite" (and positive) or "infinite"; None when sympy's answer is not
    such a number."""
    limit = sympy.limit(ratio, _n, sympy.oo)
    if limit == 0:
        return "zero"
    if limit is sympy.oo:
        return "infinite"
    if limit.is_extended_real and limit.is_positive and limit.is_finite:
        return "finite"
    return None


def _holds(mode: Mode, limit_class: str) -> bool:
    return limit_class != "infinite" if mode is Mode.BIG_O else limit_class == "zero"


_depth_four = st.builds(random_catalog, st.randoms(use_true_random=False), st.just(4))
_infinite_pairs = st.tuples(_depth_four, _depth_four).filter(
    lambda pair: support(pair[0]) is None and support(pair[1]) is None)


def test_compare_agrees_with_sympy_limits():
    """compare's verdict in both modes is the class of lim xi / eta."""
    drawn, undecided = [], []

    @given(pair=_infinite_pairs)
    @example(pair=(parse_seq("exp:999/1000"), parse_seq("amp:693;exp:1/2")))
    @example(pair=(parse_seq("powlog:1000,1"), parse_seq("pow:1000")))
    @example(pair=(parse_seq("prod(pow:3,exp:1/8)"), parse_seq("sub:3;prod(pow:1,exp:1/2)")))
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def check(pair):
        xi, eta = pair
        drawn.append(pair)
        limit_class = _limit_class(_continuous(xi) / _continuous(eta))
        if limit_class is None:
            undecided.append(pair)
            return
        for mode in Mode:
            assert compare(xi, eta, mode).holds == _holds(mode, limit_class), (mode, limit_class)

    check()
    assert len(undecided) <= _UNDECIDED_SHARE * len(drawn), undecided


def test_least_ampliation_index_agrees_with_sympy_limits():
    """member's least index m: lim xi(n) / gen(n / m) relates in the
    membership's mode, and lim xi(n) / gen(n / (m - 1)) does not."""
    drawn, undecided = [], []

    @given(pair=exp_type_pairs)
    @example(pair=(parse_seq("exp:999/1000"), parse_seq("exp:1/2")))
    @example(pair=(parse_seq("prod(exp:1/2,pow:1)"), parse_seq("prod(exp:1/4,pow:2)")))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def check(pair):
        xi, gen = pair
        xi_n, gen_n = _continuous(xi), _continuous(gen)
        classes = {}

        def at(k):
            if k not in classes:
                drawn.append((pair, k))
                classes[k] = _limit_class(xi_n / gen_n.subs(_n, _n / k))
                if classes[k] is None:
                    undecided.append((pair, k))
            return classes[k]

        for ideal, mode in ((Principal(gen), Mode.BIG_O),
                            (ProductIdeal(Principal(gen), COMPACT), Mode.LITTLE_O)):
            m = member(xi, ideal).evidence["m"]
            if at(m) is not None:
                assert _holds(mode, at(m)), (mode, m, at(m))
            if m > 1 and at(m - 1) is not None:
                assert not _holds(mode, at(m - 1)), (mode, m - 1, at(m - 1))

    check()
    assert len(undecided) <= _UNDECIDED_SHARE * len(drawn), undecided
