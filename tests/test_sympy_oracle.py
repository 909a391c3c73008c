"""Differential oracle: the exact elimination core against sympy.Matrix."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from idealkit.ratlinalg import SparseEchelon, nullspace, rank

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
        ech.insert({i: v for i, v in enumerate(row) if v})
    kern = ech.kernel()
    assert ech.rank == rank(m) == ref.rank()
    assert len(kern) == len(nullspace(m, ncols)) == len(ref.nullspace())
    # sympy's basis is the same canonical one: a unit at each free column
    assert kern == [_as_fractions(v) for v in ref.nullspace()]


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy(m):
    ref, ref_pivots = _sympy_matrix(m).rref()
    ech = SparseEchelon(len(m[0]))
    for row in m:
        ech.insert(row)
    red = ech.reduced()
    pivots = [next(c for c, v in enumerate(row) if v) for row in red]
    assert pivots == list(ref_pivots)
    assert red == [_as_fractions(ref.row(i)) for i in range(len(pivots))]


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
        ech.insert(row)
    base = _sympy_matrix(m).rank()
    for v in (combo, other):
        unchanged = _sympy_matrix(m + [v]).rank() == base
        assert (ech.reduce(v) == {}) == unchanged
