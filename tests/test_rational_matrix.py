"""Sparse RationalMatrix against a test-local dense triple-loop reference:
products, brackets, sums, differences and scaling on random shapes and
densities, rows that cancel to zero, equality, hashing and the dense views."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from idealkit.ratlinalg import RationalMatrix, bracket, bracket_flat

small_fraction = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
dims = st.integers(1, 6)


@st.composite
def dense(draw, rows, cols):
    """rows x cols nested lists; each entry is nonzero with probability
    density/4, density drawn once per matrix from 0 to 4."""
    density = draw(st.integers(0, 4))
    return [
        [draw(small_fraction) if draw(st.integers(1, 4)) <= density else F(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def ref_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def check_invariants(m, expected):
    """m equals the dense reference and stores no zero."""
    assert m.entries == tuple(tuple(r) for r in expected)
    assert all(v != 0 for v in m.nonzeros().values())
    assert m == RationalMatrix(expected)
    assert hash(m) == hash(RationalMatrix(expected))


@given(data=st.data(), r=dims, k=dims, c=dims)
@settings(max_examples=120, deadline=None)
def test_product_matches_triple_loop(data, r, k, c):
    a = data.draw(dense(r, k))
    b = data.draw(dense(k, c))
    check_invariants(RationalMatrix(a) @ RationalMatrix(b), ref_mul(a, b))


@given(data=st.data(), r=dims, k=dims, c=dims)
@settings(max_examples=100, deadline=None)
def test_product_rows_cancel_to_zero(data, r, k, c):
    # [a | a] times [b ; -b] is a·b - a·b: every row of the product cancels
    a = data.draw(dense(r, k))
    b = data.draw(dense(k, c))
    wide = RationalMatrix([row + row for row in a])
    tall = RationalMatrix(b + [[-v for v in row] for row in b])
    prod = wide @ tall
    assert prod.is_zero() and prod.nonzeros() == {}
    assert prod == RationalMatrix.zeros(r, c)


@given(data=st.data(), n=dims)
@settings(max_examples=150, deadline=None)
def test_bracket_matches_triple_loop(data, n):
    x = data.draw(dense(n, n))
    y = data.draw(dense(n, n))
    expected = ref_add(ref_mul(x, y), ref_mul(y, x), -1)
    mx, my = RationalMatrix(x), RationalMatrix(y)
    got = bracket(mx, my)
    check_invariants(got, expected)
    assert got.trace() == 0
    assert bracket_flat(mx, my) == {k: v for k, v in enumerate(sum(expected, [])) if v}


@given(data=st.data(), r=dims, c=dims, scale=small_fraction)
@settings(max_examples=150, deadline=None)
def test_sum_difference_scaling(data, r, c, scale):
    x = data.draw(dense(r, c))
    y = data.draw(dense(r, c))
    mx, my = RationalMatrix(x), RationalMatrix(y)
    check_invariants(mx + my, ref_add(x, y))
    check_invariants(mx - my, ref_add(x, y, -1))
    check_invariants(-mx, [[-v for v in row] for row in x])
    check_invariants(mx.scaled(scale), [[scale * v for v in row] for row in x])
    assert mx - mx == RationalMatrix.zeros(r, c)
    assert (mx - mx).is_zero()
    assert mx + my == my + mx and hash(mx + my) == hash(my + mx)
    # a difference that cancels exactly the rows y shares with x
    shared = [rx if i % 2 else ry for i, (rx, ry) in enumerate(zip(x, y))]
    check_invariants(mx - RationalMatrix(shared), ref_add(x, shared, -1))


@given(data=st.data(), r=dims, c=dims)
@settings(max_examples=100, deadline=None)
def test_dense_views_round_trip(data, r, c):
    x = data.draw(dense(r, c))
    m = RationalMatrix(x)
    assert RationalMatrix(m.entries) == m
    assert m.flat() == tuple(v for row in x for v in row)
    assert m.nonzeros() == {(i, j): v for i, row in enumerate(x) for j, v in enumerate(row) if v}
    assert RationalMatrix.from_nonzeros(r, c, m.nonzeros()) == m
    assert m.flat_nonzeros() == {k: v for k, v in enumerate(m.flat()) if v}
    assert RationalMatrix.from_flat(r, c, m.flat_nonzeros()) == m
    assert RationalMatrix.from_flat(r, c, m.flat()) == m
    assert m.is_zero() == (not any(v for row in x for v in row))
    if r == c:
        assert m.trace() == sum((x[i][i] for i in range(r)), F(0))


def test_constructors_and_repr():
    assert RationalMatrix.identity(3) == RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert RationalMatrix.unit(2, 1, 0).entries == ((0, 0), (1, 0))
    assert RationalMatrix.zeros(2, 3).entries == ((0, 0, 0), (0, 0, 0))
    assert repr(RationalMatrix([[F(1, 2), 0]])) == "RationalMatrix([['1/2', '0']])"
    assert RationalMatrix.zeros(2) != RationalMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix.from_nonzeros(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        RationalMatrix.zeros(2) @ RationalMatrix.zeros(3)
    for x, y in [(RationalMatrix.zeros(2), RationalMatrix.zeros(3)),
                 (RationalMatrix.zeros(2, 3), RationalMatrix.zeros(2, 3)),
                 (RationalMatrix.zeros(2), RationalMatrix.zeros(2, 3))]:
        with pytest.raises(ValueError):
            bracket(x, y)
    with pytest.raises(AttributeError):
        RationalMatrix.zeros(2).rows = 3
