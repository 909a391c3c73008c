"""Exact linear algebra kernel: the sparse echelon core over the rationals
and over GF(p), and its span and coordinate queries, against a textbook
dense elimination."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit.ratlinalg import (
    MODP_PRIMES,
    SparseEchelon,
    frac_mod_p,
)

from conftest import dense, sparse, textbook_nullspace, textbook_rank, textbook_rref

fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(
        st.lists(fractions, min_size=c, max_size=c), min_size=1, max_size=6
    )
)


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(row, v)), F(0)) for row in rows]


def _echelon(m, p=None):
    ech = SparseEchelon(len(m[0]), p)
    for row in m:
        ech.insert(sparse(row))
    return ech


def reference_reduced(ech):
    """``reduced`` as it was with its own backward pass: each held row
    re-reduced against every pivot.  Reads the held rows only."""
    one = F(1) if ech.p is None else 1
    out = []
    for piv in sorted(ech._rows):
        rest = {c: v for c, v in ech._rows[piv].items() if c != piv}
        out.append({piv: one, **ech.reduce(rest)})
    return out


def reference_sparse_kernel(ech):
    """``sparse_kernel`` as it was with its own backward pass: a table of
    each column as a combination of the free columns.  Reads the held rows
    only."""
    p = ech.p
    one = F(1) if p is None else 1
    rows = ech._rows
    free = [c for c in range(ech.ncols) if c not in rows]
    expr = {f: {f: one} for f in free}
    for piv in sorted(rows, reverse=True):
        acc: dict = {}
        for c, v in rows[piv].items():
            if c == piv:
                continue
            for f, w in expr[c].items():
                acc[f] = acc.get(f, 0) - v * w
        if p is not None:
            acc = {f: w % p for f, w in acc.items()}
        expr[piv] = {f: w for f, w in acc.items() if w}
    basis: dict = {f: {} for f in free}
    for c, e in expr.items():
        for f, w in e.items():
            basis[f][c] = w
    return [basis[f] for f in free]


def _outcome(method, ech):
    """What method(ech) returns, or the type of the lookup error it raises:
    the reference kernel has no expression for a tag column that is not a
    pivot."""
    try:
        return method(ech)
    except (IndexError, KeyError) as exc:
        return type(exc)


@st.composite
def sparse_systems(draw):
    """(p, ncols, rows, probes): sparse rows over Fraction or GF(p), some
    with tag columns at or beyond ncols, and probe rows of the same kind."""
    p = draw(st.sampled_from([None, 7, MODP_PRIMES[0]]))
    ncols = draw(st.integers(1, 6))
    width = ncols + draw(st.integers(0, 2))
    values = fractions if p is None else st.integers(-9, 9) | st.integers(0, p - 1)
    rows = st.lists(st.dictionaries(st.integers(0, width - 1), values, max_size=width), max_size=7)
    return p, ncols, draw(rows), draw(rows)


def _held(p, ncols, rows):
    ech = SparseEchelon(ncols, p)
    for row in rows:
        ech.insert(row)
    return ech


class TestRref:
    def test_simple_rank(self):
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
        red = _echelon(rows).reduced()
        assert red == [{0: F(1)}, {1: F(1)}]

    @given(m=matrices)
    @settings(max_examples=150)
    def test_rank_nullity(self, m):
        ncols = len(m[0])
        ech = _echelon(m)
        kern = [dense(v, ncols) for v in ech.sparse_kernel()]
        assert ech.rank + len(kern) == ncols
        for v in kern:
            assert all(x == 0 for x in mat_vec(m, v))
        # the reduced rows are the textbook ones
        red, _ = textbook_rref(m, ncols)
        assert [dense(row, ncols) for row in ech.reduced()] == red

    @given(m=matrices)
    def test_rref_idempotent(self, m):
        red = _echelon(m).reduced()
        again = SparseEchelon(len(m[0]))
        for row in red:
            again.insert(row)
        assert again.reduced() == red

    @given(m=matrices)
    @example(m=[[F(1), F(2)], [F(0), F(3)]])
    def test_reduced_rows_are_copies(self, m):
        ech = _echelon(m)
        red = ech.reduced()
        for row in red:
            row[len(m[0])] = F(5)
            row.pop(min(row))
        assert ech.reduced() == _echelon(m).reduced()


class TestSparseEchelon:
    @given(m=matrices)
    def test_rank_agrees_with_dense(self, m):
        assert _echelon(m).rank == textbook_rank(m)

    @given(m=matrices)
    @settings(max_examples=100)
    def test_kernel_annihilates(self, m):
        ech = _echelon(m)
        kern = [dense(v, len(m[0])) for v in ech.sparse_kernel()]
        for v in kern:
            assert all(x == 0 for x in mat_vec(m, v))
        assert ech.rank + len(kern) == len(m[0])

    @given(m=matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_nullspace(self, m):
        # the textbook elimination's canonical basis, and sympy's
        ncols = len(m[0])
        kern = [dense(v, ncols) for v in _echelon(m).sparse_kernel()]
        assert kern == textbook_nullspace(m, ncols)
        sympy = pytest.importorskip("sympy")
        ref = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m])
        assert kern == [[F(int(x.p), int(x.q)) for x in v] for v in ref.nullspace()]

    def test_insert_and_contains(self):
        ech = SparseEchelon(3)
        assert ech.insert({0: F(1), 2: F(1)})
        assert not ech.insert({0: F(2), 2: F(2)})
        assert ech.reduce({0: F(-3), 2: F(-3)}) == {}
        assert ech.reduce({0: F(1), 1: F(1)})

    @given(m=matrices)
    def test_dim_matches_rank(self, m):
        ech = SparseEchelon(len(m[0]))
        for row in map(sparse, m):
            # a row adds to the rank exactly when its remainder is nonzero
            grows = bool(ech.reduce(row))
            assert ech.insert(row) == grows
            assert ech.reduce(row) == {}
        assert ech.rank == textbook_rank(m)

    @given(m=matrices)
    @settings(max_examples=100)
    def test_reduce_reconstructs(self, m):
        # generator k carries tag column ncols + k; coordinates are minus the tags
        ncols = len(m[0])
        ech = SparseEchelon(ncols)
        for k, row in enumerate(m):
            ech.insert({**dict(enumerate(row)), ncols + k: F(1)})
        units = [[F(int(i == c)) for i in range(ncols)] for c in range(ncols)]
        for target in m + units:
            residual = {c: v for c, v in ech.reduce(sparse(target)).items() if c < ncols}
            if residual:
                assert textbook_rank(m + [target]) > textbook_rank(m)
                continue
            coeffs = [-ech.reduce(sparse(target)).get(ncols + k, F(0)) for k in range(len(m))]
            rebuilt = [F(0)] * ncols
            for c, gen in zip(coeffs, m):
                rebuilt = [a + c * g for a, g in zip(rebuilt, gen)]
            assert rebuilt == list(target)

    @given(system=sparse_systems())
    @example(system=(MODP_PRIMES[0], 3, [{0: 1, 1: 1}, {1: 1, 2: 5}], [{0: 1, 1: 2, 2: 3}]))
    @settings(max_examples=200, deadline=None)
    def test_back_substitute_clears_other_pivots_and_keeps_remainders(self, system):
        p, ncols, rows, probes = system
        ech = _held(p, ncols, rows)
        before = [ech.reduce(row) for row in probes]
        ech.back_substitute()
        for piv, row in ech._rows.items():
            assert row[piv] == 1 and all(c not in row for c in ech._rows if c != piv)
            assert min(row) == piv
            assert p is None or all(0 < v < p for v in row.values())
        assert [ech.reduce(row) for row in probes] == before

    def test_dependent_row_rejected(self):
        ech = SparseEchelon(3)
        assert ech.insert({0: F(1), 2: F(1)})
        assert not ech.insert({0: F(-3), 2: F(-3)})
        assert not ech.insert({})
        assert ech.rank == 1


class TestOneBackwardPass:
    """``reduced`` and ``sparse_kernel`` read the rows ``back_substitute``
    clears, and leave an echelon that answers as a fresh one."""

    @given(system=sparse_systems())
    @example(system=(None, 2, [{0: F(1), 1: F(2), 2: F(1)}, {2: F(3)}], [{1: F(1), 3: F(1)}]))
    @example(system=(7, 3, [{0: 1, 1: 6, 2: 3}, {1: 1, 2: 5}, {3: 2}], [{0: 5, 2: 1}]))
    @example(system=(MODP_PRIMES[0], 3, [{0: 1, 2: 9}, {0: 2, 1: 1}], [{1: 4}]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_and_answers_as_a_fresh_echelon(self, system):
        p, ncols, rows, probes = system
        red, kern = _held(p, ncols, rows), _held(p, ncols, rows)
        expected_red = _outcome(reference_reduced, _held(p, ncols, rows))
        expected_kern = _outcome(reference_sparse_kernel, _held(p, ncols, rows))
        assert _outcome(SparseEchelon.reduced, red) == expected_red
        kernel = kern.sparse_kernel()
        if expected_kern is not KeyError:
            assert kernel == expected_kern
        fresh = _held(p, ncols, rows)
        for probe in probes:
            expected = (fresh.reduce(probe), fresh.insert(probe))
            for ech in (red, kern):
                assert (ech.reduce(probe), ech.insert(probe)) == expected
        assert red.rank == kern.rank == fresh.rank


@st.composite
def tagged_runs(draw):
    """(ncols, tagged, ops): Fraction generators below ncols, tagged at
    ncols + k when tagged, inserted in turn between probes.  A probe is a
    vector below ncols, or ("combo", coefficients) of the generators inserted
    so far, which lies in their span."""
    ncols = draw(st.integers(1, 6))
    vec = st.dictionaries(st.integers(0, ncols - 1), fractions, max_size=ncols)
    ops = st.lists(st.tuples(st.just("insert"), vec) | st.tuples(st.just("probe"), vec)
                   | st.tuples(st.just("combo"), st.lists(fractions, max_size=7)), max_size=12)
    return ncols, draw(st.booleans()), draw(ops)


class TestCoords:
    """``coords`` answers what ``reduce`` on a fresh echelon of the same rows
    does: None when the remainder keeps a column below ncols, else minus its
    tag entries; an insert between two probes drops the read-off table."""

    @given(run=tagged_runs())
    # a stale table would still answer None after the second insert
    @example(run=(2, True, [("insert", {0: F(1)}), ("probe", {1: F(1)}),
                            ("insert", {1: F(2)}), ("probe", {0: F(1), 1: F(1)})]))
    # dependent generators leave a pivot at a tag column
    @example(run=(2, True, [("insert", {0: F(1)}), ("insert", {0: F(2)}), ("probe", {0: F(3)})]))
    @example(run=(3, False, [("insert", {0: F(1), 2: F(1)}), ("combo", [F(2)]),
                             ("insert", {1: F(1)}), ("probe", {2: F(1)})]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reduce_between_inserts(self, run):
        ncols, tagged, ops = run
        ech = SparseEchelon(ncols)
        gens, held = [], []
        for kind, arg in ops:
            if kind == "insert":
                gens.append(arg)
                held.append({**arg, ncols + len(gens) - 1: F(1)} if tagged else arg)
                ech.insert(held[-1])
                continue
            if kind == "combo":
                combo: dict = {}
                for x, gen in zip(arg, gens):
                    for c, v in gen.items():
                        combo[c] = combo.get(c, F(0)) + x * v
                arg = {c: v for c, v in combo.items() if v}
            rem = _held(None, ncols, held).reduce(arg)
            expected = None if any(c < ncols for c in rem) else {
                c - ncols: -v for c, v in rem.items()}
            assert ech.coords(arg) == expected
            if kind == "combo":
                assert expected is not None
        # after coords, reduced and sparse_kernel answer as on a fresh echelon
        expected_red = _outcome(reference_reduced, _held(None, ncols, held))
        expected_kern = _outcome(reference_sparse_kernel, _held(None, ncols, held))
        assert _outcome(SparseEchelon.reduced, ech) == expected_red
        kernel = ech.sparse_kernel()
        if expected_kern is not KeyError:
            assert kernel == expected_kern
        assert ech.rank == _held(None, ncols, held).rank


int_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=2, max_size=6
)


class TestModular:
    def test_frac_mod_p(self):
        p = MODP_PRIMES[0]
        v = frac_mod_p(F(3, 4), p)
        assert v * 4 % p == 3
        assert frac_mod_p(F(-3, 4), p) == p - v
        assert frac_mod_p(F(1, p), p) is None

    def test_identity_full_rank(self):
        p = MODP_PRIMES[0]
        eye = [[int(i == j) for j in range(7)] for i in range(7)]
        assert _echelon(eye, p).rank == 7

    @given(m=int_matrices)
    @settings(max_examples=100)
    def test_modular_rank_lower_bounds_exact(self, m):
        exact = textbook_rank(m)
        r = _echelon(m, MODP_PRIMES[0]).rank
        assert r <= exact
        # entries this small cannot hit a 2**31-sized prime
        assert r == exact

    def test_rank_drops_only_mod_p(self):
        p = 5
        m = [[1, 2], [3, 1]]  # determinant -5: full rank over Q, not mod 5
        assert textbook_rank(m) == 2
        assert _echelon(m, p).rank == 1

    @given(m=int_matrices)
    @settings(max_examples=100)
    def test_modular_kernel_annihilates(self, m):
        p = MODP_PRIMES[0]
        ech = _echelon(m, p)
        kern = [dense(v, len(m[0])) for v in ech.sparse_kernel()]
        for v in kern:
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m)
            assert all(0 <= x < p for x in v)
        assert ech.rank + len(kern) == len(m[0])
