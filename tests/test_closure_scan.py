"""The one-pass closure scan against the scan it replaced, which reduced
each bracket against every pivot of the tagged echelon; that scan is kept
here as the reference."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import matlie
from idealkit.base import InputError
from idealkit.catalog import (
    _KINDS,
    direct_sum,
    make_algebra,
    sp_skew_variant,
    sp_standard,
)
from idealkit.dsl import parse_seq
from idealkit.ratlinalg import F1, RationalMatrix, SparseEchelon

from conftest import combination, diagonal_algebra


def _coords(span, vec):
    """Coordinates of vec in span's tagged generators by ``reduce``; None outside."""
    rem, n = span.reduce(vec), span.ncols
    return None if any(c < n for c in rem) else {k - n: -c for k, c in rem.items()}


def reference_scan(L):
    """(ads, None) for a closed basis, else (None, (i, j, residual)) for the
    first pair in lexicographic order whose bracket leaves the span.  Each
    bracket is two products and a difference, so the reference never runs
    the commutator the scan uses."""
    n = L.ambient * L.ambient
    span = SparseEchelon(n)
    for idx, b in enumerate(L.basis):
        flat = b.flat_nonzeros()
        if _coords(span, flat) is not None:
            raise InputError(f"{L.name}: basis matrix {idx} depends on earlier ones")
        span.insert({**flat, n + idx: F1})
    d = L.dim
    ads = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x, y = L.basis[i], L.basis[j]
            flat = combination(L.ambient, [(1, x @ y), (-1, y @ x)]).flat_nonzeros()
            col = _coords(span, flat)
            if col is None:
                residual = {c: v for c, v in span.reduce(flat).items() if c < n}
                return None, (i, j, RationalMatrix.from_flat(L.ambient, L.ambient, residual))
            ads[i][j] = col
            ads[j][i] = {k: -c for k, c in col.items()}
    return ads, None


def assert_matches_reference(L):
    try:
        expected = reference_scan(L)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            matlie._closure_scan(L)
        assert str(got.value) == str(exc)
        return
    structure, bad = matlie._closure_scan(L)
    ads, expected_bad = expected
    if ads is None:
        assert structure is None and bad == expected_bad
    else:
        assert bad is None and structure.ads == ads


CATALOG = [make_algebra(kind, n) for kind in _KINDS for n in (2, 3, 4)]
CATALOG += [diagonal_algebra(n) for n in (2, 3, 4)]
CATALOG += [make_algebra("shift", n, parse_seq("pow:1")) for n in (2, 3, 4)]
CATALOG += [direct_sum(sp_standard(3), sp_standard(2))]


@pytest.mark.parametrize("algebra", CATALOG, ids=lambda L: L.name)
def test_catalog_matches_reference(algebra):
    assert_matches_reference(algebra)


def test_not_closed_pair_and_residual_match_reference():
    L = sp_skew_variant(3)
    _, (i, j, residual) = reference_scan(L)
    report = matlie.closure_check(L)
    assert not report.closed
    assert (report.pair, report.residual) == ((i, j), residual)


def test_dependent_basis_error_matches_reference():
    b = sp_standard(2).basis
    dependent = combination(4, [(1, b[0]), (F(2, 3), b[1])])
    L = matlie.LieAlgebraPresentation(4, (b[0], b[1], dependent), "dependent")
    assert_matches_reference(L)
    with pytest.raises(InputError, match="basis matrix 2 depends on earlier ones"):
        matlie.closure_check(L)


ENTRIES = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2, 3), F(-3, 2), F(5)])


@st.composite
def small_bases(draw):
    """Any few small matrices: mostly not closed, sometimes dependent."""
    a = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    mats = tuple(RationalMatrix([[draw(ENTRIES) for _ in range(a)] for _ in range(a)])
                 for _ in range(k))
    return matlie.LieAlgebraPresentation(a, mats, "drawn")


@st.composite
def rebased_catalog(draw):
    """A closed catalog algebra in a drawn triangular change of basis, so
    that the echelon's pivots are not one."""
    L = draw(st.sampled_from([make_algebra("sl", 2), make_algebra("sl", 3), sp_standard(1),
                              sp_standard(2), make_algebra("ut-sl", 3),
                              make_algebra("strictly-upper", 4)]))
    units = st.sampled_from([F(1), F(-1), F(2, 3), F(-3, 2), F(5)])
    basis = []
    for k in range(L.dim):
        terms = [(draw(units), L.basis[k])]
        terms += [(draw(ENTRIES), L.basis[l]) for l in range(k + 1, L.dim)]
        basis.append(combination(L.ambient, terms))
    return matlie.LieAlgebraPresentation(L.ambient, tuple(basis), f"rebased {L.name}")


@given(L=small_bases())
@settings(max_examples=150, deadline=None)
def test_drawn_bases_match_reference(L):
    assert_matches_reference(L)


@given(L=rebased_catalog())
@settings(max_examples=60, deadline=None)
def test_rebased_catalog_matches_reference(L):
    assert_matches_reference(L)


def test_rungs_never_hash_the_basis(monkeypatch):
    # every rung reads the structure kept on the presentation; looking it up
    # must not hash the basis
    calls = []
    matrix_hash = RationalMatrix.__hash__

    def counting_hash(self):
        calls.append(self)
        return matrix_hash(self)

    monkeypatch.setattr(RationalMatrix, "__hash__", counting_hash)
    assert matlie.is_simple(sp_standard(4)).verdict == "Simple"
    assert calls == []
