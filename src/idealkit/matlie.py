"""Exact-rational finite-dimensional matrix Lie algebra engine.

Everything here is proved, not approximated: matrices carry Fraction
entries, spans are echelon bases over the rationals, and the simplicity
decision is a ladder of exact steps (derived algebra, center, Killing
radical, adjoint commutant).  The commutant comes from one routine of
successive restriction, over the rationals or GF(p).  Modular arithmetic
only shortcuts a proof: rank can only drop modulo a prime, so that routine
run mod p proves a commutant of exactly the scalars, and the random ideal
search mod p proves that a sample generates all of L; neither can prove
the converse.

The commutant-dimension criterion counts the simple summands of a split
semisimple algebra; for a simple algebra whose centroid is a proper field
extension of the rationals the criterion can exceed one, in which case
a NotSimple verdict without a witness carries the flag "witness
extraction incomplete" rather than a wrong eigenspace.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from fractions import Fraction
from typing import List, Optional, Sequence

from . import ratlinalg
from .base import Frozen, InputError, as_fraction, parse_rational
from .ratlinalg import (
    F0,
    F1,
    MODP_PRIMES,
    RationalMatrix,
    SparseEchelon,
    bracket,
    frac_mod_p,
    nullspace,
)

# RationalMatrix and bracket live in ratlinalg and stay listed here:
# perfbench's tracer wraps matlie.bracket, which nothing here calls, and
# tests/test_tracer_entry_points.py reads both.
__all__ = [
    "ClosureReport",
    "CommutantReport",
    "IdealCheck",
    "KillingReport",
    "LieAlgebraPresentation",
    "NotClosedError",
    "RationalMatrix",
    "SimplicityReport",
    "Subspace",
    "adjoint_commutant",
    "adjoint_commutant_dim",
    "algebra_from_json",
    "bracket",
    "closure_check",
    "derived_algebra",
    "is_lie_ideal",
    "is_simple",
    "killing_form",
    "lie_ideal_generated",
    "load_algebra",
    "load_seeds",
    "matrices_from_json",
    "random_ideal_search",
    "span_reduce",
    "subspace_from_coords",
    "subspace_from_matrices",
]

# The catalog names that perfbench/make_algebras.py calls through matlie;
# catalog loads on the first access to one.
_CATALOG_NAMES = frozenset({"direct_sum", "make_algebra", "save_algebra", "sp_standard"})


def __getattr__(name: str):
    if name in _CATALOG_NAMES:
        from . import catalog
        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Most entries, basis size times ambient_dim squared, of an algebra that is
# built or read from a file; sl(14) has 38,220 and sl(15) 50,400.  Larger
# ones are refused before they are built or decoded.  On a 2-core x86_64
# VM, in process, a file at the limit with ambient_dim 1, where the cost per
# matrix dominates, decodes in about 0.25 s, and the closure scan of sl(14)
# takes about 0.1 s; the rest of the ladder is bounded by the limit but not
# by those times.
MAX_ALGEBRA_ENTRIES = 50_000


class NotClosedError(InputError):
    """The presented basis is not closed under the commutator bracket."""


def _require_entries(dim: int, ambient: int) -> None:
    if dim * ambient * ambient > MAX_ALGEBRA_ENTRIES:
        raise InputError(f"{dim} matrices of size {ambient} x {ambient} exceed the limit of "
                         f"{MAX_ALGEBRA_ENTRIES} entries")


def _flat(m: RationalMatrix) -> dict:
    """Nonzero entries keyed by the row-major flat index r·cols + c."""
    cols = m.cols
    return {r * cols + c: v for r, row in m._data.items() for c, v in row.items()}


def _from_flat(flat, rows: int, cols: int) -> RationalMatrix:
    """Matrix from row-major flat entries: a dense sequence, or a dict
    {r·cols + c: value} like the one ``_flat`` returns."""
    items = flat.items() if isinstance(flat, dict) else enumerate(flat)
    return RationalMatrix.from_nonzeros(rows, cols, {divmod(k, cols): v for k, v in items if v})


# ---------------------------------------------------------------------------
# Presentations and subspaces
# ---------------------------------------------------------------------------


class LieAlgebraPresentation(Frozen):
    """Linearly independent matrix basis of a subspace of ambient x ambient
    matrices, intended to be bracket-closed."""

    # _scan: the closure scan's result, set once by _scanned; a slot, so it is
    # not a field and equality and hashing never read it
    __slots__ = ("__dict__", "_scan")

    def __init__(self, ambient: int, basis: tuple, name: str):
        vars(self).update(ambient=ambient, basis=basis, name=name)

    @property
    def dim(self) -> int:
        return len(self.basis)


class Subspace(Frozen):
    """Subspace of a presentation, as canonical reduced-echelon coordinate rows."""

    def __init__(self, parent: LieAlgebraPresentation, vectors: tuple):
        # vectors: tuple of coordinate tuples, RREF canonical
        vars(self).update(parent=parent, vectors=vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrices(self) -> List[RationalMatrix]:
        amb = self.parent.ambient
        flats = [_flat(b) for b in self.parent.basis]
        return [_from_flat(_apply(flats, enumerate(vec)), amb, amb) for vec in self.vectors]

    def contains_coords(self, vec: Sequence[Fraction]) -> bool:
        span = SparseEchelon(len(vec))
        for row in self.vectors:
            span.insert(row)
        return not span.reduce(vec)

    def ambient_rref(self) -> tuple:
        """Canonical form in the ambient matrix space; comparable across parents."""
        amb = self.parent.ambient
        return tuple(tuple(r) for r in _rref(map(_flat, self.matrices()), amb * amb))


def _subspace(parent: LieAlgebraPresentation, rows) -> Subspace:
    """Subspace spanned by coordinate rows, dense or sparse dicts."""
    return Subspace(parent, tuple(tuple(r) for r in _rref(rows, parent.dim)))


def subspace_from_coords(parent: LieAlgebraPresentation, rows: Sequence[Sequence]) -> Subspace:
    return _subspace(parent, ([as_fraction(v) for v in row] for row in rows))


def _matrix_coords(L: LieAlgebraPresentation, mats: Sequence[RationalMatrix]) -> List[dict]:
    """Sparse coordinates of the matrices in the basis of L; InputError when
    one lies outside its span."""
    span = _structure(L).span
    coords = [_coords(span, _flat(m)) for m in mats]
    if None in coords:
        raise InputError("matrix outside the span of the presentation basis")
    return coords


def subspace_from_matrices(parent: LieAlgebraPresentation, mats: Sequence[RationalMatrix]) -> Subspace:
    return _subspace(parent, _matrix_coords(parent, mats))


def span_reduce(mats: Sequence[RationalMatrix]) -> List[RationalMatrix]:
    """Canonical reduced-echelon basis of the span of the given matrices."""
    mats = list(mats)
    if not mats:
        return []
    rows, cols = mats[0].rows, mats[0].cols
    for m in mats:
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("span_reduce needs matrices of equal shape")
    return [_from_flat(r, rows, cols) for r in _rref(map(_flat, mats), rows * cols)]


def _rref(rows, n: int) -> list:
    """Dense reduced row echelon rows, n entries each, of the span of rows
    given dense or as sparse dicts."""
    span = SparseEchelon(n)
    for row in rows:
        span.insert(row)
    return span.reduced()


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


class _Structure:
    __slots__ = ("span", "ads")

    def __init__(self, span, ads):
        self.span = span  # basis matrix k flattened, tagged at column ambient² + k
        # ads[i][j] = {k: c}, the nonzero coordinates of [b_i, b_j]: column j of ad(b_i)
        self.ads = ads


class ClosureReport(Frozen):
    # pair: (i, j) of the first failing bracket; residual: its remainder
    # after eliminating span components
    def __init__(self, closed: bool, pair: Optional[tuple], residual: Optional[RationalMatrix]):
        vars(self).update(closed=closed, pair=pair, residual=residual)


def _coords(span: SparseEchelon, vec) -> Optional[dict]:
    """Nonzero coordinates {k: c} of vec in the generators of span, generator k
    tagged at column span.ncols + k; None when vec lies outside their span."""
    rem = span.reduce(vec)
    n = span.ncols
    if any(c < n for c in rem):
        return None
    return {k - n: -c for k, c in rem.items()}


def _bracket_flat(x: dict, y: dict, cols: int) -> dict:
    """xy - yx for two square matrices given by their sparse rows
    (``RationalMatrix._data``), as its nonzero entries keyed by the row-major
    flat index r·cols + c."""
    acc: dict = {}
    for i, row in x.items():
        for k, a in row.items():
            yk = y.get(k)
            if yk:
                for j, b in yk.items():
                    key = i * cols + j
                    acc[key] = acc[key] + a * b if key in acc else a * b
    for i, row in y.items():
        for k, a in row.items():
            xk = x.get(k)
            if xk:
                for j, b in xk.items():
                    key = i * cols + j
                    acc[key] = acc[key] - a * b if key in acc else -(a * b)
    return {k: v for k, v in acc.items() if v}


def _closure_scan(L: LieAlgebraPresentation):
    amb = L.ambient
    n = amb * amb
    span = SparseEchelon(n)
    for idx, b in enumerate(L.basis):
        flat = _flat(b)
        if _coords(span, flat) is not None:
            raise InputError(f"{L.name}: basis matrix {idx} depends on earlier ones")
        span.insert({**flat, n + idx: F1})
    span.back_substitute()
    # With every pivot row zero at the other pivot columns, a bracket v lies
    # in the span exactly when v minus v[p]·(row p), summed over the pivot
    # columns p of v, leaves no matrix entry; its coordinates are then the
    # sum of v[p]·(tag entries of row p).  So each pivot row is kept as its
    # matrix entries off the pivot and its tag entries.
    split = {
        p: ([(c, x) for c, x in row.items() if c < n and c != p],
            [(c - n, x) for c, x in row.items() if c >= n])
        for p, row in span._rows.items()
    }
    mats = [b._data for b in L.basis]
    d = L.dim
    ads = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        x = mats[i]
        for j in range(i + 1, d):
            flat = _bracket_flat(x, mats[j], amb)
            rest: dict = {}
            col: dict = {}
            for c, v in flat.items():
                part = split.get(c)
                if part is None:
                    rest[c] = rest[c] + v if c in rest else v
                    continue
                off, tags = part
                for k, w in off:
                    rest[k] = rest[k] - v * w if k in rest else -(v * w)
                for k, w in tags:
                    col[k] = col[k] + v * w if k in col else v * w
            if any(rest.values()):
                residual = {c: v for c, v in span.reduce(flat).items() if c < n}
                return None, (i, j, _from_flat(residual, amb, amb))
            col = {k: c for k, c in col.items() if c}
            ads[i][j] = col
            ads[j][i] = {k: -c for k, c in col.items()}
    return _Structure(span, ads), None


def _scanned(L: LieAlgebraPresentation):
    """_closure_scan(L), run once per presentation; every rung reads it."""
    try:
        return L._scan
    except AttributeError:
        object.__setattr__(L, "_scan", _closure_scan(L))
        return L._scan


def closure_check(L: LieAlgebraPresentation) -> ClosureReport:
    """Scan basis pairs in lexicographic order for a bracket outside the span."""
    st, bad = _scanned(L)
    if st is not None:
        return ClosureReport(True, None, None)
    i, j, residual = bad
    return ClosureReport(False, (i, j), residual)


def _structure(L: LieAlgebraPresentation) -> _Structure:
    st, bad = _scanned(L)
    if st is None:
        i, j, _ = bad
        raise NotClosedError(
            f"{L.name}: bracket of basis elements {i} and {j} lies outside the span"
        )
    return st


# ---------------------------------------------------------------------------
# Ideals, derived algebra, Killing form
# ---------------------------------------------------------------------------


def derived_algebra(L: LieAlgebraPresentation) -> Subspace:
    """Span of all pairwise basis brackets, as a subspace of L."""
    ads = _structure(L).ads
    d = L.dim
    return _subspace(L, (ads[i][j] for i in range(d) for j in range(i + 1, d)))


class IdealCheck(Frozen):
    # violation: (basis index of L, row index of J)
    def __init__(self, is_ideal: bool, violation: Optional[tuple]):
        vars(self).update(is_ideal=is_ideal, violation=violation)


def _apply(ad: Sequence[dict], items, p: Optional[int] = None) -> dict:
    """ad, given by its sparse columns, applied to the vector with the given
    (index, value) pairs; over GF(p) when p is given."""
    w: dict = {}
    for j, x in items:
        if x:
            for k, c in ad[j].items():
                w[k] = w.get(k, 0) + x * c
    return w if p is None else {k: c % p for k, c in w.items()}


def _rows(cols: Sequence[dict], d: int) -> List[dict]:
    """Sparse rows of the d x d matrix whose column j is the dict cols[j]."""
    rows = [{} for _ in range(d)]
    for j, col in enumerate(cols):
        for k, c in col.items():
            rows[k][j] = c
    return rows


def is_lie_ideal(L: LieAlgebraPresentation, J: Subspace) -> IdealCheck:
    """Check [L, J] <= J on basis elements."""
    if J.parent != L:
        raise ValueError("subspace does not live in the given presentation")
    st = _structure(L)
    span = SparseEchelon(L.dim)
    for row in J.vectors:
        span.insert(row)
    for i, ad in enumerate(st.ads):
        for j, vec in enumerate(J.vectors):
            if span.reduce(_apply(ad, enumerate(vec))):
                return IdealCheck(False, (i, j))
    return IdealCheck(True, None)


def _center_coords(L: LieAlgebraPresentation) -> List[List[Fraction]]:
    d = L.dim
    return nullspace((row for ad in _structure(L).ads for row in _rows(ad, d)), d)


class KillingReport(Frozen):
    def __init__(self, matrix: RationalMatrix, rank: int):
        vars(self).update(matrix=matrix, rank=rank)


def killing_form(L: LieAlgebraPresentation) -> KillingReport:
    """Trace form of the adjoint representation, with its exact rank."""
    if L.dim < 1:
        raise InputError("need a nonzero algebra")
    ads = _structure(L).ads
    d = L.dim
    k = [[F0] * d for _ in range(d)]
    for i in range(d):
        # tr(ad_i ad_j) sums ad_i[l][m] * ad_j[m][l] over the nonzeros of ad_i
        entries = [(m, l, c) for m, col in enumerate(ads[i]) for l, c in col.items()]
        for j in range(i, d):
            adj = ads[j]
            acc = F0
            for m, l, c in entries:
                x = adj[l].get(m)
                if x:
                    acc += c * x
            k[i][j] = acc
            k[j][i] = acc
    return KillingReport(RationalMatrix(k), ratlinalg.rank(k))


def _ideal_span(
    ads: Sequence[Sequence[dict]], seeds: Sequence[dict], p: Optional[int] = None
) -> SparseEchelon:
    """Echelon of the least subspace that contains the sparse coordinate
    vectors seeds and is invariant under every ad; over Fraction, or over
    GF(p) when the ads and seeds are given mod p."""
    d = len(ads)
    span = SparseEchelon(d, p)
    queue = deque(v for v in seeds if span.insert(v))
    while queue and span.rank < d:
        v = queue.popleft()
        for ad in ads:
            w = _apply(ad, v.items(), p)
            if span.insert(w):
                queue.append(w)
                if span.rank == d:
                    break
    return span


def _ideal_fixpoint(L: LieAlgebraPresentation, seeds: Sequence[dict]) -> Subspace:
    """Least Lie ideal containing the sparse coordinate vectors seeds."""
    return _subspace(L, _ideal_span(_structure(L).ads, seeds).reduced())


def lie_ideal_generated(L: LieAlgebraPresentation, seeds: Sequence[RationalMatrix]) -> Subspace:
    """Least Lie ideal of L containing the seeds, by bracket fixpoint."""
    return _ideal_fixpoint(L, _matrix_coords(L, seeds))


def random_ideal_search(
    L: LieAlgebraPresentation,
    samples: int = 200,
    seed: int = 0,
    coord_bound: int = 9,
) -> Optional[Subspace]:
    """Generate the ideal of random integer elements; first proper nonzero
    ideal found, or None.  Used as a soundness cross-check for Simple verdicts.

    Each sample's fixpoint runs in GF(p) first: rank can only drop mod p, so
    reaching rank d there proves the sample generates all of L.  Only a
    shortfall, or a denominator of the ads that vanishes mod every prime,
    leads to the exact fixpoint, so the result is the exact path's.
    """
    p, mods = _ads_mod_p(_structure(L).ads)
    rng = random.Random(seed)
    d = L.dim
    for _ in range(samples):
        coords = [rng.randint(-coord_bound, coord_bound) for _ in range(d)]
        if all(v == 0 for v in coords):
            coords[rng.randrange(d)] = 1
        seed_vec = {k: c for k, c in enumerate(coords) if c}
        if mods is not None and _ideal_span(mods, [seed_vec], p).rank == d:
            continue
        J = _ideal_fixpoint(L, [{k: Fraction(c) for k, c in seed_vec.items()}])
        if 0 < J.dim < d:
            return J
    return None


# ---------------------------------------------------------------------------
# Adjoint commutant
# ---------------------------------------------------------------------------


class CommutantReport(Frozen):
    # basis: RationalMatrix values acting on the coordinate space of L
    def __init__(self, dim: int, basis: tuple, method: str):
        vars(self).update(dim=dim, basis=basis, method=method)


def _ads_mod_p(ads: Sequence[Sequence[dict]]) -> tuple:
    """(p, images of the sparse adjoint maps in GF(p)) for the first prime of
    MODP_PRIMES that leaves every denominator invertible; (None, None) when
    none does."""
    for p in MODP_PRIMES:
        mods = [[{k: frac_mod_p(c, p) for k, c in col.items()} for col in ad] for ad in ads]
        if all(None not in col.values() for ad in mods for col in ad):
            return p, mods
    return None, None


def _commutant(ads: Sequence[Sequence[dict]], d: int, p: Optional[int] = None) -> List[dict]:
    """Sparse basis of the maps X (flattened row major) with X·ad = ad·X for
    every ad, over Fraction or, when the ads are given mod p, over GF(p).

    Successive restriction from the d² unit matrices: for each ad that does
    not commute with the whole basis, the kernel of X -> X·ad - ad·X on the
    basis becomes the next basis, until only the scalars are left.
    """
    # Restrict after every ad, with no switch to tune.  Inserting rows over all
    # d² unknowns until at most 4d or 64d columns stay free took, best of 2 on a
    # 2-core VM: sp(7) 0.27 / 0.19 s against 0.20 s here, sl(14) 1.24 / 0.84 s
    # against 0.90 s, and exact sp(5)+sp(5) 5.93 / 1.13 s against 1.17 s.
    one = F1 if p is None else 1
    basis = [{c: one} for c in range(d * d)]
    for ad in ads:
        by_row = _rows(ad, d)
        rows: dict = {}
        for t, vec in enumerate(basis):
            for c, x in vec.items():
                i, k = divmod(c, d)
                # X·ad puts x·(row k of ad) in row i; ad·X puts (column i of
                # ad)·x in column k
                for j, a in by_row[k].items():
                    row = rows.setdefault(i * d + j, {})
                    row[t] = row.get(t, 0) + x * a
                for l, a in ad[i].items():
                    row = rows.setdefault(l * d + k, {})
                    row[t] = row.get(t, 0) - a * x
        ech = SparseEchelon(len(basis), p)
        for row in rows.values():
            ech.insert(row)
        if not ech.rank:
            continue
        basis = [_apply(basis, coeffs.items(), p) for coeffs in ech.sparse_kernel()]
        if len(basis) == 1:
            break
    return basis


def _commutant_exact(ads: Sequence[Sequence[dict]], d: int) -> List[RationalMatrix]:
    """The exact commutant in the basis ``SparseEchelon.kernel`` gives for the
    full constraint system: reduced echelon form with the columns read right
    to left, so each vector has a unit at its last nonzero column."""
    last = d * d - 1
    flipped = _rref(({last - c: x for c, x in vec.items()} for vec in _commutant(ads, d)), d * d)
    return [_from_flat(row[::-1], d, d) for row in reversed(flipped)]


def adjoint_commutant(L: LieAlgebraPresentation) -> CommutantReport:
    """Dimension and basis of the linear maps commuting with every adjoint map.

    ``_commutant`` runs mod p first: dimension one there proves dimension
    one over Q.  Only a denominator that vanishes mod p moves on to the next
    prime; a larger dimension goes to the exact routine.
    """
    st = _structure(L)
    d = L.dim
    p, mods = _ads_mod_p(st.ads)
    if mods is not None and len(_commutant(mods, d, p)) == 1:
        return CommutantReport(1, (RationalMatrix.identity(d),), "modular-rank-certificate")
    basis = _commutant_exact(st.ads, d)
    return CommutantReport(len(basis), tuple(basis), "exact-elimination")


def adjoint_commutant_dim(L: LieAlgebraPresentation) -> int:
    return adjoint_commutant(L).dim


# ---------------------------------------------------------------------------
# Minimal polynomials and witness extraction
# ---------------------------------------------------------------------------


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = F0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _min_poly(C: RationalMatrix) -> List[Fraction]:
    """Monic minimal polynomial via dependence of the Krylov matrix powers."""
    n = C.rows * C.rows
    span = SparseEchelon(n)
    power = RationalMatrix.identity(C.rows)
    while True:
        vec = _flat(power)
        coeffs = _coords(span, vec)
        if coeffs is not None:
            return [-coeffs.get(k, F0) for k in range(span.rank)] + [F1]
        span.insert({**vec, n + span.rank: F1})
        power = power @ C


def _divisors(n: int, limit: int = 10 ** 6) -> Optional[List[int]]:
    """All positive divisors of a nonzero n via trial division; None when
    factoring stalls."""
    n = abs(n)
    factors = {}
    m = n
    f = 2
    while f * f <= m and f <= limit:
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        if m > 10 ** 12:
            return None
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime ** e for d in divs for e in range(mult + 1)]
    return sorted(set(divs))


def _rational_roots(poly: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Rational roots of a monic polynomial, or None if the coefficient
    factorizations are out of reach."""
    zeros = next(i for i, c in enumerate(poly) if c)
    roots = [F0] if zeros else []
    p = list(poly[zeros:])
    if len(p) == 1:
        return roots
    scale = math.lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    d0 = _divisors(ints[0])
    dl = _divisors(ints[-1])
    if d0 is None or dl is None:
        return None
    for num in d0:
        for den in dl:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if _poly_eval(p, cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# Simplicity decision
# ---------------------------------------------------------------------------


class SimplicityReport(Frozen):
    # verdict: "Simple" | "NotSimple" | "Abelian"
    def __init__(self, verdict: str, witness: Optional[Subspace], detail: str,
                 commutant_dim: Optional[int] = None, flags: tuple = ()):
        vars(self).update(verdict=verdict, witness=witness, detail=detail,
                          commutant_dim=commutant_dim, flags=flags)


def _checked_witness(L: LieAlgebraPresentation, J: Subspace) -> Subspace:
    if not (0 < J.dim < L.dim):
        raise RuntimeError("witness subspace has trivial dimension")
    chk = is_lie_ideal(L, J)
    if not chk.is_ideal:
        raise RuntimeError(f"witness subspace is not a Lie ideal: {chk.violation}")
    return J


def is_simple(L: LieAlgebraPresentation) -> SimplicityReport:
    """Exact simplicity decision.

    Ladder: zero derived algebra reports Abelian; a proper nonzero derived
    algebra, a nonzero center or a nonzero Killing radical each give a
    verified witness ideal; otherwise the Killing form is nondegenerate and
    the adjoint commutant decides, with eigenspace extraction from a
    non-scalar commutant element when the dimension exceeds one.
    """
    if L.dim < 1:
        raise InputError("need a nonzero algebra")
    d = L.dim
    derived = derived_algebra(L)
    if derived.dim == 0:
        witness = None
        if d >= 2:
            witness = _checked_witness(
                L, subspace_from_coords(L, [[F1] + [F0] * (d - 1)])
            )
        return SimplicityReport("Abelian", witness, "derived algebra is zero")
    if derived.dim < d:
        return SimplicityReport(
            "NotSimple",
            _checked_witness(L, derived),
            "derived algebra is a proper nonzero Lie ideal",
        )
    center = _center_coords(L)
    if center:
        return SimplicityReport(
            "NotSimple",
            _checked_witness(L, subspace_from_coords(L, center)),
            "center is a proper nonzero Lie ideal",
        )
    killing = killing_form(L)
    if killing.rank < d:
        rad = nullspace(killing.matrix.entries, d)
        return SimplicityReport(
            "NotSimple",
            _checked_witness(L, subspace_from_coords(L, rad)),
            "Killing radical is a proper nonzero Lie ideal",
        )
    com = adjoint_commutant(L)
    if com.dim == 1:
        return SimplicityReport(
            "Simple",
            None,
            "Killing form nondegenerate and adjoint commutant has dimension 1",
            1,
        )
    witness = _extract_commutant_witness(L, com)
    if witness is not None:
        return SimplicityReport(
            "NotSimple",
            witness,
            "eigenspace of a non-scalar commutant element is a proper nonzero Lie ideal",
            com.dim,
        )
    return SimplicityReport(
        "NotSimple",
        None,
        "adjoint commutant dimension exceeds 1",
        com.dim,
        ("witness extraction incomplete",),
    )


def _extract_commutant_witness(L: LieAlgebraPresentation, com: CommutantReport) -> Optional[Subspace]:
    d = L.dim
    for C in com.basis:
        dense = C.entries
        # C lies in the centroid of a semisimple algebra, a product of number
        # fields, so its minimal polynomial is already square-free
        for lam in _rational_roots(_min_poly(C)) or ():
            shifted = [
                [v - lam if i == j else v for j, v in enumerate(row)]
                for i, row in enumerate(dense)
            ]
            J = subspace_from_coords(L, nullspace(shifted, d))
            if 0 < J.dim < d and is_lie_ideal(L, J).is_ideal:
                return J
    return None


# ---------------------------------------------------------------------------
# Algebra files
# ---------------------------------------------------------------------------


def _encode_rational(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _decode_rational(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        return parse_rational(v)
    raise InputError(f"rationals must be integers or 'p/q' strings, got {v!r:.40}")


def matrices_from_json(flats, ambient: int) -> List[RationalMatrix]:
    """ambient x ambient matrices from a list of flat row-major lists of
    exactly ambient**2 rationals (see _decode_rational); InputError
    otherwise, and before any entry is decoded past MAX_ALGEBRA_ENTRIES."""
    size = ambient * ambient
    if not isinstance(flats, list) or any(not isinstance(f, list) or len(f) != size for f in flats):
        raise InputError(f"expected a list of matrices, each a flat list of {size} rationals")
    _require_entries(len(flats), ambient)
    mats = []
    for flat in flats:
        data: dict = {}
        for k, v in enumerate(flat):
            # an exact int zero needs no Fraction; every other entry is checked
            if v.__class__ is int and not v:
                continue
            f = _decode_rational(v)
            if f:
                r, c = divmod(k, ambient)
                data.setdefault(r, {})[c] = f
        mats.append(RationalMatrix._make(ambient, ambient, data))
    return mats


def algebra_from_json(obj: dict) -> LieAlgebraPresentation:
    try:
        name = obj["name"]
        ambient = obj["ambient_dim"]
        basis = obj["basis"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"algebra file missing field: {exc}") from None
    if not isinstance(ambient, int) or ambient < 1:
        raise InputError(f"bad ambient_dim: {ambient!r:.40}")
    L = LieAlgebraPresentation(ambient, tuple(matrices_from_json(basis, ambient)), str(name))
    _scanned(L)  # raises on a dependent basis
    return L


def load_algebra(path: str) -> LieAlgebraPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))


def load_seeds(path: str, ambient: int) -> List[RationalMatrix]:
    """Seed matrices from a JSON file: {"elements": [...]} or the bare list."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    elements = payload.get("elements") if isinstance(payload, dict) else payload
    return matrices_from_json(elements, ambient)
