"""Exact-rational finite-dimensional matrix Lie algebra engine.

Everything here is proved, not approximated: matrices carry Fraction
entries, spans are echelon bases over the rationals, and the simplicity
decision is a ladder of exact steps (derived algebra, center, Killing
radical, adjoint commutant).  The only modular arithmetic is a rank
certificate for the commutant: a full-rank minor modulo a prime is nonzero
over the rationals, so it can prove that the commutant is exactly the
scalars without ever being able to prove the converse.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

from . import ratlinalg
from .dsl import parse_rational
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
from .seqspace import InputError, SequenceExpr, as_fraction, ensure_valid, eval_at, has_exact_eval

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
    "algebra_to_json",
    "bracket",
    "closure_check",
    "derived_algebra",
    "diagonal_algebra",
    "direct_sum",
    "is_lie_ideal",
    "is_simple",
    "killing_form",
    "lie_ideal_generated",
    "load_algebra",
    "load_seeds",
    "make_algebra",
    "matrices_from_json",
    "random_ideal_search",
    "save_algebra",
    "shift_truncation",
    "sl",
    "sp_skew_variant",
    "sp_standard",
    "span_reduce",
    "strictly_upper",
    "subspace_from_coords",
    "subspace_from_matrices",
    "upper_triangular_sl",
]


class NotClosedError(InputError):
    """The presented basis is not closed under the commutator bracket."""


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


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Linearly independent matrix basis of a subspace of ambient x ambient
    matrices, intended to be bracket-closed."""

    ambient: int
    basis: tuple
    name: str

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Subspace:
    """Subspace of a presentation, as canonical reduced-echelon coordinate rows."""

    parent: LieAlgebraPresentation
    vectors: tuple  # tuple of coordinate tuples, RREF canonical

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrices(self) -> List[RationalMatrix]:
        amb = self.parent.ambient
        flats = [_flat(b) for b in self.parent.basis]
        out = []
        for vec in self.vectors:
            acc: dict = {}
            for c, flat in zip(vec, flats):
                if c:
                    for k, v in flat.items():
                        acc[k] = acc.get(k, F0) + c * v
            out.append(_from_flat(acc, amb, amb))
        return out

    def contains_coords(self, vec: Sequence[Fraction]) -> bool:
        span = SparseEchelon(len(vec))
        for row in self.vectors:
            span.insert(row)
        return not span.reduce(vec)

    def ambient_rref(self) -> tuple:
        """Canonical form in the ambient matrix space; comparable across parents."""
        amb = self.parent.ambient
        return tuple(tuple(r) for r in _flat_rref(self.matrices(), amb * amb))


def _subspace(parent: LieAlgebraPresentation, rows) -> Subspace:
    """Subspace spanned by coordinate rows, dense or sparse dicts."""
    span = SparseEchelon(parent.dim)
    for row in rows:
        span.insert(row)
    return Subspace(parent, tuple(tuple(r) for r in span.reduced()))


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
    return [_from_flat(r, rows, cols) for r in _flat_rref(mats, rows * cols)]


def _flat_rref(mats: Sequence[RationalMatrix], n: int) -> list:
    """Dense reduced row echelon rows of the flattened matrices, n entries each."""
    span = SparseEchelon(n)
    for m in mats:
        span.insert(_flat(m))
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


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    pair: Optional[tuple]  # (i, j) of the first failing bracket
    residual: Optional[RationalMatrix]  # remainder after eliminating span components


def _coords(span: SparseEchelon, vec) -> Optional[dict]:
    """Nonzero coordinates {k: c} of vec in the generators of span, generator k
    tagged at column span.ncols + k; None when vec lies outside their span."""
    rem = span.reduce(vec)
    n = span.ncols
    if any(c < n for c in rem):
        return None
    return {k - n: -c for k, c in rem.items()}


@lru_cache(maxsize=128)
def _closure_scan(L: LieAlgebraPresentation):
    n = L.ambient * L.ambient
    span = SparseEchelon(n)
    for idx, b in enumerate(L.basis):
        flat = _flat(b)
        if _coords(span, flat) is not None:
            raise InputError(f"{L.name}: basis matrix {idx} depends on earlier ones")
        span.insert({**flat, n + idx: F1})
    d = L.dim
    ads = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            flat = _flat(bracket(L.basis[i], L.basis[j]))
            col = _coords(span, flat)
            if col is None:
                residual = {c: v for c, v in span.reduce(flat).items() if c < n}
                return None, (i, j, _from_flat(residual, L.ambient, L.ambient))
            ads[i][j] = col
            ads[j][i] = {k: -c for k, c in col.items()}
    return _Structure(span, ads), None


def closure_check(L: LieAlgebraPresentation) -> ClosureReport:
    """Scan basis pairs in lexicographic order for a bracket outside the span."""
    st, bad = _closure_scan(L)
    if st is not None:
        return ClosureReport(True, None, None)
    i, j, residual = bad
    return ClosureReport(False, (i, j), residual)


def _structure(L: LieAlgebraPresentation) -> _Structure:
    st, bad = _closure_scan(L)
    if st is None:
        i, j, _ = bad
        raise NotClosedError(
            f"{L.name}: bracket of basis elements {i} and {j} lies outside the span"
        )
    return st


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _require_size(n: int, least: int = 1) -> None:
    if not isinstance(n, int) or n < least:
        raise InputError(f"size must be an integer >= {least}, got {n}")


def _sp_top_blocks(n: int) -> List[RationalMatrix]:
    """Generators shared by both 2n x 2n block forms: the top-left block
    entries row-major (bottom-right the negative transpose), then the
    symmetric top-right generators, i <= j row-major."""
    _require_size(n)
    a = 2 * n
    basis = []
    for i in range(n):
        for j in range(n):
            basis.append(RationalMatrix.unit(a, i, j) - RationalMatrix.unit(a, n + j, n + i))
    for i in range(n):
        for j in range(i, n):
            m = RationalMatrix.unit(a, i, n + j)
            if i != j:
                m = m + RationalMatrix.unit(a, j, n + i)
            basis.append(m)
    return basis


def sp_standard(n: int) -> LieAlgebraPresentation:
    """Symplectic algebra in 2n x 2n block form: top-right and bottom-left
    blocks symmetric, bottom-right the negative transpose of the top-left.
    Basis order: top-left block entries row-major, then the symmetric
    generators of the top-right block (i <= j row-major), then bottom-left.
    """
    basis = _sp_top_blocks(n)
    a = 2 * n
    for i in range(n):
        for j in range(i, n):
            m = RationalMatrix.unit(a, n + i, j)
            if i != j:
                m = m + RationalMatrix.unit(a, n + j, i)
            basis.append(m)
    return LieAlgebraPresentation(a, tuple(basis), f"sp_standard_{n}")


def sp_skew_variant(n: int) -> LieAlgebraPresentation:
    """Block form with a symmetric top-right and an antisymmetric bottom-left
    block.  Retained for auditing: for n >= 2 this constraint set is not
    closed under the bracket (closure_check exhibits the failing pair)."""
    basis = _sp_top_blocks(n)
    a = 2 * n
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(RationalMatrix.unit(a, n + i, j) - RationalMatrix.unit(a, n + j, i))
    return LieAlgebraPresentation(a, tuple(basis), f"sp_skew_variant_{n}")


def upper_triangular_sl(n: int) -> LieAlgebraPresentation:
    """Trace-zero upper triangular matrices: diagonal differences, then the
    strictly upper units row-major."""
    _require_size(n, 2)
    basis = [
        RationalMatrix.unit(n, i, i) - RationalMatrix.unit(n, i + 1, i + 1)
        for i in range(n - 1)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            basis.append(RationalMatrix.unit(n, i, j))
    return LieAlgebraPresentation(n, tuple(basis), f"upper_triangular_sl_{n}")


def strictly_upper(n: int) -> LieAlgebraPresentation:
    _require_size(n, 2)
    basis = [
        RationalMatrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)
    ]
    return LieAlgebraPresentation(n, tuple(basis), f"strictly_upper_{n}")


def sl(n: int) -> LieAlgebraPresentation:
    """Trace-zero matrices: off-diagonal units row-major, then diagonal differences."""
    _require_size(n, 2)
    basis = [
        RationalMatrix.unit(n, i, j) for i in range(n) for j in range(n) if i != j
    ]
    basis.extend(
        RationalMatrix.unit(n, i, i) - RationalMatrix.unit(n, i + 1, i + 1)
        for i in range(n - 1)
    )
    return LieAlgebraPresentation(n, tuple(basis), f"sl_{n}")


def diagonal_algebra(n: int) -> LieAlgebraPresentation:
    """Abelian algebra of diagonal matrices."""
    _require_size(n)
    basis = [RationalMatrix.unit(n, i, i) for i in range(n)]
    return LieAlgebraPresentation(n, tuple(basis), f"diagonal_{n}")


def shift_truncation(weights: SequenceExpr, n: int) -> LieAlgebraPresentation:
    """Single-matrix presentation: the n x n truncation of a weighted shift,
    weight i on the superdiagonal.  Weights must evaluate exactly."""
    _require_size(n, 2)
    ensure_valid(weights)
    if not has_exact_eval(weights):
        raise InputError("shift truncation needs exactly evaluable weights")
    m = RationalMatrix.from_nonzeros(n, n, {(i - 1, i): eval_at(weights, i) for i in range(1, n)})
    return LieAlgebraPresentation(n, (m,), f"shift_truncation_{n}")


def direct_sum(a: LieAlgebraPresentation, b: LieAlgebraPresentation) -> LieAlgebraPresentation:
    """Block-diagonal direct sum of two presentations."""
    amb = a.ambient + b.ambient
    off = a.ambient
    basis = [RationalMatrix.from_nonzeros(amb, amb, m.nonzeros()) for m in a.basis]
    basis.extend(
        RationalMatrix.from_nonzeros(
            amb, amb, {(i + off, j + off): v for (i, j), v in m.nonzeros().items()}
        )
        for m in b.basis
    )
    return LieAlgebraPresentation(amb, tuple(basis), f"{a.name}+{b.name}")


_KINDS = {
    "sp": sp_standard,
    "sp-skew": sp_skew_variant,
    "ut-sl": upper_triangular_sl,
    "strictly-upper": strictly_upper,
    "sl": sl,
}


def make_algebra(kind: str, n: int, weights: Optional[SequenceExpr] = None) -> LieAlgebraPresentation:
    if kind == "shift":
        if weights is None:
            raise InputError("shift truncation needs a weight sequence")
        return shift_truncation(weights, n)
    ctor = _KINDS.get(kind)
    if ctor is None:
        raise InputError(f"unknown algebra kind {kind!r}; expected one of "
                         f"{sorted(_KINDS)} or 'shift'")
    if weights is not None:
        raise InputError(f"weights apply to kind 'shift' only, not {kind!r}")
    return ctor(n)


# ---------------------------------------------------------------------------
# Ideals, derived algebra, Killing form
# ---------------------------------------------------------------------------


def derived_algebra(L: LieAlgebraPresentation) -> Subspace:
    """Span of all pairwise basis brackets, as a subspace of L."""
    ads = _structure(L).ads
    d = L.dim
    return _subspace(L, (ads[i][j] for i in range(d) for j in range(i + 1, d)))


@dataclass(frozen=True)
class IdealCheck:
    is_ideal: bool
    violation: Optional[tuple]  # (basis index of L, row index of J)


def _apply(ad: Sequence[dict], items) -> dict:
    """ad, given by its sparse columns, applied to the vector with the given
    (index, value) pairs."""
    w: dict = {}
    for j, x in items:
        if x:
            for k, c in ad[j].items():
                w[k] = w.get(k, 0) + x * c
    return w


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


@dataclass(frozen=True)
class KillingReport:
    matrix: RationalMatrix
    rank: int


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
            w = _apply(ad, v.items())
            if p is not None:
                w = {k: c % p for k, c in w.items()}
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


@dataclass(frozen=True)
class CommutantReport:
    dim: int
    basis: tuple  # RationalMatrix values acting on the coordinate space of L
    method: str


def _constraint_rows(ad: Sequence[dict], d: int):
    """Sparse rows of X -> X·ad - ad·X on row-major flattened d x d matrices X,
    one per entry (i, j); ad is given by its sparse columns, with Fraction
    values or integers mod p."""
    by_row = _rows(ad, d)
    for i in range(d):
        base = i * d
        for j in range(d):
            row = {base + k: a for k, a in ad[j].items()}
            for l, b in by_row[i].items():
                col = l * d + j
                row[col] = row.get(col, 0) - b
            yield row


def _ads_mod_p(ads: Sequence[Sequence[dict]]) -> tuple:
    """(p, images of the sparse adjoint maps in GF(p)) for the first prime of
    MODP_PRIMES that leaves every denominator invertible; (None, None) when
    none does."""
    for p in MODP_PRIMES:
        mods = [[{k: frac_mod_p(c, p) for k, c in col.items()} for col in ad] for ad in ads]
        if all(None not in col.values() for ad in mods for col in ad):
            return p, mods
    return None, None


def _commutant_exact(ads: Sequence[Sequence[dict]], d: int) -> List[RationalMatrix]:
    ech = SparseEchelon(d * d)
    for ad in ads:
        for row in _constraint_rows(ad, d):
            ech.insert(row)
    return [_from_flat(vec, d, d) for vec in ech.kernel()]


def adjoint_commutant(L: LieAlgebraPresentation) -> CommutantReport:
    """Dimension and basis of the linear maps commuting with every adjoint map.

    First a modular full-rank certificate (proving dimension exactly one,
    since the identity always commutes): the constraint rows of one ``ad``
    at a time go into a GF(p) echelon, stopping as soon as the rank reaches
    d²-1.  Only a denominator that vanishes mod p moves on to the next
    prime; a rank shortfall goes straight to exact elimination.
    """
    st = _structure(L)
    d = L.dim
    target = d * d - 1
    p, mods = _ads_mod_p(st.ads)
    if mods is not None:
        ech = SparseEchelon(d * d, p)
        rows = (row for ad in mods for row in _constraint_rows(ad, d))
        if ech.rank == target or any(ech.insert(row) and ech.rank == target for row in rows):
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


@dataclass(frozen=True)
class SimplicityReport:
    verdict: str  # "Simple" | "NotSimple" | "Abelian"
    witness: Optional[Subspace]
    detail: str
    commutant_dim: Optional[int] = None
    flags: tuple = ()

    @property
    def simple(self) -> bool:
        return self.verdict == "Simple"


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
        diff = C - RationalMatrix.identity(d).scaled(dense[0][0])
        if diff.is_zero():
            continue
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
    otherwise."""
    size = ambient * ambient
    if not isinstance(flats, list) or any(not isinstance(f, list) or len(f) != size for f in flats):
        raise InputError(f"expected a list of matrices, each a flat list of {size} rationals")
    return [_from_flat([_decode_rational(v) for v in flat], ambient, ambient) for flat in flats]


def algebra_to_json(L: LieAlgebraPresentation) -> dict:
    return {
        "name": L.name,
        "ambient_dim": L.ambient,
        "basis": [[_encode_rational(v) for v in m.flat()] for m in L.basis],
    }


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
    _closure_scan(L)  # raises on a dependent basis
    return L


def save_algebra(L: LieAlgebraPresentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(L), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path: str) -> LieAlgebraPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))


def load_seeds(path: str, ambient: int) -> List[RationalMatrix]:
    """Seed matrices from a JSON file: {"elements": [...]} or the bare list."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    elements = payload.get("elements") if isinstance(payload, dict) else payload
    return matrices_from_json(elements, ambient)
