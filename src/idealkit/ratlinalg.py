"""Exact linear algebra over the rationals, plus a modular rank certificate.

Dense routines work on lists of Fraction rows and are fully deterministic
(leftmost pivot, rows in input order).  ``SparseEchelon`` is one sparse
online echelon for the larger stacked systems of commutant computations;
its caller picks the field, Fraction or GF(p) integers.  Its kernel is
found by back-substitution on the sparse pivot rows and equals the
canonical ``nullspace`` basis, which depends only on the row space.

Over GF(p) it certifies a rank lower bound: a nonzero r x r minor modulo p
is nonzero over the rationals, so rank_p <= rank_Q always holds.  The
commutant certificate makes one sparse pass over the adjoint maps and stops
as soon as the rank reaches its target; it moves to the next prime only
when a denominator of the input vanishes modulo the current one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

F0 = Fraction(0)
F1 = Fraction(1)

__all__ = [
    "AugmentedSpan",
    "SpanBasis",
    "SparseEchelon",
    "frac_mod_p",
    "mat_vec",
    "nullspace",
    "rank",
    "rref",
    "MODP_PRIMES",
]

# Fixed large primes for the modular certificate.  The first one that leaves
# every denominator of the input invertible is used; a later one only when a
# denominator is divisible by an earlier one.
MODP_PRIMES = (2147483647, 2147483629, 2147483587)


def rref(rows: Iterable[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns nonzero rows and their pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        if inv != 1:
            m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                row_r = m[r]
                m[i] = [a - f * b for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Canonical kernel basis: one vector per free column, unit at that column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [F0] * ncols
        v[f] = F1
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def mat_vec(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> List[Fraction]:
    return [sum((a * b for a, b in zip(row, v) if a and b), F0) for row in rows]


class SpanBasis:
    """Incremental echelon basis of a growing span (not reduced upward)."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Sequence[Fraction]) -> List[Fraction]:
        v = list(vec)
        for p in sorted(self._rows):
            if v[p] != 0:
                f = v[p]
                row = self._rows[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, vec: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """Add a vector; returns the reduced new row, or None if dependent."""
        v = self._reduce(vec)
        for p, val in enumerate(v):
            if val != 0:
                row = [x / val for x in v]
                self._rows[p] = row
                return row
        return None

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self._reduce(vec))

    def canonical(self) -> List[List[Fraction]]:
        """Deterministic reduced echelon basis of the current span."""
        return rref([self._rows[p] for p in sorted(self._rows)])[0]


class AugmentedSpan:
    """Echelon basis that tracks coordinates in the inserted generators.

    reduce(x) returns (residual, coeffs) with x = residual + sum coeffs[i] *
    generator_i; the residual is the remainder after eliminating the span
    components, so x lies in the span exactly when it is zero.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.count = 0
        self._rows: dict = {}  # pivot -> (row, coeffs)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec, coeffs):
        v = list(vec)
        c = list(coeffs)
        for p in sorted(self._rows):
            if v[p] != 0:
                f = v[p]
                row, rc = self._rows[p]
                v = [a - f * b for a, b in zip(v, row)]
                c = [a - f * b for a, b in zip(c, rc)]
        return v, c

    def insert(self, vec: Sequence[Fraction]) -> bool:
        """Register a generator; returns False when dependent on earlier ones."""
        tag = [F0] * self.count + [F1]
        for _, rc in self._rows.values():
            rc.append(F0)
        self.count += 1
        v, c = self._reduce(vec, tag)
        for p, val in enumerate(v):
            if val != 0:
                self._rows[p] = ([x / val for x in v], [x / val for x in c])
                return True
        return False

    def reduce(self, vec: Sequence[Fraction]):
        """(residual, coeffs): residual zero means vec = sum coeffs * generators."""
        v, c = self._reduce(vec, [F0] * self.count)
        if any(x != 0 for x in v):
            return v, None
        return v, [-x for x in c]


class SparseEchelon:
    """Online echelon over sparse rows (dict column -> value).

    The caller picks the field: Fraction coefficients when ``p`` is None,
    otherwise integers in GF(p).  Each stored row has pivot value one at its
    leftmost column and no entries left of it.
    """

    def __init__(self, ncols: int, p: Optional[int] = None):
        self.ncols = ncols
        self.p = p
        self._rows: dict = {}  # pivot column -> sparse row with pivot value 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, row: dict) -> bool:
        """Add a row; returns False when it depends on the rows already held."""
        p = self.p
        rows = self._rows
        if p is None:
            work = {c: v for c, v in row.items() if v}
        else:
            work = {c: v % p for c, v in row.items() if v % p}
        while work:
            piv = min(work)
            existing = rows.get(piv)
            f = work[piv]
            if existing is None:
                if p is None:
                    rows[piv] = {c: v / f for c, v in work.items()}
                else:
                    inv = pow(f, -1, p)
                    rows[piv] = {c: v * inv % p for c, v in work.items()}
                return True
            for c, v in existing.items():
                nv = work.get(c, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    work[c] = nv
                else:
                    del work[c]
        return False

    def kernel(self) -> list:
        """Canonical kernel basis, one vector per free column with a unit there;
        equal to ``nullspace`` of the inserted rows, by back-substitution."""
        p = self.p
        zero, one = (F0, F1) if p is None else (0, 1)
        rows = self._rows
        free = [c for c in range(self.ncols) if c not in rows]
        # value of each column as a sparse combination of the free columns
        expr = {f: {f: one} for f in free}
        for piv in sorted(rows, reverse=True):
            acc: dict = {}
            for c, v in rows[piv].items():
                if c == piv:
                    continue
                for f, w in expr[c].items():
                    acc[f] = acc.get(f, zero) - v * w
            if p is not None:
                acc = {f: w % p for f, w in acc.items()}
            expr[piv] = {f: w for f, w in acc.items() if w}
        basis = {f: [zero] * self.ncols for f in free}
        for c, e in expr.items():
            for f, w in e.items():
                basis[f][c] = w
        return [basis[f] for f in free]


def frac_mod_p(f: Fraction, p: int) -> Optional[int]:
    """Image of a rational in GF(p), or None when the denominator vanishes."""
    den = f.denominator % p
    if den == 0:
        return None
    return f.numerator * pow(den, -1, p) % p
