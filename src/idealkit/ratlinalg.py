"""Exact linear algebra over the rationals, plus a modular rank certificate.

``SparseEchelon`` is the one elimination core: an online echelon over sparse
rows (dict column -> value, or dense sequences), over Fraction or GF(p)
integers as its caller picks.  ``insert`` adds a row, ``reduce`` returns the
remainder after eliminating every held pivot (empty exactly when the row
lies in the span), ``reduced`` gives the dense RREF and ``kernel`` the
canonical kernel basis by back-substitution.  The remainder, the RREF and
the kernel depend only on the span, never on the insertion order.
``rref``, ``rank`` and ``nullspace`` are adapters from dense rows to the
core.

Coordinates need no extra bookkeeping: a caller that wants a vector's
coordinates in its generators appends a tag column ``ncols + k`` with value
one to generator ``k``.  A remainder with no column below ``ncols`` means the
vector lies in the span, and its coordinates are minus the remainder's tag
entries.

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
    "SparseEchelon",
    "frac_mod_p",
    "nullspace",
    "rank",
    "rref",
    "MODP_PRIMES",
]

# Fixed large primes for the modular certificate.  The first one that leaves
# every denominator of the input invertible is used; a later one only when a
# denominator is divisible by an earlier one.
MODP_PRIMES = (2147483647, 2147483629, 2147483587)


def _span(rows: Iterable[Sequence[Fraction]], ncols: int = 0) -> "SparseEchelon":
    """Echelon of dense rows; ncols is the width ``reduced`` and ``kernel`` see."""
    ech = SparseEchelon(ncols)
    for row in rows:
        ech.insert(row)
    return ech


def rref(rows: Iterable[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns nonzero rows and their pivot columns."""
    rows = list(rows)
    ech = _span(rows, len(rows[0]) if rows else 0)
    return ech.reduced(), sorted(ech._rows)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return _span(rows).rank


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Canonical kernel basis: one vector per free column, unit at that column."""
    return _span(rows, ncols).kernel()


class SparseEchelon:
    """Online echelon over sparse rows (dict column -> value) or dense ones.

    The caller picks the field: Fraction coefficients when ``p`` is None,
    otherwise integers in GF(p).  Each stored row has pivot value one at its
    leftmost column and no entries left of it.  ``ncols`` is the width seen
    by ``reduced`` and ``kernel``; tag columns at or beyond it are for
    ``insert`` and ``reduce`` only.
    """

    def __init__(self, ncols: int, p: Optional[int] = None):
        self.ncols = ncols
        self.p = p
        self._rows: dict = {}  # pivot column -> sparse row with pivot value 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, row) -> bool:
        """Add a row; returns False when it depends on the rows already held.

        Only the leftmost entry is eliminated, until it lands on a column
        without a pivot.  The elimination step is written out here and in
        ``reduce`` rather than shared: the commutant certificate inserts
        tens of thousands of rows that are mostly empty, and a loop shared
        through one more call per row made its echelon for sp(5) about 10%
        slower.
        """
        p = self.p
        rows = self._rows
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if p is None:
            work = {c: v for c, v in items if v}
        else:
            work = {c: v % p for c, v in items if v % p}
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

    def reduce(self, row) -> dict:
        """Remainder of a row after eliminating every held pivot: zero at each
        pivot column, empty exactly when the row lies in the span."""
        p = self.p
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if p is None:
            work = {c: v for c, v in items if v}
        else:
            work = {c: v % p for c, v in items if v % p}
        for piv, existing in sorted(self._rows.items()):
            f = work.get(piv)
            if not f:
                continue
            for c, v in existing.items():
                nv = work.get(c, 0) - f * v
                if p is not None:
                    nv %= p
                if nv:
                    work[c] = nv
                else:
                    del work[c]
        return work

    def reduced(self) -> list:
        """Dense reduced row echelon rows of the span, in pivot order."""
        zero, one = (F0, F1) if self.p is None else (0, 1)
        out = []
        for piv in sorted(self._rows):
            dense = [zero] * self.ncols
            dense[piv] = one
            rest = {c: v for c, v in self._rows[piv].items() if c != piv}
            for c, v in self.reduce(rest).items():
                dense[c] = v
            out.append(dense)
        return out

    def kernel(self) -> list:
        """Canonical kernel basis, one vector per free column with a unit there,
        by back-substitution on the held rows."""
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
