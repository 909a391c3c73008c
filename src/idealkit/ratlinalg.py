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

from .seqspace import as_fraction

F0 = Fraction(0)
F1 = Fraction(1)

# RationalMatrix and bracket stay out: perfbench's tracer wraps every name listed here.
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


class RationalMatrix:
    """Immutable matrix with exact rational entries, stored sparsely.

    It holds its shape and one dict {column: value} per nonzero row, keyed by
    row index; a zero is never stored.  Every operation therefore costs time
    proportional to the nonzeros it touches.  ``entries`` and ``flat()`` are
    dense views.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries):
        rows = [[as_fraction(v) for v in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        data = {}
        for i, r in enumerate(rows):
            nonzero = {j: v for j, v in enumerate(r) if v}
            if nonzero:
                data[i] = nonzero
        self._init(len(rows), width, data)

    def _init(self, rows: int, cols: int, data: dict) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _make(cls, rows: int, cols: int, data: dict) -> "RationalMatrix":
        """Wrap nonzero rows that already hold no zero and no empty row."""
        m = object.__new__(cls)
        m._init(rows, cols, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_nonzeros(cls, rows: int, cols: int, items: dict) -> "RationalMatrix":
        """Matrix of the given shape with entries {(row, column): value};
        zero values are dropped."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have at least one row and column")
        data: dict = {}
        for (i, j), v in items.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows} x {cols} matrix")
            v = as_fraction(v)
            if v:
                data.setdefault(i, {})[j] = v
        return cls._make(rows, cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: Optional[int] = None) -> "RationalMatrix":
        return cls.from_nonzeros(rows, rows if cols is None else cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_nonzeros(n, n, {(i, i): F1 for i in range(n)})

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "RationalMatrix":
        return cls.from_nonzeros(n, n, {(i, j): F1})

    @property
    def entries(self) -> tuple:
        """Dense view: one tuple of Fractions per row."""
        empty: dict = {}
        return tuple(
            tuple(row.get(j, F0) for j in range(self.cols))
            for row in (self._data.get(i, empty) for i in range(self.rows))
        )

    def flat(self) -> tuple:
        """Dense row-major view."""
        return tuple(v for row in self.entries for v in row)

    def nonzeros(self) -> dict:
        """The nonzero entries as {(row, column): value}."""
        return {(i, j): v for i, row in self._data.items() for j, v in row.items()}

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        data = {i: dict(row) for i, row in self._data.items()}
        for i, row in other._data.items():
            acc = data.setdefault(i, {})
            for j, v in row.items():
                s = acc[j] + v if j in acc else v
                if s:
                    acc[j] = s
                else:
                    del acc[j]
            if not acc:
                del data[i]
        return RationalMatrix._make(self.rows, self.cols, data)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + -other

    def __neg__(self) -> "RationalMatrix":
        data = {i: {j: -v for j, v in row.items()} for i, row in self._data.items()}
        return RationalMatrix._make(self.rows, self.cols, data)

    def scaled(self, c) -> "RationalMatrix":
        c = as_fraction(c)
        data = {i: {j: c * v for j, v in row.items()} for i, row in self._data.items()} if c else {}
        return RationalMatrix._make(self.rows, self.cols, data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Row i of the product is the sum of a_ik times row k of other, over
        the nonzero a_ik."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        right = other._data
        data = {}
        for i, row in self._data.items():
            acc: dict = {}
            for k, a in row.items():
                for j, b in right.get(k, {}).items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            acc = {j: v for j, v in acc.items() if v}
            if acc:
                data[i] = acc
        return RationalMatrix._make(self.rows, other.cols, data)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return sum((row.get(i, F0) for i, row in self._data.items()), F0)

    def is_zero(self) -> bool:
        return not self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        rows = frozenset((i, frozenset(row.items())) for i, row in self._data.items())
        return hash((self.rows, self.cols, rows))

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(v) for v in row] for row in self.entries]})"


def bracket(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """Commutator xy - yx; exact, and trace-free by symmetry of the trace."""
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise ValueError("bracket needs square matrices of equal size")
    return (x @ y) - (y @ x)
