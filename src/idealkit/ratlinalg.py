"""Exact linear algebra over the rationals, plus a modular rank certificate.

``SparseEchelon`` is the one elimination core: an online echelon over sparse
rows (dict column -> value, or dense sequences), over Fraction or GF(p)
integers as its caller picks.  ``insert`` adds a row, ``reduce`` returns the
remainder after eliminating every held pivot (empty exactly when the row lies
in the span), and ``back_substitute`` clears every pivot column from the
other held rows in place; all three run one elimination step, ``_subtract``.
``reduced`` (the dense RREF) and ``sparse_kernel`` (the canonical kernel
basis; ``kernel`` is its dense view) read off the back-substituted rows.  The
remainder, the RREF and the kernel depend only on the span.  ``rank`` and
``nullspace`` are adapters from dense rows to the core.

No other module reads a ``RationalMatrix``'s stored rows; its flat form, the
nonzeros keyed by row-major index r·cols + c (``flat_nonzeros``, ``from_flat``),
is what an echelon holds and what ``bracket_flat``, the one commutator, returns.

A caller that wants coordinates in its generators appends a tag column
``ncols + k`` with value one to generator ``k``; ``coords`` reads a vector's
coordinates, or None outside the span, off the back-substituted rows.

Over GF(p) it certifies a rank lower bound: a nonzero r x r minor modulo p
is nonzero over the rationals, so rank_p <= rank_Q always holds.  So the
commutant's dimension k over GF(p) bounds the rational one: k = 1 is a
proof, and otherwise the exact loop starts from the modular basis's support
and reruns on every position unless it finds k maps there.  A later prime is
tried only when a denominator of the input vanishes modulo the current one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .base import as_fraction

F0 = Fraction(0)
F1 = Fraction(1)

# RationalMatrix, bracket and bracket_flat stay out: perfbench's tracer wraps each name here.
__all__ = [
    "SparseEchelon",
    "frac_mod_p",
    "nullspace",
    "rank",
    "MODP_PRIMES",
]

# Fixed large primes for the modular certificate.  The first one that leaves
# every denominator of the input invertible is used; a later one only when a
# denominator is divisible by an earlier one.
MODP_PRIMES = (2147483647, 2147483629, 2147483587)


def _span(rows: Iterable, ncols: int = 0) -> "SparseEchelon":
    """Echelon over Q of rows, dense or sparse dicts; ncols is the width
    ``reduced`` and ``kernel`` see."""
    ech = SparseEchelon(ncols)
    for row in rows:
        ech.insert(row)
    return ech


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return _span(rows).rank


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Canonical kernel basis: one vector per free column, unit at that column."""
    return _span(rows, ncols).kernel()


def _normalised(row, p: Optional[int]) -> dict:
    """A new sparse dict of a dense or sparse row's nonzeros, mod p if p is given."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p is None:
        return {c: v for c, v in items if v}
    return {c: v % p for c, v in items if v % p}


def _subtract(work: dict, f, row: dict, p: Optional[int]) -> None:
    """The one elimination step: work -= f·row in place, mod p when p is
    given, deleting every entry that becomes zero."""
    for c, v in row.items():
        nv = work.get(c, 0) - f * v
        if p is not None:
            nv %= p
        if nv:
            work[c] = nv
        else:
            del work[c]


class SparseEchelon:
    """Online echelon over sparse rows (dict column -> value) or dense ones.

    The caller picks the field: Fraction coefficients when ``p`` is None,
    otherwise integers in GF(p).  Each stored row has pivot value one at its
    leftmost column and no entries left of it, also after ``reduced`` and
    ``sparse_kernel`` back-substitute the rows in place.  ``ncols`` is the
    width they see; tag columns at or beyond it are for ``insert``,
    ``reduce`` and ``coords`` only.
    """

    def __init__(self, ncols: int, p: Optional[int] = None):
        self.ncols = ncols
        self.p = p
        self._rows: dict = {}  # pivot column -> sparse row with pivot value 1
        self._split: Optional[dict] = None  # coords' table; insert drops it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, row) -> bool:
        """Add a row, eliminating its leftmost entry until that lands on a
        column without a pivot; False when the row depends on the held rows."""
        p = self.p
        rows = self._rows
        work = _normalised(row, p)
        while work:
            piv = min(work)
            existing = rows.get(piv)
            f = work[piv]
            if existing is None:
                self._split = None
                if p is None:
                    rows[piv] = {c: v / f for c, v in work.items()}
                else:
                    inv = pow(f, -1, p)
                    rows[piv] = {c: v * inv % p for c, v in work.items()}
                return True
            _subtract(work, f, existing, p)
        return False

    def reduce(self, row) -> dict:
        """Remainder of a row after eliminating every held pivot: zero at each
        pivot column, empty exactly when the row lies in the span."""
        p = self.p
        work = _normalised(row, p)
        for piv, existing in sorted(self._rows.items()):
            f = work.get(piv)
            if f:
                _subtract(work, f, existing, p)
        return work

    def coords(self, vec) -> Optional[dict]:
        """Nonzero tag coordinates {k: c} of a vector with entries below
        ``ncols``, or None outside the span; over Fraction only.  On
        back-substituted rows, vec lies in the span exactly when vec minus
        vec[p]·(row p), summed over its pivot columns p, leaves no entry below
        ``ncols``; its coordinates, minus ``reduce``'s tag entries, are the sum
        of vec[p]·(tag entries of row p).  The first call after an insert
        back-substitutes and splits each row into those two parts."""
        split = self._split
        if split is None:
            self.back_substitute()
            n = self.ncols
            split = self._split = {
                p: ([(c, x) for c, x in row.items() if c < n and c != p],
                    [(c - n, x) for c, x in row.items() if c >= n])
                for p, row in self._rows.items()
            }
        rest, col = {}, {}
        for c, v in vec.items() if isinstance(vec, dict) else enumerate(vec):
            part = split.get(c)
            if part is None:
                rest[c] = rest[c] + v if c in rest else v
                continue
            off, tags = part
            for k, w in off:
                rest[k] = rest[k] - v * w if k in rest else -(v * w)
            for k, w in tags:
                col[k] = col[k] + v * w if k in col else v * w
        return None if any(rest.values()) else {k: c for k, c in col.items() if c}

    def back_substitute(self) -> None:
        """Clear each pivot column from every other held row, in place.

        Rows are cleared from the last pivot to the first, each against the
        rows after it, which are already clear: a row's pivot entries are read
        once, and no subtraction adds one.  A row's remainder is then the row
        minus its entry at each pivot column times that pivot's row.
        """
        p = self.p
        rows = self._rows
        for piv in sorted(rows, reverse=True):
            row = rows[piv]
            for q, f in [(c, v) for c, v in row.items() if c != piv and c in rows]:
                _subtract(row, f, rows[q], p)

    def reduced(self) -> list:
        """Dense reduced row echelon rows of the span, in pivot order: the
        held rows, back-substituted in place."""
        self.back_substitute()
        zero = F0 if self.p is None else 0
        out = []
        for piv in sorted(self._rows):
            dense = [zero] * self.ncols
            for c, v in self._rows[piv].items():
                dense[c] = v
            out.append(dense)
        return out

    def sparse_kernel(self) -> list:
        """Canonical kernel basis as sparse vectors {column: value}, one per
        free column f: a unit at f and -row[f] at each pivot, read off the
        held rows after back-substituting them in place."""
        p = self.p
        self.back_substitute()
        one = F1 if p is None else 1
        basis = {f: {f: one} for f in range(self.ncols) if f not in self._rows}
        for piv, row in self._rows.items():
            for f, v in row.items():
                if f in basis:
                    basis[f][piv] = -v if p is None else -v % p
        return list(basis.values())

    def kernel(self) -> list:
        """Dense view of ``sparse_kernel``."""
        zero = F0 if self.p is None else 0
        return [[vec.get(c, zero) for c in range(self.ncols)] for vec in self.sparse_kernel()]


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
        data = {i: _normalised(r, None) for i, r in enumerate(rows) if any(r)}
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
    def from_flat(cls, rows: int, cols: int, flat) -> "RationalMatrix":
        """Matrix from row-major flat entries: a dense sequence, or a dict
        {r·cols + c: value} like the one ``flat_nonzeros`` returns."""
        items = flat.items() if isinstance(flat, dict) else enumerate(flat)
        return cls.from_nonzeros(rows, cols, {divmod(k, cols): v for k, v in items if v})

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

    def flat_nonzeros(self) -> dict:
        """The nonzero entries keyed by the row-major flat index r·cols + c."""
        cols = self.cols
        return {r * cols + c: v for r, row in self._data.items() for c, v in row.items()}

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


def bracket_flat(x: RationalMatrix, y: RationalMatrix) -> dict:
    """The one commutator: the flat nonzeros of xy - yx for square x and y of
    equal size.  It sums xy, then subtracts yx: one loop with an int sign
    would cost every product one more Fraction multiply."""
    n = x.rows
    if x.cols != n or y.rows != n or y.cols != n:
        raise ValueError("bracket needs square matrices of equal size")
    xd, yd = x._data, y._data
    acc: dict = {}
    for i, row in xd.items():
        for k, a in row.items():
            yk = yd.get(k)
            if yk:
                for j, b in yk.items():
                    key = i * n + j
                    acc[key] = acc[key] + a * b if key in acc else a * b
    for i, row in yd.items():
        for k, a in row.items():
            xk = xd.get(k)
            if xk:
                for j, b in xk.items():
                    key = i * n + j
                    acc[key] = acc[key] - a * b if key in acc else -(a * b)
    return {k: v for k, v in acc.items() if v}


def bracket(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """Commutator xy - yx; exact, and trace-free by symmetry of the trace."""
    return RationalMatrix.from_flat(x.rows, x.rows, bracket_flat(x, y))
