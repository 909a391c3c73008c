"""Catalog of matrix Lie algebras and their files: the named constructors,
``make_algebra`` with its size check before building, direct sums, shift
truncations, and writing an algebra to JSON.

Only ``lie build`` (and library code) needs it, so the commands that read
an algebra file never compile it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .base import MAX_RATIONAL_DIGITS, InputError, fits_digit_cap, write_json
from .matlie import LieAlgebraPresentation, _encode_rational, _require_entries
from .ratlinalg import RationalMatrix

if TYPE_CHECKING:
    from .seqspace import SequenceExpr


def _require_size(n: int, least: int = 1) -> None:
    if not isinstance(n, int) or n < least:
        raise InputError(f"size must be an integer >= {least}, got {n}")


def _algebra(ambient: int, elements: list, name: str) -> LieAlgebraPresentation:
    """The presentation whose basis elements, in order, are the ambient x
    ambient matrices with the given nonzero entries {(row, column): value}."""
    basis = tuple(RationalMatrix.from_nonzeros(ambient, ambient, e) for e in elements)
    return LieAlgebraPresentation(ambient, basis, name)


def _sp_top_blocks(n: int) -> List[dict]:
    """Entries of the generators shared by both 2n x 2n block forms: the
    top-left block entries row-major (bottom-right the negative transpose),
    then the symmetric top-right generators, i <= j row-major (at i = j the
    two entries are one)."""
    _require_size(n)
    return [*({(i, j): 1, (n + j, n + i): -1} for i in range(n) for j in range(n)),
            *({(i, n + j): 1, (j, n + i): 1} for i in range(n) for j in range(i, n))]


def sp_standard(n: int) -> LieAlgebraPresentation:
    """Symplectic algebra in 2n x 2n block form: top-right and bottom-left
    blocks symmetric, bottom-right the negative transpose of the top-left.
    Basis order: top-left block entries row-major, then the symmetric
    generators of the top-right block (i <= j row-major), then bottom-left.
    """
    top = _sp_top_blocks(n)
    bottom = [{(n + i, j): 1, (n + j, i): 1} for i in range(n) for j in range(i, n)]
    return _algebra(2 * n, top + bottom, f"sp_standard_{n}")


def sp_skew_variant(n: int) -> LieAlgebraPresentation:
    """Block form with a symmetric top-right and an antisymmetric bottom-left
    block.  Retained for auditing: for n >= 2 this constraint set is not
    closed under the bracket (closure_check exhibits the failing pair)."""
    top = _sp_top_blocks(n)
    bottom = [{(n + i, j): 1, (n + j, i): -1} for i in range(n) for j in range(i + 1, n)]
    return _algebra(2 * n, top + bottom, f"sp_skew_variant_{n}")


def _diagonal_differences(n: int) -> List[dict]:
    """Entries of E_ii - E_{i+1,i+1} for i = 0..n-2: a basis of the trace-zero diagonal."""
    _require_size(n, 2)
    return [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]


def upper_triangular_sl(n: int) -> LieAlgebraPresentation:
    """Trace-zero upper triangular matrices: diagonal differences, then the
    strictly upper units row-major."""
    diagonal = _diagonal_differences(n)
    upper = [{(i, j): 1} for i in range(n) for j in range(i + 1, n)]
    return _algebra(n, diagonal + upper, f"upper_triangular_sl_{n}")


def strictly_upper(n: int) -> LieAlgebraPresentation:
    _require_size(n, 2)
    upper = [{(i, j): 1} for i in range(n) for j in range(i + 1, n)]
    return _algebra(n, upper, f"strictly_upper_{n}")


def sl(n: int) -> LieAlgebraPresentation:
    """Trace-zero matrices: off-diagonal units row-major, then diagonal differences."""
    diagonal = _diagonal_differences(n)  # refuses a bad n before range(n) reads it
    off = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    return _algebra(n, off + diagonal, f"sl_{n}")


def shift_truncation(weights: SequenceExpr, n: int) -> LieAlgebraPresentation:
    """Single-matrix presentation: the n x n truncation of a weighted shift,
    weight i on the superdiagonal.  Weights must evaluate exactly, within the
    weight-size limit a certificate's truncation meets, and each within the
    digit cap of an algebra file."""
    # only this builder needs it
    from .seqspace import exact_weights
    _require_size(n, 2)
    entries = {(i - 1, i): w for i, w in enumerate(exact_weights(weights, n), 1)}
    if not any(entries.values()):  # the zero matrix spans no algebra
        raise InputError(f"the {n} x {n} shift truncation has no nonzero weight")
    for (_, i), w in entries.items():
        if not fits_digit_cap(w):  # an algebra file could not hold it
            raise InputError(f"weight {i} has more than {MAX_RATIONAL_DIGITS} digits in its "
                             "numerator or denominator")
    return _algebra(n, [entries], f"shift_truncation_{n}")


def direct_sum(a: LieAlgebraPresentation, b: LieAlgebraPresentation) -> LieAlgebraPresentation:
    """Block-diagonal direct sum of two presentations."""
    off = a.ambient
    shifted = [{(i + off, j + off): v for (i, j), v in m.nonzeros().items()} for m in b.basis]
    return _algebra(off + b.ambient, [m.nonzeros() for m in a.basis] + shifted,
                    f"{a.name}+{b.name}")


_KINDS = {
    "sp": sp_standard,
    "sp-skew": sp_skew_variant,
    "ut-sl": upper_triangular_sl,
    "strictly-upper": strictly_upper,
    "sl": sl,
}

# (basis size, ambient) of each kind at size n, known before it is built
_SHAPES = {
    "sp": lambda n: (n * (2 * n + 1), 2 * n),
    "sp-skew": lambda n: (2 * n * n, 2 * n),
    "ut-sl": lambda n: ((n - 1) * (n + 2) // 2, n),
    "strictly-upper": lambda n: (n * (n - 1) // 2, n),
    "sl": lambda n: (n * n - 1, n),
    "shift": lambda n: (1, n),
}


def make_algebra(kind: str, n: int, weights: Optional[SequenceExpr] = None) -> LieAlgebraPresentation:
    """Catalog algebra of the given kind and size, refused before it is
    built when it would pass MAX_ALGEBRA_ENTRIES."""
    if kind in _SHAPES and isinstance(n, int) and n > 0:  # the rest is refused below
        _require_entries(*_SHAPES[kind](n))
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


def algebra_to_json(L: LieAlgebraPresentation) -> dict:
    return {
        "name": L.name,
        "ambient_dim": L.ambient,
        "basis": [[_encode_rational(v) for v in m.flat()] for m in L.basis],
    }


def save_algebra(L: LieAlgebraPresentation, path: str) -> None:
    write_json(path, algebra_to_json(L))
