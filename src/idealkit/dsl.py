"""Text form of sequence and ideal expressions.

Grammar (whitespace-insensitive; rationals written ``p/q`` or as decimals):

    SEQ   := pow:P | exp:R | powlog:P,Q | finite:[a,b,...]
           | explicit:[a,b,...];tail=SEQ | scale:C;SEQ | amp:M;SEQ
           | sub:K;SEQ | prod(SEQ,SEQ)
    IDEAL := finite-rank | compact | idealprod(IDEAL,IDEAL) | SEQ

A bare sequence as an ideal denotes the principal ideal it generates.
``sub:K;SEQ`` is the subsampled form produced by the softness criterion and
is accepted so that reports and certificates round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .base import _DIGITS_BOUND, _NUMBER, MAX_RATIONAL_DIGITS, InputError
from .base import fits_digit_cap, parse_rational
from .seqspace import (
    Ampliation,
    Exp,
    Explicit,
    FiniteSupport,
    Pow,
    PowLog,
    Product,
    Scale,
    SequenceExpr,
    Subsample,
    ampliate,
    ensure_valid,
    explicit,
    subsample,
    unscaled,
)

__all__ = ["DslError", "parse_seq", "format_seq", "parse_ideal", "format_ideal"]

_INT = re.compile(r"\d+")
_HEAD = re.compile(r"[a-z-]+")

# Deepest nesting of amp, sub, prod, explicit tails and idealprod the parser
# accepts: well below the recursion limit, so that parsing and every recursive
# walk of the parsed expression stay clear of it.
MAX_NESTING = 200


class DslError(InputError):
    """Syntax error with the byte offset where parsing stopped."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, pattern: re.Pattern) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            return ""
        self.pos = m.end()
        return m.group(0)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise DslError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def fail(self, message: str):
        raise DslError(message, self.pos)


def _number(c: _Cursor) -> Fraction:
    tok = c.take(_NUMBER)
    if not tok:
        c.fail("expected a rational number (p/q or decimal)")
    try:
        return parse_rational(tok)
    except InputError as exc:
        raise DslError(str(exc), c.pos) from None


def _integer(c: _Cursor) -> int:
    tok = c.take(_INT)
    if not tok:
        c.fail("expected an integer")
    if len(tok) > MAX_RATIONAL_DIGITS:
        c.fail(f"integer with more than {MAX_RATIONAL_DIGITS} digits")
    return int(tok)


def _number_list(c: _Cursor) -> list:
    c.expect("[")
    values = []
    c.skip_ws()
    if c.text.startswith("]", c.pos):
        c.pos += 1
        return values
    while True:
        values.append(_number(c))
        c.skip_ws()
        if c.text.startswith(",", c.pos):
            c.pos += 1
            continue
        c.expect("]")
        return values


def _nest(c: _Cursor, depth: int) -> int:
    if depth >= MAX_NESTING:
        c.fail(f"expression nested deeper than {MAX_NESTING} levels")
    return depth + 1


def _seq(c: _Cursor, depth: int = 0) -> SequenceExpr:
    """A sequence; a run of directly adjacent positive scale factors is read
    in a loop and becomes one Scale of their product, which must keep within
    MAX_RATIONAL_DIGITS like any written rational."""
    fused = None
    start = c.pos
    head = c.take(_HEAD)
    while head == "scale":
        c.expect(":")
        factor = _number(c)
        c.expect(";")
        if factor <= 0:  # left unfused, for ensure_valid to reject as written
            expr = Scale(factor, _seq(c, _nest(c, depth)))
            break
        fused = factor if fused is None else fused * factor
        if not fits_digit_cap(fused):
            c.fail(
                f"fused scale factor with more than {MAX_RATIONAL_DIGITS} digits "
                "in its numerator or denominator"
            )
        start = c.pos
        head = c.take(_HEAD)
    else:
        expr = _form(c, head, start, depth)
    return expr if fused is None else Scale(fused, expr)


def _form(c: _Cursor, head: str, start: int, depth: int) -> SequenceExpr:
    if head in ("pow", "exp"):
        c.expect(":")
        return (Pow if head == "pow" else Exp)(_number(c))
    if head == "powlog":
        c.expect(":")
        p = _number(c)
        c.expect(",")
        return PowLog(p, _number(c))
    if head == "finite":
        c.expect(":")
        return FiniteSupport(_number_list(c))
    if head == "explicit":
        c.expect(":")
        prefix = _number_list(c)
        c.expect(";")
        c.expect("tail")
        c.expect("=")
        return explicit(prefix, _seq(c, _nest(c, depth)))
    if head in ("amp", "sub"):
        c.expect(":")
        index = _integer(c)
        c.expect(";")
        what, least, wrap = (("ampliation index", 1, ampliate) if head == "amp"
                             else ("subsample step", 2, subsample))
        if index < least:
            raise DslError(f"{what} must be >= {least}, got {index}", start)
        return _fused(wrap(index, _seq(c, _nest(c, depth))), head, start)
    if head == "prod":
        c.expect("(")
        depth = _nest(c, depth)
        left = _seq(c, depth)
        c.expect(",")
        right = _seq(c, depth)
        c.expect(")")
        return Product(left, right)
    raise DslError(f"unknown sequence form {head!r}" if head else "expected a sequence", start)


def _fused(expr: SequenceExpr, head: str, start: int) -> SequenceExpr:
    """expr, unless it fused nested amp: or sub: (sub: also across a scale:)
    into an index with more than MAX_RATIONAL_DIGITS digits."""
    inner = unscaled(expr)
    index = inner.m if isinstance(inner, Ampliation) else getattr(inner, "k", 1)
    if index >= _DIGITS_BOUND:
        raise DslError(f"fused {head} index with more than {MAX_RATIONAL_DIGITS} digits", start)
    return expr


def parse_seq(text: str) -> SequenceExpr:
    """Parse and validate a sequence expression."""
    c = _Cursor(text)
    expr = _seq(c)
    if not c.eof():
        c.fail("trailing input after sequence")
    ensure_valid(expr)
    return expr


def format_seq(expr: SequenceExpr) -> str:
    """Inverse of parse_seq (up to whitespace)."""
    if isinstance(expr, Pow):
        return f"pow:{expr.p}"
    if isinstance(expr, Exp):
        return f"exp:{expr.r}"
    if isinstance(expr, PowLog):
        return f"powlog:{expr.p},{expr.q}"
    if isinstance(expr, FiniteSupport):
        inner = ",".join(map(str, expr.values))
        return f"finite:[{inner}]"
    if isinstance(expr, Explicit):
        inner = ",".join(map(str, expr.prefix))
        return f"explicit:[{inner}];tail={format_seq(expr.tail)}"
    if isinstance(expr, Scale):
        return f"scale:{expr.c};{format_seq(expr.inner)}"
    if isinstance(expr, Ampliation):
        return f"amp:{expr.m};{format_seq(expr.inner)}"
    if isinstance(expr, Subsample):
        return f"sub:{expr.k};{format_seq(expr.inner)}"
    if isinstance(expr, Product):
        return f"prod({format_seq(expr.left)},{format_seq(expr.right)})"
    raise TypeError(type(expr).__name__)


def parse_ideal(text: str):
    """Parse an ideal: finite-rank, compact, idealprod(...) or a generator sequence."""
    from . import idealcalc  # only the ideal grammar needs the ideal calculus
    c = _Cursor(text)
    ideal = _ideal(c)
    if not c.eof():
        c.fail("trailing input after ideal")
    return idealcalc.make_ideal(ideal)


def _ideal(c: _Cursor, depth: int = 0):
    from . import idealcalc
    c.skip_ws()
    rest = c.text[c.pos :]
    if rest.startswith("finite-rank"):
        c.pos += len("finite-rank")
        return idealcalc.FINITE_RANK
    if rest.startswith("compact"):
        c.pos += len("compact")
        return idealcalc.COMPACT
    if rest.startswith("idealprod"):
        c.pos += len("idealprod")
        c.expect("(")
        depth = _nest(c, depth)
        left = _ideal(c, depth)
        c.expect(",")
        right = _ideal(c, depth)
        c.expect(")")
        return idealcalc.ProductIdeal(left, right)
    return idealcalc.Principal(_seq(c, depth))


def format_ideal(ideal) -> str:
    from . import idealcalc
    if isinstance(ideal, idealcalc.FiniteRank):
        return "finite-rank"
    if isinstance(ideal, idealcalc.Compact):
        return "compact"
    if isinstance(ideal, idealcalc.Principal):
        return format_seq(ideal.gen)
    if isinstance(ideal, idealcalc.ProductIdeal):
        return f"idealprod({format_ideal(ideal.left)},{format_ideal(ideal.right)})"
    raise TypeError(type(ideal).__name__)
