"""Symbolic nonincreasing null sequences with exact asymptotic comparison.

A sequence here plays the role of a singular-number sequence of a compact
operator: nonnegative, nonincreasing, tending to zero.  The expression
catalog (powers, exponentials, power-log factors, finite prefixes and
supports, scaling, ampliation, subsampling and pointwise products) is
closed under every operation exposed by this module, which is what makes
big-O / little-o questions between catalog members exactly decidable: each
expression carries an asymptotic signature (decay rate as an exact rational
root, power, log power) and the signatures form a totally ordered algebra.
The rates, their products and their order live in :mod:`idealkit.rates`.

Sequences whose comparison falls outside the symbolic rules can still be
probed numerically through ``numeric_probe``; such verdicts are always
labelled as numerically indicated, never as proven.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from .base import DEFAULT_EPS, DEFAULT_NMAX, Frozen, InputError, as_fraction, capped
from .rates import (RATE_ONE, RootRational, _log10_size, _log_fraction, _power_product,
                    _rate_mul, _rate_pow, _rate_root, _str_fits, root_rational)

__all__ = [
    "Ampliation",
    "AsymSig",
    "Exp",
    "Explicit",
    "FiniteSupport",
    "InvalidSequenceError",
    "MAX_WEIGHT_BITS",
    "Mode",
    "Method",
    "Pow",
    "PowLog",
    "Product",
    "Scale",
    "SequenceExpr",
    "Status",
    "Subsample",
    "Verdict",
    "ampliate",
    "check_weight_bits",
    "compare",
    "delta2_check",
    "eval_at",
    "eval_log",
    "explicit",
    "has_exact_eval",
    "numeric_probe",
    "signature_of",
    "subsample",
    "support",
    "ensure_valid",
    "exact_weights",
    "unscaled",
]

# Numeric-probe policy constants: geometric grid of ratio 2, trend judged on
# the last half of the grid, divergence called at a 10x sup increase.
GRID_RATIO = 2
DIVERGENCE_FACTOR = 10.0
FLAT_FACTOR = 0.9
_EXP_OVERFLOW = 700.0  # exp() overflows around e^709
# Limit on N times the bits (numerator plus denominator) of the N-th weight
# of a weighted shift truncated at N, which sizes the exact weights that a
# certificate's truncation check multiplies and that a `lie build shift`
# file holds: at the limit a certificate build or verify takes about 0.7 s
# of CLI wall time on a 2-core x86_64 VM.  The bits are read off the
# expression, so an oversized weight is refused without being built.
MAX_WEIGHT_BITS = 1 << 23


class InvalidSequenceError(InputError):
    """The expression violates a catalog constraint (not in c0*)."""


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


class Method(Enum):
    SYMBOLIC = "SymbolicProven"
    NUMERIC = "NumericIndicated"


class Mode(Enum):
    BIG_O = "O"
    LITTLE_O = "o"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(capped(value))
    if isinstance(value, int):
        return capped(value)
    if isinstance(value, (Status, Method, Mode)):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


class Verdict(Frozen):
    """Outcome of a decision: exact (symbolic) or sampled (numeric) evidence."""

    def __init__(self, status: Status, method: Method, evidence: dict):
        vars(self).update(status=status, method=method, evidence=evidence)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def proven(self) -> bool:
        return self.method is Method.SYMBOLIC

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "method": self.method.value,
            "evidence": _jsonable(self.evidence),
        }

    def line(self, label: str) -> str:
        return f"{label}: {self.status.value} ({self.method.value})"

    def evidence_lines(self) -> list:
        return [f"  {key}: {value}" for key, value in self.to_json()["evidence"].items()]


def proven(status: Status, **evidence) -> Verdict:
    return Verdict(status, Method.SYMBOLIC, evidence)


def indicated(status: Status, **evidence) -> Verdict:
    return Verdict(status, Method.NUMERIC, evidence)


# ---------------------------------------------------------------------------
# Expression catalog
# ---------------------------------------------------------------------------


class SequenceExpr(Frozen):
    """Base class of the closed expression catalog."""

    __slots__ = ()


class Pow(SequenceExpr):
    """n ** -p for a positive rational exponent p."""

    def __init__(self, p: Fraction):
        vars(self).update(p=as_fraction(p))


class Exp(SequenceExpr):
    """r ** n for a rational ratio r in (0, 1)."""

    def __init__(self, r: Fraction):
        vars(self).update(r=as_fraction(r))


class PowLog(SequenceExpr):
    """Running minimum of n**-p * ln(n+1)**-q.

    The raw values can rise before they fall (when q < 0); because the raw
    shape is unimodal for every valid parameter choice, the running minimum
    up to n equals min(raw(1), raw(n)) exactly, which keeps evaluation O(1)
    while restoring monotonicity.  The asymptotic signature is unaffected.
    """

    def __init__(self, p: Fraction, q: Fraction):
        vars(self).update(p=as_fraction(p), q=as_fraction(q))


class FiniteSupport(SequenceExpr):
    """Finitely many nonincreasing nonnegative values, then zero forever."""

    def __init__(self, values: tuple):
        vars(self).update(values=tuple(as_fraction(v) for v in values))


class Explicit(SequenceExpr):
    """A finite positive prefix followed by a shifted tail.

    Tail values are clamped from above by the last prefix value so the whole
    sequence stays nonincreasing.
    """

    def __init__(self, prefix: tuple, tail: SequenceExpr):
        vars(self).update(prefix=tuple(as_fraction(v) for v in prefix), tail=tail)


class Scale(SequenceExpr):
    """c * inner for a positive rational constant c."""

    def __init__(self, c: Fraction, inner: SequenceExpr):
        vars(self).update(c=as_fraction(c), inner=inner)


class Ampliation(SequenceExpr):
    """Each entry of the inner sequence repeated m times: entry(n) = inner(ceil(n/m))."""

    def __init__(self, m: int, inner: SequenceExpr):
        vars(self).update(m=m, inner=inner)


class Subsample(SequenceExpr):
    """Every k-th entry of the inner sequence: entry(n) = inner(n*k)."""

    def __init__(self, k: int, inner: SequenceExpr):
        vars(self).update(k=k, inner=inner)


class Product(SequenceExpr):
    """Pointwise product of two sequences."""

    def __init__(self, left: SequenceExpr, right: SequenceExpr):
        vars(self).update(left=left, right=right)


def explicit(prefix, tail: SequenceExpr) -> SequenceExpr:
    """Build an Explicit value, normalizing degenerate prefixes.

    An empty prefix is the tail itself; a prefix ending in zero forces the
    whole tail to zero and collapses to a FiniteSupport value.
    """
    prefix = tuple(as_fraction(v) for v in prefix)
    if not prefix:
        return tail
    if prefix[-1] == 0:
        return FiniteSupport(prefix)
    return Explicit(prefix, tail)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _descent_violation(path: str, field: str, values: tuple) -> Optional[tuple]:
    """The first of the values, the named field at path, that is negative or
    above the one before it, as (location, message); None if there is none."""
    for i, v in enumerate(values):
        if v < 0:
            return (f"{path}.{field}[{i}]", f"negative value {v}")
        if i and v > values[i - 1]:
            return (f"{path}.{field}[{i}]", f"{field} must be nonincreasing")
    return None


def _violation(expr: SequenceExpr, path: str) -> Optional[tuple]:
    """First violated constraint as (location, message), or None."""
    if isinstance(expr, Pow):
        if expr.p <= 0:
            return (path, f"Pow exponent must be positive, got {expr.p}")
        return None
    if isinstance(expr, Exp):
        if not (0 < expr.r < 1):
            return (path, f"Exp ratio must lie in (0, 1), got {expr.r}")
        return None
    if isinstance(expr, PowLog):
        if expr.p < 0:
            return (path, f"PowLog power must be nonnegative, got {expr.p}")
        if expr.p == 0 and expr.q <= 0:
            return (path, "PowLog with p = 0 needs q > 0 to tend to zero")
        return None
    if isinstance(expr, FiniteSupport):
        return _descent_violation(path, "values", expr.values)
    if isinstance(expr, Explicit):
        if not expr.prefix:
            return (f"{path}.prefix", "empty prefix; use the tail directly")
        bad = _descent_violation(path, "prefix", expr.prefix)
        if bad is None and expr.prefix[-1] == 0:
            bad = (f"{path}.prefix", "prefix ends at zero; use FiniteSupport")
        return bad or _violation(expr.tail, f"{path}.tail")
    if isinstance(expr, Scale):
        if expr.c <= 0:
            return (path, f"scale factor must be positive, got {expr.c}")
        return _violation(expr.inner, f"{path}.inner")
    if isinstance(expr, (Ampliation, Subsample)):
        what, index = (("ampliation index", expr.m) if isinstance(expr, Ampliation)
                       else ("subsample step", expr.k))
        if not isinstance(index, int) or index < 1:
            return (path, f"{what} must be an integer >= 1, got {index}")
        return _violation(expr.inner, f"{path}.inner")
    if isinstance(expr, Product):
        return _violation(expr.left, f"{path}.left") or _violation(expr.right, f"{path}.right")
    return (path, f"not a SequenceExpr: {type(expr).__name__}")


def ensure_valid(expr: SequenceExpr) -> None:
    bad = _violation(expr, "seq")
    if bad is not None:
        raise InvalidSequenceError(f"{bad[0]}: {bad[1]}")


# ---------------------------------------------------------------------------
# Support and evaluation
# ---------------------------------------------------------------------------


def support(expr: SequenceExpr) -> Optional[int]:
    """Number of nonzero entries, or None when the support is infinite."""
    if isinstance(expr, (Pow, Exp, PowLog)):
        return None
    if isinstance(expr, FiniteSupport):
        n = len(expr.values)
        while n and expr.values[n - 1] == 0:
            n -= 1
        return n
    if isinstance(expr, Explicit):
        s = support(expr.tail)
        return None if s is None else len(expr.prefix) + s
    if isinstance(expr, Scale):
        return support(expr.inner)
    if isinstance(expr, Ampliation):
        s = support(expr.inner)
        return None if s is None else expr.m * s
    if isinstance(expr, Subsample):
        s = support(expr.inner)
        return None if s is None else s // expr.k
    if isinstance(expr, Product):
        finite = [s for s in (support(expr.left), support(expr.right)) if s is not None]
        return min(finite, default=None)
    raise TypeError(type(expr).__name__)


def _inner_index(expr: SequenceExpr, n: int) -> int:
    """The index of the inner entry that entry n of an ampliation or a
    subsample reads: ceil(n/m) or n*k."""
    return (n + expr.m - 1) // expr.m if isinstance(expr, Ampliation) else n * expr.k


def eval_at(expr: SequenceExpr, n: int):
    """Entry n (1-based) as an exact Fraction where possible, else a float."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    if isinstance(expr, Pow) and expr.p.denominator == 1:
        return Fraction(1, n ** expr.p.numerator)
    if isinstance(expr, (Pow, PowLog)):
        return math.exp(eval_log(expr, n))
    if isinstance(expr, Exp):
        return expr.r ** n
    if isinstance(expr, FiniteSupport):
        return expr.values[n - 1] if n <= len(expr.values) else Fraction(0)
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        if n <= k:
            return expr.prefix[n - 1]
        v = eval_at(expr.tail, n - k)
        last = expr.prefix[-1]
        return v if v <= last else last
    if isinstance(expr, Scale):
        return expr.c * eval_at(expr.inner, n)
    if isinstance(expr, (Ampliation, Subsample)):
        return eval_at(expr.inner, _inner_index(expr, n))
    if isinstance(expr, Product):
        return eval_at(expr.left, n) * eval_at(expr.right, n)
    raise TypeError(type(expr).__name__)


def _power_bits(x: int, k: int) -> int:
    """Bits of x ** k for an integer x >= 1, read off log2(x): exact when x
    is a power of two, otherwise at most one too many.  Past the weight
    limit, k alone bounds them from below, which is all the check needs."""
    if x == 1:
        return 1
    if k > MAX_WEIGHT_BITS:
        return k
    return math.floor(k * math.log2(x) * (1 + 2 ** -40)) + 1


def _rational_bits(f: Fraction) -> int:
    return f.numerator.bit_length() + f.denominator.bit_length()


def _weight_bits(expr: SequenceExpr, n: int) -> Optional[int]:
    """Bits of the numerator plus the denominator of weight n, or a little
    more (a product's factors are counted before they cancel), computed
    without building the weight; None when some weight of expr is not an
    exact rational (a fractional power or a log factor anywhere in it)."""
    if isinstance(expr, Pow):
        return 1 + _power_bits(n, expr.p.numerator) if expr.p.denominator == 1 else None
    if isinstance(expr, PowLog):
        return None
    if isinstance(expr, Exp):
        return _power_bits(expr.r.numerator, n) + _power_bits(expr.r.denominator, n)
    if isinstance(expr, FiniteSupport):
        return _rational_bits(eval_at(expr, n))
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        # read at every n: an inexact tail makes the whole expression inexact
        tail = _weight_bits(expr.tail, max(n - k, 1))
        if tail is None:
            return None
        if n <= k:
            return _rational_bits(expr.prefix[n - 1])
        return max(_rational_bits(expr.prefix[-1]), tail)
    if isinstance(expr, Scale):
        inner = _weight_bits(expr.inner, n)
        return None if inner is None else _rational_bits(expr.c) + inner
    if isinstance(expr, (Ampliation, Subsample)):
        return _weight_bits(expr.inner, _inner_index(expr, n))
    if isinstance(expr, Product):
        left, right = _weight_bits(expr.left, n), _weight_bits(expr.right, n)
        return None if left is None or right is None else left + right
    raise TypeError(type(expr).__name__)


def check_weight_bits(expr: SequenceExpr, n: int, error: type = InputError,
                      what: str = "truncation") -> bool:
    """Whether every weight of expr is an exact rational, read off the walk
    that sizes weight n.  False when one is not: the callers refuse that
    with their own message.  Otherwise raise error when n times the bits of
    weight n exceeds MAX_WEIGHT_BITS, before any weight is built; what names
    n in the message."""
    bits = _weight_bits(expr, n)
    if bits is None or n * bits <= MAX_WEIGHT_BITS:
        return bits is not None
    if bits <= MAX_WEIGHT_BITS:
        raise error(f"{what} {n} times the {bits} bits of weight {n} exceeds "
                    f"the limit {MAX_WEIGHT_BITS}")
    # past the limit _power_bits may return a lower bound, so no count is printed
    raise error(f"{what} {n} times the bits of weight {n} exceeds the limit "
                f"{MAX_WEIGHT_BITS}: weight {n} has more than {MAX_WEIGHT_BITS} bits")


def exact_weights(expr: SequenceExpr, n: int, error: type = InputError,
                  what: str = "shift truncation") -> list:
    """Weights 1..n-1 of the n x n truncation of the weighted shift with
    weights expr, as exact rationals, within the weight-size limit at n.
    Weights that are not all exact raise error, "{what} needs exactly
    evaluable weights"."""
    ensure_valid(expr)
    if not check_weight_bits(expr, n, error):
        raise error(f"{what} needs exactly evaluable weights")
    return [eval_at(expr, i) for i in range(1, n)]


def eval_log(expr: SequenceExpr, n: int) -> float:
    """Natural log of entry n (-inf for zero); safe at indices where the
    exact value would overflow or underflow a float."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    if isinstance(expr, Pow):
        return -float(expr.p) * math.log(n)
    if isinstance(expr, Exp):
        try:
            return n * _log_fraction(expr.r)
        except OverflowError:  # n is past the float range
            return -math.inf
    if isinstance(expr, PowLog):
        p, q = float(expr.p), float(expr.q)

        def raw_log(k: int) -> float:
            return -p * math.log(k) - q * math.log(math.log(k + 1))

        return min(raw_log(1), raw_log(n))
    if isinstance(expr, FiniteSupport):
        if n > len(expr.values):
            return -math.inf
        return _log_fraction(expr.values[n - 1])
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        if n <= k:
            return _log_fraction(expr.prefix[n - 1])
        return min(_log_fraction(expr.prefix[-1]), eval_log(expr.tail, n - k))
    if isinstance(expr, Scale):
        return _log_fraction(expr.c) + eval_log(expr.inner, n)
    if isinstance(expr, (Ampliation, Subsample)):
        return eval_log(expr.inner, _inner_index(expr, n))
    if isinstance(expr, Product):
        # never +inf, so a -inf factor gives -inf
        return eval_log(expr.left, n) + eval_log(expr.right, n)
    raise TypeError(type(expr).__name__)


def has_exact_eval(expr: SequenceExpr) -> bool:
    """True when eval_at returns exact rationals at every index."""
    return _weight_bits(expr, 1) is not None


# ---------------------------------------------------------------------------
# Asymptotic signatures
# ---------------------------------------------------------------------------


class AsymSig(Frozen):
    """Asymptotic signature: decay rate, power and log power of the tail.

    rate None encodes a zero tail (finite support).  The order ``_order``
    is total: smaller rate wins, then larger power, then larger log power;
    a zero tail decays faster than everything else.  ``ampliated(m)``,
    ``subsampled(k)`` and ``*`` give the signatures of the m-fold
    ampliation, the k-fold subsample and the pointwise product.
    """

    def __init__(self, rate: Optional[RootRational], pow: Fraction = Fraction(0),
                 logpow: Fraction = Fraction(0)):
        vars(self).update(rate=rate, pow=pow, logpow=logpow)

    @property
    def is_zero_tail(self) -> bool:
        return self.rate is None

    def describe(self) -> str:
        if self.is_zero_tail:
            return "zero-tail"
        return f"rate={self.rate.describe()}, pow={capped(self.pow)}, logpow={capped(self.logpow)}"

    def ampliated(self, m: int) -> "AsymSig":
        return self if self.is_zero_tail else AsymSig(_rate_root(self.rate, m), self.pow, self.logpow)

    def subsampled(self, k: int) -> "AsymSig":
        return self if self.is_zero_tail else AsymSig(_rate_pow(self.rate, k), self.pow, self.logpow)

    def __mul__(self, other: "AsymSig") -> "AsymSig":
        if self.is_zero_tail or other.is_zero_tail:
            return ZERO_TAIL
        return AsymSig(_rate_mul(self.rate, other.rate), self.pow + other.pow,
                       self.logpow + other.logpow)


ZERO_TAIL = AsymSig(None)


def _order(s: AsymSig, t: AsymSig) -> int:
    """-1, 0 or 1 as s decays faster than t, like t or slower; the rates
    take one _cmp, so at most one certified log sign."""
    if s.is_zero_tail or t.is_zero_tail:
        return t.is_zero_tail - s.is_zero_tail
    return (s.rate._cmp(t.rate) or (t.pow > s.pow) - (t.pow < s.pow)
            or (t.logpow > s.logpow) - (t.logpow < s.logpow))


def _sig(expr: SequenceExpr) -> AsymSig:
    if isinstance(expr, Pow):
        return AsymSig(RATE_ONE, expr.p, Fraction(0))
    if isinstance(expr, Exp):
        return AsymSig(root_rational(expr.r), Fraction(0), Fraction(0))
    if isinstance(expr, PowLog):
        return AsymSig(RATE_ONE, expr.p, expr.q)
    if isinstance(expr, FiniteSupport):
        return ZERO_TAIL
    if isinstance(expr, Explicit):
        return _sig(expr.tail)
    if isinstance(expr, Scale):
        return _sig(expr.inner)
    if isinstance(expr, Ampliation):
        return _sig(expr.inner).ampliated(expr.m)
    if isinstance(expr, Subsample):
        return _sig(expr.inner).subsampled(expr.k)
    if isinstance(expr, Product):
        return _sig(expr.left) * _sig(expr.right)
    raise TypeError(type(expr).__name__)


def signature_of(expr: SequenceExpr) -> AsymSig:
    """Canonical asymptotic signature of a validated expression."""
    ensure_valid(expr)
    return _sig(expr)


def _scale(expr: SequenceExpr) -> tuple:
    """(pow, factors, approximate) of a rate-one expression in one walk.
    The asymptotic scale, lim entry(n) / (n**-pow * ln(n)**-logpow), is the
    product of the q ** e over the pairs (q, e) in factors; approximate()
    evaluates it node by node, exactly while the exponents are integral and
    in floats after (see _power_product)."""
    if isinstance(expr, (Pow, PowLog)):
        return expr.p, [], lambda: Fraction(1)
    if isinstance(expr, Explicit):
        return _scale(expr.tail)
    if isinstance(expr, Product):  # a side without factors has scale exactly 1
        (p, f, x), (q, g, y) = _scale(expr.left), _scale(expr.right)
        return p + q, f + g, (lambda: x() * y()) if f and g else x if f else y
    if not isinstance(expr, (Scale, Ampliation, Subsample)):
        raise ValueError("asymptotic scale is defined only for rate-one expressions")
    p, factors, inner = _scale(expr.inner)
    if isinstance(expr, Scale):
        return p, [(expr.c, Fraction(1))] + factors, lambda: expr.c * inner()
    n, e = (expr.m, p) if isinstance(expr, Ampliation) else (expr.k, -p)

    def approximate():
        x = inner()
        if e.denominator == 1 and isinstance(x, Fraction):
            return x * Fraction(n) ** e.numerator
        return float(x) * float(n) ** float(e)

    return p, [(Fraction(n), e)] + factors, approximate


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def unscaled(expr: SequenceExpr) -> SequenceExpr:
    """expr with its outer scale factors stripped."""
    while isinstance(expr, Scale):
        expr = expr.inner
    return expr


def ampliate(m: int, expr: SequenceExpr) -> SequenceExpr:
    """Repeat each entry m times; identity at m = 1, nested ampliations fuse."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"ampliation index must be an integer >= 1, got {m}")
    if m == 1:
        return expr
    if isinstance(expr, Ampliation):
        return Ampliation(m * expr.m, expr.inner)
    return Ampliation(m, expr)


def subsample(k: int, expr: SequenceExpr) -> SequenceExpr:
    """Take every k-th entry; exponentials whose powered ratio fits
    MAX_RATIONAL_DIGITS, and finite supports, rewrite in place."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"subsample step must be an integer >= 2, got {k}")
    if isinstance(expr, Exp):
        # the powered ratio is built only when its text form can be printed
        big = max(expr.r.numerator, expr.r.denominator)
        if _str_fits(_log10_size(k, big), lambda: big ** k):
            return Exp(expr.r ** k)
    if isinstance(expr, FiniteSupport):
        return FiniteSupport(expr.values[k - 1 :: k])
    if isinstance(expr, Scale):
        return Scale(expr.c, subsample(k, expr.inner))
    if isinstance(expr, Subsample):
        return Subsample(k * expr.k, expr.inner)
    return Subsample(k, expr)


# ---------------------------------------------------------------------------
# Symbolic comparison
# ---------------------------------------------------------------------------


def _limit_ratio_evidence(xi: SequenceExpr, eta: SequenceExpr, evidence: dict) -> None:
    """Attach the limiting ratio of a same-signature rate-one pair, the
    quotient of their asymptotic scales (see _scale)."""
    (_, f, x), (_, g, y) = _scale(xi), _scale(eta)
    evidence["limiting_ratio"] = _power_product(f + [(q, -e) for q, e in g], lambda: x() / y())


def compare(xi: SequenceExpr, eta: SequenceExpr, mode: Mode) -> Verdict:
    """Decide xi = O(eta) or xi = o(eta) exactly via signatures.

    Same-signature pairs have eventually bounded ratio within the catalog,
    so big-O holds on signature equality; little-o needs strict dominance.
    Finite supports are compared by support length: the quantifier reading
    of both relations is satisfied exactly when xi's support is contained
    in eta's.
    """
    ensure_valid(xi)
    ensure_valid(eta)
    return _compared(xi, _sig(xi), eta, _sig(eta), mode)


def _compared(xi: SequenceExpr, s: AsymSig, eta: SequenceExpr, t: AsymSig,
              mode: Mode) -> Verdict:
    """compare of valid xi and eta whose signatures s and t are known."""
    ev = {"xi_signature": s.describe(), "eta_signature": t.describe(), "mode": mode}
    if t.is_zero_tail:
        sx, sy = support(xi), support(eta)
        ev["xi_support"] = "infinite" if sx is None else sx
        ev["eta_support"] = sy
        if sx is not None and sx <= sy:
            return proven(Status.HOLDS, rule="support containment", **ev)
        reason = (
            "division by zero tail"
            if mode is Mode.BIG_O
            else "eta vanishes beyond its support while xi does not"
        )
        return proven(Status.FAILS, reason=reason, **ev)
    order = _order(s, t)
    if order < 0:
        return proven(Status.HOLDS, rule="strict signature dominance", **ev)
    if order > 0:
        return proven(Status.FAILS, reason="xi decays strictly slower", **ev)
    if mode is Mode.BIG_O:
        ev["rule"] = "equal signatures; catalog ratio eventually bounded"
    else:
        ev["reason"] = "equal signatures; ratio does not tend to zero"
    if s.rate == RATE_ONE:
        _limit_ratio_evidence(xi, eta, ev)
    return proven(Status.HOLDS if mode is Mode.BIG_O else Status.FAILS, **ev)


def delta2_check(xi: SequenceExpr) -> Verdict:
    """Decide sup_n entry(n)/entry(2n) < inf.

    Power-log decay satisfies the condition with limiting ratio 2**p (the
    log correction tends to one); exponential-type decay violates it with
    unbounded ratio.
    """
    ensure_valid(xi)
    if support(xi) is not None:
        raise InvalidSequenceError(
            "delta2 condition is undefined for finite rank (finite support)"
        )
    return _delta2(_sig(xi))


def _delta2(s: AsymSig) -> Verdict:
    """delta2_check of a valid infinite-support expression of signature s."""
    if s.rate == RATE_ONE:
        p = s.pow
        return proven(
            Status.HOLDS,
            limiting_ratio=_power_product([(Fraction(2), p)], lambda: 2.0 ** float(p)),
            rule="power-log class: dyadic ratio converges to 2**pow",
            signature=s.describe(),
        )
    return proven(
        Status.FAILS,
        rule="exponential class: dyadic ratio grows without bound",
        rate=s.rate.describe(),
        signature=s.describe(),
    )


# ---------------------------------------------------------------------------
# Numeric probe
# ---------------------------------------------------------------------------


def _probe_grid(n_max: int) -> list:
    ns = [1]
    while ns[-1] * GRID_RATIO <= n_max:
        ns.append(ns[-1] * GRID_RATIO)
    if ns[-1] != n_max:
        ns.append(n_max)
    return ns


def numeric_probe(
    xi: SequenceExpr,
    eta: SequenceExpr,
    mode: Mode,
    n_max: int = DEFAULT_NMAX,
    eps: float = DEFAULT_EPS,
) -> Verdict:
    """Sample the ratio xi/eta on a geometric grid; corroboration only.

    Little-o holds (indicated) when the ratio is monotone nonincreasing over
    the last half of the grid and the final ratio is below eps; it fails when
    the final ratio stays above eps without meaningful decrease.  Big-O holds
    when the running sup stabilizes (relative growth below eps over the last
    half); a tenfold sup increase is reported as failure.  Anything else is
    Unknown.  Ratios are computed in log space; residual overflow shrinks the
    grid and is noted in the evidence.  An eta of infinite support whose log
    falls below the float range gives Unknown with a note.
    """
    ensure_valid(xi)
    ensure_valid(eta)
    if n_max < 2 ** 10:
        raise InputError(f"n_max must be at least 2**10, got {n_max}")
    if not 0 < eps < math.inf:
        raise InputError(f"eps must be finite and positive, got {eps}")

    eta_infinite = support(eta) is None
    notes = []
    requested = n_max
    zero_tail_division = False
    while True:
        ns = _probe_grid(n_max)
        ratios = []
        overflow = False
        for n in ns:
            lx, ly = eval_log(xi, n), eval_log(eta, n)
            if ly == -math.inf:
                if eta_infinite:
                    notes.append(f"log of eta underflows the float range at n={n}")
                    return indicated(Status.UNKNOWN, n_max=n_max, eps=eps, mode=mode, notes=notes)
                if lx == -math.inf:
                    ratios.append(0.0)
                else:
                    zero_tail_division = True
                    ratios.append(math.inf)
                continue
            diff = lx - ly
            if diff > _EXP_OVERFLOW:
                overflow = True
                ratios.append(math.inf)
            else:
                ratios.append(math.exp(diff))
        if zero_tail_division or not overflow or n_max // 2 < 2 ** 10:
            if overflow and not zero_tail_division:
                notes.append("ratio overflow persists at the minimum grid")
            break
        n_max //= 2
    if n_max < requested:
        notes.append(f"grid shrunk to n_max={n_max} to avoid overflow")

    window = ratios[len(ratios) // 2 :]
    final = ratios[-1]
    sup = max(ratios)
    ev = {
        "n_max": n_max,
        "grid_points": len(ratios),
        "final_ratio": final,
        "sup_ratio": sup,
        "window_start_ratio": window[0],
        "eps": eps,
        "mode": mode,
        "notes": notes,
    }

    if zero_tail_division:
        ev["reason"] = "division by zero tail"
        return indicated(Status.FAILS, **ev)

    if mode is Mode.LITTLE_O:
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(window, window[1:]))
        ev["monotone_window"] = monotone
        if monotone and final < eps:
            return indicated(Status.HOLDS, **ev)
        if final >= eps and final >= FLAT_FACTOR * window[0]:
            ev["reason"] = "ratio does not tend to zero"
            return indicated(Status.FAILS, **ev)
        return indicated(Status.UNKNOWN, **ev)

    sup_at_window = max(ratios[: len(ratios) // 2 + 1])
    ev["sup_at_window_start"] = sup_at_window
    if sup == 0.0:
        return indicated(Status.HOLDS, **ev)
    if math.isinf(sup):
        ev["reason"] = "ratio overflow"
        return indicated(Status.FAILS, **ev)
    growth = (sup - sup_at_window) / sup_at_window if sup_at_window else math.inf
    ev["sup_relative_growth"] = growth
    if growth < eps:
        return indicated(Status.HOLDS, **ev)
    if sup >= DIVERGENCE_FACTOR * sup_at_window:
        ev["reason"] = "running sup diverges"
        return indicated(Status.FAILS, **ev)
    return indicated(Status.UNKNOWN, **ev)
