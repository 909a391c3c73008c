"""Symbolic nonincreasing null sequences with exact asymptotic comparison.

A sequence here plays the role of a singular-number sequence of a compact
operator: nonnegative, nonincreasing, tending to zero.  The expression
catalog (powers, exponentials, power-log factors, finite prefixes and
supports, scaling, ampliation, subsampling and pointwise products) is
closed under every operation exposed by this module, which is what makes
big-O / little-o questions between catalog members exactly decidable: each
expression carries an asymptotic signature (decay rate as an exact rational
root, power, log power) and the signatures form a totally ordered algebra.

Sequences whose comparison falls outside the symbolic rules can still be
probed numerically through ``numeric_probe``; such verdicts are always
labelled as numerically indicated, never as proven.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .base import _DIGITS_BOUND, DEFAULT_EPS, DEFAULT_NMAX, MAX_RATIONAL_DIGITS
from .base import Frozen, InputError, as_fraction, fits_digit_cap

__all__ = [
    "Ampliation",
    "AsymSig",
    "Exp",
    "Explicit",
    "FiniteSupport",
    "InvalidSequenceError",
    "Mode",
    "Method",
    "Pow",
    "PowLog",
    "Product",
    "RootRational",
    "Scale",
    "SequenceExpr",
    "Status",
    "Subsample",
    "Verdict",
    "ampliate",
    "compare",
    "delta2_check",
    "eval_at",
    "eval_log",
    "explicit",
    "has_exact_eval",
    "log_ratio_ceiling",
    "numeric_probe",
    "root_rational",
    "signature_of",
    "subsample",
    "support",
    "validate",
    "ensure_valid",
]

# Numeric-probe policy constants: geometric grid of ratio 2, trend judged on
# the last half of the grid, divergence called at a 10x sup increase.
GRID_RATIO = 2
DIVERGENCE_FACTOR = 10.0
FLAT_FACTOR = 0.9
_EXP_OVERFLOW = 700.0  # exp() overflows around e^709


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
        return str(value)
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
        vals = expr.values
        for i, v in enumerate(vals):
            if v < 0:
                return (f"{path}.values[{i}]", f"negative value {v}")
            if i and v > vals[i - 1]:
                return (f"{path}.values[{i}]", "values must be nonincreasing")
        return None
    if isinstance(expr, Explicit):
        pre = expr.prefix
        if not pre:
            return (f"{path}.prefix", "empty prefix; use the tail directly")
        for i, v in enumerate(pre):
            if v < 0:
                return (f"{path}.prefix[{i}]", f"negative value {v}")
            if i and v > pre[i - 1]:
                return (f"{path}.prefix[{i}]", "prefix must be nonincreasing")
        if pre[-1] == 0:
            return (f"{path}.prefix", "prefix ends at zero; use FiniteSupport")
        return _violation(expr.tail, f"{path}.tail")
    if isinstance(expr, Scale):
        if expr.c <= 0:
            return (path, f"scale factor must be positive, got {expr.c}")
        return _violation(expr.inner, f"{path}.inner")
    if isinstance(expr, Ampliation):
        if not isinstance(expr.m, int) or expr.m < 1:
            return (path, f"ampliation index must be an integer >= 1, got {expr.m}")
        return _violation(expr.inner, f"{path}.inner")
    if isinstance(expr, Subsample):
        if not isinstance(expr.k, int) or expr.k < 1:
            return (path, f"subsample step must be an integer >= 1, got {expr.k}")
        return _violation(expr.inner, f"{path}.inner")
    if isinstance(expr, Product):
        return _violation(expr.left, f"{path}.left") or _violation(expr.right, f"{path}.right")
    return (path, f"not a SequenceExpr: {type(expr).__name__}")


def validate(expr: SequenceExpr) -> Verdict:
    """Check membership of the expression (and all subexpressions) in c0*."""
    bad = _violation(expr, "seq")
    if bad is None:
        return proven(Status.HOLDS, constraints="all constructor constraints satisfied")
    return proven(Status.FAILS, location=bad[0], violation=bad[1])


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


def _powlog_raw(p: float, q: float, n: int) -> float:
    return n ** (-p) * math.log(n + 1) ** (-q)


def eval_at(expr: SequenceExpr, n: int):
    """Entry n (1-based) as an exact Fraction where possible, else a float."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    if isinstance(expr, Pow):
        if expr.p.denominator == 1:
            return Fraction(1, n ** expr.p.numerator)
        return float(n) ** (-float(expr.p))
    if isinstance(expr, Exp):
        return expr.r ** n
    if isinstance(expr, PowLog):
        p, q = float(expr.p), float(expr.q)
        return min(_powlog_raw(p, q, 1), _powlog_raw(p, q, n))
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
    if isinstance(expr, Ampliation):
        return eval_at(expr.inner, (n + expr.m - 1) // expr.m)
    if isinstance(expr, Subsample):
        return eval_at(expr.inner, n * expr.k)
    if isinstance(expr, Product):
        return eval_at(expr.left, n) * eval_at(expr.right, n)
    raise TypeError(type(expr).__name__)


def _log_fraction(f: Fraction) -> float:
    if f == 0:
        return -math.inf
    return math.log(f.numerator) - math.log(f.denominator)


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
    if isinstance(expr, Ampliation):
        return eval_log(expr.inner, (n + expr.m - 1) // expr.m)
    if isinstance(expr, Subsample):
        return eval_log(expr.inner, n * expr.k)
    if isinstance(expr, Product):
        # never +inf, so a -inf factor gives -inf
        return eval_log(expr.left, n) + eval_log(expr.right, n)
    raise TypeError(type(expr).__name__)


def has_exact_eval(expr: SequenceExpr) -> bool:
    """True when eval_at returns exact rationals at every index."""
    if isinstance(expr, Pow):
        return expr.p.denominator == 1
    if isinstance(expr, PowLog):
        return False
    if isinstance(expr, (Exp, FiniteSupport)):
        return True
    if isinstance(expr, Explicit):
        return has_exact_eval(expr.tail)
    if isinstance(expr, (Scale, Ampliation, Subsample)):
        return has_exact_eval(expr.inner)
    if isinstance(expr, Product):
        return has_exact_eval(expr.left) and has_exact_eval(expr.right)
    raise TypeError(type(expr).__name__)


# ---------------------------------------------------------------------------
# Asymptotic signatures
# ---------------------------------------------------------------------------


def _coprime_base(numbers) -> list:
    """Pairwise coprime integers > 1, ascending, of which every given number
    is a product of powers.

    Factor refinement with gcds alone: a number sharing a factor g with a
    base element b is replaced, with b, by g, b/g and itself over g.  Each
    split lowers the sum of the logs by at least ln 2, so it ends.
    """
    base: list = []
    pending = [n for n in numbers if n > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                if x != b:
                    del base[i]
                    pending.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return sorted(base)


def _over(vector: tuple, base: list) -> dict:
    """An exponent vector, whose entries may share a base element, summed
    over a coprime refinement of its base."""
    out: dict = {}
    for q, e in vector:
        for b in base:
            k = 0
            while q % b == 0:
                q //= b
                k += 1
            if k:
                out[b] = out.get(b, 0) + e * k
            if q == 1:
                break
    return out


def _common(a: tuple, b: tuple) -> tuple:
    """Two exponent vectors as dicts over one coprime base."""
    if [q for q, _ in a] == [q for q, _ in b]:
        return dict(a), dict(b)
    base = _coprime_base([q for q, _ in a] + [q for q, _ in b])
    return _over(a, base), _over(b, base)


def _as_vector(exponents: dict) -> tuple:
    return tuple(sorted((q, e) for q, e in exponents.items() if e))


# Decimal digits of the first log evaluation; each retry doubles them.
_LOG_DIGITS = 20
# Primes whose valuations of a rate make up its hash.
_HASH_PRIMES = (2, 3, 5, 7)


@functools.lru_cache(maxsize=256)
def _ln(q: int, digits: int) -> tuple:
    """ln q correctly rounded to ``digits`` significant digits, and its last place's unit."""
    ln = decimal.Context(prec=digits).ln(q)
    return Fraction(ln), Fraction(10) ** (ln.adjusted() - digits + 1)


def _log_bounds(vector, digits: int) -> tuple:
    """sum(e * ln q) as an exact rational, from each ln q correctly rounded
    to ``digits`` significant digits, and a bound on its error: a rounded
    ln is off by at most half a unit in its last place, and a whole unit is
    allowed here."""
    value = error = Fraction(0)
    for q, e in vector:
        ln, ulp = _ln(q, digits)
        value += e * ln
        error += abs(e) * ulp
    return value, error


def _log_sign(vector) -> int:
    """Sign of sum(e * ln q), which must not be zero: over a coprime base the
    ln q are linearly independent over Q, so a nonzero vector qualifies,
    and rising precision then shrinks the error below the value."""
    digits = _LOG_DIGITS
    while True:
        value, error = _log_bounds(vector, digits)
        if abs(value) > error:
            return 1 if value > 0 else -1
        digits *= 2


class RootRational(Frozen):
    """A decay rate base ** (1/index), base rational in (0, 1], index >= 1.

    The rate's identity is ``vector``: pairs (q, e) of pairwise coprime
    integers q > 1, found by gcd factor refinement, and nonzero rational
    exponents e, the rate being the product of the q ** e.  Pairwise
    coprime integers above one are multiplicatively independent, so two
    rates are equal exactly when their vectors agree over a common
    refinement, and they are ordered by the sign of a sum of logs.
    ``base`` and ``index`` only present the rate: the index is kept as
    constructed (ampliation by m multiplies it by m), and base is the
    product of the q ** (e * index), built when asked for.
    """

    def __init__(self, vector: tuple, index: int):
        vars(self).update(vector=vector, index=index)

    @property
    def base(self) -> Fraction:
        return _vector_value(self.vector, self.index)

    def _cmp(self, other: "RootRational") -> int:
        a, b = _common(self.vector, other.vector)
        if a == b:
            return 0
        return _log_sign(_as_vector({q: a.get(q, 0) - b.get(q, 0) for q in a.keys() | b.keys()}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootRational):
            return NotImplemented
        a, b = _common(self.vector, other.vector)
        return a == b

    def __hash__(self) -> int:
        # the p-adic valuations of the rate for a few small primes p do not
        # depend on the base it is written over
        valuations = []
        for p in _HASH_PRIMES:
            v = Fraction(0)
            for q, e in self.vector:
                while q % p == 0:
                    q //= p
                    v += e
            valuations.append(v)
        return hash(tuple(valuations))

    def __lt__(self, other: "RootRational") -> bool:
        return self._cmp(other) < 0

    def describe(self) -> str:
        if self.index < _DIGITS_BOUND and _vector_prints(self.vector, self.index):
            return str(self.base) if self.index == 1 else f"({self.base})^(1/{self.index})"
        too_long = f"[more than {MAX_RATIONAL_DIGITS} digits]"
        return "*".join(f"{q}^({e if fits_digit_cap(e) else too_long})" for q, e in self.vector)


def _vector_value(vector, index: int) -> Fraction:
    """The product of the q ** (e * index) over an exponent vector; each
    e * index must be an integer."""
    num = den = 1
    for q, e in vector:
        k = int(e * index)
        if k > 0:
            num *= q ** k
        else:
            den *= q ** -k
    return Fraction(num, den)


def _vector_prints(vector, index: int) -> bool:
    """Whether _vector_value(vector, index) prints within MAX_RATIONAL_DIGITS,
    judged from the log10 sizes of its numerator and denominator."""
    sizes = [0.0, 0.0]
    for q, e in vector:
        k = e * index
        sizes[k < 0] += _log10_size(abs(k), q)

    def larger_part() -> int:
        value = _vector_value(vector, index)
        return max(value.numerator, value.denominator)

    return _str_fits(max(sizes), larger_part)


def _log10_size(k, x: int) -> float:
    """k * log10(x) for k >= 0, infinite where k exceeds the float range."""
    try:
        return float(k) * math.log10(x)
    except OverflowError:
        return math.inf


def _str_fits(log10_size: float, build) -> bool:
    """Whether an int of about 10 ** log10_size has at most
    MAX_RATIONAL_DIGITS digits.  The estimate decides, except within a digit
    of the cap, where build() makes the int and it is checked exactly."""
    if log10_size < MAX_RATIONAL_DIGITS - 1:
        return True
    if log10_size > MAX_RATIONAL_DIGITS + 1:
        return False
    return build() < _DIGITS_BOUND


def root_rational(base, index: int = 1) -> RootRational:
    base = as_fraction(base)
    if base <= 0:
        raise ValueError(f"rate base must be positive, got {base}")
    if base == 1 or index < 1:
        return RATE_ONE
    # numerator and denominator are coprime, so they are the coprime base
    vector = {base.numerator: Fraction(1, index), base.denominator: Fraction(-1, index)}
    return RootRational(_as_vector({q: e for q, e in vector.items() if q > 1}), index)


RATE_ONE = RootRational((), 1)


def _rate(vector: tuple, index: int) -> RootRational:
    return RootRational(vector, index) if vector else RATE_ONE


def _rate_mul(a: RootRational, b: RootRational) -> RootRational:
    x, y = _common(a.vector, b.vector)
    total = {q: x.get(q, 0) + y.get(q, 0) for q in x.keys() | y.keys()}
    return _rate(_as_vector(total), a.index * b.index)


def _rate_pow(a: RootRational, k: int) -> RootRational:
    return _rate(tuple((q, e * k) for q, e in a.vector), a.index)


def _rate_root(a: RootRational, m: int) -> RootRational:
    return _rate(tuple((q, e / m) for q, e in a.vector), a.index * m)


def log_ratio_ceiling(a: RootRational, b: RootRational) -> Optional[tuple]:
    """(ceil(t), whether t is that integer) for t = ln a / ln b, rates a and b
    below one; None when t > 10**MAX_RATIONAL_DIGITS - 1, where ceil(t)
    would not print within the cap.

    Proportional vectors give t exactly.  Otherwise t is irrational (a
    rational t = u/v would make v*ln a - u*ln b a vanishing combination of
    independent logs), and certified logs at rising precision pin the
    interval around t between two consecutive integers, or above the cap.
    """
    x, y = _common(a.vector, b.vector)
    q0 = next(iter(y))
    t = x.get(q0, 0) / y[q0]
    if x.keys() == y.keys() and all(x[q] == t * y[q] for q in y):
        m = math.ceil(t)
        return (m, t.denominator == 1) if m < _DIGITS_BOUND else None
    digits = _LOG_DIGITS
    while True:
        va, ea = _log_bounds(a.vector, digits)
        vb, eb = _log_bounds(b.vector, digits)
        # a lower bound on t even before ln b is told apart from zero
        m = math.floor((abs(va) - ea) / (abs(vb) + eb)) + 1
        if m >= _DIGITS_BOUND:
            return None
        if abs(vb) > eb and m == math.floor((abs(va) + ea) / (abs(vb) - eb)) + 1:
            return m, False
        digits *= 2


class AsymSig(Frozen):
    """Asymptotic signature: decay rate, power and log power of the tail.

    rate None encodes a zero tail (finite support).  The order ``_order``
    is total: smaller rate wins, then larger power, then larger log power;
    a zero tail decays faster than everything else.
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
        return f"rate={self.rate.describe()}, pow={self.pow}, logpow={self.logpow}"


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
        s = _sig(expr.inner)
        if s.is_zero_tail:
            return s
        return AsymSig(_rate_root(s.rate, expr.m), s.pow, s.logpow)
    if isinstance(expr, Subsample):
        s = _sig(expr.inner)
        if s.is_zero_tail:
            return s
        return AsymSig(_rate_pow(s.rate, expr.k), s.pow, s.logpow)
    if isinstance(expr, Product):
        a, b = _sig(expr.left), _sig(expr.right)
        if a.is_zero_tail or b.is_zero_tail:
            return ZERO_TAIL
        return AsymSig(_rate_mul(a.rate, b.rate), a.pow + b.pow, a.logpow + b.logpow)
    raise TypeError(type(expr).__name__)


def signature_of(expr: SequenceExpr) -> AsymSig:
    """Canonical asymptotic signature of a validated expression."""
    ensure_valid(expr)
    return _sig(expr)


def _asymptotic_scale(expr: SequenceExpr):
    """Limit of entry(n) / (n**-p * ln(n)**-q) for rate-one expressions.

    Exact Fraction when all exponents are integral, float otherwise; only
    meaningful when the signature rate is one (power-log decay class).
    """
    if isinstance(expr, (Pow, PowLog)):
        return Fraction(1)
    if isinstance(expr, Explicit):
        return _asymptotic_scale(expr.tail)
    if isinstance(expr, Scale):
        return expr.c * _asymptotic_scale(expr.inner)
    if isinstance(expr, Ampliation):
        s = _sig(expr.inner)
        inner = _asymptotic_scale(expr.inner)
        if s.pow.denominator == 1 and isinstance(inner, Fraction):
            return inner * Fraction(expr.m) ** s.pow.numerator
        return float(inner) * float(expr.m) ** float(s.pow)
    if isinstance(expr, Subsample):
        s = _sig(expr.inner)
        inner = _asymptotic_scale(expr.inner)
        if s.pow.denominator == 1 and isinstance(inner, Fraction):
            return inner / Fraction(expr.k) ** s.pow.numerator
        return float(inner) * float(expr.k) ** (-float(s.pow))
    if isinstance(expr, Product):
        return _asymptotic_scale(expr.left) * _asymptotic_scale(expr.right)
    raise ValueError("asymptotic scale is defined only for rate-one expressions")


def _scale_factors(expr: SequenceExpr) -> list:
    """The asymptotic scale of a rate-one expression as pairs (q, e) of a
    positive rational q and a rational exponent e, the scale being the
    product of the q ** e."""
    if isinstance(expr, (Pow, PowLog)):
        return []
    if isinstance(expr, Explicit):
        return _scale_factors(expr.tail)
    if isinstance(expr, Scale):
        return [(expr.c, Fraction(1))] + _scale_factors(expr.inner)
    if isinstance(expr, Ampliation):
        return [(Fraction(expr.m), _sig(expr.inner).pow)] + _scale_factors(expr.inner)
    if isinstance(expr, Subsample):
        return [(Fraction(expr.k), -_sig(expr.inner).pow)] + _scale_factors(expr.inner)
    if isinstance(expr, Product):
        return _scale_factors(expr.left) + _scale_factors(expr.right)
    raise ValueError("asymptotic scale is defined only for rate-one expressions")


# Decimal digits, summed over all powers, up to which a product with a
# fractional exponent is left to its float arithmetic, which builds the
# integral powers exactly; past them it is taken from logs.
_FLOAT_POWER_DIGITS = 20_000


def _power_product(factors: list, approximate) -> Union[Fraction, float]:
    """The product of the q ** e over pairs (q, e) of a positive rational q
    and a rational exponent e.

    With integral exponents it is exact, written over a coprime base so that
    cancelling powers are never built, unless it would not print within
    MAX_RATIONAL_DIGITS.  Otherwise it is approximate(), the product in
    float arithmetic, while its powers have at most _FLOAT_POWER_DIGITS
    digits and it lies inside the float range; else exp of the summed logs,
    which is inf or 0.0 only where the product leaves the float range.
    """
    digits = sum(_log10_size(abs(e), q.numerator * q.denominator) for q, e in factors)
    if all(e.denominator == 1 for _, e in factors):
        pairs = [(n, e * s) for q, e in factors for n, s in ((q.numerator, 1), (q.denominator, -1))]
        vector = _as_vector(_over(pairs, _coprime_base([n for n, _ in pairs])))
        if _vector_prints(vector, 1):
            return _vector_value(vector, 1)
    elif digits <= _FLOAT_POWER_DIGITS:
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            if 0 < (x := approximate()) < math.inf:
                return x
    log = sum(e * Fraction(_log_fraction(q)) for q, e in factors)
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf if log > 0 else 0.0


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


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
    quotient of their asymptotic scales (see _power_product)."""
    factors = _scale_factors(xi) + [(q, -e) for q, e in _scale_factors(eta)]
    evidence["limiting_ratio"] = _power_product(
        factors, lambda: _asymptotic_scale(xi) / _asymptotic_scale(eta)
    )


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
    s, t = _sig(xi), _sig(eta)
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
    s = _sig(xi)
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
    shrunk = False
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
        shrunk = True
    if shrunk:
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
