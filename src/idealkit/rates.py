"""Exact decay rates as exponent vectors over a coprime base: a product
merges one vector's numbers into the other's base by gcd factor refinement
(Bach, Driscoll and Shallit 1993), and order is a certified sign of logs."""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
from fractions import Fraction
from typing import Optional, Union

from .base import _DIGITS_BOUND, MAX_RATIONAL_DIGITS, Frozen, as_fraction, capped

__all__ = ["RATE_ONE", "RootRational", "log_ratio_ceiling", "root_rational"]


def _log_fraction(f: Fraction) -> float:
    if f == 0:
        return -math.inf
    return math.log(f.numerator) - math.log(f.denominator)


def _coprime_base(numbers, base=()) -> list:
    """Pairwise coprime integers > 1, ascending, of which every given number
    and every element of base, itself pairwise coprime, is a product of powers.

    Factor refinement with gcds alone, of the new numbers and the base elements
    sharing a factor with their product: a number sharing a factor g with a
    refined element b is replaced, with b, by g, b/g and itself over g.  Each
    split lowers the sum of the logs by at least ln 2, so it ends."""
    known = set(base)
    pending = [n for n in numbers if n > 1 and n not in known]
    whole, kept = math.prod(pending), []
    for b in base:
        (pending if math.gcd(b, whole) > 1 else kept).append(b)
    refined: list = []
    while pending:
        x = pending.pop()
        for i, b in enumerate(refined):
            g = math.gcd(x, b)
            if g > 1:
                if x != b:
                    del refined[i]
                    pending.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            refined.append(x)
    return sorted(kept + refined)


def _over(vector: tuple, base: list) -> dict:
    """An exponent vector, whose entries may share a base element, summed
    over a coprime refinement of its base; entries on the base are read as is."""
    on_base = set(base)
    out: dict = {}
    for q, e in vector:
        if q in on_base:
            out[q] = out[q] + e if q in out else e
            continue
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
    """Two exponent vectors as dicts over one coprime base, the longer one's refined."""
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    base = _coprime_base([q for q, _ in shorter], [q for q, _ in longer])
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
        return "*".join(f"{q}^({capped(e)})" for q, e in self.vector)


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
    x.update((q, x.get(q, 0) + e) for q, e in y.items())
    return _rate(_as_vector(x), a.index * b.index)


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
