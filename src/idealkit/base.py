"""Names every layer shares: the input error, the value-class base, the
rational digit cap, the rational reader and the numeric probe defaults.
It imports no other idealkit module, so the Lie engine loads no sequence
calculus to use them."""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import Union

# Numeric probe defaults: grid limit and tolerance.
DEFAULT_NMAX = 2 ** 20
DEFAULT_EPS = 1e-3

# Most digits in the numerator or the denominator of a rational that is read
# or printed exactly.  It equals the interpreter's default limit on int/str
# conversion but does not follow that setting, so no answer depends on it.
MAX_RATIONAL_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_RATIONAL_DIGITS

_NUMBER = re.compile(r"[+-]?(\d+)(?:\.(\d+)|/(\d+))?")


class InputError(ValueError):
    """Refused input; the command line reports these, and no other error, as bad input."""


class Frozen:
    """Base of the immutable value classes; no code is generated for them.

    A subclass's fields are the parameters of its own ``__init__``, which
    stores each of them once with ``vars(self).update``.
    Instances of one class are equal when their fields are, hash as the
    tuple of their fields and print as ``Name(field=value, ...)``; setting
    or deleting an attribute raises AttributeError.  Equality compares the
    instance dicts, in C; the hash reads the fields through one
    ``attrgetter`` per class.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = vars(cls).get("__init__")
        if init is None:
            return
        fields = cls._fields = init.__code__.co_varnames[1 : init.__code__.co_argcount]
        if "__hash__" not in vars(cls):
            get = attrgetter(*fields)
            if len(fields) == 1:  # attrgetter of one name returns the bare value
                cls.__hash__ = lambda self: hash((get(self),))
            else:
                cls.__hash__ = lambda self: hash(get(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):  # a class with no fields
        return hash(())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def fits_digit_cap(f: Fraction) -> bool:
    """Whether f's numerator and denominator have at most MAX_RATIONAL_DIGITS digits."""
    return abs(f.numerator) < _DIGITS_BOUND and f.denominator < _DIGITS_BOUND


def as_fraction(x: Union[int, str, Fraction]) -> Fraction:
    """Coerce to an exact rational; floats are rejected to avoid silent rounding."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    """A rational written p/q or as a decimal, with no exponent, and at most
    MAX_RATIONAL_DIGITS digits in its numerator and in its denominator (a
    decimal's digits on both sides of the point form its numerator).
    Raises InputError otherwise."""
    m = _NUMBER.fullmatch(text)
    if not m:
        raise InputError(f"expected a rational number (p/q or decimal), got {text[:40]!r}")
    whole, point, den = m.groups()
    if max(len(whole) + len(point or ""), len(den or "")) > MAX_RATIONAL_DIGITS:
        raise InputError(
            f"rational with more than {MAX_RATIONAL_DIGITS} digits in its numerator or denominator"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational {text[:40]!r}: {exc}") from None
