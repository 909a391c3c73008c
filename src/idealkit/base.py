"""Names every layer shares: the input error, the value-class base, the
rational digit cap, the rational reader, the numeric probe defaults and
the JSON file boundary, ``read_json`` and ``write_json``.  It imports no
other idealkit module, so the Lie engine loads no sequence calculus."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Union

# Numeric probe defaults: grid limit and tolerance.
DEFAULT_NMAX = 2 ** 20
DEFAULT_EPS = 1e-3

# Most digits in the numerator or the denominator of a rational that is read
# or printed exactly.  It equals the interpreter's default limit on int/str
# conversion but does not follow that setting, so no answer depends on it.
MAX_RATIONAL_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_RATIONAL_DIGITS
# What a report prints in place of a number past the cap.
TOO_MANY_DIGITS = f"[more than {MAX_RATIONAL_DIGITS} digits]"

# Deepest nesting of lists and objects in a file read; idealkit writes three.
MAX_JSON_DEPTH = 32

_NUMBER = re.compile(r"[+-]?(\d+)(?:\.(\d+)|/(\d+))?")


class InputError(ValueError):
    """Refused input; the command line reports these, and no other error, as bad input."""


class Frozen:
    """Base of the immutable value classes; no code is generated for them.

    A subclass's fields are the parameters of its own ``__init__``, which
    stores each of them once, in parameter order, with ``vars(self).update``;
    the instance dict is then the one record of the fields.  Instances of
    one class are equal when their dicts are, hash as the tuple of the
    dict's values and print as ``Name(field=value, ...)``; setting or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def fits_digit_cap(f: Fraction) -> bool:
    """Whether f's numerator and denominator have at most MAX_RATIONAL_DIGITS digits."""
    return abs(f.numerator) < _DIGITS_BOUND and f.denominator < _DIGITS_BOUND


def capped(x: Union[int, Fraction]):
    """x as it is, or TOO_MANY_DIGITS where it does not fit the digit cap:
    what a report or a message prints for an int or a rational."""
    return x if fits_digit_cap(x) else TOO_MANY_DIGITS


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


_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string", list: "a list",
               dict: "an object"}


def typed(value, kind: type, what: str, nullable: bool = False):
    """value if its JSON type is exactly kind (so a boolean is no integer),
    or it is None where nullable; InputError otherwise."""
    if type(value) is kind or (nullable and value is None):
        return value
    wanted = _JSON_TYPES[kind] + (" or null" if nullable else "")
    raise InputError(f"{what} must be {wanted}, got {json.dumps(value, default=str):.40}")


def _json_int(text: str) -> int:
    if len(text) - text.startswith("-") > MAX_RATIONAL_DIGITS:
        raise InputError(f"integer with more than {MAX_RATIONAL_DIGITS} digits")
    return int(text)


def read_json(path: str):
    """The JSON value in the file at path: InputError unless it is UTF-8 JSON nested
    at most MAX_JSON_DEPTH levels, with at most MAX_RATIONAL_DIGITS digits per integer."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh, parse_int=_json_int)
    except RecursionError:
        raise InputError(f"JSON nested deeper than {MAX_JSON_DEPTH} levels") from None
    except ValueError as exc:  # not UTF-8, not JSON, or an integer over the cap
        raise InputError(str(exc)) from None
    level = [value]  # the values inside as many lists and objects as the loop has run
    for _ in range(MAX_JSON_DEPTH):
        level = [x for v in level if isinstance(v, (list, dict))
                 for x in (v.values() if isinstance(v, dict) else v)]
    if any(isinstance(v, (list, dict)) for v in level):
        raise InputError(f"JSON nested deeper than {MAX_JSON_DEPTH} levels")
    return value


def write_json(path: str, obj) -> None:
    """Write obj to path as JSON: sorted keys, a two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
