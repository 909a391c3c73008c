"""Shared catalog battery and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from idealkit.seqspace import (
    Ampliation,
    Exp,
    Explicit,
    FiniteSupport,
    Pow,
    PowLog,
    Product,
    Scale,
    ampliate,
    explicit,
    has_exact_eval,
    subsample,
    support,
)

# Infinite-support catalog battery; at least twenty expressions covering the
# power, exponential and power-log decay classes under every combinator.
BATTERY = [
    Pow(1),
    Pow(2),
    Pow(3),
    Pow(F(1, 2)),
    Pow(F(5, 2)),
    Exp(F(1, 2)),
    Exp(F(1, 4)),
    Exp(F(9, 10)),
    Exp(F(1, 8)),
    PowLog(1, 1),
    PowLog(2, 1),
    PowLog(0, 1),
    PowLog(1, -1),
    PowLog(F(1, 2), 2),
    Scale(7, Pow(2)),
    Scale(F(1, 3), Exp(F(1, 2))),
    Ampliation(2, Pow(1)),
    Ampliation(3, Exp(F(1, 8))),
    Ampliation(5, Pow(2)),
    Product(Pow(1), Pow(2)),
    Product(Exp(F(1, 2)), Pow(1)),
    Product(Pow(1), PowLog(0, 1)),
    explicit([1, F(1, 2)], Pow(3)),
    explicit([2, 1], Exp(F(1, 2))),
    subsample(2, Pow(1)),
    Scale(F(3, 2), Ampliation(2, PowLog(1, 1))),
]

FINITE_BATTERY = [
    FiniteSupport([1, F(1, 2), F(1, 4)]),
    FiniteSupport([1]),
    FiniteSupport([]),
    Ampliation(3, FiniteSupport([1, F(1, 2)])),
    Explicit((F(3), F(2)), FiniteSupport([1, 1])),
]

FULL_BATTERY = BATTERY + FINITE_BATTERY

EXACT_BATTERY = [e for e in FULL_BATTERY if has_exact_eval(e)]

assert len(BATTERY) >= 20
assert all(support(e) is None for e in BATTERY)


_SMALL_RATES = (F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(1, 8), F(1, 9), F(2, 3), F(3, 4), F(9, 10))
_SMALL_POWLOGS = ((1, 1), (2, 1), (0, 1), (1, -1), (F(1, 2), 2), (0, 2))


def random_catalog(rng: random.Random, depth: int = 3):
    """A random catalog expression with small parameters, so that equal
    signatures written in different ways are common; half the leaves are
    exponentials."""
    kind = rng.choice("peeelf" + ("aasscxPP" if depth else ""))
    if kind == "p":
        return Pow(rng.choice((F(1, 2), 1, 2, 3)))
    if kind == "e":
        return Exp(rng.choice(_SMALL_RATES))
    if kind == "l":
        return PowLog(*rng.choice(_SMALL_POWLOGS))
    if kind == "f":
        return FiniteSupport([F(1, 2 ** i) for i in range(rng.randrange(4))])
    inner = random_catalog(rng, depth - 1)
    if kind == "a":
        return ampliate(rng.randint(2, 4), inner)
    if kind == "s":
        return subsample(rng.randint(2, 4), inner)
    if kind == "c":
        return Scale(rng.choice((F(1, 3), 2, 7)), inner)
    if kind == "x":
        return explicit([9, 8], inner)
    return Product(inner, random_catalog(rng, depth - 1))


def seeded_compare_pairs(seed: int = 0, size: int = 300, pairs: int = 1200) -> list:
    """``pairs`` pairs drawn from ``size`` seeded random catalog expressions."""
    rng = random.Random(seed)
    exprs = [random_catalog(rng) for _ in range(size)]
    return [(rng.choice(exprs), rng.choice(exprs)) for _ in range(pairs)]


def battery_ids(exprs):
    from idealkit.dsl import format_seq

    return [format_seq(e) for e in exprs]


@pytest.fixture(scope="session")
def battery():
    return list(BATTERY)


@pytest.fixture(scope="session")
def full_battery():
    return list(FULL_BATTERY)
