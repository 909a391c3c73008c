"""Shared catalog battery and helpers for the test suite."""

from __future__ import annotations

import io
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import strategies as st

from idealkit import cli
from idealkit.matlie import LieAlgebraPresentation, Subspace
from idealkit.ratlinalg import RationalMatrix, SparseEchelon
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


# Hypothesis draws of random_catalog: zero tails, rate-one forms, amp/sub
# nestings and exp leaves, which subsample rewrites to Exp(r ** k).
catalog_exprs = st.builds(random_catalog, st.randoms(use_true_random=False))


# Exponential-type expressions: a rate in (0, 1) under ampliations,
# subsamples, scales and products, with power and power-log factors whose
# pow and logpow decide a tie.
_exp_rates = st.integers(2, 60).flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d)))
_rate_one = st.sampled_from([Pow(1), Pow(F(1, 2)), Pow(3), PowLog(1, 1), PowLog(1, -1)])
exp_type_exprs = st.recursive(
    st.builds(Exp, _exp_rates),
    lambda inner: st.one_of(
        st.builds(ampliate, st.integers(2, 6), inner),
        st.builds(subsample, st.integers(2, 4), inner),
        st.builds(Scale, st.sampled_from([F(1, 3), F(2), F(7, 5)]), inner),
        st.builds(Product, inner, _rate_one),
        st.builds(Product, inner, inner),
    ),
    max_leaves=4,
)
# proportional pairs: xi and the generator take the i-th and j-th power of
# one exponential-type base's rate, which meet at t = j / i, a tie when i | j
_tied_pairs = st.builds(
    lambda base, i, j, left, right: (
        Product(subsample(i, base) if i > 1 else base, left),
        Product(subsample(j, base) if j > 1 else base, right)),
    exp_type_exprs, st.integers(1, 3), st.integers(1, 8), _rate_one, _rate_one)
exp_type_pairs = st.one_of(st.tuples(exp_type_exprs, exp_type_exprs), _tied_pairs)


def seeded_compare_pairs(seed: int = 0, size: int = 300, pairs: int = 1200) -> list:
    """``pairs`` pairs drawn from ``size`` seeded random catalog expressions."""
    rng = random.Random(seed)
    exprs = [random_catalog(rng) for _ in range(size)]
    return [(rng.choice(exprs), rng.choice(exprs)) for _ in range(pairs)]


def combination(n, terms) -> RationalMatrix:
    """The n x n matrix sum of c·m over the pairs (c, m) of terms."""
    acc: dict = {}
    for c, m in terms:
        for k, v in m.flat_nonzeros().items():
            acc[k] = acc.get(k, 0) + c * v
    return RationalMatrix.from_flat(n, n, acc)


def matrices(sub: Subspace) -> list:
    """The matrices of a subspace's coordinate rows."""
    L = sub.parent
    return [combination(L.ambient, zip(vec, L.basis)) for vec in sub.vectors]


def ambient_span(space) -> tuple:
    """Canonical form of a span of square matrices, comparable across
    presentations: the reduced echelon rows of their row-major entries.
    ``space`` is a ``Subspace`` or a nonempty sequence of matrices; witness
    ideals are compared through it."""
    if isinstance(space, Subspace):
        n, mats = space.parent.ambient, matrices(space)
    else:
        mats = list(space)
        n = mats[0].rows
    ech = SparseEchelon(n * n)
    for m in mats:
        ech.insert(m.flat_nonzeros())
    return tuple(map(tuple, ech.reduced()))


def trace(m: RationalMatrix) -> F:
    return sum((m.entries[i][i] for i in range(m.rows)), F(0))


def diagonal_algebra(n: int) -> LieAlgebraPresentation:
    """The abelian algebra of n x n diagonal matrices."""
    basis = tuple(RationalMatrix.from_nonzeros(n, n, {(i, i): 1}) for i in range(n))
    return LieAlgebraPresentation(n, basis, f"diagonal_{n}")


def battery_ids(exprs):
    from idealkit.dsl import format_seq

    return [format_seq(e) for e in exprs]


@pytest.fixture(scope="session")
def battery():
    return list(BATTERY)


@pytest.fixture(scope="session")
def full_battery():
    return list(FULL_BATTERY)


# this checkout's package source, for CLI calls in a fresh interpreter
SRC = str(Path(__file__).resolve().parents[1] / "src")


class BudgetExceeded(Exception):
    """A call run by ``run_main`` ran past its time budget."""


def run_main(argv, budget=None) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process.

    Past ``budget`` seconds a timer raises BudgetExceeded at the next return
    to the interpreter (a long C operation runs to its end first); the
    previous SIGALRM handler and timer come back.
    """
    def expire(signum, frame):
        raise BudgetExceeded(f"{' '.join(argv[:2])} ran past {budget} s")

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if budget:
            timer = signal.getitimer(signal.ITIMER_REAL)
            handler = signal.signal(signal.SIGALRM, expire)
        try:
            if budget:
                signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's help and usage errors
                code = exc.code
            finally:
                # one-shot: a due alarm raises once disarmed, never in the restore
                if budget:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            if budget:
                signal.signal(signal.SIGALRM, handler)
                signal.setitimer(signal.ITIMER_REAL, *timer)
    return code, out.getvalue(), err.getvalue()


def run_process(argv, timeout=10, **env) -> subprocess.CompletedProcess:
    """``python -m idealkit.cli *argv`` in a fresh interpreter on this checkout's
    src, with env added to the environment, killed after ``timeout`` seconds."""
    return subprocess.run([sys.executable, "-m", "idealkit.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC, **env), text=True, timeout=timeout)

