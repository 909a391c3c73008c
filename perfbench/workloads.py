"""Seeded call lists for the three benchmark workloads.

Each workload is a list of CLI calls (argv after ``idealkit``) paired with
an expectation that :mod:`oracle` checks from closed forms.  The same
workload name and seed always give the same list.  Nothing here imports
idealkit; the algebra files of ``lie-ladder`` are written by
``make_algebras.py`` in a child interpreter during set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

WORKLOADS = ("ideal-calculus", "lie-ladder", "witness-truncation")


@dataclass
class Call:
    label: str
    argv: list
    kind: str  # oracle check to apply
    params: dict = field(default_factory=dict)
    # Documented defect this call reproduces today: (exit code, stderr marker).
    known_defect: tuple | None = None


# Batch wall time of each workload at the seed commit (2-core x86_64,
# Python 3.11).  A run issues round(seconds / nominal) batches, at least one.
NOMINAL_BATCH_S = {"ideal-calculus": 22.0, "lie-ladder": 24.0, "witness-truncation": 21.0}


def batches(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BATCH_S[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def build(workload: str, seed: int, work_dir: str, rel_work: str, write_algebras) -> list:
    """Generate the call list and write its input files under ``work_dir``.

    ``rel_work`` is the same directory relative to the checkout root, which
    is what the calls name, so the recorded call list does not depend on
    where the checkout lives.  ``write_algebras(specs)`` writes the algebra
    files of the lie-ladder workload.
    """
    rng = _rng(workload, seed)
    if workload == "ideal-calculus":
        calls = _ideal_calculus(rng)
    elif workload == "lie-ladder":
        calls = _lie_ladder(rng, work_dir, rel_work, write_algebras)
    elif workload == "witness-truncation":
        return _witness_truncation(rng, rel_work)  # build/verify order is fixed
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# ideal-calculus
# ---------------------------------------------------------------------------

# Certifying ampliation index targets: each rung about doubles the exact
# RootRational powering cost in seqspace, from start-up noise to about 4 s.
LADDER_M = (1_000, 4_000, 16_000, 35_000, 70_000, 140_000)
LADDER_BASES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))

DEEP_SCALE = "scale:2;" * 3000 + "pow:1"
TINY_RATE = Fraction(1, 10 ** 340)


def _pow_exponent(rng) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.choice((1, 2)))


def _exp_rate(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), 10)


def _member_pair(rng):
    """Draw rates b < a with ln b / ln a at least 1e-6 away from an integer."""
    while True:
        a = Fraction(rng.randint(50, 95), 100)
        b = Fraction(rng.randint(1, 30), 100)
        if oracle.ampliation_ratio(a, b)[1]:
            return a, b


def _ideal_calculus(rng) -> list:
    calls = []

    def add(label, argv, kind, **params):
        calls.append(Call(label, argv, kind, params))

    p, r = _pow_exponent(rng), _exp_rate(rng)
    q2 = _pow_exponent(rng)
    add("signature-pow", ["seq", "signature", f"pow:{p}"], "signature",
        rate=Fraction(1), pow=p, logpow=Fraction(0))
    add("signature-exp", ["seq", "signature", f"exp:{r}"], "signature",
        rate=r, pow=Fraction(0), logpow=Fraction(0))
    add("signature-prod", ["seq", "signature", f"prod(exp:{r},pow:{p})"], "signature",
        rate=r, pow=p, logpow=Fraction(0))
    add("signature-powlog", ["seq", "signature", f"powlog:{p},{q2}"], "signature",
        rate=Fraction(1), pow=p, logpow=q2)

    # Each branch of the oracle in both modes: p > q, p = q, p < q.
    for mode in ("O", "o"):
        for rel, sign in (("gt", -1), ("eq", 0), ("lt", 1)):
            x = _pow_exponent(rng)
            y = x + sign * Fraction(rng.randint(1, 4), 2)
            if y <= 0:
                x, y = x + 3, y + 3
            add(f"compare-{mode}-{rel}", ["seq", "compare", "--mode", mode, f"pow:{x}", f"pow:{y}"],
                "compare", mode=mode, p=x, q=y)
    # Integer gap of at least one keeps the numeric probe far from its tolerance.
    x = Fraction(rng.randint(2, 5))
    y = x - 1 if rng.random() < 0.5 else x + 1
    add("compare-numeric", ["seq", "compare", "--mode", "o", "--numeric", f"pow:{x}", f"pow:{y}"],
        "compare", mode="o", p=x, q=y, numeric=True)

    for name, seq, rate_one in (("pow", f"pow:{p}", True), ("exp", f"exp:{r}", False)):
        params = {"rate_one": rate_one, "pow": p if rate_one else None}
        add(f"delta2-{name}", ["seq", "delta2", seq], "delta2", **params)
        add(f"soft-{name}", ["ideal", "soft", seq], "soft", rate_one=rate_one)
        add(f"idempotent-{name}", ["ideal", "idempotent", seq], "idempotent", rate_one=rate_one)
        add(f"report-{name}", ["ideal", "report", seq], "report", rate_one=rate_one)

    # Small-m membership: one exact integer ratio (the soft edge needs m + 1)
    # and two generic draws.
    base = Fraction(rng.randint(2, 8), 10)
    exact = (base, base ** rng.randint(2, 4))
    for tag, (a, b) in (("exact", exact), ("generic", _member_pair(rng)),
                        ("generic2", _member_pair(rng))):
        add(f"member-{tag}", ["ideal", "member", f"exp:{a}", f"exp:{b}"],
            "member", a=a, b=b, soft_edge=False)
        add(f"member-{tag}-soft", ["ideal", "member", f"exp:{a}", f"idealprod(exp:{b},compact)"],
            "member", a=a, b=b, soft_edge=True)

    for target in LADDER_M:
        b = rng.choice(LADDER_BASES)
        k = round(target * (1 + rng.uniform(-0.01, 0.01)) / -math.log(b))
        while not oracle.ampliation_ratio(Fraction(k - 1, k), b)[1]:
            k += 1
        a = Fraction(k - 1, k)
        add(f"ladder-{target}", ["ideal", "member", f"exp:{a}", f"exp:{b}"],
            "member", a=a, b=b, soft_edge=False)
        add(f"ladder-{target}-soft", ["ideal", "member", f"exp:{a}", f"idealprod(exp:{b},compact)"],
            "member", a=a, b=b, soft_edge=True)

    # The two cheap known defects listed in ROADMAP.md; the oracle holds the
    # correct answer, known_defect the way the program fails today.
    calls.append(Call("defect-tiny-rate", ["ideal", "member", f"exp:{TINY_RATE}", "exp:1/2"],
                      "member", {"a": TINY_RATE, "b": Fraction(1, 2), "soft_edge": False},
                      known_defect=(2, "math domain error")))
    calls.append(Call("defect-deep-scale", ["seq", "signature", DEEP_SCALE], "signature",
                      {"rate": Fraction(1), "pow": Fraction(1), "logpow": Fraction(0)},
                      known_defect=(1, "RecursionError")))
    for c in calls:
        c.argv.append("--json")
    return calls


# ---------------------------------------------------------------------------
# lie-ladder
# ---------------------------------------------------------------------------

# (file stem, make_algebra kind, n); "sp3+sp2" is the direct sum.
ALGEBRAS = (
    ("sp2", "sp", 2), ("sp3", "sp", 3), ("sp4", "sp", 4),
    ("sl3", "sl", 3), ("sl4", "sl", 4), ("sl5", "sl", 5), ("sl6", "sl", 6),
    ("utsl5", "ut-sl", 5), ("utsl6", "ut-sl", 6), ("su5", "strictly-upper", 5),
    ("spskew3", "sp-skew", 3), ("sp3+sp2", "sum", 0),
)


def _read_basis(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["ambient_dim"], [[Fraction(v) for v in flat] for flat in obj["basis"]]


def _encode(f: Fraction):
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _seed_element(rng, basis, indices) -> list:
    """Integer combination of the given basis elements, all coefficients nonzero."""
    out = [Fraction(0)] * len(basis[0])
    for i in indices:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for pos, v in enumerate(basis[i]):
            if v:
                out[pos] += c * v
    return [_encode(v) for v in out]


def _lie_ladder(rng, work_dir, rel_work, write_algebras) -> list:
    write_algebras([(stem, kind, n) for stem, kind, n in ALGEBRAS])
    path = {stem: os.path.join(work_dir, f"{stem}.json") for stem, _, _ in ALGEBRAS}
    rel = {stem: f"{rel_work}/{stem}.json" for stem, _, _ in ALGEBRAS}
    bases = {stem: _read_basis(path[stem]) for stem in path}
    for stem, family, n in ALGEBRAS:
        if len(bases[stem][1]) != oracle.algebra_dim(family, n):
            raise RuntimeError(f"algebra file {stem}.json has dim {len(bases[stem][1])}, "
                               f"expected {oracle.algebra_dim(family, n)}")

    calls = []

    def add(label, argv, kind, **params):
        calls.append(Call(label, argv + ["--json"], kind, params))

    for stem in ("sp2", "sp3", "sp4", "sl3", "sl4", "sl5", "sl6"):
        add(f"simple-{stem}", ["lie", "simple", "--file", rel[stem]], "lie_simple", verdict="Simple")
    add("simple-utsl6", ["lie", "simple", "--file", rel["utsl6"]], "lie_simple",
        verdict="NotSimple", witness_dims=[oracle.derived_dim("ut-sl", 6)])
    add("simple-su5", ["lie", "simple", "--file", rel["su5"]], "lie_simple",
        verdict="NotSimple", witness_dims=[oracle.derived_dim("strictly-upper", 5)])
    add("simple-sp3+sp2", ["lie", "simple", "--file", rel["sp3+sp2"]], "lie_simple",
        verdict="NotSimple", witness_dims=[oracle.sp_dim(3), oracle.sp_dim(2)], commutant_dim=2)
    add("closure-spskew3", ["lie", "check-closure", "--file", rel["spskew3"]], "closure", closed=False)
    for stem, family, n in (("sl4", "sl", 4), ("sp3", "sp", 3)):
        add(f"killing-{stem}", ["lie", "killing", "--file", rel[stem]], "killing",
            matrix=oracle.killing_closed_form(family, n, bases[stem]))
    add("derived-utsl5", ["lie", "derived", "--file", rel["utsl5"]], "derived",
        dim=oracle.derived_dim("ut-sl", 5))

    # ideal-gen on sp(3)+sp(2): basis 0..20 span the sp(3) summand, 21..30 sp(2).
    _, basis = bases["sp3+sp2"]
    d3, d2 = oracle.sp_dim(3), oracle.sp_dim(2)
    summand = rng.choice((range(0, d3), range(d3, d3 + d2)))
    inside = rng.sample(summand, rng.randint(1, 4))
    mixed = rng.sample(range(0, d3), rng.randint(1, 4)) + rng.sample(range(d3, d3 + d2), rng.randint(1, 4))
    for tag, indices, dim in (("summand", inside, len(summand)), ("mixed", mixed, d3 + d2)):
        seed_file = f"seeds-{tag}.json"
        with open(os.path.join(work_dir, seed_file), "w", encoding="utf-8") as fh:
            json.dump({"elements": [_seed_element(rng, basis, indices)]}, fh)
        add(f"ideal-gen-{tag}", ["lie", "ideal-gen", "--file", rel["sp3+sp2"], "--seeds",
                                 f"{rel_work}/{seed_file}"], "ideal_gen", dim=dim)
    return calls


# ---------------------------------------------------------------------------
# witness-truncation
# ---------------------------------------------------------------------------

# (truncation, partner kind).  The dense bracket costs O(N^3) Fraction
# steps, so N = 256 alone is about half of the batch; the cheap N = 64,
# central and refused calls are the majority, so call_p50_s sits among
# calls of similar cost whatever the seed draws.
WITNESS_CASES = (
    (64, "pow"), (64, "exp"), (64, "prop"), (64, "pow"), (64, "exp"),
    (128, "pow"), (128, "exp"), (128, "prop"), (128, "pow"),
    (256, "pow"),
)
SOFT_REFUSALS = 2


def _generator(rng):
    k = rng.randint(1, 3)
    kind = rng.choice(("pow", "scale", "amp"))
    if kind == "pow":
        return ("pow", k)
    if kind == "scale":
        c = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        return ("scale", c, ("pow", k))
    return ("amp", rng.randint(2, 3), ("pow", k))


def _partner(rng, gen, kind):
    if kind == "prop":
        inner = gen[2] if gen[0] == "scale" else gen
        return ("scale", Fraction(rng.randint(2, 9), rng.randint(1, 5)), inner)
    if kind == "exp":
        return ("exp", _exp_rate(rng))
    k = gen[1] if gen[0] == "pow" else gen[2][1]
    return ("pow", rng.choice([j for j in range(1, 5) if j != k]))


def _witness_truncation(rng, rel_work) -> list:
    units = []
    for i, (n, kind) in enumerate(WITNESS_CASES):
        gen = _generator(rng)
        partner = _partner(rng, gen, kind)
        cert = f"{rel_work}/cert-{i}.json"
        expect = oracle.certificate_expectation(gen, partner)
        build = Call(f"build-{i}-{n}-{kind}",
                     ["witness", "build", "--generator", oracle.spec_text(gen), "--partner",
                      oracle.spec_text(partner), "--truncation", str(n), "-o", cert, "--json"],
                     "witness_build", dict(expect, truncation=n, generator=oracle.spec_text(gen)))
        verify = Call(f"verify-{i}-{n}-{kind}", ["witness", "verify", "--file", cert, "--json"],
                      "witness_verify", {"branch": expect["branch"]})
        units.append([build, verify])
    for i in range(SOFT_REFUSALS):
        units.append([Call(f"build-soft-refused-{i}",
                           ["witness", "build", "--generator", f"exp:{_exp_rate(rng)}",
                            "--partner", "pow:1", "--truncation", "64",
                            "-o", f"{rel_work}/cert-soft.json", "--json"],
                           "refused")])
    rng.shuffle(units)
    return [c for unit in units for c in unit]
