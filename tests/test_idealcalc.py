"""Ideal calculus: normalization, membership, softness, idempotency."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from idealkit import idealcalc, rates, seqspace
from idealkit.dsl import format_ideal, format_seq, parse_ideal, parse_seq
from idealkit.idealcalc import (
    COMPACT,
    FINITE_RANK,
    Compact,
    FiniteRank,
    Principal,
    ProductIdeal,
    ZeroIdealError,
    implication_report,
    is_idempotent,
    is_soft,
    make_ideal,
    member,
)
from idealkit.rates import RATE_ONE
from idealkit.seqspace import (
    Ampliation,
    Exp,
    FiniteSupport,
    Mode,
    Pow,
    PowLog,
    Product,
    Scale,
    ampliate,
    compare,
    eval_log,
    numeric_probe,
    signature_of,
    subsample,
    support,
)

from conftest import BATTERY, FINITE_BATTERY, catalog_exprs, exp_type_pairs, random_catalog

battery_expr = st.sampled_from(BATTERY)


def _random_ideal_text(rng: random.Random, depth: int = 4) -> str:
    """A random ideal: finite-rank, compact, a small catalog generator (a
    zero one among them) or, above depth 0, an idealprod of two more."""
    kind = rng.choice("FCSS" + ("PPP" if depth else ""))
    if kind == "F":
        return "finite-rank"
    if kind == "C":
        return "compact"
    if kind == "S":
        return format_seq(random_catalog(rng, 1))
    left, right = _random_ideal_text(rng, depth - 1), _random_ideal_text(rng, depth - 1)
    return f"idealprod({left},{right})"


class TestMakeIdeal:
    def test_rank_one_generator_collapses(self):
        assert make_ideal(Principal(FiniteSupport([1]))) == FINITE_RANK

    def test_principal_product_reduces(self):
        ideal = make_ideal(ProductIdeal(Principal(Pow(1)), Principal(Pow(2))))
        assert ideal == Principal(Product(Pow(1), Pow(2)))

    def test_compact_fixed_point(self):
        assert make_ideal(COMPACT) == COMPACT
        assert make_ideal(ProductIdeal(COMPACT, COMPACT)) == COMPACT

    def test_finite_rank_absorbs(self):
        assert make_ideal(ProductIdeal(FINITE_RANK, FINITE_RANK)) == FINITE_RANK
        ideal = make_ideal(ProductIdeal(Principal(Pow(1)), FINITE_RANK))
        assert isinstance(ideal, ProductIdeal) and ideal.right == FINITE_RANK

    def test_nested_soft_edge_flattens(self):
        ideal = make_ideal(
            ProductIdeal(ProductIdeal(Principal(Pow(1)), COMPACT), Principal(Pow(2)))
        )
        assert isinstance(ideal, ProductIdeal)
        assert ideal.right == COMPACT
        assert ideal.left == Principal(Product(Pow(1), Pow(2)))

    def test_seeded_normal_forms_pinned(self):
        # sha256 of the normal forms (or the error class) of 5000 seeded
        # ideals, taken before make_ideal read its product tree as one list
        rng = random.Random(0)
        lines = []
        for _ in range(5000):
            try:
                lines.append(format_ideal(parse_ideal(_random_ideal_text(rng))))
            except ZeroIdealError:
                lines.append("ZeroIdealError")
        assert sum(line.startswith("idealprod(") for line in lines) > 1000
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e3a83721603a5f0badcf25e39fb5fed7af148cd3ea1eb1dd7b0fbd76ae31a34f"

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroIdealError):
            make_ideal(Principal(FiniteSupport([])))

    def test_product_reduction_membership_oracle(self):
        """Membership in the reduced product matches the two-sided battery."""
        left, right = Pow(1), Pow(2)
        reduced = make_ideal(ProductIdeal(Principal(left), Principal(right)))
        for zeta in BATTERY:
            got = member(zeta, reduced)
            brute = any(
                numeric_probe(
                    zeta,
                    Product(ampliate(m, left), ampliate(m, right)),
                    Mode.BIG_O,
                    2 ** 18,
                    1e-2,
                ).holds
                for m in range(1, 7)
            )
            if brute:
                assert got.holds, zeta


class TestMember:
    def test_exponential_in_faster_exponential_ideal(self):
        v = member(Exp(F(1, 2)), Principal(Exp(F(1, 4))))
        assert v.holds and v.evidence["m"] == 2

    def test_tiny_rate_below_float_range(self):
        # 1/10^340 underflows a float; the ampliation estimate must not need it
        v = member(Exp(F(1, 10 ** 340)), Principal(Exp(F(1, 2))))
        assert v.holds and v.proven and v.evidence["m"] == 1

    def test_power_not_in_exponential_ideal(self):
        v = member(Pow(1), Principal(Exp(F(1, 2))))
        assert v.fails and v.proven
        probe = numeric_probe(Pow(1), ampliate(4, Exp(F(1, 2))), Mode.BIG_O, 2 ** 20, 1e-2)
        assert not probe.holds

    def test_generator_ampliation_is_member(self):
        assert member(Ampliation(5, Pow(2)), Principal(Pow(2))).holds

    def test_compact_contains_everything(self):
        for xi in BATTERY + FINITE_BATTERY:
            assert member(xi, COMPACT).holds

    def test_finite_rank_membership(self):
        assert member(FiniteSupport([1, 1]), FINITE_RANK).holds
        assert member(Pow(1), FINITE_RANK).fails

    def test_soft_edge_excludes_generator_in_power_class(self):
        soft_edge = ProductIdeal(Principal(Pow(1)), COMPACT)
        assert member(Pow(1), Principal(Pow(1))).holds
        assert member(Pow(1), soft_edge).fails
        assert member(PowLog(1, 1), soft_edge).holds

    def test_soft_edge_of_exponential_keeps_generator(self):
        soft_edge = ProductIdeal(Principal(Exp(F(1, 2))), COMPACT)
        assert member(Exp(F(1, 2)), soft_edge).holds

    @given(xi=st.sampled_from(FINITE_BATTERY), eta=battery_expr)
    def test_calkin_sandwich(self, xi, eta):
        assert member(xi, Principal(eta)).holds
        assert member(eta, COMPACT).holds

    @given(xi=battery_expr, m=st.integers(1, 8))
    def test_ampliation_invariance(self, xi, m):
        assert member(ampliate(m, xi), Principal(xi)).holds

    @given(zeta=battery_expr, xi=battery_expr)
    @settings(max_examples=200)
    def test_hereditary(self, zeta, xi):
        from idealkit.seqspace import compare

        if compare(zeta, xi, Mode.BIG_O).holds:
            assert member(zeta, Principal(xi)).holds


class TestSoft:
    def test_exponential_soft(self):
        v = is_soft(Principal(Exp(F(1, 2))))
        assert v.holds and v.proven and v.evidence["k"] == 2

    def test_harmonic_not_soft(self):
        v = is_soft(Principal(Pow(1)))
        assert v.fails and v.proven
        assert v.evidence["limiting_ratio"] == F(1, 2)

    def test_finite_rank_soft(self):
        assert is_soft(FINITE_RANK).holds
        assert is_soft(COMPACT).holds

    def test_soft_edge_soft_by_construction(self):
        assert is_soft(ProductIdeal(Principal(Pow(1)), COMPACT)).holds

    def test_finite_support_generator_soft(self):
        assert is_soft(Principal(FiniteSupport([1, F(1, 2)]))).holds


class TestIdempotent:
    def test_exponential_idempotent(self):
        v = is_idempotent(Principal(Exp(F(1, 2))))
        assert v.holds
        m = v.evidence["m"]
        # numeric oracle: ratio against the certified ampliation stays bounded
        gen = Exp(F(1, 2))
        target = ampliate(m, Product(gen, gen))
        ratios = [
            math.exp(eval_log(gen, 2 ** k) - eval_log(target, 2 ** k))
            for k in range(10, 21)
        ]
        assert max(ratios) < 16

    def test_harmonic_not_idempotent(self):
        v = is_idempotent(Principal(Pow(1)))
        assert v.fails and v.proven
        # numeric oracle: unbounded ratio for every small ampliation index
        gen = Pow(1)
        for m in range(1, 9):
            target = ampliate(m, Product(gen, gen))
            lo = math.exp(eval_log(gen, 2 ** 10) - eval_log(target, 2 ** 10))
            hi = math.exp(eval_log(gen, 2 ** 20) - eval_log(target, 2 ** 20))
            assert hi >= 100 * lo

    def test_classical_idempotents(self):
        assert is_idempotent(FINITE_RANK).holds
        assert is_idempotent(COMPACT).holds


class TestNecessaryCondition:
    """The necessary condition as ``implication_report`` gives it."""

    def test_exponential_holds(self):
        v = implication_report(Exp(F(1, 2))).necessary
        assert v.holds and v.evidence["m"] == 2

    def test_harmonic_fails(self):
        v = implication_report(Pow(1)).necessary
        assert v.fails
        assert v.evidence["limiting_ratio"] == F(1, 2)

    def test_pure_log_fails(self):
        v = implication_report(PowLog(0, 1)).necessary
        assert v.fails
        probe = numeric_probe(
            PowLog(0, 1), ampliate(3, PowLog(0, 1)), Mode.LITTLE_O, 2 ** 20, 1e-3
        )
        assert not probe.holds

    def test_finite_support_is_an_error(self):
        with pytest.raises(ValueError):
            implication_report(FiniteSupport([1]))

    def test_evidence_pinned(self):
        v = implication_report(Pow(1)).necessary
        assert list(v.evidence.items()) == [
            ("xi_signature", "rate=1, pow=1, logpow=0"),
            ("eta_signature", "rate=1, pow=1, logpow=0"),
            ("mode", Mode.LITTLE_O),
            ("reason", "ampliation preserves a rate-one signature; the ratio has a positive limit"),
            ("limiting_ratio", F(1, 2)),
            ("m", 2),
        ]
        v = implication_report(Exp(F(1, 2))).necessary
        assert list(v.evidence.items()) == [
            ("rule", "strict signature dominance"),
            ("xi_signature", "rate=1/2, pow=0, logpow=0"),
            ("eta_signature", "rate=(1/2)^(1/2), pow=0, logpow=0"),
            ("mode", Mode.LITTLE_O),
            ("m", 2),
        ]


class TestImplicationReport:
    def test_power_two(self):
        rep = implication_report(Pow(2))
        assert rep.delta2.holds
        assert rep.soft.fails
        assert rep.idempotent.fails
        assert rep.necessary.fails
        assert all(ok for _, ok in rep.flags)

    def test_slow_exponential(self):
        rep = implication_report(Exp(F(9, 10)))
        assert rep.delta2.fails
        assert rep.soft.holds
        assert rep.idempotent.holds
        assert rep.necessary.holds

    def test_power_log(self):
        rep = implication_report(PowLog(1, 1))
        assert rep.delta2.holds
        assert rep.soft.fails

    @given(xi=battery_expr)
    def test_battery_audit(self, xi):
        rep = implication_report(xi)  # raises on any violated implication
        assert all(ok for _, ok in rep.flags)

    def test_violated_implication_is_an_internal_error(self, monkeypatch):
        # pow:1 satisfies delta2, so a softness answer of Holds contradicts it
        real = idealcalc._soft

        def holds(xi, sig):
            verdict = real(xi, sig)
            return seqspace.Verdict(seqspace.Status.HOLDS, verdict.method, verdict.evidence)

        monkeypatch.setattr(idealcalc, "_soft", holds)
        with pytest.raises(idealcalc.InternalInconsistencyError,
                           match="violated implication: delta2 holds => not soft"):
            implication_report(Pow(1))

    @given(xi=battery_expr)
    def test_softness_delta2_exclusion(self, xi):
        from idealkit.seqspace import delta2_check

        assert not (is_soft(Principal(xi)).holds and delta2_check(xi).holds)


class TestProductBranches:
    """The product-ideal branches of member, is_soft and is_idempotent, each
    checked for the verdict and the rule its docstring or comment states."""

    @staticmethod
    def _ideal(text):
        from idealkit.dsl import parse_ideal

        return parse_ideal(text)

    def test_member_of_finite_rank_product(self):
        ideal = self._ideal("idealprod(pow:1,finite-rank)")
        assert make_ideal(ideal) == ProductIdeal(Principal(Pow(1)), FINITE_RANK)
        v = member(FiniteSupport([1, F(1, 2), F(1, 3)]), ideal)
        assert v.holds and v.proven
        assert v.evidence == {"rule": "finite-rank factor absorbs the product", "support": 3}
        v = member(Pow(1), ideal)
        assert v.fails and v.proven
        assert v.evidence == {"rule": "finite-rank factor absorbs the product",
                              "reason": "infinite support", "support": "infinite"}

    def test_finite_rank_product_is_soft(self):
        v = is_soft(self._ideal("idealprod(pow:1,finite-rank)"))
        assert v.holds and v.proven
        assert v.evidence == {"rule": "finite-rank factor: the product is finite-rank, hence soft"}

    @pytest.mark.parametrize(
        "text,holds,evidence",
        [
            ("idealprod(pow:1,finite-rank)", True, {"rule": "reduces to the finite-rank ideal"}),
            ("idealprod(exp:1/2,compact)", True,
             {"rule": "exponential-type soft edge is idempotent"}),
            ("idealprod(pow:1,compact)", False,
             {"reason": "rate-one soft edge: the squared generator class is strictly smaller"}),
        ],
    )
    def test_product_idempotency(self, text, holds, evidence):
        v = is_idempotent(self._ideal(text))
        assert v.proven and v.holds is holds and v.fails is not holds
        assert v.evidence == evidence


@pytest.fixture
def derivations(monkeypatch):
    """A one-element list counting the outermost entries into seqspace._sig,
    wherever a module binds it; the recursion inside one entry is not counted."""
    real, depth, count = seqspace._sig, [0], [0]

    def counting(expr):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(expr)
        finally:
            depth[0] -= 1

    for module in (seqspace, idealcalc):
        if getattr(module, "_sig", None) is real:
            monkeypatch.setattr(module, "_sig", counting)
    return count


_XI, _GEN = parse_seq("prod(exp:1/3,pow:1)"), parse_seq("prod(exp:1/2,exp:2/3)")
# the least ampliation index of this pair is 3, so index 2 is refuted too
_XI3, _GEN3 = parse_seq("prod(exp:1/2,pow:1)"), parse_seq("prod(exp:1/4,exp:1/2)")
# a rate-one input, whose verdicts carry a limiting ratio
_ONE = parse_seq("amp:2;sub:3;pow:1/2")


class TestSignatureOnce:
    """Each public decision derives each input's signature once and reads
    ampliated, subsampled and squared signatures off it; a limiting ratio
    derives none."""

    @pytest.mark.parametrize("call,count", [
        (lambda: member(_XI, Principal(_GEN)), 2),
        (lambda: member(_XI, ProductIdeal(Principal(_GEN), COMPACT)), 2),
        (lambda: member(_XI3, Principal(_GEN3)), 2),
        (lambda: is_soft(Principal(_GEN)), 1),
        (lambda: is_idempotent(Principal(_GEN)), 1),
        (lambda: implication_report(_GEN), 1),
        (lambda: compare(_ONE, _ONE, Mode.BIG_O), 2),
        (lambda: is_soft(Principal(_ONE)), 1),
        (lambda: member(_ONE, Principal(_ONE)), 2),
        (lambda: implication_report(_ONE), 1),
    ], ids=["member", "member-soft-edge", "member-m3", "soft", "idempotent", "report",
            "rate-one-compare", "rate-one-soft", "rate-one-member", "rate-one-report"])
    def test_derivation_count(self, derivations, call, count):
        call()
        assert derivations == [count]

    def test_least_index_above_one(self):
        v = member(_XI3, Principal(_GEN3))
        assert v.holds and v.evidence["m"] == 3
        assert compare(_XI3, ampliate(3, _GEN3), Mode.BIG_O).holds
        assert compare(_XI3, ampliate(2, _GEN3), Mode.BIG_O).fails

    @given(gen=catalog_exprs.filter(lambda e: support(e) is None), xi=catalog_exprs)
    @settings(max_examples=200, deadline=None)
    def test_evidence_of_the_comparisons_by_expression(self, gen, xi):
        """The verdicts equal, evidence order included, those of the
        comparisons of built expressions that each decision stands for."""
        def same(v, w):
            assert (v.status, list(v.evidence.items())) == (w.status, list(w.evidence.items()))

        v = compare(subsample(2, gen), gen, Mode.LITTLE_O)
        same(is_soft(Principal(gen)), seqspace.Verdict(v.status, v.method, v.evidence | {
            "k": 2, "criterion": "subsampled generator little-o of generator"}))
        v = compare(gen, ampliate(2, gen), Mode.LITTLE_O)
        ev = v.evidence | {"m": 2}
        if signature_of(gen).rate == RATE_ONE:
            ev["reason"] = "ampliation preserves a rate-one signature; the ratio has a positive limit"
        same(implication_report(gen).necessary, seqspace.Verdict(v.status, v.method, ev))
        v = member(gen, Principal(Product(gen, gen)))
        same(is_idempotent(Principal(gen)), seqspace.Verdict(v.status, v.method, v.evidence | {
            "criterion": "generator big-O of an ampliated squared generator"}))
        got = member(xi, Principal(gen))
        if signature_of(gen).rate == RATE_ONE:
            v = compare(xi, gen, Mode.BIG_O)
            same(got, seqspace.Verdict(v.status, v.method, v.evidence | {
                "m": 1, "ampliation_rule": "rate-one generator: ampliation preserves the signature"}))
        elif isinstance(m := got.evidence.get("m"), int):
            assert compare(xi, ampliate(m, gen), Mode.BIG_O).holds
            assert m == 1 or compare(xi, ampliate(m - 1, gen), Mode.BIG_O).fails


class TestLeastAmpliationReference:
    """member's least ampliation index, re-derived by the comparisons the
    certified ceiling stands for: it holds at m and fails at m - 1."""

    @given(pair=exp_type_pairs)
    # ties that pow decides either way, in both modes
    @example(pair=(parse_seq("prod(exp:1/2,pow:1)"), parse_seq("prod(exp:1/4,pow:2)")))
    @example(pair=(parse_seq("prod(exp:1/2,pow:2)"), parse_seq("prod(exp:1/4,pow:1)")))
    @example(pair=(parse_seq("exp:1/4"), parse_seq("exp:1/16")))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_confirmed_at_m_and_refuted_below(self, pair):
        xi, gen = pair
        xs, gs = signature_of(xi), signature_of(gen)
        assert RATE_ONE not in (xs.rate, gs.rate)
        for ideal, mode in ((Principal(gen), Mode.BIG_O),
                            (ProductIdeal(Principal(gen), COMPACT), Mode.LITTLE_O)):
            v = member(xi, ideal)
            m = v.evidence["m"]
            assert v.holds and v.evidence["mode"] is mode and isinstance(m, int)

            def holds(k):
                return seqspace._compared(xi, xs, ampliate(k, gen), gs.ampliated(k), mode).holds

            assert holds(m)
            assert m == 1 or not holds(m - 1)

    @pytest.mark.parametrize("xi,ideal,m,calls", [
        ("exp:1/2", "exp:1/10", 4, 3),
        ("exp:1/4", "idealprod(exp:1/16,compact)", 3, 5),
    ], ids=["ceiling", "failing-tie"])
    def test_one_refinement_per_membership(self, monkeypatch, xi, ideal, m, calls):
        """The certified ceiling refines the two rates' base once; the other
        refinements are member's two tests against RATE_ONE and, at a tie,
        those of the one comparison at m."""
        real, count = rates._common, [0]

        def counting(a, b):
            count[0] += 1
            return real(a, b)

        monkeypatch.setattr(rates, "_common", counting)
        assert member(parse_seq(xi), parse_ideal(ideal)).evidence["m"] == m
        assert count == [calls]
