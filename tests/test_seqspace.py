"""Sequence model: evaluation, validation, signatures, comparison, probes."""

from __future__ import annotations

import decimal
import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealkit import rates, seqspace
from idealkit.base import MAX_RATIONAL_DIGITS
from idealkit.dsl import parse_seq
from idealkit.idealcalc import Principal, member
from idealkit.seqspace import (
    Ampliation,
    Exp,
    Explicit,
    FiniteSupport,
    InvalidSequenceError,
    Mode,
    Method,
    Pow,
    PowLog,
    Product,
    Scale,
    Status,
    Subsample,
    ampliate,
    compare,
    delta2_check,
    ensure_valid,
    eval_at,
    eval_log,
    explicit,
    has_exact_eval,
    numeric_probe,
    signature_of,
    subsample,
    support,
)
from idealkit.rates import RATE_ONE, log_ratio_ceiling, root_rational
from idealkit.seqspace import (_order, _power_bits, _rational_bits, _scale, _sig,
                               _weight_bits)

from conftest import (BATTERY, EXACT_BATTERY, FULL_BATTERY, battery_ids, catalog_exprs,
                      seeded_compare_pairs)

battery_expr = st.sampled_from(BATTERY)
full_expr = st.sampled_from(FULL_BATTERY)
index = st.integers(min_value=1, max_value=2 ** 16)


class TestEval:
    def test_exp_is_geometric(self):
        assert eval_at(Exp(F(1, 2)), 3) == F(1, 8)

    def test_ampliation_repeats_entries(self):
        assert eval_at(Ampliation(2, Pow(1)), 4) == F(1, 2)
        first_four = [eval_at(Ampliation(2, Pow(1)), n) for n in range(1, 5)]
        assert first_four == [1, 1, F(1, 2), F(1, 2)]

    def test_explicit_beyond_support(self):
        e = Explicit((F(1), F(1, 2)), FiniteSupport([F(1, 4)]))
        assert eval_at(e, 5) == 0
        assert eval_at(e, 3) == F(1, 4)

    def test_explicit_clamps_tail(self):
        e = Explicit((F(1, 8),), Pow(1))
        assert eval_at(e, 2) == F(1, 8)  # tail value 1 clamped down
        assert eval_at(e, 100) == F(1, 99)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            eval_at(Pow(1), 0)

    def test_subsample_examples(self):
        assert eval_at(subsample(2, Exp(F(1, 2))), 3) == F(1, 64)
        fs = subsample(2, FiniteSupport([1, F(1, 2), F(1, 4)]))
        assert eval_at(fs, 1) == F(1, 2)
        assert eval_at(fs, 2) == 0

    @given(expr=st.sampled_from(EXACT_BATTERY), n=st.integers(1, 4096))
    def test_eval_log_matches_exact_eval(self, expr, n):
        v = eval_at(expr, n)
        lv = eval_log(expr, n)
        if v == 0:
            assert lv == -math.inf
        else:
            # big-integer logs avoid float underflow of tiny exact values
            ref = math.log(v.numerator) - math.log(v.denominator)
            assert math.isclose(lv, ref, rel_tol=1e-9, abs_tol=1e-9)


# The two walks and the float leaves that _weight_bits and eval_log replaced:
# has_exact_eval's own walk, the bit count that trusted its caller to ask
# only of exact weights, and eval_at's direct float formulas.
def _old_has_exact_eval(expr) -> bool:
    if isinstance(expr, Pow):
        return expr.p.denominator == 1
    if isinstance(expr, PowLog):
        return False
    if isinstance(expr, (Exp, FiniteSupport)):
        return True
    if isinstance(expr, Explicit):
        return _old_has_exact_eval(expr.tail)
    if isinstance(expr, (Scale, Ampliation, Subsample)):
        return _old_has_exact_eval(expr.inner)
    return _old_has_exact_eval(expr.left) and _old_has_exact_eval(expr.right)


def _old_weight_bits(expr, n: int) -> int:
    if isinstance(expr, Pow):
        return 1 + _power_bits(n, expr.p.numerator)
    if isinstance(expr, Exp):
        return _power_bits(expr.r.numerator, n) + _power_bits(expr.r.denominator, n)
    if isinstance(expr, FiniteSupport):
        return _rational_bits(eval_at(expr, n))
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        if n <= k:
            return _rational_bits(expr.prefix[n - 1])
        return max(_rational_bits(expr.prefix[-1]), _old_weight_bits(expr.tail, n - k))
    if isinstance(expr, Scale):
        return _rational_bits(expr.c) + _old_weight_bits(expr.inner, n)
    if isinstance(expr, Ampliation):
        return _old_weight_bits(expr.inner, (n + expr.m - 1) // expr.m)
    if isinstance(expr, Subsample):
        return _old_weight_bits(expr.inner, n * expr.k)
    return _old_weight_bits(expr.left, n) + _old_weight_bits(expr.right, n)


def _old_eval_at(expr, n: int):
    if isinstance(expr, Pow):
        if expr.p.denominator == 1:
            return F(1, n ** expr.p.numerator)
        return float(n) ** (-float(expr.p))
    if isinstance(expr, PowLog):
        p, q = float(expr.p), float(expr.q)

        def raw(k: int) -> float:
            return k ** (-p) * math.log(k + 1) ** (-q)

        return min(raw(1), raw(n))
    if isinstance(expr, Explicit):
        k = len(expr.prefix)
        if n <= k:
            return expr.prefix[n - 1]
        v, last = _old_eval_at(expr.tail, n - k), expr.prefix[-1]
        return v if v <= last else last
    if isinstance(expr, Scale):
        return expr.c * _old_eval_at(expr.inner, n)
    if isinstance(expr, Ampliation):
        return _old_eval_at(expr.inner, (n + expr.m - 1) // expr.m)
    if isinstance(expr, Subsample):
        return _old_eval_at(expr.inner, n * expr.k)
    if isinstance(expr, Product):
        return _old_eval_at(expr.left, n) * _old_eval_at(expr.right, n)
    return eval_at(expr, n)  # Exp and FiniteSupport were always exact


class TestOneExactnessWalk:
    """_weight_bits decides exactness and counts bits in one walk; eval_at
    takes its floats from eval_log."""

    @given(expr=st.one_of(catalog_exprs, full_expr),
           ns=st.lists(st.integers(1, 1024), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_old_walks(self, expr, ns):
        exact = _old_has_exact_eval(expr)
        assert has_exact_eval(expr) == exact
        for n in ns:
            if exact:
                assert _weight_bits(expr, n) == _old_weight_bits(expr, n)
            else:
                assert _weight_bits(expr, n) is None
                new, old = eval_at(expr, n), _old_eval_at(expr, n)
                # relative in the normal float range; both are 0 or subnormal below it
                assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-300), (n, new, old)


class TestValidate:
    def test_valid_power(self):
        ensure_valid(Pow(1))

    def test_exp_ratio_out_of_range(self):
        with pytest.raises(InvalidSequenceError, match=r"\(0, 1\)"):
            ensure_valid(Exp(2))

    def test_increasing_prefix_rejected(self):
        with pytest.raises(InvalidSequenceError, match=r"^seq\.prefix"):
            ensure_valid(Explicit((F(1, 2), F(1)), Pow(1)))

    def test_powlog_needs_decay(self):
        for expr in (PowLog(0, 0), PowLog(0, -1)):
            with pytest.raises(InvalidSequenceError):
                ensure_valid(expr)
        ensure_valid(PowLog(1, -1))

    def test_prefix_ending_in_zero_rejected(self):
        with pytest.raises(InvalidSequenceError):
            ensure_valid(Explicit((F(1), F(0)), Pow(1)))

    def test_explicit_constructor_normalizes_zero_prefix(self):
        assert explicit([1, 0], Pow(1)) == FiniteSupport([1, 0])
        assert explicit([], Pow(1)) == Pow(1)

    def test_nested_violation_located(self):
        with pytest.raises(InvalidSequenceError, match=r"^seq\.right: "):
            ensure_valid(Product(Pow(1), Exp(3)))

    @given(expr=full_expr)
    def test_battery_validates(self, expr):
        ensure_valid(expr)

    # (text or None, expression, location, message): every message
    # ensure_valid can give, and which check wins where two apply
    VIOLATIONS = [
        ("pow:0", Pow(0), "seq", "Pow exponent must be positive, got 0"),
        ("exp:2", Exp(2), "seq", "Exp ratio must lie in (0, 1), got 2"),
        ("powlog:-1,1", PowLog(-1, 1), "seq", "PowLog power must be nonnegative, got -1"),
        ("powlog:0,0", PowLog(0, 0), "seq", "PowLog with p = 0 needs q > 0 to tend to zero"),
        ("finite:[-1]", FiniteSupport([-1]), "seq.values[0]", "negative value -1"),
        ("finite:[1,-1]", FiniteSupport([1, -1]), "seq.values[1]", "negative value -1"),
        ("finite:[1,2]", FiniteSupport([1, 2]), "seq.values[1]", "values must be nonincreasing"),
        ("finite:[1,2,-1]", FiniteSupport([1, 2, -1]), "seq.values[1]",
         "values must be nonincreasing"),
        (None, Explicit((), Pow(1)), "seq.prefix", "empty prefix; use the tail directly"),
        ("explicit:[1,-1];tail=pow:1", Explicit((1, -1), Pow(1)), "seq.prefix[1]",
         "negative value -1"),
        ("explicit:[1/2,1];tail=pow:1", Explicit((F(1, 2), 1), Pow(1)), "seq.prefix[1]",
         "prefix must be nonincreasing"),
        (None, Explicit((1, 2, 0), Pow(1)), "seq.prefix[1]", "prefix must be nonincreasing"),
        (None, Explicit((1, 0), Pow(1)), "seq.prefix", "prefix ends at zero; use FiniteSupport"),
        ("explicit:[1];tail=pow:0", Explicit((1,), Pow(0)), "seq.tail",
         "Pow exponent must be positive, got 0"),
        ("scale:-1;pow:1", Scale(-1, Pow(1)), "seq", "scale factor must be positive, got -1"),
        ("scale:1;pow:0", Scale(1, Pow(0)), "seq.inner", "Pow exponent must be positive, got 0"),
        (None, Ampliation(0, Pow(1)), "seq", "ampliation index must be an integer >= 1, got 0"),
        (None, Ampliation(F(3, 2), Pow(1)), "seq",
         "ampliation index must be an integer >= 1, got 3/2"),
        (None, Ampliation(2, Pow(0)), "seq.inner", "Pow exponent must be positive, got 0"),
        (None, Subsample(0, Pow(1)), "seq", "subsample step must be an integer >= 1, got 0"),
        (None, Subsample(2.5, Pow(1)), "seq", "subsample step must be an integer >= 1, got 2.5"),
        (None, Subsample(2, Pow(0)), "seq.inner", "Pow exponent must be positive, got 0"),
        ("prod(pow:0,exp:2)", Product(Pow(0), Exp(2)), "seq.left",
         "Pow exponent must be positive, got 0"),
        ("prod(pow:1,exp:2)", Product(Pow(1), Exp(2)), "seq.right",
         "Exp ratio must lie in (0, 1), got 2"),
        (None, "pow:1", "seq", "not a SequenceExpr: str"),
        (None, Product(Pow(1), None), "seq.right", "not a SequenceExpr: NoneType"),
    ]

    @pytest.mark.parametrize("text,expr,location,message", VIOLATIONS,
                             ids=[f"{i}-{row[0] or row[2]}" for i, row in enumerate(VIOLATIONS)])
    def test_violation_table(self, text, expr, location, message):
        with pytest.raises(InvalidSequenceError) as err:
            ensure_valid(expr)
        assert str(err.value) == f"{location}: {message}"
        if text is not None:
            with pytest.raises(InvalidSequenceError) as err:
                parse_seq(text)
            assert str(err.value) == f"{location}: {message}"


class TestSignature:
    def test_power_signature(self):
        sig = signature_of(Pow(2))
        assert (sig.rate, sig.pow, sig.logpow) == (root_rational(1), F(2), F(0))

    def test_ampliation_takes_rate_root(self):
        sig = signature_of(Ampliation(3, Exp(F(1, 8))))
        assert sig.rate.base == F(1, 8) and sig.rate.index == 3
        # same rate value as the cube root taken exactly
        assert sig.rate == root_rational(F(1, 2))
        assert sig == signature_of(Exp(F(1, 2)))

    def test_product_adds_powers(self):
        sig = signature_of(Product(Pow(1), Pow(1)))
        assert (sig.rate, sig.pow) == (root_rational(1), F(2))

    def test_subsample_powers_rate(self):
        assert signature_of(subsample(3, Pow(1))) == signature_of(Pow(1))
        assert signature_of(subsample(2, Exp(F(1, 2)))) == signature_of(Exp(F(1, 4)))

    def test_finite_support_is_zero_tail(self):
        assert signature_of(FiniteSupport([1])).is_zero_tail
        assert signature_of(Product(Pow(1), FiniteSupport([1]))).is_zero_tail

    def test_zero_tails_equal_each_other_only(self):
        zero = {signature_of(e) for e in FULL_BATTERY if support(e) is not None}
        assert len(zero) == 1
        assert not zero & {signature_of(e) for e in BATTERY}

    @given(expr=battery_expr)
    def test_scale_and_prefix_leave_signature(self, expr):
        assert signature_of(Scale(7, expr)) == signature_of(expr)
        assert signature_of(Explicit((F(10), F(9)), expr)) == signature_of(expr)

    @given(a=battery_expr, b=battery_expr)
    def test_product_homomorphism(self, a, b):
        sa, sb, sp = signature_of(a), signature_of(b), signature_of(Product(a, b))
        assert sp.pow == sa.pow + sb.pow
        assert sp.logpow == sa.logpow + sb.logpow


class TestSignatureRules:
    @given(expr=catalog_exprs, other=catalog_exprs, m=st.integers(1, 4), k=st.integers(2, 4))
    @example(expr=Exp(F(2, 3)), other=FiniteSupport([]), m=2, k=3)
    @example(expr=Ampliation(2, Subsample(2, PowLog(1, 1))), other=Pow(1), m=3, k=2)
    @settings(max_examples=300, deadline=None)
    def test_rules_give_the_signature_of_the_built_expression(self, expr, other, m, k):
        s = signature_of(expr)
        for built, ruled in ((ampliate(m, expr), s.ampliated(m)),
                             (subsample(k, expr), s.subsampled(k)),
                             (Product(expr, other), s * signature_of(other))):
            assert signature_of(built) == ruled
            assert signature_of(built).describe() == ruled.describe()

    def test_rewritten_exponential_differs_only_in_representation(self):
        built, ruled = signature_of(Exp(F(8, 27))), signature_of(Exp(F(2, 3))).subsampled(3)
        assert subsample(3, Exp(F(2, 3))) == Exp(F(8, 27))
        assert built.rate.vector == ((8, 1), (27, -1))
        assert ruled.rate.vector == ((2, 3), (3, -3))
        assert built == ruled and built.describe() == ruled.describe() == "rate=8/27, pow=0, logpow=0"


def _rate_exprs():
    """Exp leaves with numerator and denominator at most 60, composed through
    amp, sub and prod with indices at most 6."""
    leaf = st.builds(
        lambda d, n: Exp(F(n, d)),
        st.integers(2, 60),
        st.integers(1, 59),
    ).filter(lambda e: e.r < 1)
    small = st.integers(2, 6)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(ampliate, small, inner),
            st.builds(subsample, small, inner),
            st.builds(Product, inner, inner),
        ),
        max_leaves=3,
    )


def _cross_power_cmp(a, b) -> int:
    """Reference order of two rates: base_a ** index_b against base_b ** index_a."""
    x, y = a.base ** b.index, b.base ** a.index
    return (x > y) - (x < y)


class TestRateOrder:
    @given(x=_rate_exprs(), y=_rate_exprs())
    @settings(max_examples=300, deadline=None)
    def test_matches_cross_powering(self, x, y):
        a, b = signature_of(x).rate, signature_of(y).rate
        expected = _cross_power_cmp(a, b)
        assert (a == b) == (expected == 0)
        assert (a < b) == (expected < 0)
        assert (b < a) == (expected > 0)
        if a == b:
            assert hash(a) == hash(b)

    @given(x=_rate_exprs(), k=st.integers(2, 6))
    @settings(deadline=None)
    def test_equal_forms_equal_with_equal_hash(self, x, k):
        a = signature_of(x).rate
        for y in (ampliate(k, subsample(k, x)), subsample(k, ampliate(k, x))):
            b = signature_of(y).rate
            assert _cross_power_cmp(a, b) == 0
            assert a == b and not a < b and not b < a and hash(a) == hash(b)
        squared = signature_of(Product(x, x)).rate
        assert squared == signature_of(subsample(2, x)).rate
        assert squared < a

    def test_equal_over_different_bases(self):
        # 1/4 is kept over the base {4}, the square of 1/2 over {2}
        a = signature_of(Exp(F(1, 4))).rate
        b = signature_of(Product(Exp(F(1, 2)), Exp(F(1, 2)))).rate
        assert a.vector != b.vector
        assert a == b and hash(a) == hash(b)

    def test_close_rates_ordered(self):
        # cross-powering these takes about 10^12-fold powers of 1/2
        slow = signature_of(ampliate(10 ** 12, Exp(F(1, 2)))).rate
        fast = signature_of(ampliate(10 ** 12 - 1, Exp(F(1, 2)))).rate
        assert fast < slow and not slow < fast and fast != slow

    def test_presentation_kept_as_constructed(self):
        sig = signature_of(Product(Ampliation(3, Exp(F(1, 2))), Ampliation(5, Exp(F(1, 3)))))
        assert (sig.rate.base, sig.rate.index) == (F(1, 2 ** 5 * 3 ** 3), 15)
        assert sig.rate.describe() == "(1/864)^(1/15)"


def _fold_coprime_base(numbers) -> list:
    """The coprime base before merging: every number refined from scratch."""
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


def _fold_over(vector, base) -> dict:
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


def _fold_vector(expr) -> tuple:
    """The rate vector of an Exp/amp/sub/prod tree by the pairwise fold that
    rebuilt the base of both vectors at every product."""
    if isinstance(expr, Exp):
        return root_rational(expr.r).vector
    if isinstance(expr, Ampliation):
        return tuple((q, e / expr.m) for q, e in _fold_vector(expr.inner))
    if isinstance(expr, Subsample):
        return tuple((q, e * expr.k) for q, e in _fold_vector(expr.inner))
    a, b = _fold_vector(expr.left), _fold_vector(expr.right)
    if [q for q, _ in a] == [q for q, _ in b]:
        x, y = dict(a), dict(b)
    else:
        base = _fold_coprime_base([q for q, _ in a] + [q for q, _ in b])
        x, y = _fold_over(a, base), _fold_over(b, base)
    total = {q: x.get(q, 0) + y.get(q, 0) for q in x.keys() | y.keys()}
    return tuple(sorted((q, e) for q, e in total.items() if e))


# small composites, so that bases split and exponents cancel
_COMPOSITES = st.sampled_from([6, 10, 12, 15, 30])
_composite_trees = st.recursive(
    st.one_of(st.builds(lambda c: Exp(F(1, c)), _COMPOSITES),
              st.builds(lambda a, c: Exp(F(a, c * c)), _COMPOSITES, _COMPOSITES)),
    lambda inner: st.one_of(
        st.builds(Ampliation, st.integers(2, 4), inner),
        st.builds(Subsample, st.integers(2, 3), inner),
        st.builds(Product, inner, inner),
    ),
    max_leaves=12,
)


class TestRateRefinement:
    @given(expr=_composite_trees)
    @settings(max_examples=300, deadline=None)
    def test_vector_equals_the_pairwise_fold(self, expr):
        assert signature_of(expr).rate.vector == _fold_vector(expr)


def _old_decays_faster(s, t) -> bool:
    """The order before ``_order``, rate equality read off the certified
    log sign as the old ``RootRational.__eq__`` did."""
    if s.is_zero_tail:
        return not t.is_zero_tail
    if t.is_zero_tail:
        return False
    if s.rate._cmp(t.rate):
        return s.rate._cmp(t.rate) < 0
    if s.pow != t.pow:
        return s.pow > t.pow
    return s.logpow > t.logpow


def _old_equal(s, t) -> bool:
    if s.is_zero_tail or t.is_zero_tail:
        return s.is_zero_tail and t.is_zero_tail
    return s.rate._cmp(t.rate) == 0 and (s.pow, s.logpow) == (t.pow, t.logpow)


_signature_exprs = st.one_of(
    _rate_exprs(),
    st.sampled_from(FULL_BATTERY),
    st.builds(Product, _rate_exprs(), st.sampled_from(BATTERY)),
)


@pytest.fixture
def log_signs(monkeypatch):
    """The vectors of each ``_log_sign`` call."""
    calls = []
    real = rates._log_sign

    def spy(vector):
        calls.append(vector)
        return real(vector)

    monkeypatch.setattr(rates, "_log_sign", spy)
    return calls


class TestSignatureOrder:
    @given(x=_signature_exprs, y=_signature_exprs)
    @example(x=Exp(F(1, 6)), y=Product(Exp(F(1, 2)), Exp(F(1, 3))))
    @example(x=Product(Exp(F(1, 6)), Pow(1)), y=Product(Exp(F(1, 2)), Exp(F(1, 3))))
    @example(x=FiniteSupport([1]), y=FiniteSupport([]))
    @example(x=FiniteSupport([1]), y=Exp(F(1, 2)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_old_order(self, x, y):
        s, t = signature_of(x), signature_of(y)
        order = _order(s, t)
        assert (order < 0) == _old_decays_faster(s, t)
        assert (order > 0) == _old_decays_faster(t, s)
        assert (order == 0) == (s == t) == _old_equal(s, t)
        assert _order(t, s) == -order

    @given(x=_rate_exprs(), y=_rate_exprs())
    @settings(max_examples=300, deadline=None)
    def test_matches_cross_powering(self, x, y):
        s, t = signature_of(x), signature_of(y)
        assert _order(s, t) == _cross_power_cmp(s.rate, t.rate)

    def test_seeded_battery_verdicts_pinned(self):
        # 2400 verdicts on 1200 pairs of 300 seeded random expressions: a
        # changed status, rule, reason or evidence string changes the digest
        verdicts = [compare(x, y, mode).to_json()
                    for x, y in seeded_compare_pairs() for mode in Mode]
        digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
        assert digest == "3f540461a342829bc580df5b2674ee368048abefe31158a89deeef7c5add6b3f"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_log_sign_per_compare(self, mode, log_signs):
        compare(Exp(F(1, 2)), Exp(F(1, 3)), mode)
        assert len(log_signs) == 1
        compare(ampliate(3, Exp(F(1, 2))), Product(Exp(F(1, 2)), Pow(2)), mode)
        assert len(log_signs) == 2

    @pytest.mark.parametrize("mode", list(Mode))
    def test_equal_rates_take_no_log_sign(self, mode, log_signs):
        fused = Product(Exp(F(1, 2)), Exp(F(1, 3)))
        for xi in (Exp(F(1, 6)), Product(Exp(F(1, 6)), Pow(1)), subsample(2, ampliate(2, fused))):
            compare(xi, fused, mode)
            assert signature_of(xi).rate == signature_of(fused).rate
        assert log_signs == []

    def test_rate_one_test_takes_no_log_sign(self, log_signs):
        for expr in (Exp(F(1, 2)), ampliate(10 ** 12, Exp(F(1, 2))), Pow(1), PowLog(1, 1)):
            assert (signature_of(expr).rate == RATE_ONE) == isinstance(expr, (Pow, PowLog))
        assert log_signs == []


@pytest.fixture
def log_digits(monkeypatch):
    """The precision of each ``_log_bounds`` call."""
    calls = []
    real = rates._log_bounds

    def spy(vector, digits):
        calls.append(digits)
        return real(vector, digits)

    monkeypatch.setattr(rates, "_log_bounds", spy)
    return calls


# The convergent 9115015689657667/5750934602875680 of log2(3) sets
# 9115015689657667 ln 2 and 5750934602875680 ln 3 about 1e-16 apart, which
# the first 20 digits of the logs cannot resolve.
_NUM, _DEN = 9115015689657667, 5750934602875680
_REFERENCE = decimal.Context(prec=200)


class TestCertifiedLogRetry:
    def test_compare_retries_at_higher_precision(self, log_digits):
        xi, eta = parse_seq(f"amp:{_DEN};exp:1/2"), parse_seq(f"amp:{_NUM};exp:1/3")
        # xi's rate 2^(-1/_DEN) is below eta's 3^(-1/_NUM) iff this is positive
        gap = _REFERENCE.subtract(_REFERENCE.multiply(_REFERENCE.ln(2), _NUM),
                                  _REFERENCE.multiply(_REFERENCE.ln(3), _DEN))
        assert 0 < abs(gap) < F(1, 10 ** 15)
        for mode in Mode:
            assert compare(xi, eta, mode).holds == (gap > 0)
            assert compare(eta, xi, mode).holds == (gap < 0)
        assert max(log_digits) > 20

    def test_ampliation_index_retries_at_higher_precision(self, log_digits):
        # m is the ceiling of t = _NUM ln 2 / ln 3, which lies about 1e-16
        # above the integer _DEN
        t = _REFERENCE.divide(_REFERENCE.multiply(_REFERENCE.ln(2), _NUM), _REFERENCE.ln(3))
        assert 0 < t - _DEN < F(1, 10 ** 15)
        m = int(t.to_integral_value(rounding=decimal.ROUND_CEILING))
        gen, xi = parse_seq("exp:1/2"), parse_seq(f"amp:{_NUM};exp:1/3")
        assert log_ratio_ceiling(signature_of(gen).rate, signature_of(xi).rate) == (m, False)
        assert max(log_digits) > 20
        v = member(xi, Principal(gen))
        assert v.holds and v.proven and v.evidence["m"] == m == _DEN + 1


def _least_power_at_most(a: F, b: F) -> tuple:
    """The exact oracle of log_ratio_ceiling for rationals a and b in (0, 1):
    the least m with b**m <= a, which is ceil(ln a / ln b), and whether
    b**m == a, which is when that quotient is the integer m."""
    m = 0
    while b ** m > a:
        m += 1
    return m, b ** m == a


_HALF, _TENTHS = F(1, 2), F(3, 10)
# t = ln a / ln b just above an integer (a a hair below b^m), just below one
# (a a hair above b^m), and an exact integer, which takes the proportional path
NEAR_INTEGER_LOGS = [
    *[pytest.param(F(10 ** k, 1024 * (10 ** k + 1)), _HALF, (11, False), id=f"half-above-10-{k}")
      for k in (20, 30, 40, 60)],
    *[pytest.param(_TENTHS ** m * (1 - F(1, 10 ** 60)), _TENTHS, (m + 1, False),
                   id=f"tenths-above-{m}-60") for m in (7, 10)],
    *[pytest.param(b ** m * (1 + F(1, 10 ** k)), b, (m, False), id=f"{name}-below-{m}-{k}")
      for name, b, m, k in (("half", _HALF, 10, 20), ("half", _HALF, 10, 60),
                            ("tenths", _TENTHS, 7, 60))],
    pytest.param(_HALF ** 10, _HALF, (10, True), id="half-exact-10"),
]


class TestNearIntegerLogRatio:
    @pytest.mark.parametrize("a,b,expected", NEAR_INTEGER_LOGS)
    def test_rows_match_the_exact_oracle(self, a, b, expected):
        assert _least_power_at_most(a, b) == expected
        assert log_ratio_ceiling(root_rational(a), root_rational(b)) == expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(b=st.integers(2, 100).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))),
           m=st.integers(1, 12), k=st.integers(1, 80), sign=st.sampled_from((1, -1)))
    def test_perturbed_powers_match_the_exact_oracle(self, b, m, k, sign):
        a = b ** m * (1 + sign * F(1, 10 ** k))
        assume(a < 1)
        assert log_ratio_ceiling(root_rational(a), root_rational(b)) == _least_power_at_most(a, b)


class TestDigitLimit:
    # 10^k has k + 1 digits; sub:k;exp:1/10 powers in place only while they print
    def test_subsample_powers_in_place_up_to_the_limit(self):
        limit = MAX_RATIONAL_DIGITS
        at = subsample(limit - 1, Exp(F(1, 10)))
        assert at == Exp(F(1, 10 ** (limit - 1)))
        assert signature_of(at).describe() == f"rate=1/{10 ** (limit - 1)}, pow=0, logpow=0"
        over = subsample(limit, Exp(F(1, 10)))
        assert over == Subsample(limit, Exp(F(1, 10)))
        assert signature_of(over).describe() == f"rate=10^(-{limit}), pow=0, logpow=0"

    def test_vector_form_past_the_limit(self):
        expr = Product(ampliate(1000003, Exp(F(1, 3))), ampliate(1000033, Exp(F(1, 5))))
        assert signature_of(expr).rate.describe() == "3^(-1/1000003)*5^(-1/1000033)"


class TestAmpliate:
    def test_identity(self):
        assert ampliate(1, Pow(1)) is Pow(1) or ampliate(1, Pow(1)) == Pow(1)

    def test_fusion(self):
        assert ampliate(2, ampliate(3, Exp(F(1, 2)))) == Ampliation(6, Exp(F(1, 2)))
        assert eval_at(ampliate(2, ampliate(3, Exp(F(1, 2)))), 6) == F(1, 2)
        assert eval_at(ampliate(6, Exp(F(1, 2))), 6) == F(1, 2)

    @given(expr=st.sampled_from(EXACT_BATTERY), m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 512))
    def test_fusion_pointwise(self, expr, m, k, n):
        assert eval_at(ampliate(m, ampliate(k, expr)), n) == eval_at(
            ampliate(m * k, expr), n
        )

    @given(expr=st.sampled_from(EXACT_BATTERY), n=st.integers(1, 512))
    def test_ampliation_pointwise_order(self, expr, n):
        values = [eval_at(Ampliation(m, expr), n) for m in range(1, 9)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(a=st.sampled_from(EXACT_BATTERY), b=st.sampled_from(EXACT_BATTERY),
           m=st.integers(1, 6), n=st.integers(1, 512))
    def test_product_ampliation_compatibility(self, a, b, m, n):
        lhs = eval_at(Ampliation(m, Product(a, b)), n)
        rhs = eval_at(Ampliation(m, a), n) * eval_at(Ampliation(m, b), n)
        assert lhs == rhs


class TestMonotonicity:
    @given(expr=full_expr, n=index)
    @settings(max_examples=300)
    def test_nonincreasing(self, expr, n):
        a, b = eval_at(expr, n), eval_at(expr, n + 1)
        if isinstance(a, F) and isinstance(b, F):
            assert a >= b >= 0
        else:
            assert float(a) >= float(b) * (1 - 1e-12)
            assert float(b) >= 0

    @given(expr=battery_expr)
    def test_tends_to_zero_on_dyadic_grid(self, expr):
        # eventually strictly decreasing along dyadic samples, with a real drop
        values = [eval_log(expr, 2 ** k) for k in range(1, 21)]
        tail = values[4:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert values[-1] < values[0] - 0.5


class TestCompare:
    def test_exponential_beats_any_power(self):
        assert compare(Exp(F(1, 2)), Pow(5), Mode.LITTLE_O).holds

    def test_ampliation_ratio_does_not_vanish(self):
        v = compare(Pow(1), Ampliation(2, Pow(1)), Mode.LITTLE_O)
        assert v.fails and v.proven
        assert v.evidence["limiting_ratio"] == F(1, 2)

    def test_constant_scaling_is_big_o(self):
        assert compare(Scale(7, Pow(2)), Pow(2), Mode.BIG_O).holds

    @pytest.mark.parametrize(
        "xi,eta,ratio",
        [
            # a float scale against an exact one past the float range
            (Ampliation(2, Pow(F(1, 2))), Scale(10 ** 400, Pow(F(1, 2))), 0.0),
            (Scale(10 ** 400, Pow(F(1, 2))), Ampliation(2, Pow(F(1, 2))), math.inf),
            # an exact ratio past the digit limit
            (Scale(10 ** 3000, Pow(1)), Scale(F(1, 10 ** 3000), Pow(1)), math.inf),
            # a subsample step whose power underflows
            (Pow(10 ** 10), Subsample(2, Pow(10 ** 10)), math.inf),
        ],
    )
    def test_limiting_ratio_outside_the_float_range(self, xi, eta, ratio):
        v = compare(xi, eta, Mode.BIG_O)
        assert v.holds and v.evidence["limiting_ratio"] == ratio

    @pytest.mark.parametrize(
        "xi,eta,ratio",
        [
            # scales past the digit limit whose powers cancel stay exact
            (Ampliation(10, Pow(5000)), Ampliation(10, Pow(5000)), F(1)),
            (Product(Ampliation(10, Pow(5000)), Subsample(10, Pow(5000))), Pow(10000), F(1)),
            (Ampliation(6, Pow(5000)), Scale(F(1, 2 ** 5000), Ampliation(3, Pow(5000))), F(4) ** 5000),
            # two float scales that both underflow
            (Scale(F(1, 10 ** 400), Ampliation(2, Pow(F(1, 2)))),
             Scale(F(1, 10 ** 400), Ampliation(2, Pow(F(1, 2)))), 1.0),
        ],
    )
    def test_limiting_ratio_of_scales_past_the_digit_limit(self, xi, eta, ratio):
        v = compare(xi, eta, Mode.BIG_O)
        assert v.holds and v.evidence["limiting_ratio"] == ratio
        assert type(v.evidence["limiting_ratio"]) is type(ratio)

    def test_division_by_zero_tail(self):
        v = compare(Pow(1), FiniteSupport([1, 1]), Mode.BIG_O)
        assert v.fails
        assert v.evidence["reason"] == "division by zero tail"
        v = compare(FiniteSupport([1, 1, 1]), FiniteSupport([1]), Mode.BIG_O)
        assert v.fails

    def test_zero_tail_support_comparison(self):
        assert compare(FiniteSupport([1]), FiniteSupport([1, 1]), Mode.LITTLE_O).holds
        assert compare(FiniteSupport([1, 1]), FiniteSupport([1]), Mode.LITTLE_O).fails
        assert compare(FiniteSupport([1]), Pow(1), Mode.LITTLE_O).holds
        assert compare(Pow(1), FiniteSupport([1]), Mode.LITTLE_O).fails

    @given(expr=battery_expr)
    def test_reflexive_big_o(self, expr):
        assert compare(expr, expr, Mode.BIG_O).holds
        assert compare(expr, expr, Mode.LITTLE_O).fails

    @given(a=battery_expr, b=battery_expr)
    def test_little_o_implies_big_o(self, a, b):
        if compare(a, b, Mode.LITTLE_O).holds:
            assert compare(a, b, Mode.BIG_O).holds

    @given(a=battery_expr, b=battery_expr, c=battery_expr)
    @settings(max_examples=200)
    def test_big_o_transitive(self, a, b, c):
        if compare(a, b, Mode.BIG_O).holds and compare(b, c, Mode.BIG_O).holds:
            assert compare(a, c, Mode.BIG_O).holds


def _old_asymptotic_scale(expr):
    """The float or exact scale by the walk that re-derived the signature of
    every amp: and sub: inner expression."""
    if isinstance(expr, (Pow, PowLog)):
        return F(1)
    if isinstance(expr, Explicit):
        return _old_asymptotic_scale(expr.tail)
    if isinstance(expr, Scale):
        return expr.c * _old_asymptotic_scale(expr.inner)
    if isinstance(expr, Ampliation):
        s = _sig(expr.inner)
        inner = _old_asymptotic_scale(expr.inner)
        if s.pow.denominator == 1 and isinstance(inner, F):
            return inner * F(expr.m) ** s.pow.numerator
        return float(inner) * float(expr.m) ** float(s.pow)
    if isinstance(expr, Subsample):
        s = _sig(expr.inner)
        inner = _old_asymptotic_scale(expr.inner)
        if s.pow.denominator == 1 and isinstance(inner, F):
            return inner / F(expr.k) ** s.pow.numerator
        return float(inner) * float(expr.k) ** (-float(s.pow))
    return _old_asymptotic_scale(expr.left) * _old_asymptotic_scale(expr.right)


def _old_scale_factors(expr) -> list:
    if isinstance(expr, (Pow, PowLog)):
        return []
    if isinstance(expr, Explicit):
        return _old_scale_factors(expr.tail)
    if isinstance(expr, Scale):
        return [(expr.c, F(1))] + _old_scale_factors(expr.inner)
    if isinstance(expr, Ampliation):
        return [(F(expr.m), _sig(expr.inner).pow)] + _old_scale_factors(expr.inner)
    if isinstance(expr, Subsample):
        return [(F(expr.k), -_sig(expr.inner).pow)] + _old_scale_factors(expr.inner)
    return _old_scale_factors(expr.left) + _old_scale_factors(expr.right)


def _outcome(approximate):
    """The value with its type, or the exception, of approximate(); repr
    tells nan and the float extremes apart."""
    try:
        x = approximate()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc), exc.args
    return type(x), repr(x)


# rate-one trees whose powers are often fractional, with scales and powers
# large enough that the float path overflows and underflows
_rate_one_trees = st.recursive(
    st.one_of(
        st.builds(Pow, st.sampled_from([F(1, 2), 1, 2, F(5, 2), 400, F(801, 2)])),
        st.sampled_from([PowLog(1, 1), PowLog(0, 1), PowLog(1, -1), PowLog(F(1, 2), 2)]),
    ),
    lambda inner: st.one_of(
        st.builds(Scale, st.sampled_from([F(1, 3), 7, 10 ** 400, F(1, 10 ** 400)]), inner),
        st.builds(lambda tail: Explicit((F(9), F(8)), tail), inner),
        st.builds(Ampliation, st.integers(2, 5), inner),
        st.builds(Subsample, st.integers(2, 5), inner),
        st.builds(Product, inner, inner),
    ),
    max_leaves=10,
)


class TestScale:
    @given(xi=_rate_one_trees, eta=_rate_one_trees)
    @settings(max_examples=400, deadline=None)
    def test_one_walk_equals_the_two_walks(self, xi, eta):
        """_scale gives the signature's power, the old factor list and the
        old scale, exceptions included, of each tree and of their quotient."""
        (p, f, x), (_, g, y) = _scale(xi), _scale(eta)
        assert p == signature_of(xi).pow
        assert f == _old_scale_factors(xi)
        assert _outcome(x) == _outcome(lambda: _old_asymptotic_scale(xi))
        assert _outcome(lambda: x() / y()) == _outcome(
            lambda: _old_asymptotic_scale(xi) / _old_asymptotic_scale(eta))

    def test_other_rates_have_no_scale(self):
        with pytest.raises(ValueError):
            _scale(Product(Pow(1), Exp(F(1, 2))))


class TestDelta2:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_powers_hold_with_exact_ratio(self, p):
        v = delta2_check(Pow(p))
        assert v.holds and v.proven
        assert v.evidence["limiting_ratio"] == F(2) ** p

    @pytest.mark.parametrize("r", [F(1, 2), F(9, 10)])
    def test_exponentials_fail(self, r):
        v = delta2_check(Exp(r))
        assert v.fails and v.proven

    def test_log_correction_tends_to_one(self):
        v = delta2_check(PowLog(1, 1))
        assert v.holds
        assert v.evidence["limiting_ratio"] == F(2)
        # dyadic ratio approaches 2 from above (log correction > 1, shrinking)
        n = 2 ** 18
        ratio = math.exp(eval_log(PowLog(1, 1), n) - eval_log(PowLog(1, 1), 2 * n))
        assert 2.0 < ratio < 2.2

    def test_finite_support_is_an_error(self):
        with pytest.raises(InvalidSequenceError):
            delta2_check(FiniteSupport([1]))

    def test_ratio_past_the_digit_limit_is_a_float(self):
        assert delta2_check(Pow(10 ** 10)).evidence["limiting_ratio"] == math.inf
        assert delta2_check(Pow(5000)).evidence["limiting_ratio"] == F(2) ** 5000

    @given(expr=battery_expr)
    def test_dyadic_ratio_oracle(self, expr):
        """Brute-force dyadic sampling (in log space) agrees with the verdict."""
        v = delta2_check(expr)
        log_ratio = eval_log(expr, 2 ** 19) - eval_log(expr, 2 ** 20)
        if v.holds:
            assert log_ratio < math.log(1e6)
        else:
            assert log_ratio > math.log(1e3)


def _ones(count: int) -> str:
    return "finite:[" + ",".join(["1"] * count) + "]"


# n_max values of the reference test: powers of two and their neighbours, a
# grid end that halves onto no power of two, and the widest grids
PROBE_NMAX = [2 ** 10, 2 ** 10 + 1, 2100, 3000, 5000, 2 ** 20 - 1, 2 ** 20, 12345678,
              2 ** 40 + 7]
# etas whose ratio overflows (a steep power, tiny finite supports) or whose
# log underflows at n = 1
EXTREME_ETAS = [Pow(1000), Subsample(10 ** 400, Exp(F(1, 2))),
                *[Scale(F(1, 10 ** 400), FiniteSupport([1] * count))
                  for count in (1, 1024, 1100, 3000)]]


def _json_float(value: float):
    return value if math.isfinite(value) else str(value)


def _halving_loop(xi, eta, n_max):
    """The probe's grid as an earlier probe sampled it, kept as a reference:
    each halving rebuilt the grid and evaluated every point of it again.
    (final n_max, ratios, notes, zero-tail division), with ratios None at
    the early Unknown of an eta whose log underflows."""
    eta_infinite = support(eta) is None
    notes, requested, zero_tail_division = [], n_max, False
    while True:
        ns = [1]
        while ns[-1] * 2 <= n_max:
            ns.append(ns[-1] * 2)
        if ns[-1] != n_max:
            ns.append(n_max)
        ratios, overflow = [], False
        for n in ns:
            lx, ly = eval_log(xi, n), eval_log(eta, n)
            if ly == -math.inf:
                if eta_infinite:
                    notes.append(f"log of eta underflows the float range at n={n}")
                    return n_max, None, notes, False
                if lx == -math.inf:
                    ratios.append(0.0)
                else:
                    zero_tail_division = True
                    ratios.append(math.inf)
                continue
            diff = lx - ly
            if diff > 700.0:
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
    return n_max, ratios, notes, zero_tail_division


class TestNumericProbe:
    def test_exponential_over_power_indicated(self):
        v = numeric_probe(Exp(F(1, 2)), Pow(1), Mode.LITTLE_O, 2 ** 20, 1e-3)
        assert v.holds
        assert v.method is Method.NUMERIC

    def test_constant_ratio_fails(self):
        v = numeric_probe(Pow(1), Pow(1), Mode.LITTLE_O, 2 ** 20, 1e-3)
        assert v.fails

    def test_ampliation_big_o_sup_stabilizes(self):
        v = numeric_probe(Pow(1), Ampliation(3, Pow(1)), Mode.BIG_O, 2 ** 20, 1e-3)
        assert v.holds
        assert abs(v.evidence["sup_ratio"] - 1.0) < 1e-9

    def test_never_symbolic(self):
        v = numeric_probe(Pow(1), Pow(2), Mode.BIG_O)
        assert v.method is Method.NUMERIC

    def test_nmax_floor_enforced(self):
        with pytest.raises(ValueError):
            numeric_probe(Pow(1), Pow(1), Mode.BIG_O, n_max=512)

    def test_overflow_shrinks_grid(self):
        v = numeric_probe(Pow(1), Exp(F(1, 2)), Mode.BIG_O, 2 ** 20, 1e-3)
        assert v.evidence["notes"]
        assert v.status in (Status.FAILS, Status.UNKNOWN)

    def test_log_past_the_float_range_is_minus_inf(self):
        assert eval_log(Subsample(10 ** 400, Exp(F(1, 2))), 1) == -math.inf

    @pytest.mark.parametrize("mode", [Mode.BIG_O, Mode.LITTLE_O])
    def test_underflowing_eta_is_unknown_not_zero_tail(self, mode):
        v = numeric_probe(Exp(F(1, 2)), Subsample(10 ** 400, Exp(F(1, 2))), mode)
        assert v.status is Status.UNKNOWN
        assert "underflows" in v.evidence["notes"][0]
        assert "reason" not in v.evidence

    def test_finite_eta_is_still_zero_tail_division(self):
        v = numeric_probe(Pow(1), FiniteSupport([1]), Mode.BIG_O)
        assert v.fails and v.evidence["reason"] == "division by zero tail"

    @pytest.mark.parametrize("n_max,calls", [(2 ** 20, 42), (3000, 28)])
    def test_each_grid_point_is_evaluated_once(self, monkeypatch, n_max, calls):
        """pow:1 over exp:1/2 overflows down to the minimum grid; 2**20 halves
        onto powers of two, which are all evaluated already, and 3000 to 1500,
        the one new point."""
        counted = []

        def counting(expr, n):
            counted.append(n)
            return eval_log(expr, n)

        monkeypatch.setattr(seqspace, "eval_log", counting)
        numeric_probe(Pow(1), Exp(F(1, 2)), Mode.LITTLE_O, n_max, 1e-3)
        assert len(counted) == calls

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(catalog_exprs, st.one_of(catalog_exprs, st.sampled_from(EXTREME_ETAS)),
           st.sampled_from(list(Mode)), st.sampled_from(PROBE_NMAX))
    def test_probe_matches_the_halving_loop(self, xi, eta, mode, n_max):
        probe = numeric_probe(xi, eta, mode, n_max, 1e-3).to_json()
        shrunk, ratios, notes, zero_tail = _halving_loop(xi, eta, n_max)
        ev = probe["evidence"]
        assert (ev["n_max"], ev["notes"]) == (shrunk, notes)
        if ratios is None:
            assert probe["status"] == "Unknown" and "grid_points" not in ev
            return
        expected = {"grid_points": len(ratios), "final_ratio": _json_float(ratios[-1]),
                    "sup_ratio": _json_float(max(ratios)),
                    "window_start_ratio": _json_float(ratios[len(ratios) // 2])}
        assert {key: ev[key] for key in expected} == expected
        assert (ev.get("reason") == "division by zero tail") is zero_tail

    # (xi, eta, mode, n_max, status, evidence): the grid's last point at an
    # n_max that is no power of two, a 0/0 grid point read as ratio 0, an
    # all-zero ratio, whose sup has no growth to measure, and a ratio that
    # overflows until the grid shrinks, once past the minimum grid
    EDGES = [
        ("pow:2", "pow:1", Mode.BIG_O, 5000, Status.HOLDS,
         {"n_max": 5000, "grid_points": 14, "final_ratio": 1 / 5000, "sup_ratio": 1.0,
          "window_start_ratio": 1 / 128, "notes": [], "sup_at_window_start": 1.0,
          "sup_relative_growth": 0.0}),
        ("finite:[1]", "finite:[1,1]", Mode.BIG_O, 2 ** 20, Status.HOLDS,
         {"n_max": 2 ** 20, "grid_points": 21, "final_ratio": 0.0, "sup_ratio": 1.0,
          "window_start_ratio": 0.0, "notes": [], "sup_at_window_start": 1.0,
          "sup_relative_growth": 0.0}),
        ("finite:[1]", "finite:[1,1]", Mode.LITTLE_O, 2 ** 20, Status.HOLDS,
         {"n_max": 2 ** 20, "grid_points": 21, "final_ratio": 0.0, "sup_ratio": 1.0,
          "window_start_ratio": 0.0, "notes": [], "monotone_window": True}),
        ("finite:[]", "pow:1", Mode.BIG_O, 2 ** 20, Status.HOLDS,
         {"n_max": 2 ** 20, "grid_points": 21, "final_ratio": 0.0, "sup_ratio": 0.0,
          "window_start_ratio": 0.0, "notes": [], "sup_at_window_start": 0.0}),
        ("pow:1", "exp:9/10", Mode.BIG_O, 2 ** 20, Status.FAILS,
         {"n_max": 4096, "grid_points": 13, "final_ratio": (10 / 9) ** 4096 / 4096,
          "sup_ratio": (10 / 9) ** 4096 / 4096, "window_start_ratio": (10 / 9) ** 64 / 64,
          "notes": ["grid shrunk to n_max=4096 to avoid overflow"],
          "sup_at_window_start": (10 / 9) ** 64 / 64,
          "sup_relative_growth": (10 / 9) ** 4032 / 64 - 1, "reason": "running sup diverges"}),
        ("pow:1", "exp:1/2", Mode.LITTLE_O, 2 ** 20, Status.FAILS,
         {"n_max": 1024, "grid_points": 11, "final_ratio": math.inf, "sup_ratio": math.inf,
          "window_start_ratio": 2.0 ** 27,
          "notes": ["ratio overflow persists at the minimum grid",
                    "grid shrunk to n_max=1024 to avoid overflow"],
          "monotone_window": False, "reason": "ratio does not tend to zero"}),
        # overflow up to n = 1024, where eta's support ends, then 0/0; halving
        # to 1050 brings in the one point where only eta is zero
        (_ones(1100), "scale:1/1" + "0" * 400 + ";" + _ones(1024), Mode.BIG_O, 2100,
         Status.FAILS,
         {"n_max": 1050, "grid_points": 12, "final_ratio": math.inf, "sup_ratio": math.inf,
          "window_start_ratio": math.inf, "notes": ["grid shrunk to n_max=1050 to avoid overflow"],
          "reason": "division by zero tail"}),
        ("pow:1", "exp:1/2", Mode.LITTLE_O, 3000, Status.FAILS,
         {"n_max": 1500, "grid_points": 12, "final_ratio": math.inf, "sup_ratio": math.inf,
          "window_start_ratio": 2.0 ** 58,
          "notes": ["ratio overflow persists at the minimum grid",
                    "grid shrunk to n_max=1500 to avoid overflow"],
          "monotone_window": False, "reason": "ratio does not tend to zero"}),
    ]

    @pytest.mark.parametrize("xi,eta,mode,n_max,status,evidence", EDGES,
                             ids=["grid-end-5000", "zero-over-zero-O", "zero-over-zero-o",
                                  "all-zero-O", "overflow-shrunk-O", "overflow-persists-o",
                                  "zero-tail-after-halving", "overflow-persists-3000-o"])
    def test_probe_edge_table(self, xi, eta, mode, n_max, status, evidence):
        v = numeric_probe(parse_seq(xi), parse_seq(eta), mode, n_max, 1e-3)
        assert v.status is status and v.method is Method.NUMERIC
        expected = {k: pytest.approx(x) if isinstance(x, float) else x
                    for k, x in evidence.items()}
        assert v.evidence == {**expected, "eps": 1e-3, "mode": mode}


class TestSignatureSoundness:
    """Symbolic verdicts corroborated numerically over the whole battery."""

    def _pairs(self):
        return [(a, b) for a in BATTERY for b in BATTERY]

    def test_little_o_holds_never_probed_as_fails(self):
        for a, b in self._pairs():
            v = compare(a, b, Mode.LITTLE_O)
            if v.holds and v.proven:
                probe = numeric_probe(a, b, Mode.LITTLE_O, 2 ** 20, 1e-2)
                assert not probe.fails, (a, b, probe.evidence)

    def test_limiting_ratio_within_ten_percent(self):
        checked = 0
        for a, b in self._pairs():
            v = compare(a, b, Mode.LITTLE_O)
            if v.fails and v.proven and "limiting_ratio" in v.evidence:
                c = float(v.evidence["limiting_ratio"])
                sampled = math.exp(eval_log(a, 2 ** 20) - eval_log(b, 2 ** 20))
                assert abs(sampled - c) <= 0.1 * c, (a, b, c, sampled)
                checked += 1
        assert checked >= 10

    def test_same_signature_ratio_bounded(self):
        interval = (1e-9, 1e9)
        checked = 0
        for a, b in self._pairs():
            if a is b:
                continue
            if signature_of(a) == signature_of(b):
                for k in range(10, 21):
                    r = math.exp(eval_log(a, 2 ** k) - eval_log(b, 2 ** k))
                    assert interval[0] < r < interval[1], (a, b, k, r)
                checked += 1
        assert checked >= 6
