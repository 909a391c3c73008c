"""Sequence/ideal text syntax: parsing, formatting, error offsets."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from idealkit import idealcalc
from idealkit.base import MAX_RATIONAL_DIGITS, parse_rational
from idealkit.dsl import (
    MAX_NESTING,
    DslError,
    format_ideal,
    format_seq,
    parse_ideal,
    parse_seq,
)
from idealkit.seqspace import (
    Ampliation,
    Exp,
    Explicit,
    FiniteSupport,
    InvalidSequenceError,
    Pow,
    PowLog,
    Product,
    Scale,
    SequenceExpr,
    ampliate,
    explicit,
    subsample,
)

from conftest import FULL_BATTERY, run_main


class TestParse:
    def test_pow(self):
        assert parse_seq("pow:1") == Pow(1)

    def test_amp_exp(self):
        assert parse_seq("amp:2;exp:1/2") == Ampliation(2, Exp(F(1, 2)))

    def test_explicit_with_tail(self):
        assert parse_seq("explicit:[1,1/2];tail=pow:3") == Explicit((F(1), F(1, 2)), Pow(3))

    def test_decimals_are_exact(self):
        assert parse_seq("exp:0.25") == Exp(F(1, 4))
        assert parse_seq("scale:2.5;pow:1") == Scale(F(5, 2), Pow(1))

    def test_whitespace_insensitive(self):
        assert parse_seq(" prod( pow:1 ,  powlog: 1 , 1 ) ") == Product(
            Pow(1), PowLog(1, 1)
        )

    def test_finite_list(self):
        assert parse_seq("finite:[1,1/2,1/4]") == FiniteSupport([1, F(1, 2), F(1, 4)])
        assert parse_seq("finite:[]") == FiniteSupport([])

    def test_amp_fuses(self):
        assert parse_seq("amp:2;amp:3;pow:1") == Ampliation(6, Pow(1))

    def test_scale_run_fuses(self):
        assert parse_seq("scale:2;scale:3/2; scale:5;pow:1") == Scale(15, Pow(1))
        assert parse_seq("scale:2;amp:2;scale:3;pow:1") == Scale(2, Ampliation(2, Scale(3, Pow(1))))

    def test_non_positive_scale_stays_rejected(self):
        for text in ["scale:-1;pow:1", "scale:-1;scale:-1;pow:1", "scale:2;scale:0;pow:1"]:
            with pytest.raises(InvalidSequenceError):
                parse_seq(text)

    def test_nesting_limit(self):
        at_limit = "prod(pow:1," * MAX_NESTING + "pow:1" + ")" * MAX_NESTING
        assert format_seq(parse_seq(at_limit)) == at_limit
        with pytest.raises(DslError) as err:
            parse_seq("sub:2;" * (MAX_NESTING + 1) + "pow:1")
        assert err.value.offset == 6 * (MAX_NESTING + 1)
        with pytest.raises(DslError):
            parse_ideal("idealprod(pow:1," * (MAX_NESTING + 1) + "compact" + ")" * (MAX_NESTING + 1))

    def test_unknown_head_offset(self):
        with pytest.raises(DslError) as err:
            parse_seq("pw:1")
        assert err.value.offset == 0

    def test_trailing_garbage_offset(self):
        with pytest.raises(DslError) as err:
            parse_seq("pow:1 junk")
        assert err.value.offset == 6

    def test_missing_separator(self):
        with pytest.raises(DslError):
            parse_seq("powlog:1;1")

    def test_constraint_violation_raises(self):
        with pytest.raises(InvalidSequenceError):
            parse_seq("exp:2")
        with pytest.raises(InvalidSequenceError):
            parse_seq("explicit:[1/2,1];tail=pow:1")

    def test_explicit_zero_prefix_normalizes(self):
        assert parse_seq("explicit:[1,0];tail=pow:1") == FiniteSupport([1, 0])

    # (text, offset, message): the parser's own refusals, before any
    # constructor constraint is checked
    SYNTAX_ERRORS = [
        ("amp:0;pow:1", 0, "ampliation index must be >= 1, got 0"),
        ("sub:1;pow:1", 0, "subsample step must be >= 2, got 1"),
        ("pow:", 4, "expected a rational number (p/q or decimal)"),
        ("amp:x;pow:1", 4, "expected an integer"),
        ("pw:1", 0, "unknown sequence form 'pw'"),
        ("pow:1 junk", 6, "trailing input after sequence"),
    ]

    @pytest.mark.parametrize("text,offset,message", SYNTAX_ERRORS,
                             ids=[row[0] for row in SYNTAX_ERRORS])
    def test_syntax_error_table(self, text, offset, message):
        with pytest.raises(DslError) as err:
            parse_seq(text)
        assert err.value.offset == offset
        assert str(err.value) == f"offset {offset}: {message}"

    def test_trailing_input_after_ideal(self):
        code, _, err = run_main(["ideal", "soft", "compact x"])
        assert code == 2
        assert err == "error: offset 8: trailing input after ideal\n"


class TestRationals:
    @pytest.mark.parametrize("text", ["1e5", "1.5/3", " 1/2", "0x10", "1/", ""])
    def test_outside_the_grammar_refused(self, text):
        with pytest.raises(ValueError, match="expected a rational"):
            parse_rational(text)

    def test_digit_cap(self):
        at = "1" + "0" * (MAX_RATIONAL_DIGITS - 1)
        assert parse_rational(f"-1/{at}") == F(-1, int(at))
        assert parse_seq(f"exp:1/{at}") == Exp(F(1, int(at)))
        with pytest.raises(ValueError, match="more than"):
            parse_rational(f"1/{at}0")
        with pytest.raises(DslError, match="more than"):
            parse_seq(f"exp:1/{at}0")

    def test_fused_scale_run_digit_cap(self):
        at = "scale:10;" * (MAX_RATIONAL_DIGITS - 1)
        assert parse_seq(at + "pow:1") == Scale(10 ** (MAX_RATIONAL_DIGITS - 1), Pow(1))
        assert parse_seq(at.replace("10", "1/10") + "pow:1").c.denominator == 10 ** (
            MAX_RATIONAL_DIGITS - 1
        )
        with pytest.raises(DslError, match="fused scale factor"):
            parse_seq(at + "scale:10;pow:1")
        with pytest.raises(DslError, match="fused scale factor"):
            parse_seq(at.replace("10", "1/10") + "scale:1/10;pow:1")

    def test_exponent_is_not_read(self):
        with pytest.raises(DslError, match="trailing input"):
            parse_seq("exp:1e-5")


def _fractions(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=12)


def _nonincreasing(low, min_size):
    return st.lists(_fractions(low, 5), min_size=min_size, max_size=4).map(
        lambda values: sorted(values, reverse=True)
    )


def _fused_scale(c: F, expr: SequenceExpr) -> Scale:
    """Scale in the form the parser gives it: adjacent factors fused."""
    return Scale(c * expr.c, expr.inner) if isinstance(expr, Scale) else Scale(c, expr)


_POSITIVE = _fractions(F(1, 12), 12)

_LEAVES = st.one_of(
    st.builds(Pow, _POSITIVE),
    st.builds(Exp, _fractions(F(1, 12), F(11, 12))),
    st.builds(PowLog, _fractions(0, 3), _fractions(-3, 3)).filter(lambda e: e.p > 0 or e.q > 0),
    st.builds(FiniteSupport, _nonincreasing(0, 0)),
)

# Every catalog form, nested, in the normal form the parser builds: scale
# runs fused, amp and sub through ampliate and subsample, explicit prefixes
# through explicit.
CATALOG = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(_fused_scale, _POSITIVE, inner),
        st.builds(ampliate, st.integers(2, 9), inner),
        st.builds(subsample, st.integers(2, 9), inner),
        st.builds(explicit, _nonincreasing(F(1, 12), 1), inner),
        st.builds(Product, inner, inner),
    ),
    max_leaves=8,
)


class TestRoundTrip:
    @given(expr=st.sampled_from(FULL_BATTERY))
    def test_parse_format_identity(self, expr):
        assert parse_seq(format_seq(expr)) == expr

    @given(expr=CATALOG)
    def test_generated_catalog_round_trips(self, expr):
        assert parse_seq(format_seq(expr)) == expr

    @given(factors=st.lists(_POSITIVE, min_size=1, max_size=6), expr=CATALOG)
    def test_scale_run_fuses(self, factors, expr):
        text = "".join(f"scale:{c};" for c in factors) + format_seq(expr)
        fused = expr
        for c in reversed(factors):
            fused = _fused_scale(c, fused)
        assert parse_seq(text) == fused


class TestIdealSyntax:
    def test_bare_sequence_is_principal(self):
        assert parse_ideal("pow:1") == idealcalc.Principal(Pow(1))

    def test_named_ideals(self):
        assert parse_ideal("finite-rank") == idealcalc.FINITE_RANK
        assert parse_ideal("compact") == idealcalc.COMPACT

    def test_product_normalizes(self):
        ideal = parse_ideal("idealprod(pow:1,pow:2)")
        assert ideal == idealcalc.Principal(Product(Pow(1), Pow(2)))

    def test_soft_edge_kept_symbolic(self):
        ideal = parse_ideal("idealprod(pow:1,compact)")
        assert isinstance(ideal, idealcalc.ProductIdeal)
        assert ideal.right == idealcalc.COMPACT

    def test_format_round_trip(self):
        for text in ["finite-rank", "compact", "pow:1", "idealprod(pow:1,compact)"]:
            ideal = parse_ideal(text)
            assert parse_ideal(format_ideal(ideal)) == ideal
