"""Sequence/ideal text syntax: parsing, formatting, error offsets."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from idealkit import idealcalc
from idealkit.dsl import (
    MAX_NESTING,
    MAX_RATIONAL_DIGITS,
    DslError,
    format_ideal,
    format_seq,
    parse_ideal,
    parse_rational,
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
)

from conftest import FULL_BATTERY


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

    def test_exponent_is_not_read(self):
        with pytest.raises(DslError, match="trailing input"):
            parse_seq("exp:1e-5")


class TestRoundTrip:
    @given(expr=st.sampled_from(FULL_BATTERY))
    def test_parse_format_identity(self, expr):
        assert parse_seq(format_seq(expr)) == expr


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
