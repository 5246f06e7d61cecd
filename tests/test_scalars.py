"""Scalar domains: literal grammar, arithmetic semantics, instrumentation."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis.scalars import (
    DOMAINS,
    FLOAT,
    INTEGER,
    RATIONAL,
    CapabilityError,
    Domain,
    ExactDivisionError,
    ScalarError,
    ScalarParseError,
    Tier,
    get_domain,
)


def test_registry_and_tiers():
    assert set(DOMAINS) == {"int", "rational", "float"}
    assert get_domain("int") is INTEGER
    assert get_domain("rational") is RATIONAL
    assert get_domain("float") is FLOAT
    assert INTEGER.tier == Tier.INTEGRAL_DOMAIN
    assert RATIONAL.tier == Tier.FIELD
    assert FLOAT.tier == Tier.FIELD
    assert Tier.RING < Tier.INTEGRAL_DOMAIN < Tier.FIELD
    assert FLOAT.approximate and not INTEGER.approximate


def test_unknown_domain_tag():
    with pytest.raises(ScalarError, match="unknown scalar domain"):
        get_domain("decimal")


class TestIntegerLiterals:
    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("7", 7), ("-7", -7), ("007", 7),
        ("123456789012345678901234567890", 123456789012345678901234567890),
    ])
    def test_parse(self, text, value):
        assert INTEGER.parse(text) == value

    @pytest.mark.parametrize("text", ["", "3.5", "1/2", "+3", "- 3", "3 ", "0x10", "1e3"])
    def test_rejects(self, text):
        with pytest.raises(ScalarParseError):
            INTEGER.parse(text)

    def test_format_round_trip(self):
        for v in (0, 5, -5, 10**40):
            assert INTEGER.parse(INTEGER.format(v)) == v

    @pytest.mark.parametrize("digits", [4000, 4001, 4301, 8000, 8001, 12345])
    def test_parse_past_the_int_str_digit_limit(self, digits):
        # digits nines, built without int/str conversion; the process-wide
        # limit stays where it was
        nines = 10**digits - 1
        assert INTEGER.parse("9" * digits) == nines
        assert INTEGER.parse("-" + "9" * digits) == -nines
        assert INTEGER.parse("0" * digits + "12") == 12


class TestIntegerArithmetic:
    def test_exact_division(self):
        assert INTEGER.exact_div(6, 3) == 2
        assert INTEGER.exact_div(-6, 3) == -2
        assert INTEGER.exact_div(0, 5) == 0

    def test_inexact_division_raises(self):
        with pytest.raises(ExactDivisionError, match="not divisible"):
            INTEGER.exact_div(6, 4)

    def test_division_by_zero_raises(self):
        with pytest.raises(ExactDivisionError, match="division by zero"):
            INTEGER.exact_div(6, 0)

    def test_invert_unsupported(self):
        with pytest.raises(CapabilityError):
            INTEGER.invert(2)

    def test_elimination_step(self):
        # pivot 2, divisor 2: rows become (2*x - r0*y) / 2 one column shorter
        out = INTEGER.elimination_step([2, 4, 6], [[1, 3, 5], [3, 8, 9]], 2)
        assert out == [[1, 2], [2, 0]]

    def test_elimination_step_checks_exactness(self):
        with pytest.raises(ExactDivisionError, match="not divisible"):
            INTEGER.elimination_step([2, 4], [[1, 3]], 4)
        with pytest.raises(ExactDivisionError, match="division by zero"):
            INTEGER.elimination_step([2, 4], [[1, 3]], 0)

    @pytest.mark.parametrize("bad", [True, 1.5, "3", None])
    def test_coerce_rejects_foreign_values(self, bad):
        with pytest.raises(ScalarError):
            INTEGER.coerce(bad)


class TestRationalLiterals:
    @pytest.mark.parametrize("text,value", [
        ("1/2", Fraction(1, 2)), ("-4/6", Fraction(-2, 3)),
        ("3", Fraction(3)), ("-3", Fraction(-3)), ("0/5", Fraction(0)),
    ])
    def test_parse(self, text, value):
        assert RATIONAL.parse(text) == value

    def test_parse_past_the_int_str_digit_limit(self):
        ones, threes = (10**4400 - 1) // 9, (10**4400 - 1) // 3
        assert RATIONAL.parse("-" + "1" * 4400 + "/" + "3" * 4400) == Fraction(-1, 3)
        assert RATIONAL.parse("3" * 4400) == threes
        assert RATIONAL.parse("1/" + "1" * 4400) == Fraction(1, ones)

    def test_zero_denominator_message(self):
        with pytest.raises(ScalarParseError, match="zero denominator"):
            RATIONAL.parse("1/0")

    @pytest.mark.parametrize("text", ["", "1/-2", "1/02", "1.5", "1 / 2", "/2"])
    def test_rejects(self, text):
        with pytest.raises(ScalarParseError):
            RATIONAL.parse(text)

    def test_format_is_normalized(self):
        assert RATIONAL.format(Fraction(4, 6)) == "2/3"
        assert RATIONAL.format(Fraction(-4, 2)) == "-2"
        assert RATIONAL.format(RATIONAL.mul(Fraction(2, 3), Fraction(9, 4))) == "3/2"


class TestRationalArithmetic:
    def test_field_division(self):
        assert RATIONAL.exact_div(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)
        assert RATIONAL.invert(Fraction(2, 7)) == Fraction(7, 2)

    def test_zero_division_raises(self):
        with pytest.raises(ExactDivisionError):
            RATIONAL.exact_div(Fraction(1), Fraction(0))
        with pytest.raises(ExactDivisionError):
            RATIONAL.invert(Fraction(0))

    def test_coerce_promotes_int(self):
        v = RATIONAL.coerce(3)
        assert isinstance(v, Fraction) and v == 3


class TestFloatDomain:
    @pytest.mark.parametrize("text,value", [
        ("1.5", 1.5), ("-2.5", -2.5), ("1e3", 1000.0), (".5", 0.5),
        ("3", 3.0), ("2.5E-2", 0.025), ("+0.125", 0.125),
    ])
    def test_parse(self, text, value):
        assert FLOAT.parse(text) == value

    @pytest.mark.parametrize("text", ["", "nan", "inf", "-inf", "1/2", "1e", "abc"])
    def test_rejects(self, text):
        with pytest.raises(ScalarParseError):
            FLOAT.parse(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "9" * 400])
    def test_rejects_overflowing_literal(self, text):
        with pytest.raises(ScalarParseError, match="out of range"):
            FLOAT.parse(text)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_coerce_rejects_non_finite(self, value):
        with pytest.raises(ScalarError):
            FLOAT.coerce(value)

    def test_format_twelve_significant_digits(self):
        assert FLOAT.format(1 / 3) == "0.333333333333"
        assert FLOAT.format(1000.0) == "1000"

    def test_tolerant_equality(self):
        assert FLOAT.eq(1.0, 1.0 + 1e-13)
        assert FLOAT.eq(0.0, 1e-13)
        assert not FLOAT.eq(1.0, 1.0 + 1e-6)
        assert FLOAT.is_zero(5e-13)

    def test_division(self):
        assert FLOAT.exact_div(1.0, 8.0) == 0.125
        assert FLOAT.invert(4.0) == 0.25
        with pytest.raises(ExactDivisionError):
            FLOAT.exact_div(1.0, 0.0)


@given(st.integers(), st.integers(), st.integers())
def test_integer_ring_axioms(a, b, c):
    d = INTEGER
    assert d.add(d.add(a, b), c) == d.add(a, d.add(b, c))
    assert d.add(a, b) == d.add(b, a)
    assert d.mul(d.mul(a, b), c) == d.mul(a, d.mul(b, c))
    assert d.mul(a, d.add(b, c)) == d.add(d.mul(a, b), d.mul(a, c))
    assert d.add(a, d.neg(a)) == d.zero
    assert d.mul(a, d.one) == a
    assert d.sub(a, b) == d.add(a, d.neg(b))


_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@given(_fractions, _fractions)
def test_rational_field_axioms(a, b):
    d = RATIONAL
    assert d.mul(a, d.add(b, d.one)) == d.add(d.mul(a, b), a)
    if not d.is_zero(b):
        assert d.mul(d.exact_div(a, b), b) == a
        assert d.mul(b, d.invert(b)) == d.one


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_integer_literal_round_trip(v):
    assert INTEGER.parse(INTEGER.format(v)) == v


@given(_fractions)
def test_rational_literal_round_trip(q):
    assert RATIONAL.parse(RATIONAL.format(q)) == q


class TestCounting:
    def test_counts_start_fresh_per_instance(self):
        c1 = INTEGER.counting()
        c1.mul(2, 3)
        c2 = INTEGER.counting()
        assert c1.mults == 1 and c2.mults == 0

    def test_mult_bucket(self):
        c = RATIONAL.counting()
        c.mul(Fraction(1, 2), Fraction(2, 3))
        c.exact_div(Fraction(1), Fraction(2))
        c.invert(Fraction(3))
        assert c.mults == 3 and c.adds == 0

    def test_add_bucket(self):
        c = FLOAT.counting()
        c.add(1.0, 2.0)
        c.sub(1.0, 2.0)
        c.neg(1.0)
        assert c.adds == 3 and c.mults == 0

    @pytest.mark.parametrize("dom", [INTEGER, RATIONAL, FLOAT])
    def test_dot_counts_like_the_scalar_loop(self, dom):
        u = [dom.coerce(v) for v in (1, -2, 3)]
        v = [dom.coerce(w) for w in (4, 5, 6)]
        c = dom.counting()
        assert c.dot(u, v) == dom.dot(u, v) == 12
        assert c.mults == 3 and c.adds == 2
        assert type(c.dot(u, v)) is type(dom.zero)

    @pytest.mark.parametrize("dom", [INTEGER, RATIONAL])
    def test_elimination_step_counts_like_the_scalar_loop(self, dom):
        pivot_row = [dom.coerce(v) for v in (2, 4, 6)]
        rows = [[dom.coerce(v) for v in r] for r in ((1, 3, 5), (3, 8, 9))]
        two = dom.coerce(2)
        expected = [[dom.exact_div(dom.sub(dom.mul(pivot_row[0], x), dom.mul(r[0], y)), two)
                     for x, y in zip(r[1:], pivot_row[1:])] for r in rows]
        c = dom.counting()
        assert c.elimination_step(pivot_row, rows, two) == expected
        assert dom.elimination_step(pivot_row, rows, two) == expected
        assert c.mults == 3 * 4 and c.adds == 4

    @pytest.mark.parametrize("dom", [Domain(), FLOAT])
    def test_elimination_step_exact_domains_only(self, dom):
        with pytest.raises(CapabilityError):
            dom.elimination_step([1, 1], [[1, 1]], 1)

    def test_equality_and_parse_never_counted(self):
        c = INTEGER.counting()
        c.eq(3, 3)
        c.is_zero(0)
        c.parse("12")
        c.format(12)
        assert c.mults == 0 and c.adds == 0

    def test_counting_preserves_semantics(self):
        c = INTEGER.counting()
        assert c.exact_div(6, 3) == 2
        with pytest.raises(ExactDivisionError):
            c.exact_div(6, 4)
        assert c.tag == "int" and c.tier == Tier.INTEGRAL_DOMAIN
