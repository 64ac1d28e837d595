from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laxforge.coeff import GaussianRational, collect, format_coeff, gr, parse_coeff

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = gr(Fraction(1, 2), Fraction(1, 3))
    b = gr(2, -1)
    assert a + b == gr(Fraction(5, 2), Fraction(-2, 3))
    assert a * gr(0, 1) == gr(Fraction(-1, 3), Fraction(1, 2))
    assert (a / a) == gr(1)
    assert -a + a == gr(0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


@given(gaussians, gaussians)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(gaussians, gaussians, gaussians)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_format_parse_roundtrip(a):
    assert parse_coeff(format_coeff(a)) == a


@pytest.mark.parametrize("text,val", [
    ("0", gr(0)),
    ("-2/3", gr(Fraction(-2, 3))),
    ("i", gr(0, 1)),
    ("-i", gr(0, -1)),
    ("1/2+1/3*i", gr(Fraction(1, 2), Fraction(1, 3))),
    ("1/2-2*i", gr(Fraction(1, 2), -2)),
])
def test_parse_examples(text, val):
    assert parse_coeff(text) == val
    assert format_coeff(val) == text


def test_collect_sums_and_drops_zero_sums():
    assert collect([("a", gr(1)), ("b", gr(2)), ("a", gr(-1))]) == {"b": gr(2)}
    assert collect([("a", gr(0))]) == {}
    out = {"a": gr(1)}
    assert collect([("a", gr(1)), ("b", gr(-1)), ("b", gr(1))], out) is out
    assert out == {"a": gr(2)}
