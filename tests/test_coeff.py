from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laxforge.coeff import GaussianRational, collect, format_coeff, gr
from laxforge.parser import parse_coeff

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


wide = st.fractions(max_denominator=10 ** 6)


def _is_normal(c):
    a, b, d = c._a, c._b, c._d
    return type(a) is type(b) is type(d) is int and d > 0 and gcd(a, b, d) == 1


def _old_complex(re, im):
    """to_complex as it read when the parts were stored as two Fractions."""
    z = complex(re) + 1j * complex(im)
    return z.real.hex(), z.imag.hex()


@given(st.tuples(wide, wide), st.tuples(wide, wide))
def test_matches_a_fraction_pair_reference(p, q):
    """Every operation agrees with (re, im) Fraction arithmetic and stays normal."""
    (a, b), (c, d) = p, q
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    cases = [(x + y, (a + c, b + d)), (x - y, (a - c, b - d)),
             (x * y, (a * c - b * d, a * d + b * c)), (-x, (-a, -b)),
             (x.conjugate(), (a, -b)), (x + c, (a + c, b)), (c - x, (c - a, -b)),
             (x * c, (a * c, b * c)), (x, p)]
    if c or d:
        n = c * c + d * d
        cases.append((x / y, ((a * c + b * d) / n, (b * c - a * d) / n)))
    if c:
        cases.append((x / c, (a / c, b / c)))
    for got, (re, im) in cases:
        want = GaussianRational(re, im)
        assert _is_normal(got) and (got.re, got.im) == (re, im)
        assert got == want and hash(got) == hash(want)
        assert parse_coeff(format_coeff(got)) == got
        z = got.to_complex()
        assert (z.real.hex(), z.imag.hex()) == _old_complex(re, im)
        assert bool(got) == (re != 0 or im != 0) == (not got.is_zero)
    assert (x == y) == (p == q)


small = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=4))


@given(st.tuples(small, small), st.tuples(small, small), st.integers(-50, 50))
def test_integer_and_small_denominator_operands_stay_normal(p, q, n):
    """The inline sum and product of two Gaussian rationals, and the operands
    that go through ``_as_gr`` (an int on either side), give the normal form of
    the Fraction-pair result."""
    (a, b), (c, d) = p, q
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    cases = [(x + y, (a + c, b + d)), (y + x, (a + c, b + d)),
             (x * y, (a * c - b * d, a * d + b * c)), (y * x, (a * c - b * d, a * d + b * c)),
             (x + n, (a + n, b)), (n + x, (a + n, b)), (x * n, (a * n, b * n)),
             (n * x, (a * n, b * n)), (x - n, (a - n, b)), (n - x, (n - a, -b))]
    for got, (re, im) in cases:
        assert type(got) is GaussianRational and _is_normal(got)
        assert (got.re, got.im) == (re, im) and got == GaussianRational(re, im)
        assert bool(got) == (re != 0 or im != 0)


def test_sums_that_cancel_give_the_normal_zero():
    for x in (gr(3, -2), gr(Fraction(1, 2), Fraction(-5, 6))):
        s = x + (-x)
        assert not s and s.is_zero and (s._a, s._b, s._d) == (0, 0, 1)
        assert collect([("w", x), ("w", -x)]) == {}
    assert gr(3, -2)._d == 1 and not (gr(3, -2) + gr(-3, 2)) and not gr(7) * gr(0)


def test_floats_are_refused():
    for build in (lambda: GaussianRational(0.5), lambda: GaussianRational(1, 0.5),
                  lambda: gr(0.5), lambda: gr(1) + 0.5, lambda: gr(1) * 0.5):
        with pytest.raises(TypeError):
            build()


def test_equality_is_between_gaussian_rationals_only():
    assert gr(0) != 0 and gr(1) != Fraction(1) and gr(2, 3) == gr(Fraction(4, 2), 3)
    assert GaussianRational() == gr(0) and GaussianRational(im=1) == gr(0, 1)
