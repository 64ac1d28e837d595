"""The Laurent-polynomial ring of the boundary constants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge.boundary import BVARS
from laxforge.coeff import GaussianRational, gr
from laxforge.parser import parse_poly
from laxforge.ratfunc import MPoly

# as in the boundary work: xi enters polynomially, ka with either sign of power
VARS = ("xi", "ka")
small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coeffs = st.builds(GaussianRational, small, small)
nonzero = coeffs.filter(bool)
exponents = st.tuples(st.integers(0, 2), st.integers(-2, 2))
laurent = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: MPoly(VARS, t))
monomials = st.builds(lambda e, c: MPoly(VARS, {e: c}), exponents, nonzero)
ka_monomials = st.builds(lambda k, c: MPoly(VARS, {(0, k): c}), st.integers(-2, 2), nonzero)


def _value(p):
    """The Gaussian rational a fully substituted value stands for."""
    assert not any(any(e) for e in p.terms)
    return sum(p.terms.values(), GaussianRational())


@settings(max_examples=60, deadline=None)
@given(laurent, laurent, ka_monomials, coeffs, nonzero)
def test_ring_operations_agree_with_eval(a, b, m, xi, ka):
    exact = {"xi": xi, "ka": ka}
    point = {k: v.to_complex() for k, v in exact.items()}
    av, bv, mv = a.eval(point), b.eval(point), m.eval(point)
    for got, want in ((a + b, av + bv), (a - b, av - bv), (a * b, av * bv),
                      (a / m, av / mv), (-a, -av)):
        assert abs(got.eval(point) - want) <= 1e-9 * (1 + abs(want))
        assert abs(_value(got.subs_values(exact)).to_complex() - want) \
            <= 1e-9 * (1 + abs(want))
    # substitution is an exact ring homomorphism, negative powers included
    sa, sb, sm = (_value(p.subs_values(exact)) for p in (a, b, m))
    assert _value((a * b).subs_values(exact)) == sa * sb
    assert _value((a / m).subs_values(exact)) == sa / sm


@settings(max_examples=60, deadline=None)
@given(laurent, laurent, monomials)
def test_equal_values_hash_equal(a, b, m):
    for p, q in ((a + b - b, a), (a * m / m, a), (b * a, a * b)):
        assert p == q and hash(p) == hash(q)


def test_constants_equal_and_hash_as_gaussian_rationals():
    c = gr(Fraction(2, 3), -1)
    assert MPoly.constant(VARS, c) == c and hash(MPoly.constant(VARS, c)) == hash(c)
    assert MPoly(VARS) == 0 and hash(MPoly(VARS)) == hash(gr(0))


def test_division_by_a_non_monomial_raises():
    xi, ka = (MPoly.variable(VARS, v) for v in VARS)
    with pytest.raises(ArithmeticError, match="not a monomial"):
        xi / (xi + ka)
    with pytest.raises(ZeroDivisionError):
        xi / MPoly(VARS)
    assert (xi * ka + ka) / ka == xi + 1


@pytest.mark.parametrize("build,text", [
    (lambda v: v["xi_p"] / v["ka_p"], "(xi_p)/(ka_p)"),
    (lambda v: gr(0, -1) / v["ka_p"], "(-i)/(ka_p)"),
    (lambda v: -v["ka_p"], "-ka_p"),
    (lambda v: (2 - v["ka_m"] * v["ka_m"]) / (v["ka_m"] * v["ka_m"]),
     "(2 + -ka_m^2)/(ka_m^2)"),
    (lambda v: v["xi_p"] / v["ka_p"] + v["xi_m"] / v["ka_m"],
     "(xi_m*ka_p + xi_p*ka_m)/(ka_p*ka_m)"),
])
def test_printer_over_the_least_monomial_denominator(build, text):
    assert str(build({n: MPoly.variable(BVARS, n) for n in BVARS})) == text


def test_printer_inside_a_polynomial():
    i_over_ka = gr(0, -1) / MPoly.variable(BVARS, "ka_p")
    assert str(parse_poly("pih").map_coeff(lambda c: i_over_ka * c)) == "((-i)/(ka_p))*pih"
