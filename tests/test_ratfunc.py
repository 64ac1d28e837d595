"""The Laurent-polynomial ring of the boundary constants."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxforge.boundary import BVARS
from laxforge.coeff import GaussianRational, collect, gr
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
@given(laurent, laurent, ka_monomials, coeffs, nonzero, nonzero)
@example(MPoly(VARS, {(0, -1): gr(0, 1)}), MPoly(VARS), MPoly(VARS, {(0, 0): gr(0, 1)}),
         gr(0), gr(0, 1), gr(1))  # xi = 0 under a negative power of ka
def test_ring_operations_agree_with_eval(a, b, m, xi, ka, w):
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
    # renaming: a swap is a ring automorphism of order two; a one-way rename
    # evaluates as the source variable set to the target's value. A swap moves
    # the negative powers of ka onto xi, so it is evaluated where both are nonzero.
    swap = {"xi": "ka", "ka": "xi"}
    assert a.rename(swap).rename(swap) == a
    assert (a * b).rename(swap) == a.rename(swap) * b.rename(swap)
    both = {"xi": w.to_complex(), "ka": point["ka"]}
    swapped = {"xi": both["ka"], "ka": both["xi"]}
    assert abs(a.rename(swap).eval(both) - a.eval(swapped)) \
        <= 1e-9 * (1 + abs(a.eval(swapped)))
    same = {"xi": point["ka"], "ka": point["ka"]}
    assert abs(a.rename({"xi": "ka"}).eval(point) - a.eval(same)) \
        <= 1e-9 * (1 + abs(a.eval(same)))


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


# -- one polynomial may hold coefficients from either ring ----------------------
# The boundary work multiplies the engine's Gaussian-rational objects with
# MPoly-valued ones as they are, with no copy into the boundary ring first.
# These properties pin the protocol that rests on.

bexponents = st.tuples(*(st.integers(-1, 2) for _ in BVARS))
bpolys = st.dictionaries(bexponents, coeffs, max_size=3).map(lambda t: MPoly(BVARS, t))
bmonomials = st.builds(lambda e, c: MPoly(BVARS, {e: c}), bexponents, nonzero)


@settings(max_examples=80, deadline=None)
@given(coeffs, bpolys, bmonomials)
def test_mixed_operands_act_as_the_constant_polynomial(a, b, m):
    ca = MPoly.constant(BVARS, a)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert op(a, b) == op(ca, b) and op(b, a) == op(b, ca)
    assert a / m == ca / m and isinstance(a / m, MPoly)
    if a:
        assert b / a == b / ca
    assert a == ca and ca == a and hash(a) == hash(ca)
    assert (a - ca) == 0 and not (a - ca) and not (ca - a)


@settings(max_examples=60, deadline=None)
@given(coeffs, bpolys)
def test_collect_sums_mixed_pairs_and_drops_a_zero_sum(a, b):
    ca = MPoly.constant(BVARS, a)
    assert collect([("k", a), ("k", -ca)]) == {} == collect([("k", -ca), ("k", a)])
    assert collect([("k", a), ("k", b)]) == ({"k": a + b} if a + b else {})
    assert collect([("k", b), ("k", a)]) == collect([("k", a), ("k", b)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(coeffs, bpolys), min_size=3, max_size=3))
def test_a_polynomial_with_mixed_coefficients_equals_its_mpoly_image(cs):
    words = ("u", "u*uh", "pi*pih")
    mixed = sum((parse_poly(w).scale(c) for w, c in zip(words, cs)), parse_poly("0"))
    image = mixed.map_coeff(lambda c: c if isinstance(c, MPoly) else MPoly.constant(BVARS, c))
    assert mixed == image and image == mixed and hash(mixed) == hash(image)
    assert mixed * parse_poly("uh") == image * parse_poly("uh")


def test_a_complex_constant_prints_with_parentheses_only_as_an_mpoly():
    """Equal values, different text: byte-identical output depends on which ring
    a coefficient ends up in, so outputs are compared as text, not only as values."""
    c = gr(1, 1)
    assert MPoly.constant(BVARS, c) == c
    assert (str(c), str(MPoly.constant(BVARS, c))) == ("1+i", "(1+i)")
    assert str(parse_poly("u").scale(c)) == "(1+i)*u"
    assert str(parse_poly("u").scale(MPoly.constant(BVARS, c))) == "((1+i))*u"
