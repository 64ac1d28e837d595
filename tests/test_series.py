"""Laurent series arithmetic: truncation discipline, inverse, log."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge.atoms import ShapeError, atom
from laxforge.boundary import BVARS
from laxforge.coeff import gr
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial
from laxforge.parser import parse_expression
from laxforge.ratfunc import MPoly
from laxforge.riccati import solve_w_z
from laxforge.series import (LaurentSeries, TruncationError, series_invert,
                             series_log)


def scalar_series(text, truncation=None):
    s = parse_expression(text)
    return s if truncation is None else s.truncated(truncation)


def test_truncation_guard():
    s = scalar_series("1 + u", truncation=2)
    s.coefficient(-2)
    with pytest.raises(TruncationError):
        s.coefficient(-3)


def test_identity_inverse():
    one = LaurentSeries.identity("scalar", ("1",))
    assert series_invert(one) == one


def test_geometric_inverse_of_one_plus_w():
    sol = solve_w_z(4, "scalar")
    s = sol.one_plus_w()
    inv = series_invert(s)
    prod = s * inv
    eye = LaurentSeries.identity("scalar", ("1", "1"), truncation=prod.truncation)
    assert (prod - eye).is_zero
    # alternating-sign geometric structure at the first order
    assert inv.coefficient(-1) == -s.coefficient(-1)


def test_invert_requires_constant_lead():
    bad = LaurentSeries.of(PolyMatrix(
        "scalar", ("1",), ("1",),
        [[NCPolynomial.from_atom(atom("u", mode="scalar"), "scalar")]]))
    with pytest.raises(ValueError):
        series_invert(bad.truncated(3))


@st.composite
def small_series(draw):
    texts = ["u", "uh", "pi", "pih", "u*uh", "2*u", "u_t"]
    t = draw(st.integers(2, 4))
    body = parse_expression("1")
    for k in range(1, t + 1):
        if draw(st.booleans()):
            term = parse_expression(draw(st.sampled_from(texts)))
            body = body + term.shift(-k)
    return body.truncated(t)


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_invert_involution(s):
    assert (series_invert(series_invert(s)) - s).is_zero


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_invert_defining_identity(s):
    prod = s * series_invert(s)
    eye = LaurentSeries.identity("scalar", ("1",), truncation=prod.truncation)
    assert (prod - eye).is_zero


def test_log_of_one_is_zero():
    one = LaurentSeries.identity("scalar", ("1",)).truncated(3)
    log, (c, k) = series_log(one)
    assert log.is_zero and c == gr(1) and k == 0


def test_log_mercator_example():
    from fractions import Fraction

    from laxforge.parser import parse_poly
    s = parse_expression("1") + parse_expression("u").shift(-1)
    log, (c, k) = series_log(s.truncated(3))
    # u/lam - u^2/(2 lam^2) + u^3/(3 lam^3)
    assert (c, k) == (gr(1), 0)
    assert log.coefficient(-1).entries[0][0] == parse_poly("u")
    assert log.coefficient(-2).entries[0][0] == \
        parse_poly("u*u").scale(gr(Fraction(-1, 2)))
    assert log.coefficient(-3).entries[0][0] == \
        parse_poly("u*u*u").scale(gr(Fraction(1, 3)))


@given(small_series())
@settings(max_examples=30, deadline=None)
def test_exp_log_roundtrip(s):
    """exp(log(1+n)) == 1+n up to truncation, exp summed as its Taylor series."""
    one11 = s
    log, (c, k) = series_log(one11)
    # exponentiate: sum log^j / j!
    import math
    from fractions import Fraction
    t = one11.truncation
    acc = LaurentSeries.identity("scalar", ("1",), truncation=t)
    term = LaurentSeries.identity("scalar", ("1",), truncation=t)
    for j in range(1, t + 2):
        term = term * log
        if term.is_zero:
            break
        acc = acc + term.map_coefficients(
            lambda m, j=j: m.scale(gr(Fraction(1, math.factorial(j)))))
    norm = one11.shift(-k).map_coefficients(lambda m: m.scale(gr(1) / c))
    assert (acc - norm).is_zero


def test_exactness_no_floats():
    """Coefficient arithmetic stays in exact Gaussian rationals throughout."""
    from laxforge.coeff import GaussianRational
    sol = solve_w_z(5, "scalar")
    for k in range(1, 6):
        for row in sol.w(k).entries:
            for e in row:
                assert all(isinstance(c, GaussianRational) for c in e.terms.values())


def theta(s):
    """lam*d/dlam: the lam^p coefficient times p."""
    return s.map_powers(lambda p, m: m.scale(p))


def mercator(n):
    """The reference for series_log: the power sum sum_j (-1)^(j+1) n^j / j."""
    out = power = n
    for j in range(2, n.truncation + 1):
        power = power * n
        out = out + power * Fraction((-1) ** (j + 1), j)
    return out


def one_plus_part(s, c, k):
    """(1 + n) = s / (c lam^k)."""
    return s.shift(-k) * (gr(1) / c)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrix_series(draw):
    """c + sum_k lam^-k (rational mix of W and Z blocks), truncated: noncommuting
    coefficients in the layout of the hierarchy's matrix mode."""
    sol = solve_w_z(3, "matrix")
    blocks = [sol.w(1), sol.w(2), sol.w(3), sol.z(1), sol.z(2)]
    t = draw(st.integers(1, 3))
    s = LaurentSeries.identity("matrix", ("N", "M"), truncation=t) \
        * gr(draw(rationals.filter(bool)))
    for k in range(1, t + 1):
        for b in blocks:
            w = draw(rationals)
            if w:
                s = s + LaurentSeries.of(b.scale(w), -k)
    return s.truncated(t)


@st.composite
def boundary_ring_series(draw):
    """A scalar series whose coefficients are Laurent polynomials in the
    boundary constants, with a monomial (invertible) lead."""
    names = st.sampled_from(BVARS)
    s = draw(small_series())
    # at p = 0 a monomial
    weight = {p: MPoly.variable(BVARS, draw(names)) + p for p in s.coeffs}
    return s.map_powers(lambda p, m: m.scale(weight[p]))


@given(matrix_series())
@settings(max_examples=20, deadline=None)
def test_invert_defining_identity_matrix_mode(s):
    for prod in (s * series_invert(s), series_invert(s) * s):
        assert prod == LaurentSeries.identity("matrix", s.row_dims,
                                              truncation=prod.truncation)


@given(boundary_ring_series())
@settings(max_examples=25, deadline=None)
def test_invert_defining_identity_boundary_ring(s):
    prod = s * series_invert(s)
    assert prod == LaurentSeries.identity("scalar", ("1",), truncation=prod.truncation)


@given(small_series(), rationals.filter(bool), st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_log_theta_identity(body, c, shift):
    """(1 + n) * theta(log(1 + n)) == theta(n), exactly to the truncation."""
    s = body.shift(shift) * gr(c)
    log, (lead, k) = series_log(s)
    assert (lead, k) == (gr(c), shift)
    one_plus_n = one_plus_part(s, lead, k)
    n = one_plus_n - LaurentSeries.identity("scalar", ("1",), truncation=log.truncation)
    assert one_plus_n * theta(log) == theta(n)


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_log_matches_the_mercator_sum(s):
    """small_series keeps the power sum at truncation <= 4."""
    log, (c, k) = series_log(s)
    n = one_plus_part(s, c, k) - LaurentSeries.identity("scalar", ("1",),
                                                        truncation=s.truncation)
    assert log == mercator(n)


@pytest.mark.parametrize("mode, dims", [("matrix", ("1",)), ("matrix", ("N",)),
                                        ("scalar", ("1", "1"))])
def test_log_refuses_all_but_1x1_scalar_mode(mode, dims):
    """The theta identity needs commuting coefficients."""
    with pytest.raises(ShapeError):
        series_log(LaurentSeries.identity(mode, dims).truncated(3))
