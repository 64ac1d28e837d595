"""Expression grammar and the stable JSON schema."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge import serialize
from laxforge.atoms import atom
from laxforge.coeff import gr
from laxforge.ncpoly import NCPolynomial
from laxforge.parser import ParseError, parse_expression, parse_poly
from laxforge.riccati import solve_w_z
from laxforge.tables import u_dress_matrix


def test_atoms_and_suffixes():
    p = parse_poly("u_ttx")
    (w, c), = p.terms.items()
    a = w.atoms[0]
    assert (a.base, a.dt, a.dx) == ("u", 2, 1)


def test_precedence_and_parens():
    assert parse_poly("u + uh*pi") == parse_poly("u") + parse_poly("uh*pi")
    assert parse_poly("(u + uh)*pi") == parse_poly("u*pi + uh*pi")
    assert parse_poly("-2*(u - uh)") == parse_poly("2*uh - 2*u")


def test_rational_and_imaginary_coefficients():
    p = parse_poly("1/2*u + i*uh")
    vals = {w.atoms[0].base: c for w, c in p.terms.items()}
    from fractions import Fraction
    assert vals["u"] == gr(Fraction(1, 2))
    assert vals["uh"] == gr(0, 1)


def test_lambda_powers():
    s = parse_expression("lam*lam*u - lam*pih + pi")
    assert s.coefficient(2).entries[0][0] == parse_poly("u")
    assert s.coefficient(1).entries[0][0] == parse_poly("-pih")
    assert s.coefficient(0).entries[0][0] == parse_poly("pi")


def test_matrix_mode_keeps_order():
    p = parse_poly("u*uh*u", mode="matrix")
    (w, _), = p.terms.items()
    assert [a.base for a in w.atoms] == ["u", "uh", "u"]


def test_matrix_mode_shape_errors():
    with pytest.raises(Exception):
        parse_poly("u*u", mode="matrix")


def test_parse_errors():
    for bad in ("u +", "2**u", "w", "u_y", "(u"):
        with pytest.raises(ParseError):
            parse_expression(bad)


# -- JSON schema ----------------------------------------------------------------

def test_poly_roundtrip():
    p = parse_poly("u_t*uh - 1/3*pi*pih + i*u")
    d = serialize.to_dict(p)
    assert serialize.from_dict(d) == p


def test_matrix_and_series_roundtrip():
    sol = solve_w_z(3, "matrix")
    m = sol.w(3)
    assert serialize.from_dict(serialize.to_dict(m)) == m
    s = sol.one_plus_w()
    s2 = serialize.from_dict(serialize.to_dict(s))
    assert s2 == s


def test_trace_roundtrip():
    from laxforge.hierarchy import charges
    tr = charges("I", 2)[1].density
    assert serialize.from_dict(serialize.to_dict(tr)) == tr
    assert set(serialize.to_dict(tr)) == {"kind", "terms"}


def test_dumps_canonical_and_stable():
    s = u_dress_matrix(3)
    assert serialize.dumps(s) == serialize.dumps(s)
    # construction order must not leak into the bytes
    p1 = parse_poly("u*uh + pi*pih")
    p2 = parse_poly("pi*pih + u*uh")
    assert serialize.dumps(p1) == serialize.dumps(p2)


names = st.sampled_from(["u", "uh", "pi", "pih"])


@st.composite
def small_polys(draw):
    p = NCPolynomial.zero("scalar", ("1", "1"))
    for _ in range(draw(st.integers(1, 4))):
        base = draw(names)
        dt = draw(st.integers(0, 2))
        c = gr(draw(st.integers(-5, 5)), draw(st.integers(-3, 3)))
        if c.is_zero:
            continue
        p = p + NCPolynomial.from_atom(atom(base, dt, mode="scalar"), "scalar").scale(c)
    return p


@given(small_polys())
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(p):
    assert serialize.loads(serialize.dumps(p)) == p


def test_latex_stable_term_order():
    from laxforge.latex import tex
    assert tex(parse_poly("u*uh + pi")) == tex(parse_poly("pi + u*uh"))
    assert tex(parse_poly("uh_t")) == r"\hat{u}_{t}"
