"""Expression grammar and the stable JSON schema."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge import serialize
from laxforge.atoms import ShapeError, atom
from laxforge.coeff import I, ONE, GaussianRational, gr
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial
from laxforge.parser import _ATOM_RE, ParseError, _tokenize, parse_expression, parse_poly
from laxforge.series import LaurentSeries
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
    with pytest.raises(ShapeError, match="^layouts do not chain$"):
        parse_poly("u*u", mode="matrix")
    with pytest.raises(ShapeError, match="^layout mismatch$"):
        parse_poly("u + uh", mode="matrix")


def test_parse_errors():
    for bad in ("u +", "2**u", "w", "u_y", "(u"):
        with pytest.raises(ParseError):
            parse_expression(bad)


# -- the flat parser against the series route -------------------------------------

class _ReferenceParser:
    """Series-route parser: every factor a LaurentSeries of one 1x1 block,
    multiplied and added through the series and matrix arithmetic."""

    def __init__(self, text, mode):
        self.toks, self.k, self.mode = _tokenize(text), 0, mode

    def peek(self):
        return self.toks[self.k]

    def take(self):
        self.k += 1
        return self.toks[self.k - 1]

    def parse(self):
        e = self.expr()
        kind, _, text = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input near {text!r}")
        return e

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.take()
            rhs = self.term()
            node = _reference_add(node, rhs if op == "+" else -rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            node = _reference_mul(node, self.factor())
        return node

    def factor(self):
        kind, val, text = self.take()
        if (kind, val) == ("op", "-"):
            return -self.factor()
        if (kind, val) == ("op", "("):
            e = self.expr()
            if self.take()[:2] != ("op", ")"):
                raise ParseError("expected ')'")
            return e
        if kind == "num":
            return self.const(GaussianRational.of(val))
        if kind == "name":
            if val == "i":
                return self.const(I)
            if val == "lam":
                return self.const(ONE).shift(1)
            m = _ATOM_RE.match(val)
            if not m:
                raise ParseError(f"unknown symbol {val!r}")
            a = atom(m.group(1), m.group(2).count("t"), m.group(2).count("x"), mode=self.mode)
            poly = NCPolynomial.from_atom(a, self.mode)
            return LaurentSeries.of(PolyMatrix(self.mode, (a.rows,), (a.cols,), [[poly]]))
        if kind == "end":
            raise ParseError("unexpected end of expression")
        raise ParseError(f"unexpected token {text!r}")

    def const(self, c):
        return LaurentSeries.of(PolyMatrix(self.mode, ("1",), ("1",),
                                           [[NCPolynomial.unit(self.mode, "1", c)]]))


def _reference_numbers(s):
    """If every coefficient of s is a plain number, return {power: value}."""
    if s.row_dims != ("1",) or s.col_dims != ("1",):
        return None
    out = {}
    for p, m in s.coeffs.items():
        e = m.entries[0][0]
        if e.strip_constant():
            return None
        out[p] = e.constant_term() or GaussianRational.of(0)
    return out


def _reference_lift(const, like):
    """A pure-number series as c * identity on a square target shape."""
    dims = like.row_dims
    out = LaurentSeries.zero(like.mode, like.row_dims, like.col_dims, like.truncation)
    for p, c in _reference_numbers(const).items():
        out = out + LaurentSeries.of(PolyMatrix(
            like.mode, dims, dims,
            [[NCPolynomial.unit(like.mode, r, c) if i == j
              else NCPolynomial.zero(like.mode, (r, cd))
              for j, cd in enumerate(dims)] for i, r in enumerate(dims)]), p)
    return out


def _reference_add(a, b):
    if (a.row_dims, a.col_dims) == (b.row_dims, b.col_dims):
        return a + b
    if _reference_numbers(a) is not None and b.row_dims == b.col_dims:
        return _reference_lift(a, b) + b
    if _reference_numbers(b) is not None and a.row_dims == a.col_dims:
        return a + _reference_lift(b, a)
    return a + b  # the shape error surfaces


def _reference_mul(a, b):
    ca = _reference_numbers(a)
    if ca is not None:
        acc = LaurentSeries.zero(b.mode, b.row_dims, b.col_dims, b.truncation)
        for p, c in ca.items():
            acc = acc + b.shift(p).map_coefficients(lambda m, c=c: m.scale(c))
        return acc
    if _reference_numbers(b) is not None:
        return _reference_mul(b, a)
    return a * b


def _reference_poly(text, mode):
    s = _ReferenceParser(text, mode).parse()
    if any(p != 0 for p in s.coeffs):
        raise ParseError("expression contains the spectral parameter")
    if s.is_zero:
        return NCPolynomial.zero(mode, (s.row_dims[0], s.col_dims[0]))
    return s.coefficient(0).entries[0][0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:   # compared by type and message
        return type(e), str(e)


_FACTORS = st.sampled_from(["u", "uh", "pi", "pih", "u_t", "uh_tx", "pi_x", "u*uh", "uh*u",
                            "pih*pi", "lam", "lam*uh", "lam*lam", "i", "0", "1", "2", "3/2",
                            "7/5", "-1/3"])
_EXPRESSIONS = st.recursive(_FACTORS, lambda inner: st.one_of(
    st.builds("({})".format, inner),
    st.builds("-{}".format, inner),
    st.tuples(inner, st.sampled_from(["*", " + ", " - "]), inner).map("".join)),
    max_leaves=10)


@given(text=_EXPRESSIONS, mode=st.sampled_from(["scalar", "matrix"]))
@settings(max_examples=300, deadline=None)
def test_parser_agrees_with_the_series_route(text, mode):
    """Same series (layout, coefficients, truncation) or the same exception
    and message, for parse_expression and parse_poly alike."""
    want = _outcome(lambda: _ReferenceParser(text, mode).parse())
    got = _outcome(parse_expression, text, mode)
    assert got == want
    if isinstance(got, LaurentSeries):
        assert (got.row_dims, got.col_dims, got.truncation) == \
            (want.row_dims, want.col_dims, want.truncation)
    assert _outcome(parse_poly, text, mode) == _outcome(_reference_poly, text, mode)


@pytest.mark.parametrize("text", ["2 + u*uh", "u*uh - u*uh + 1", "(u - u) + 1", "uh*u + u*uh",
                                  "u*u", "0*u", "0", "u + 0", "(1 + lam)*u*uh + lam",
                                  "1/0*u", "u*(", "lam*u"])
@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_parser_agrees_with_the_series_route_on_edge_cases(text, mode):
    assert _outcome(parse_expression, text, mode) == \
        _outcome(lambda: _ReferenceParser(text, mode).parse())
    assert _outcome(parse_poly, text, mode) == _outcome(_reference_poly, text, mode)


def test_a_literal_zero_leaves_no_term():
    assert parse_expression("0").coeffs == {} and parse_poly("0*u").terms == {}
    assert parse_expression("0*u", "matrix").row_dims == ("M",)


def test_a_zero_polynomial_keeps_the_expression_shape():
    assert parse_poly("u - u", "matrix") == NCPolynomial.zero("matrix", ("M", "N"))
    assert parse_poly("0*uh", "matrix") == NCPolynomial.zero("matrix", ("N", "M"))
    assert parse_poly("0", "matrix") == NCPolynomial.zero("matrix", ("1", "1"))


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 2000 + "u" + ")" * 2000
    for parse in (parse_poly, parse_expression):
        with pytest.raises(ParseError, match="^expression nested too deeply$"):
            parse(deep)
    assert parse_poly("(" * 50 + "u" + ")" * 50) == parse_poly("u")


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


def test_a_coefficient_without_a_json_form_is_refused_by_name():
    """A boundary term's MPoly coefficients once raised an AttributeError."""
    from laxforge.boundary import open_charge_expansion
    with pytest.raises(TypeError, match="coefficient of type MPoly"):
        serialize.dumps(open_charge_expansion(order=3).plus_term)


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
