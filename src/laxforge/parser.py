"""Plain-text expression parser for CLI input.

Grammar: atoms ``u, uh, pi, pih`` with repeatable derivative suffixes ``_t``,
``_x`` (e.g. ``u_ttx``), integer and rational coefficients, the imaginary
unit ``i``, ``lam`` for the spectral parameter, ``*``, ``+``, ``-`` and
parentheses.  The result is a Laurent polynomial in ``lam`` whose
coefficients are scalar-shape polynomials (1x1 blocks).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .atoms import atom
from .coeff import I, ONE, GaussianRational
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .series import LaurentSeries

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_[tx]+)*)"
                    r"|(?P<op>[()+\-*]))")

_ATOM_RE = re.compile(r"^(u|uh|pi|pih)((?:_[tx]+)*)$")


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            out.append(("num", Fraction(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, mode: str):
        self.toks = tokens
        self.k = 0
        self.mode = mode

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}")

    def parse(self) -> LaurentSeries:
        e = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input near token {self.peek()!r}")
        return e

    def expr(self) -> LaurentSeries:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = _add(node, rhs if op == "+" else -rhs)
        return node

    def term(self) -> LaurentSeries:
        node = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            node = _mul(node, self.factor())
        return node

    def factor(self) -> LaurentSeries:
        kind, val = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            return -self.factor()
        if (kind, val) == ("op", "("):
            self.take()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "num":
            self.take()
            return self._const(GaussianRational.of(val))
        if kind == "name":
            self.take()
            if val == "i":
                return self._const(I)
            if val == "lam":
                return self._const(ONE).shift(1)
            m = _ATOM_RE.match(val)
            if not m:
                raise ParseError(f"unknown symbol {val!r}")
            base, suffix = m.group(1), m.group(2)
            dt = suffix.count("t")
            dx = suffix.count("x")
            a = atom(base, dt, dx, mode=self.mode)
            poly = NCPolynomial.from_atom(a, self.mode)
            return LaurentSeries.of(PolyMatrix(self.mode, (a.rows,), (a.cols,), [[poly]]))
        raise ParseError(f"unexpected token {val!r}")

    def _const(self, c: GaussianRational) -> LaurentSeries:
        m = PolyMatrix(self.mode, ("1",), ("1",),
                       [[NCPolynomial.unit(self.mode, "1", c)]])
        return LaurentSeries.of(m)


def _scalar_const_coeffs(s: LaurentSeries):
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


def _lift_const(const: LaurentSeries, like: LaurentSeries) -> LaurentSeries:
    """Lift a pure-number series to c * identity on a square target shape."""
    vals = _scalar_const_coeffs(const)
    dims = like.row_dims
    out = LaurentSeries.zero(like.mode, like.row_dims, like.col_dims, like.truncation)
    for p, c in vals.items():
        out = out + LaurentSeries.of(PolyMatrix(
            like.mode, dims, dims,
            [[NCPolynomial.unit(like.mode, r, c) if i == j
              else NCPolynomial.zero(like.mode, (r, cd))
              for j, cd in enumerate(dims)] for i, r in enumerate(dims)]), p)
    return out


def _add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Sum that lifts pure numbers to identity blocks on square shapes."""
    if (a.row_dims, a.col_dims) == (b.row_dims, b.col_dims):
        return a + b
    if _scalar_const_coeffs(a) is not None and b.row_dims == b.col_dims:
        return _lift_const(a, b) + b
    if _scalar_const_coeffs(b) is not None and a.row_dims == a.col_dims:
        return a + _lift_const(b, a)
    return a + b  # let the shape error surface


def _mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Product that folds pure numeric factors as scalars (any block shape)."""
    ca = _scalar_const_coeffs(a)
    if ca is not None:
        acc = LaurentSeries.zero(b.mode, b.row_dims, b.col_dims, b.truncation)
        for p, c in ca.items():
            acc = acc + b.shift(p).map_coefficients(lambda m, c=c: m.scale(c))
        return acc
    if _scalar_const_coeffs(b) is not None:
        return _mul(b, a)  # scaling by a pure-number series commutes in every mode
    return a * b


def parse_expression(text: str, mode: str = "scalar") -> LaurentSeries:
    """Parse ``text`` into a LaurentSeries of 1x1-block polynomials."""
    return _Parser(_tokenize(text), mode).parse()


def parse_poly(text: str, mode: str = "scalar") -> NCPolynomial:
    """Parse an expression with no ``lam`` into a bare polynomial."""
    s = parse_expression(text, mode)
    if any(p != 0 for p in s.coeffs):
        raise ParseError("expression contains the spectral parameter")
    if s.is_zero:
        return NCPolynomial.zero(mode, ("1", "1"))
    return s.coefficient(0).entries[0][0]
