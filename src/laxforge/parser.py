"""Plain-text expression parser for CLI input.

Grammar: atoms ``u, uh, pi, pih`` with repeatable derivative suffixes ``_t``,
``_x`` (e.g. ``u_ttx``), integer and rational coefficients, the imaginary
unit ``i``, ``lam`` for the spectral parameter, ``*``, ``+``, ``-`` and
parentheses.  The result is a Laurent polynomial in ``lam`` whose
coefficients are scalar-shape polynomials (1x1 blocks), built once at the end.

While parsing, a value is flat: a block shape and one dict ``{(power of lam,
Word): coefficient}`` summed through ``coeff.collect``.  An atom is one word; a
number, ``i`` or ``lam`` is the empty word at power 0 or 1, of shape (1, 1).
A product concatenates the words of each pair of terms (sorted in scalar
mode, as ``nc_mul`` sorts) and adds their powers.  A pure number (shape (1, 1),
every word empty) is that multiple of the identity: it scales a product
operand of any shape and, in a sum, takes the shape of a square other operand.
"""
from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

from .atoms import EMPTY_WORD, FIELD_BASES, ShapeError, Word, atom
from .coeff import I, ONE, ZERO, GaussianRational, collect
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .series import LaurentSeries

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_[tx]+)*)"
                    r"|(?P<op>[()+\-*]))")

_ATOM_RE = re.compile(rf"^({'|'.join(FIELD_BASES)})((?:_[tx]+)*)$")

_UNIT = ("1", "1")
_CONSTANTS = {"i": (I, 0), "lam": (ONE, 1)}


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    """``(kind, value, source text)`` triples, closed by an ``end`` token."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at: {text[pos:]!r}")
            break
        pos = m.end()
        kind, val = m.lastgroup, m.group(m.lastgroup)
        if kind == "num":
            try:
                val = Fraction(val)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}") from None
        out.append((kind, val, m.group(kind)))
    out.append(("end", None, ""))
    return out


def _number(c: GaussianRational, power: int = 0):
    """A number times lam^power; a zero leaves no term."""
    return _UNIT, ({(power, EMPTY_WORD): c} if c else {})


def _pure(value) -> bool:
    shape, terms = value
    return shape == _UNIT and not any(w.atoms for _, w in terms)


def _neg(value):
    shape, terms = value
    return shape, {k: -c for k, c in terms.items()}


def _add(a, b):
    """Sum; a pure number takes the shape of a square other operand."""
    (sa, ta), (sb, tb) = a, b
    if sa != sb:
        if _pure(a) and sb[0] == sb[1]:
            sa = sb
        elif not (_pure(b) and sa[0] == sa[1]):
            raise ShapeError("layout mismatch")
    return sa, collect(tb.items(), dict(ta))


class _Parser:
    def __init__(self, tokens, mode: str):
        if mode not in ("scalar", "matrix"):   # for a trace, parse in matrix mode, then trace()
            raise ValueError(f"parse mode must be scalar or matrix, not {mode!r}")
        self.toks = tokens
        self.k = 0
        self.mode = mode

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def parse(self):
        try:
            e = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        kind, _, text = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input near {text!r}")
        return e

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.take()
            rhs = self.term()
            node = _add(node, rhs if op == "+" else _neg(rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            node = self.mul(node, self.factor())
        return node

    def factor(self):
        kind, val, text = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            return _neg(self.factor())
        if (kind, val) == ("op", "("):
            self.take()
            e = self.expr()
            if self.take()[:2] != ("op", ")"):
                raise ParseError("expected ')'")
            return e
        if kind == "num":
            self.take()
            return _number(GaussianRational.of(val))
        if kind == "name":
            self.take()
            if val in _CONSTANTS:
                return _number(*_CONSTANTS[val])
            m = _ATOM_RE.match(val)
            if not m:
                raise ParseError(f"unknown symbol {val!r}")
            base, suffix = m.group(1), m.group(2)
            a = atom(base, suffix.count("t"), suffix.count("x"), mode=self.mode)
            return a.shape, {(0, Word((a,))): ONE}
        if kind == "end":
            raise ParseError("unexpected end of expression")
        raise ParseError(f"unexpected token {text!r}")

    def mul(self, a, b):
        """Product; a pure number scales an operand of any shape."""
        if _pure(b) and not _pure(a):
            a, b = b, a   # a number commutes with every word
        (sa, ta), (sb, tb) = a, b
        if _pure(a):
            shape = sb
        elif sa[1] != sb[0]:
            raise ShapeError("layouts do not chain")
        else:
            shape = (sa[0], sb[1])
        key = attrgetter("sort_key")
        word = (lambda x: Word(tuple(sorted(x, key=key)))) if self.mode == "scalar" else Word
        return shape, collect(((p1 + p2, word(w1.atoms + w2.atoms)), c1 * c2)
                              for (p1, w1), c1 in ta.items() for (p2, w2), c2 in tb.items())


def parse_expression(text: str, mode: str = "scalar") -> LaurentSeries:
    """Parse ``text`` into a LaurentSeries of 1x1-block polynomials."""
    (r, c), terms = _Parser(_tokenize(text), mode).parse()
    by_power: dict[int, dict] = {}
    for (p, w), v in terms.items():
        by_power.setdefault(p, {})[w] = v
    return LaurentSeries(mode, (r,), (c,), {
        p: PolyMatrix(mode, (r,), (c,), [[NCPolynomial(mode, (r, c), t)]])
        for p, t in by_power.items()})


def parse_poly(text: str, mode: str = "scalar") -> NCPolynomial:
    """Parse an expression with no ``lam`` into a bare polynomial."""
    shape, terms = _Parser(_tokenize(text), mode).parse()
    if any(p != 0 for p, _ in terms):
        raise ParseError("expression contains the spectral parameter")
    return NCPolynomial(mode, shape, {w: c for (_, w), c in terms.items()})


def parse_coeff(text: str) -> GaussianRational:
    """A pure number such as ``format_coeff`` prints (``1/2-2*i``); the inverse of it."""
    p = parse_poly(text)
    if any(w.atoms for w in p.terms):
        raise ParseError(f"not a number: {text!r}")
    return p.terms.get(EMPTY_WORD, ZERO)
