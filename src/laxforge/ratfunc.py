"""Exact Laurent polynomials over Q(i) in a fixed tuple of variables.

This is the coefficient ring of the boundary constants.  In every boundary Lax
operator, generator and boundary term the constants xi enter polynomially and
ka only through powers of 1/ka, so every quotient the boundary work forms is by
a monomial: exponents may be negative, division by a monomial is exact, and
division by anything else raises.  Values are canonical (equal values have
equal term dicts), so equality is a dict comparison and values hash.

It is also the ring of both boundary checks: the reflection equation over
(lam, mu, xi, ka) and the Poisson structures over (lam, mu) and the scalar
fields, which commute.  ``rename`` maps lam to mu (or swaps them) and
``partial`` differentiates by a field.

A Gaussian rational, int or Fraction acts on an MPoly, in either operand
order, as the constant it stands for (``+ - * /``, ``==`` with equal hashes),
so coefficients from both rings mix with no conversion.  Only print tells
them apart: ``(1+i)`` as an MPoly, ``1+i`` as a Gaussian rational.

The module keeps its name because the benchmark's per-layer split
(``perfbench/layers.py``) attributes this ring's time to the ``ratfunc`` layer.
"""
from __future__ import annotations

from fractions import Fraction

from .coeff import ONE as GR_ONE, ZERO as GR_ZERO, GaussianRational, collect, format_coeff


class MPoly:
    """Laurent polynomial: dict of signed exponent tuples -> GaussianRational."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms=None):
        self.vars = tuple(vars)
        self.terms: dict[tuple[int, ...], GaussianRational] = {}
        for e, c in (terms or {}).items():
            if c:
                self.terms[tuple(e)] = c

    @staticmethod
    def constant(vars, c) -> "MPoly":
        c = GaussianRational.of(c)
        z = tuple(0 for _ in vars)
        return MPoly(vars, {z: c} if c else {})

    @staticmethod
    def variable(vars, name) -> "MPoly":
        e = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        return MPoly(vars, {e: GR_ONE})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if self.vars != other.vars:
                raise ValueError("variable sets differ")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MPoly.constant(self.vars, other)
        return NotImplemented

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, MPoly) and self.vars != other.vars:
            return False
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if not any(any(e) for e in self.terms):   # a constant hashes as its value
            return hash(sum(self.terms.values(), GR_ZERO))
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mpoly(self.vars, collect(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.of(other)
            return MPoly(self.vars, {e: v * c for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mpoly(self.vars, collect((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                         for e1, c1 in self.terms.items()
                                         for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "MPoly":
        """Exact inverse of a monomial; anything else has none in this ring."""
        if len(self.terms) != 1:
            if not self.terms:
                raise ZeroDivisionError("inverting the zero Laurent polynomial")
            raise ArithmeticError(f"{self} is not a monomial: only monomials are "
                                  "invertible Laurent polynomials")
        (e, c), = self.terms.items()
        return MPoly(self.vars, {tuple(-p for p in e): GR_ONE / c})

    def rename(self, mapping: dict[str, str]) -> "MPoly":
        """Substitute variables for variables, all at once: {src: dst}.

        Serves a one-way renaming (lam -> mu) and a swap (lam <-> mu) alike.
        """
        dst = [self.vars.index(mapping.get(v, v)) for v in self.vars]

        def moved(e):
            out = [0] * len(e)
            for i, p in zip(dst, e):
                out[i] += p
            return tuple(out)
        return _mpoly(self.vars, collect((moved(e), c) for e, c in self.terms.items()))

    def partial(self, var: str) -> "MPoly":
        """Derivative with respect to one variable."""
        i = self.vars.index(var)
        return _mpoly(self.vars, collect(
            ((*e[:i], e[i] - 1, *e[i + 1:]), c * e[i]) for e, c in self.terms.items()))

    def subs_values(self, values: dict[str, GaussianRational]) -> "MPoly":
        """Exact substitution of some variables by Gaussian-rational values.

        A variable that occurs with a negative power must get a nonzero value.
        """
        idx = {self.vars.index(k): v for k, v in values.items()}
        out = []
        for e, c in self.terms.items():
            e2 = list(e)
            for i, v in idx.items():
                f = v if e2[i] >= 0 else GR_ONE / v
                for _ in range(abs(e2[i])):
                    c = c * f
                e2[i] = 0
            out.append((tuple(e2), c))
        return _mpoly(self.vars, collect(out))

    def eval(self, values: dict[str, complex]) -> complex:
        out = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
            for name, p in zip(self.vars, e):
                if p:
                    v *= values[name] ** p
            out += v
        return out

    def __str__(self):
        """Polynomial form, or (numerator)/(least monomial denominator)."""
        if not self.terms:
            return "0"
        low = [min(e[i] for e in self.terms) for i in range(len(self.vars))]
        if min(low) < 0:
            den = MPoly(self.vars, {tuple(-min(p, 0) for p in low): GR_ONE})
            return f"({self * den})/({den})"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{p}" if p > 1 else v
                            for v, p in zip(self.vars, e) if p)
            cs = format_coeff(c)
            if mono:
                parts.append(mono if cs == "1" else (f"-{mono}" if cs == "-1"
                                                     else f"({cs})*{mono}"))
            else:
                parts.append(f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs)
        return " + ".join(parts)

    __repr__ = __str__


def _mpoly(vars, terms: dict) -> MPoly:
    """An MPoly over a collected dict, stored as is (it holds no zero)."""
    p = MPoly(vars)
    p.terms = terms
    return p


class MPolyMatrix:
    """Dense matrix of Laurent polynomials over one variable tuple."""

    __slots__ = ("vars", "entries")

    def __init__(self, vars, entries):
        self.vars = tuple(vars)
        self.entries = [list(row) for row in entries]

    @staticmethod
    def identity(vars, n) -> "MPolyMatrix":
        one, zero = MPoly.constant(vars, GR_ONE), MPoly(vars)
        return MPolyMatrix(vars, [[one if i == j else zero for j in range(n)]
                                  for i in range(n)])

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def __add__(self, other):
        return MPolyMatrix(self.vars, [[a + b for a, b in zip(r1, r2)]
                                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return MPolyMatrix(self.vars, [[a - b for a, b in zip(r1, r2)]
                                       for r1, r2 in zip(self.entries, other.entries)])

    def __mul__(self, other: "MPolyMatrix") -> "MPolyMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        return MPolyMatrix(self.vars, [
            [sum((self.entries[i][s] * other.entries[s][j] for s in range(k)),
                 MPoly(self.vars)) for j in range(m)] for i in range(n)])

    def scale(self, c) -> "MPolyMatrix":
        return MPolyMatrix(self.vars, [[a * c for a in r] for r in self.entries])

    def kron(self, other: "MPolyMatrix") -> "MPolyMatrix":
        n, m = self.shape
        p, q = other.shape
        return MPolyMatrix(self.vars, [
            [self.entries[i // p][j // q] * other.entries[i % p][j % q]
             for j in range(m * q)] for i in range(n * p)])

    def rename(self, mapping: dict[str, str]) -> "MPolyMatrix":
        return self.map(lambda a: a.rename(mapping))

    def map(self, fn) -> "MPolyMatrix":
        """Apply fn to every entry, e.g. ``m.map(lambda a: a.partial("u"))``."""
        return MPolyMatrix(self.vars, [[fn(a) for a in r] for r in self.entries])

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for r in self.entries for a in r)

    def nonzero_entries(self):
        return [(i, j, a) for i, r in enumerate(self.entries)
                for j, a in enumerate(r) if not a.is_zero]
