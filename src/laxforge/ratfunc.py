"""Exact Laurent polynomials over Q(i) in a fixed tuple of variables.

This is the coefficient ring of the boundary constants.  In every boundary Lax
operator, generator and boundary term the constants xi enter polynomially and
ka only through powers of 1/ka, so every quotient the boundary work forms is by
a monomial: exponents may be negative, division by a monomial is exact, and
division by anything else raises.  Values are canonical (equal values have
equal term dicts), so equality is a dict comparison and values hash.

It is also the ring of the spectral variables (lam, mu) of both boundary
checks, which work over (lam, mu, xi, ka) with the fields left in the words
of a scalar-mode polynomial.  ``rename`` maps lam to mu (or swaps them).

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
