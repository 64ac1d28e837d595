"""Gaussian-rational coefficient arithmetic.

Every coefficient in the symbolic kernel is an element of Q(i): a rational
real part plus a rational imaginary part.  No floating point is allowed
anywhere in this module.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """Exact element of Q(i), stored as ``(a + b*i) / d`` over Python ints.

    The form is normal: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values
    have equal fields.  Each operation builds its result from ints and
    normalises it with one ``gcd``, skipped when ``d == 1``.  ``+`` and ``*``
    of two Gaussian rationals, the bulk of the symbolic kernel's work, run
    inline in one frame; any other operand goes through ``_as_gr`` first.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        # both parts are reduced and d is their lcm, so gcd(a, b, d) == 1
        self._a, self._b, self._d = re.numerator * (d // p), im.numerator * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x) -> "GaussianRational":
        return x if isinstance(x, GaussianRational) else GaussianRational(x)

    @staticmethod
    def _as_gr(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational._as_gr(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            a, b = self._a + other._a, self._b + other._b
        else:
            a, b, d = self._a * e + other._a * d, self._b * e + other._b * d, d * e
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        c = _object_new(GaussianRational)
        c._a, c._b, c._d = a, b, d
        return c

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational._as_gr(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        a, b, d = a * c - b * e, a * e + b * c, self._d * other._d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        c = _object_new(GaussianRational)
        c._a, c._b, c._d = a, b, d
        return c

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = other._d
        return _normal(f * (a * c + b * e), f * (b * c - a * e), self._d * n)

    def conjugate(self):
        return _new(self._a, -self._b, self._d)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self):
        return format_coeff(self)

    def __repr__(self):
        return f"GR({format_coeff(self)})"


_object_new = object.__new__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from fields already in normal form."""
    c = _object_new(GaussianRational)
    c._a, c._b, c._d = a, b, d
    return c


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from ``(a + b*i) / d`` with ``d > 0``, normalised."""
    if d == 1:
        return _new(a, b, 1)
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def collect(pairs, out=None) -> dict:
    """Sum ``(key, value)`` pairs into a dict and drop the keys that sum to zero.

    The one place sparse sums are formed: words, exponents and powers of lam
    all map to values that support ``+`` and are truthy exactly when nonzero.
    ``out``, when given, is updated in place and returned; it must hold no
    zero value itself, and it must be owned by the caller: a dict the caller
    built for this sum, never the ``terms`` of a polynomial that exists
    elsewhere (``NCPolynomial.__add__`` returns an operand itself when the
    other is zero, so such a dict may be shared).  Merging the summands of
    ``a + b + c`` one after another into one owned dict gives the terms in the
    order of the left-to-right sum of immutable values: a key that cancels is
    dropped and goes last if a later summand adds it again.
    """
    if out is None:
        out = {}
    for k, v in pairs:
        s = out.get(k)
        if s is not None:
            v = s + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_coeff(c: GaussianRational) -> str:
    """Stable textual form ``a/b+c/d*i`` (real part first, imag suffixed)."""
    re, im = c.re, c.im
    if im == 0:
        return _frac_str(re)
    imag = f"{_frac_str(abs(im))}*i" if abs(im) != 1 else "i"
    if re == 0:
        return f"-{imag}" if im < 0 else imag
    return f"{_frac_str(re)}{'-' if im < 0 else '+'}{imag}"

