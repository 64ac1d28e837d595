"""Gaussian-rational coefficient arithmetic.

Every coefficient in the symbolic kernel is an element of Q(i): a rational
real part plus a rational imaginary part.  No floating point is allowed
anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i), stored as (real, imag) Fractions."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x), Fraction(0))

    @staticmethod
    def _as_gr(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(_as_fraction(x), Fraction(0))
        return None

    def __add__(self, other):
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._as_gr(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        return format_coeff(self)

    def __repr__(self):
        return f"GR({format_coeff(self)})"


def collect(pairs, out=None) -> dict:
    """Sum ``(key, value)`` pairs into a dict and drop the keys that sum to zero.

    The one place sparse sums are formed: words, exponents and powers of lam
    all map to values that support ``+`` and are truthy exactly when nonzero.
    ``out``, when given, is updated in place and returned; it must hold no
    zero value itself.
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
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_coeff(c: GaussianRational) -> str:
    """Stable textual form ``a/b+c/d*i`` (real part first, imag suffixed)."""
    if c.im == 0:
        return _frac_str(c.re)
    imag = f"{_frac_str(abs(c.im))}*i" if abs(c.im) != 1 else "i"
    sign = "-" if c.im < 0 else "+"
    if c.re == 0:
        return f"-{imag}" if c.im < 0 else imag
    return f"{_frac_str(c.re)}{sign}{imag}"


def parse_coeff(s: str) -> GaussianRational:
    """Inverse of :func:`format_coeff`."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient string")
    # split at the last +/- that is not the leading sign
    split = None
    for k in range(len(s) - 1, 0, -1):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            split = k
            break
    def frac_part(txt: str) -> Fraction:
        return Fraction(txt)
    if s.endswith("i"):
        body = s[:-1].rstrip("*")
        if split is None:
            if body in ("", "+"):
                return GaussianRational(Fraction(0), Fraction(1))
            if body == "-":
                return GaussianRational(Fraction(0), Fraction(-1))
            return GaussianRational(Fraction(0), frac_part(body))
        re_txt, im_txt = s[:split], s[split:-1].rstrip("*")
        if im_txt in ("+", ""):
            im = Fraction(1)
        elif im_txt == "-":
            im = Fraction(-1)
        else:
            im = frac_part(im_txt)
        return GaussianRational(frac_part(re_txt), im)
    return GaussianRational(frac_part(s), Fraction(0))
