"""Finitely supported Laurent series in the spectral parameter.

Coefficients are PolyMatrix blocks keyed by the integer power of lambda.
``truncation`` bounds what is known: coefficients at powers below
``-truncation`` were discarded and must not be read (doing so raises
TruncationError).  ``truncation=None`` marks an exact series (a Laurent
polynomial known at every order).

Truncation propagates through products by the sharp rule
``lowest_reliable(a*b) = max(low(a) + maxpow(b), low(b) + maxpow(a))``;
for series with non-positive support this reduces to the pessimistic
min-of-truncations rule.
"""
from __future__ import annotations

from typing import Callable

from .atoms import ShapeError
from .coeff import GaussianRational, ONE as GR_ONE
from .matrices import PolyMatrix


class TruncationError(RuntimeError):
    """Read past the reliable part of a truncated series."""


_NEG_INF = None  # sentinel meaning "exact all the way down"


class LaurentSeries:
    __slots__ = ("mode", "row_dims", "col_dims", "coeffs", "truncation")

    def __init__(self, mode, row_dims, col_dims, coeffs=None, truncation=None):
        self.mode = mode
        self.row_dims = tuple(row_dims)
        self.col_dims = tuple(col_dims)
        self.truncation = truncation
        self.coeffs: dict[int, PolyMatrix] = {}
        low = None if truncation is None else -truncation
        for p, m in (coeffs or {}).items():
            if m.row_dims != self.row_dims or m.col_dims != self.col_dims or m.mode != mode:
                raise ShapeError("coefficient layout mismatch")
            if low is not None and p < low:
                continue  # discarded below the truncation
            if not m.is_zero:
                self.coeffs[p] = m

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def zero(mode, row_dims, col_dims, truncation=None):
        return LaurentSeries(mode, row_dims, col_dims, {}, truncation)

    @staticmethod
    def identity(mode, dims, truncation=None):
        return LaurentSeries(mode, dims, dims, {0: PolyMatrix.identity(mode, dims)},
                             truncation)

    @staticmethod
    def of(matrix: PolyMatrix, power: int = 0, truncation=None):
        return LaurentSeries(matrix.mode, matrix.row_dims, matrix.col_dims,
                             {power: matrix}, truncation)

    # -- truncation bookkeeping -------------------------------------------------
    @property
    def lowest_reliable(self):
        return None if self.truncation is None else -self.truncation

    @property
    def max_power(self) -> int:
        return max(self.coeffs, default=0)

    @property
    def min_power(self) -> int:
        return min(self.coeffs, default=0)

    def coefficient(self, power: int) -> PolyMatrix:
        low = self.lowest_reliable
        if low is not None and power < low:
            raise TruncationError(
                f"coefficient at lambda^{power} was discarded (truncation {self.truncation})")
        return self.coeffs.get(power,
                               PolyMatrix.zero(self.mode, self.row_dims, self.col_dims))

    def _zero_like(self, truncation):
        return LaurentSeries(self.mode, self.row_dims, self.col_dims, {}, truncation)

    # -- algebra -----------------------------------------------------------------
    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if (self.row_dims, self.col_dims) != (other.row_dims, other.col_dims):
            raise ShapeError("layout mismatch")
        lows = [x.lowest_reliable for x in (self, other) if x.lowest_reliable is not None]
        low = max(lows) if lows else None
        out: dict[int, PolyMatrix] = dict(self.coeffs)
        for p, m in other.coeffs.items():
            out[p] = out[p] + m if p in out else m
        return LaurentSeries(self.mode, self.row_dims, self.col_dims, out,
                             None if low is None else -low)

    def __neg__(self):
        return self.map_coefficients(lambda m: -m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            if self.col_dims != other.row_dims:
                raise ShapeError("layouts do not chain")
            la, lb = self.lowest_reliable, other.lowest_reliable
            if la is None and lb is None:
                low = None
            else:
                cands = []
                if la is not None:
                    cands.append(la + other.max_power)
                if lb is not None:
                    cands.append(lb + self.max_power)
                low = max(cands)
            out: dict[int, PolyMatrix] = {}
            for p1, m1 in self.coeffs.items():
                for p2, m2 in other.coeffs.items():
                    p = p1 + p2
                    if low is not None and p < low:
                        continue
                    prod = m1 * m2
                    out[p] = out[p] + prod if p in out else prod
            return LaurentSeries(self.mode, self.row_dims, other.col_dims, out,
                                 None if low is None else -low)
        return self.map_coefficients(lambda m: m.scale(other))

    def __rmul__(self, other):
        return self.map_coefficients(lambda m: m.scale(other))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by lambda^k."""
        low = self.lowest_reliable
        return LaurentSeries(self.mode, self.row_dims, self.col_dims,
                             {p + k: m for p, m in self.coeffs.items()},
                             None if low is None else -(low + k))

    def map_coefficients(self, fn: Callable[[PolyMatrix], PolyMatrix]) -> "LaurentSeries":
        return LaurentSeries(self.mode, self.row_dims, self.col_dims,
                             {p: fn(m) for p, m in self.coeffs.items()}, self.truncation)

    def differentiate_t(self):
        return self.map_coefficients(lambda m: m.differentiate_t())

    def differentiate_x(self, flow=2):
        return self.map_coefficients(lambda m: m.differentiate_x(flow))

    def substitute(self, rules, max_steps=10000):
        return self.map_coefficients(lambda m: m.substitute(rules, max_steps))

    def commutator(self, other: "LaurentSeries") -> "LaurentSeries":
        return self * other - other * self

    def truncated(self, truncation: int) -> "LaurentSeries":
        return LaurentSeries(self.mode, self.row_dims, self.col_dims,
                             dict(self.coeffs), truncation)

    def scalarized(self) -> "LaurentSeries":
        ones_r = tuple("1" for _ in self.row_dims)
        ones_c = tuple("1" for _ in self.col_dims)
        return LaurentSeries("scalar", ones_r, ones_c,
                             {p: m.scalarized() for p, m in self.coeffs.items()},
                             self.truncation)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.mode == other.mode and self.row_dims == other.row_dims
                and self.col_dims == other.col_dims and self.coeffs == other.coeffs
                and self.truncation == other.truncation)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = [f"lam^{p}*{m}" for p, m in sorted(self.coeffs.items(), reverse=True)]
        tail = "" if self.truncation is None else f" + O(lam^-{self.truncation + 1})"
        return " + ".join(parts) + tail

    __repr__ = __str__


def series_invert(s: LaurentSeries) -> LaurentSeries:
    """Geometric-series inverse of c*lam^k*(1 + n) with constant invertible lead.

    The leading coefficient must be a constant multiple of the identity (the
    only case the hierarchy needs); n must be strictly lower order.  The
    result satisfies s * invert(s) = identity up to the truncation.
    """
    if s.is_zero:
        raise ValueError("cannot invert the zero series")
    if s.row_dims != s.col_dims:
        raise ShapeError("inversion requires a square layout")
    k = s.max_power
    c = _constant_scalar(s.coeffs[k])
    if c is None:
        raise ValueError("leading coefficient is not an invertible constant block matrix")
    cinv = GR_ONE / c
    norm = s.shift(-k).map_coefficients(lambda m: m.scale(cinv))
    n = norm - LaurentSeries.identity(s.mode, s.row_dims, truncation=norm.truncation)
    if n.is_zero:
        return LaurentSeries.identity(s.mode, s.row_dims,
                                      truncation=s.truncation).map_coefficients(
            lambda m: m.scale(cinv)).shift(-k)
    if n.max_power >= 0:
        raise ValueError("lower-order part is not strictly lower order")
    if s.truncation is None:
        raise TruncationError("inverse of an exact series with a tail is infinite; truncate first")
    out = LaurentSeries.identity(s.mode, s.row_dims, truncation=s.truncation + k)
    term = out
    for _ in range(s.truncation + k + 1):
        term = -(term * n)
        if term.is_zero:
            break
        out = out + term
    return out.map_coefficients(lambda m: m.scale(cinv)).shift(-k)


def _constant_scalar(m: PolyMatrix):
    """If m == c * identity for a coefficient c, return c, else None."""
    c = None
    for i in range(len(m.row_dims)):
        for j in range(len(m.col_dims)):
            e = m.entries[i][j]
            if i == j:
                ct = e.constant_term()
                if ct is None or e.strip_constant():
                    return None
                if c is None:
                    c = ct
                elif not (c == ct):
                    return None
            elif not e.is_zero:
                return None
    return c


def series_log(s: LaurentSeries):
    """Mercator log of a scalar-shape series c*lam^k*(1 + n).

    Returns ``(field_part, (c, k))``: the series log(1+n) to the stated
    truncation plus the field-independent prefix as metadata.
    """
    if s.row_dims != ("1",) or s.col_dims != ("1",):
        raise ShapeError("series_log requires scalar shape")
    if s.is_zero:
        raise ValueError("vanishing leading coefficient")
    k = s.max_power
    lead = _constant_scalar(s.coeffs[k])
    if lead is None:
        raise ValueError("leading coefficient must be a nonzero constant")
    cinv = GR_ONE / lead
    n = s.shift(-k).map_coefficients(lambda m: m.scale(cinv)) \
        - LaurentSeries.identity(s.mode, s.row_dims,
                                 truncation=None if s.truncation is None
                                 else s.truncation + k)
    if n.is_zero:
        return LaurentSeries.zero(s.mode, ("1",), ("1",), s.truncation), (lead, k)
    if n.max_power >= 0:
        raise ValueError("lower-order part is not strictly lower order")
    if s.truncation is None:
        raise TruncationError("log of an exact series with a tail is infinite; truncate first")
    depth = s.truncation + k
    out = n
    power = n
    from fractions import Fraction
    for j in range(2, depth + 1):
        power = power * n
        if power.is_zero:
            break
        sign = 1 if j % 2 == 1 else -1
        out = out + power.map_coefficients(
            lambda m, j=j, sign=sign: m.scale(GaussianRational.of(Fraction(sign, j))))
    return out, (lead, k)
