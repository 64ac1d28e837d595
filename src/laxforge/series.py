"""Finitely supported Laurent series in the spectral parameter.

Coefficients are PolyMatrix blocks keyed by the integer power of lambda.
``truncation`` bounds what is known: coefficients at powers below
``-truncation`` were discarded and must not be read (doing so raises
TruncationError).  ``truncation=None`` marks an exact series (a Laurent
polynomial known at every order).

Truncation propagates through products by the sharp rule
``lowest_reliable(a*b) = max(low(a) + maxpow(b), low(b) + maxpow(a))``;
for series with non-positive support this reduces to the pessimistic
min-of-truncations rule.  A sum is reliable down to the highest of its
terms' limits, so a caller that knows that limit builds nothing below it:
``_times`` takes it as a floor, and a product is computed only at powers
at or above the higher of the floor and its own limit.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .atoms import ShapeError
from .coeff import ONE as GR_ONE, collect
from .matrices import MatrixSum, PolyMatrix
from .ncpoly import MODES


class TruncationError(RuntimeError):
    """Read past the reliable part of a truncated series."""


class LaurentSeries:
    __slots__ = ("mode", "row_dims", "col_dims", "coeffs", "truncation")

    def __init__(self, mode, row_dims, col_dims, coeffs=None, truncation=None):
        if mode not in MODES:
            raise ValueError(f"bad mode {mode!r}")
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

    @staticmethod
    def from_rows(mode, table: dict) -> "LaurentSeries":
        """The exact series sum_p lam^p M_p of ``{p: rows of M_p}``, each M_p
        built by ``PolyMatrix.from_rows``."""
        coeffs = {p: PolyMatrix.from_rows(mode, rows) for p, rows in table.items()}
        dims = next(iter(coeffs.values())).row_dims
        return LaurentSeries(mode, dims, dims, coeffs)

    # -- truncation bookkeeping -------------------------------------------------
    @property
    def lowest_reliable(self):
        return None if self.truncation is None else -self.truncation

    @property
    def max_power(self) -> int:
        return max(self.coeffs, default=0)

    def coefficient(self, power: int) -> PolyMatrix:
        low = self.lowest_reliable
        if low is not None and power < low:
            raise TruncationError(
                f"coefficient at lambda^{power} was discarded (truncation {self.truncation})")
        return self.coeffs.get(power,
                               PolyMatrix.zero(self.mode, self.row_dims, self.col_dims))

    def block(self, i: int, j: int) -> "LaurentSeries":
        """The (i, j) block as a one-block series with the same truncation."""
        r, c = self.row_dims[i], self.col_dims[j]
        return LaurentSeries(self.mode, (r,), (c,),
                             {p: PolyMatrix(self.mode, (r,), (c,), [[m.entries[i][j]]])
                              for p, m in self.coeffs.items()}, self.truncation)

    # -- algebra -----------------------------------------------------------------
    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if (self.row_dims, self.col_dims) != (other.row_dims, other.col_dims):
            raise ShapeError("layout mismatch")
        lows = [x.lowest_reliable for x in (self, other) if x.lowest_reliable is not None]
        low = max(lows) if lows else None
        out = collect(other.coeffs.items(), dict(self.coeffs))
        return LaurentSeries(self.mode, self.row_dims, self.col_dims, out,
                             None if low is None else -low)

    def __neg__(self):
        return self.map_coefficients(lambda m: -m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return self._times(other)
        return self.map_coefficients(lambda m: m.scale(other))

    def _times(self, other: "LaurentSeries", floor: int | None = None) -> "LaurentSeries":
        """self * other, built only at powers >= floor (None: no floor).

        The result is reliable down to the higher of floor and the sharp
        product limit; below that nothing is computed.
        """
        if self.col_dims != other.row_dims:
            raise ShapeError("layouts do not chain")
        lows = [floor] if floor is not None else []
        if self.lowest_reliable is not None:
            lows.append(self.lowest_reliable + other.max_power)
        if other.lowest_reliable is not None:
            lows.append(other.lowest_reliable + self.max_power)
        low = max(lows) if lows else None
        # each power's products summed in place, as collect sums PolyMatrix values:
        # a power that sums to zero is dropped, and goes last if a product re-adds it
        out: dict[int, MatrixSum] = {}
        for p1, m1 in self.coeffs.items():
            for p2, m2 in other.coeffs.items():
                p = p1 + p2
                if low is None or p >= low:
                    acc = out.get(p)
                    if acc is None:
                        acc = out[p] = MatrixSum(self.mode, self.row_dims, other.col_dims)
                    acc.add_product(m1, m2)
                    if not acc:
                        del out[p]
        return LaurentSeries(self.mode, self.row_dims, other.col_dims,
                             {p: acc.matrix() for p, acc in out.items()},
                             None if low is None else -low)

    def __rmul__(self, other):
        return self.map_coefficients(lambda m: m.scale(other))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by lambda^k."""
        low = self.lowest_reliable
        return LaurentSeries(self.mode, self.row_dims, self.col_dims,
                             {p + k: m for p, m in self.coeffs.items()},
                             None if low is None else -(low + k))

    def map_powers(self, fn: Callable[[int, PolyMatrix], PolyMatrix]) -> "LaurentSeries":
        """Replace the coefficient m at each power p by fn(p, m)."""
        return LaurentSeries(self.mode, self.row_dims, self.col_dims,
                             {p: fn(p, m) for p, m in self.coeffs.items()}, self.truncation)

    def map_coefficients(self, fn: Callable[[PolyMatrix], PolyMatrix]) -> "LaurentSeries":
        return self.map_powers(lambda p, m: fn(m))

    def differentiate_t(self):
        return self.map_coefficients(lambda m: m.differentiate_t())

    def differentiate_x(self, flow=2):
        return self.map_coefficients(lambda m: m.differentiate_x(flow))

    def substitute(self, rules):
        return self.map_coefficients(lambda m: m.substitute(rules))

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


def _split_lead(s: LaurentSeries, what: str):
    """Write s = c*lam^k*(1 + n); return (c, k, n).

    The leading coefficient must be a constant multiple of the identity and n
    strictly lower order.  n carries the truncation s.truncation + k, and a
    nonzero n needs a truncated s: its power series would not end.
    """
    if s.is_zero:
        raise ValueError(f"cannot {what} the zero series")
    k = s.max_power
    c = _constant_scalar(s.coeffs[k])
    if c is None:
        raise ValueError("leading coefficient is not a constant multiple of the identity")
    norm = s.shift(-k) * (GR_ONE / c)
    n = norm - LaurentSeries.identity(s.mode, s.row_dims, truncation=norm.truncation)
    if not n.is_zero:
        if n.max_power >= 0:
            raise ValueError("lower-order part is not strictly lower order")
        if s.truncation is None:
            raise TruncationError(f"{what} of an exact series with a tail is infinite; "
                                  "truncate first")
    return c, k, n


def _inverse_one_plus(n: LaurentSeries) -> LaurentSeries:
    """(1 + n)^-1 to n's truncation, order by order, for n strictly negative in lam.

    X_0 = 1 and X_m = -sum_{j=1..m} n_j X_{m-j}, with n_j the lam^-j coefficient;
    n_j is the left factor, so the recurrence holds for noncommuting blocks too.
    """
    minus_n = (-n).coeffs
    x = {0: PolyMatrix.identity(n.mode, n.row_dims)}
    for m in range(1, (n.truncation or 0) + 1):
        collect(((-m, minus_n[p] * x[-m - p]) for p in minus_n if -m - p in x), x)
    return LaurentSeries(n.mode, n.row_dims, n.col_dims, x, n.truncation)


def series_invert(s: LaurentSeries) -> LaurentSeries:
    """Inverse of c*lam^k*(1 + n): lam^-k/c times the recurrence for (1 + n)^-1.

    The leading coefficient must be a constant multiple of the identity (the
    only case the hierarchy needs); n must be strictly lower order.  The
    result satisfies s * invert(s) = identity up to the truncation.
    """
    if s.row_dims != s.col_dims:
        raise ShapeError("inversion requires a square layout")
    c, k, n = _split_lead(s, "invert")
    return _inverse_one_plus(n).shift(-k) * (GR_ONE / c)


def _constant_scalar(m: PolyMatrix):
    """If m == c * identity for a coefficient c, return c, else None."""
    diag = [m.entries[i][i] for i in range(len(m.row_dims))]
    c = diag[0].constant_term()
    if c is not None and m.is_diagonal() and all(
            c == d.constant_term() and not d.strip_constant() for d in diag):
        return c
    return None


def series_log(s: LaurentSeries):
    """log(1 + n) of a 1x1 scalar-mode series c*lam^k*(1 + n).

    With theta = lam*d/dlam, theta log(1 + n) = theta(n) * (1 + n)^-1, the
    inverse from series_invert's recurrence; the lam^p coefficient is divided
    by p.  The identity needs commuting coefficients: other modes are refused.
    Returns ``(field_part, (c, k))``: log(1+n) to n's truncation and the
    field-independent prefix as metadata.
    """
    if s.mode != "scalar" or s.row_dims != ("1",) or s.col_dims != ("1",):
        raise ShapeError("series_log requires a 1x1 scalar-mode series")
    lead, k, n = _split_lead(s, "log")
    theta_log = n.map_powers(lambda p, m: m.scale(p)) * _inverse_one_plus(n)
    return theta_log.map_powers(lambda p, m: m.scale(Fraction(1, p))), (lead, k)
