"""Order-by-order solution of the time Riccati system.

The time part of the auxiliary linear problem factorizes through
``(1 + W) e^Z (1 + W)^-1`` with W strictly anti-diagonal and Z diagonal.
Expanding W = sum_n W^(n)/lam^n, the lam^2-leading commutator with the
constant signature matrix fixes each W^(k+2) algebraically from lower
orders; the diagonal phase densities follow from Z' = V_D + V_A W.  The
ratios Gamma and Gamma-hat of the auxiliary-function blocks are the 21 and 12
blocks of the matrix-mode W, and their residual is the same formula on a block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .atoms import ShapeError, atom
from .coeff import gr
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial, nc_mul
from .series import LaurentSeries

BLOCK_DIMS = {"scalar": ("1", "1"), "matrix": ("N", "M")}


def _f(base, mode, dt=0, dx=0, flow=2) -> NCPolynomial:
    return NCPolynomial.from_atom(atom(base, dt, dx, mode, flow), mode)


def _blk_zero(mode, r, c):
    return NCPolynomial.zero(mode, (r, c))


def sigma_matrix(mode: str) -> PolyMatrix:
    """diag(I, -I) on the (N, M) block split."""
    n, m = BLOCK_DIMS[mode]
    return PolyMatrix.diag(mode, (n, m),
                           [NCPolynomial.unit(mode, n),
                            NCPolynomial.unit(mode, m, gr(-1))])


def projector_d(mode: str) -> PolyMatrix:
    """diag(I, 0) on the (N, M) block split."""
    n, m = BLOCK_DIMS[mode]
    return PolyMatrix.diag(mode, (n, m),
                           [NCPolynomial.unit(mode, n), _blk_zero(mode, m, m)])


def omega_matrix(mode: str = "scalar") -> PolyMatrix:
    """antidiag(i, -i); the involution used by the reflected monodromy."""
    n, m = BLOCK_DIMS[mode]
    if mode != "scalar":
        raise ShapeError("the reflected-monodromy involution is scalar-mode only")
    i = gr(0, 1)
    return PolyMatrix(mode, (n, m), (n, m),
                      [[_blk_zero(mode, n, n), NCPolynomial.unit(mode, "1", i)],
                       [NCPolynomial.unit(mode, "1", -i), _blk_zero(mode, m, m)]])


def x_matrix(mode: str) -> PolyMatrix:
    """Anti-diagonal field matrix [[0, uh], [u, 0]]."""
    n, m = BLOCK_DIMS[mode]
    return PolyMatrix(mode, (n, m), (n, m),
                      [[_blk_zero(mode, n, n), _f("uh", mode)],
                       [_f("u", mode), _blk_zero(mode, m, m)]])


def y_matrix(mode: str) -> PolyMatrix:
    """[[-uh*u, pi], [-pih, u*uh]]: the lam^0 part of the time Lax operator."""
    n, m = BLOCK_DIMS[mode]
    uhu = nc_mul(_f("uh", mode), _f("u", mode))
    uuh = nc_mul(_f("u", mode), _f("uh", mode))
    return PolyMatrix(mode, (n, m), (n, m),
                      [[-uhu, _f("pi", mode)],
                       [-_f("pih", mode), uuh]])


def p_a_matrix(mode: str) -> PolyMatrix:
    """Anti-diagonal momentum matrix [[0, pi], [-pih, 0]]."""
    n, m = BLOCK_DIMS[mode]
    return PolyMatrix(mode, (n, m), (n, m),
                      [[_blk_zero(mode, n, n), _f("pi", mode)],
                       [-_f("pih", mode), _blk_zero(mode, m, m)]])


def nls_v(mode: str = "scalar") -> LaurentSeries:
    """The time Lax operator: lam^2/2 Sigma + lam X + Y (exact in lam)."""
    half = gr(Fraction(1, 2))
    return (LaurentSeries.of(sigma_matrix(mode).scale(half), 2)
            + LaurentSeries.of(x_matrix(mode), 1)
            + LaurentSeries.of(y_matrix(mode), 0))


def v_diagonal(mode: str) -> LaurentSeries:
    half = gr(Fraction(1, 2))
    n, m = BLOCK_DIMS[mode]
    yd = PolyMatrix.diag(mode, (n, m),
                         [-nc_mul(_f("uh", mode), _f("u", mode)),
                          nc_mul(_f("u", mode), _f("uh", mode))])
    return LaurentSeries.of(sigma_matrix(mode).scale(half), 2) + LaurentSeries.of(yd, 0)


def v_antidiagonal(mode: str) -> LaurentSeries:
    return LaurentSeries.of(x_matrix(mode), 1) + LaurentSeries.of(p_a_matrix(mode), 0)


@dataclass
class RiccatiSolution:
    """W^(1..order) anti-diagonal blocks and Z^(1..order-1) diagonal densities.

    ``z_lam2_density`` is the field-independent lam^2 term Sigma/2, kept as
    metadata rather than a density since it integrates to the interval length.
    """
    mode: str
    order: int
    w_coeffs: list[PolyMatrix]
    z_coeffs: list[PolyMatrix]
    z_lam2_density: PolyMatrix

    def w(self, k: int) -> PolyMatrix:
        if not 1 <= k <= self.order:
            raise IndexError(f"W^({k}) not computed (order {self.order})")
        return self.w_coeffs[k - 1]

    def z(self, k: int) -> PolyMatrix:
        if not 1 <= k <= self.order - 1:
            raise IndexError(f"Z^({k}) not computed (order {self.order})")
        return self.z_coeffs[k - 1]

    def w_series(self) -> LaurentSeries:
        coeffs = {-k: self.w_coeffs[k - 1] for k in range(1, self.order + 1)}
        n, m = BLOCK_DIMS[self.mode]
        return LaurentSeries(self.mode, (n, m), (n, m), coeffs, self.order)

    def one_plus_w(self) -> LaurentSeries:
        n, m = BLOCK_DIMS[self.mode]
        return LaurentSeries.identity(self.mode, (n, m), truncation=self.order) + self.w_series()


@lru_cache(maxsize=None)
def solve_w_z(order: int, mode: str = "scalar") -> RiccatiSolution:
    """Solve the anti-diagonal/diagonal system to the requested order.

    Integration constants at each order are fixed to zero: every W^(k) is a
    differential polynomial in the fields with no free constants.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if mode not in BLOCK_DIMS:
        raise ValueError(f"unknown mode {mode!r}")
    n, m = BLOCK_DIMS[mode]
    X = x_matrix(mode)
    PA = p_a_matrix(mode)
    uhu = nc_mul(_f("uh", mode), _f("u", mode))
    uuh = nc_mul(_f("u", mode), _f("uh", mode))
    YD = PolyMatrix.diag(mode, (n, m), [-uhu, uuh])
    zero = PolyMatrix.zero(mode, (n, m), (n, m))
    W: dict[int, PolyMatrix] = {0: zero}

    def getw(k):
        return W.get(k, zero)

    for k in range(-1, order - 1):
        rhs = -getw(k).differentiate_t() - getw(k).commutator(YD)
        for a in range(1, k + 1):
            b = k + 1 - a
            if b >= 1:
                rhs = rhs - getw(a) * X * getw(b)
        for a in range(1, k):
            b = k - a
            if b >= 1:
                rhs = rhs - getw(a) * PA * getw(b)
        if k == -1:
            rhs = rhs + X
        if k == 0:
            rhs = rhs + PA
        # (1/2)[W^(k+2), Sigma] = rhs  =>  W12 = -rhs12, W21 = +rhs21
        w12 = -rhs.entries[0][1]
        w21 = rhs.entries[1][0]
        W[k + 2] = PolyMatrix(mode, (n, m), (n, m),
                              [[_blk_zero(mode, n, n), w12],
                               [w21, _blk_zero(mode, m, m)]])

    z_coeffs = []
    for k in range(1, order):
        density = X * W[k + 1] + PA * W[k]
        if not density.is_diagonal():
            raise RuntimeError(f"Z^({k}) density is not diagonal")
        z_coeffs.append(density)
    half = gr(Fraction(1, 2))
    return RiccatiSolution(mode, order, [W[k] for k in range(1, order + 1)],
                           z_coeffs, sigma_matrix(mode).scale(half))


def _riccati_form(w: LaurentSeries, vd_l, vd_r, va_q, va) -> LaurentSeries:
    """dW/dt + W VD_r - VD_l W + W VA_q W - VA, the operators truncated like W.

    The full system passes (VD, VD, VA, VA); its anti-diagonal block (i, j)
    passes (VD_ii, VD_jj, VA_ji, VA_ij).
    """
    t = w.truncation
    vd_l, vd_r, va_q, va = (s.truncated(t) for s in (vd_l, vd_r, va_q, va))
    return w.differentiate_t() + w * vd_r - vd_l * w + w * va_q * w - va


def riccati_residual(sol: RiccatiSolution) -> LaurentSeries:
    """dW/dt + [W, V_D] + W V_A W - V_A with the truncated series W."""
    VD, VA = v_diagonal(sol.mode), v_antidiagonal(sol.mode)
    return _riccati_form(sol.w_series(), VD, VD, VA, VA)


# the block of the matrix-mode W that each ratio is: Gamma is W21, Gamma-hat W12
_GAMMA_BLOCK = {"gamma": (1, 0), "gamma_hat": (0, 1)}


@dataclass
class GammaSolution:
    """Off-diagonal ratio blocks of the auxiliary problem, order by order."""
    which: str  # 'gamma' (M x N) or 'gamma_hat' (N x M)
    order: int
    coeffs: list[NCPolynomial]

    def gamma(self, k: int) -> NCPolynomial:
        if not 1 <= k <= self.order:
            raise IndexError(f"coefficient {k} not computed (order {self.order})")
        return self.coeffs[k - 1]


@lru_cache(maxsize=None)
def solve_gamma(order: int, which: str = "gamma") -> GammaSolution:
    """Matrix Riccati ratio of auxiliary-function blocks: a block of matrix-mode W.

    The ratio's recursion is the (i, j) block of the W recursion, so Gamma^(k)
    is W^(k)_21 and Gamma-hat^(k) is W^(k)_12 of ``solve_w_z(order, "matrix")``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if which not in _GAMMA_BLOCK:
        raise ValueError("which must be 'gamma' or 'gamma_hat'")
    i, j = _GAMMA_BLOCK[which]
    sol = solve_w_z(order, "matrix")
    return GammaSolution(which, order, [sol.w(k).entries[i][j] for k in range(1, order + 1)])


def gamma_residual(sol: GammaSolution) -> LaurentSeries:
    """Residual of the matrix Riccati equation with the truncated series."""
    i, j = _GAMMA_BLOCK[sol.which]
    r, c = BLOCK_DIMS["matrix"][i], BLOCK_DIMS["matrix"][j]
    gser = LaurentSeries("matrix", (r,), (c,),
                         {-k: PolyMatrix("matrix", (r,), (c,), [[g]])
                          for k, g in enumerate(sol.coeffs, 1)}, sol.order)
    VD, VA = v_diagonal("matrix"), v_antidiagonal("matrix")
    return _riccati_form(gser, VD.block(i, i), VD.block(j, j), VA.block(j, i), VA.block(i, j))
