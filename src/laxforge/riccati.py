"""Order-by-order solution of the time Riccati system.

The time Lax operator V = lam^2/2 Sigma + lam X + Y is typed once, in
``nls_v``; everything else reads its pieces from it.  Each coefficient V_j
splits into a diagonal part D_j and an anti-diagonal part A_j
(``PolyMatrix.diagonal_part``).  The time part of the auxiliary linear problem
factorizes through ``(1 + W) e^Z (1 + W)^-1`` with W strictly anti-diagonal and
Z diagonal.  Expanding W = sum_n W^(n)/lam^n, the commutator with the lead
coefficient Sigma/2 fixes each W^(k+2) algebraically from lower orders and the
other coefficients of V; the diagonal phase densities follow from
Z' = V_D + V_A W.  Only the 21 block Gamma is solved, by its own closed
Riccati equation; the 12 block Gamma-hat is the end swap (-1)^n iota(Gamma^(n))
(``ncpoly.end_swap``).  A ratio's residual is the same formula on a block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .atoms import atom
from .coeff import ONE, collect, gr
from .matrices import MatrixSum, PolyMatrix, block_dims
from .ncpoly import NCPolynomial, _poly, end_swap, nc_mul
from .series import LaurentSeries

_HALF = gr(Fraction(1, 2))


def _f(base, mode, coeff=ONE) -> NCPolynomial:
    """The underived field ``base`` times ``coeff``, as a polynomial in ``mode``."""
    return NCPolynomial.from_atom(atom(base, mode=mode), mode, coeff)


def sigma_matrix(mode: str) -> PolyMatrix:
    """Sigma = [[I, 0], [0, -I]] on the (N, M) block split."""
    return PolyMatrix.from_rows(mode, [[1, 0], [0, -1]])


def omega_matrix(mode: str = "scalar") -> PolyMatrix:
    """antidiag(i, -i); the involution used by the reflected monodromy.

    Its corners are constants, so only the scalar mode's square blocks hold
    them: in matrix mode ``from_rows`` raises ShapeError."""
    i = gr(0, 1)
    return PolyMatrix.from_rows(mode, [[0, i], [-i, 0]])


@lru_cache(maxsize=None)
def nls_v(mode: str = "scalar") -> LaurentSeries:
    """The time Lax operator lam^2/2 Sigma + lam X + Y (exact in lam): the lam^1
    part X = [[0, uh], [u, 0]] and the lam^0 part Y = [[-uh*u, pi], [-pih, u*uh]].

    Built once per mode; callers must not mutate it."""
    block_dims(mode)   # refuses an unknown mode by name, before any field is built
    u, uh, pi, pih = (_f(b, mode) for b in ("u", "uh", "pi", "pih"))
    return LaurentSeries.from_rows(mode, {2: [[_HALF, 0], [0, -_HALF]],
                                          1: [[0, uh], [u, 0]],
                                          0: [[-nc_mul(uh, u), pi], [-pih, nc_mul(u, uh)]]})


@lru_cache(maxsize=None)
def _v_split(mode: str) -> tuple[LaurentSeries, LaurentSeries]:
    """(V_D, V_A): the diagonal and anti-diagonal parts of each coefficient of V,
    split once per mode; callers must not mutate them."""
    v = nls_v(mode)
    vd = v.map_coefficients(PolyMatrix.diagonal_part)
    return vd, v - vd


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
        dims = block_dims(self.mode)
        return LaurentSeries(self.mode, dims, dims, coeffs, self.order)

    def one_plus_w(self) -> LaurentSeries:
        return LaurentSeries.identity(self.mode, block_dims(self.mode),
                                      truncation=self.order) + self.w_series()


# one growing tower {k: W^(k)} per mode from W^(0) = 0: W^(k) depends only on
# lower orders, so a solve extends the tower and never re-solves a lower order;
# the densities [Z^(1), Z^(2), ...] grow beside it.  Each order of W and Z is
# written into its slot, so a solve that read a stale length rewrites a slot
# with the same value and never appends a density twice
_TOWER: dict[str, dict[int, PolyMatrix]] = {}
_Z: dict[str, list[PolyMatrix]] = {}


@lru_cache(maxsize=None)
def solve_w_z(order: int, mode: str = "scalar") -> RiccatiSolution:
    """Solve the anti-diagonal/diagonal system to the requested order.

    Integration constants at each order are fixed to zero: every W^(k) is a
    differential polynomial in the fields with no free constants.  W and Z
    are read from (and grown in) the mode's tower.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    vd, va = _v_split(mode)
    lead = vd.max_power
    below = [(j, -d.entries[0][0], d.entries[1][1])
             for j, d in sorted(vd.coeffs.items(), reverse=True) if j < lead]
    anti = sorted(va.coeffs.items(), reverse=True)
    dims = block_dims(mode)
    W = _TOWER.setdefault(mode, {0: PolyMatrix.zero(mode, dims, dims)})

    def gamma(k):
        return W.get(k, W[0]).entries[1][0]

    # lam^-k of dW/dt + [W, V_D] + W V_A W - V_A = 0 for W^(k+lead).  The lead is Sigma/2, so
    # its 21 block is Gamma's closed Riccati equation Gamma^(k+lead) = -dGamma/dt + [Gamma(-D_11)
    # + D_22 Gamma] + sum Gamma(-A_12)Gamma + A_21, summed in place in the immutable sum's order
    # (the bracket merged whole), each Gamma^(a)(-A_12,j) built once per call.  W12 is its end swap
    ga: dict[tuple[int, int], NCPolynomial] = {}
    for k in range(len(W) - lead, order - lead + 1):
        rhs = (-gamma(k)).differentiate_t().terms
        for j, minus_d11, d22 in below:
            g = gamma(k + j)
            collect(collect(nc_mul(d22, g).terms.items(), nc_mul(g, minus_d11).terms).items(), rhs)
        for j, a_j in anti:
            for a in range(1, k + j):
                g_a = ga.get((a, j))
                if g_a is None:
                    g_a = ga[a, j] = nc_mul(gamma(a), -a_j.entries[0][1])
                collect(nc_mul(g_a, gamma(k + j - a)).terms.items(), rhs)
        if -k in va.coeffs:
            collect(va.coeffs[-k].entries[1][0].terms.items(), rhs)
        n, g = k + lead, _poly(mode, dims[::-1], rhs)
        W[n] = PolyMatrix.from_rows(mode, [[0, -end_swap(g) if n % 2 else end_swap(g)], [g, 0]])

    Z = _Z.setdefault(mode, [])
    for k in range(len(Z) + 1, order):
        z = MatrixSum(mode, dims, dims)
        for j, a_j in anti:
            z.add_product(a_j, W[k + j])
        density = z.matrix()
        if not density.is_diagonal():
            raise RuntimeError(f"Z^({k}) density is not diagonal")
        Z[k - 1:k] = [density]
    return RiccatiSolution(mode, order, [W[k] for k in range(1, order + 1)],
                           Z[:order - 1], vd.coefficient(lead))


def _riccati_form(w: LaurentSeries, vd_l, vd_r, va_q, va) -> LaurentSeries:
    """dW/dt + W VD_r - VD_l W + W VA_q W - VA, the operators truncated like W.

    The full system passes (VD, VD, VA, VA); its anti-diagonal block (i, j)
    passes (VD_ii, VD_jj, VA_ji, VA_ij).  A sum is reliable down to the
    highest of its terms' limits, and nothing below that is built.  For W
    truncated at t, the lam^2 Sigma/2 of V_D puts the V_D terms' limit at
    -(t - 2), so the t-derivative and the W VA_q W convolution stop there
    instead of at -t.
    """
    t = w.truncation
    vd_l, vd_r, va_q, va = (s.truncated(t) for s in (vd_l, vd_r, va_q, va))
    w_vd, vd_w = w * vd_r, vd_l * w
    floor = max(w_vd.lowest_reliable, vd_w.lowest_reliable)
    return (w.truncated(-floor).differentiate_t() + w_vd - vd_w
            + w._times(va_q, floor)._times(w, floor) - va)


def riccati_residual(sol: RiccatiSolution) -> LaurentSeries:
    """dW/dt + [W, V_D] + W V_A W - V_A with the truncated series W."""
    VD, VA = _v_split(sol.mode)
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

    Gamma^(k) is W^(k)_21 of ``solve_w_z(order, "matrix")``, solved by its own
    recursion; Gamma-hat^(k) is W^(k)_12, its end swap (-1)^k iota(Gamma^(k)).
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
    r, c = block_dims("matrix")[i], block_dims("matrix")[j]
    gser = LaurentSeries("matrix", (r,), (c,),
                         {-k: PolyMatrix("matrix", (r,), (c,), [[g]])
                          for k, g in enumerate(sol.coeffs, 1)}, sol.order)
    VD, VA = _v_split("matrix")
    return _riccati_form(gser, VD.block(i, i), VD.block(j, j), VA.block(j, i), VA.block(i, j))
