"""Reflection-equation checks, Poisson structures, and time-like boundaries.

Everything here is exact: the spectral parameters and boundary constants live
in one ring of Laurent polynomials over Q(i) (the constants xi enter
polynomially, ka only through powers of 1/ka), and boundary charge terms are
extracted from the reflected double-row generating function.  The reflection
and Poisson checks are polynomial identities in that ring with their
(lam -+ mu) denominators cleared; each returns its residual matrix.  The
Poisson check reads its Lax operators from the engine (``nls_v`` and
``dress_u(2)``); the only operators typed here are K and the two boundary
operators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .atoms import atom
from .coeff import GaussianRational, collect, gr
from .hierarchy import ChargeDensity, LaxOperator, dress_u
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial, eliminate, sole_word
from .ratfunc import MPoly, MPolyMatrix
from .riccati import nls_v, omega_matrix, solve_w_z
from .series import LaurentSeries, series_invert, series_log

RVARS = ("lam", "mu", "xi", "ka")          # reflection-equation working variables
PVARS = ("lam", "mu", "u", "uh", "pi", "pih")  # Poisson check: scalar fields commute
BVARS = ("xi_p", "xi_m", "ka_p", "ka_m")   # boundary constants for charge work

_I = gr(0, 1)


class BoundaryParamError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryParams:
    """Boundary constants; None leaves a constant fully symbolic."""
    xi_p: Fraction | None = None
    xi_m: Fraction | None = None
    ka_p: Fraction | None = None
    ka_m: Fraction | None = None

    def check_kappa(self):
        if self.ka_p == 0 or self.ka_m == 0:
            raise BoundaryParamError("kappa constants must be nonzero")

    def values(self) -> dict[str, Fraction]:
        out = {}
        for name in BVARS:
            v = getattr(self, name)
            if v is not None:
                out[name] = Fraction(v)
        return out


# ---------------------------------------------------------------------------
# reflection equation
# ---------------------------------------------------------------------------

def permutation_matrix(vars=RVARS) -> MPolyMatrix:
    """The flip P of C^2 (x) C^2: row 2i + j has its 1 in column 2j + i."""
    one, zero = MPoly.constant(vars, 1), MPoly(vars)
    return MPolyMatrix(vars, [[one if c == (r % 2) * 2 + r // 2 else zero
                               for c in range(4)] for r in range(4)])


def k_matrix() -> MPolyMatrix:
    """Two-parameter boundary matrix [[lam + i xi, i ka lam], [i ka lam, -lam + i xi]]."""
    lam, xi, ka = (MPoly.variable(RVARS, v) for v in ("lam", "xi", "ka"))
    return MPolyMatrix(RVARS, [
        [lam + _I * xi, _I * ka * lam],
        [_I * ka * lam, -lam + _I * xi],
    ])


def reflection_residual(k: MPolyMatrix) -> MPolyMatrix:
    """(lam^2 - mu^2) times the reflection-equation residual for r(z) = P/z.

    The residual [r(l-m), K1(l) K2(m)] + K1(l) r(l+m) K2(m) - K2(m) r(l+m) K1(l)
    times (lam - mu)(lam + mu) is the polynomial
    (lam + mu) [P, K1 K2] + (lam - mu) (K1 P K2 - K2 P K1),
    so the check is an exact identity with no division.  The argument is
    K(lam); K(mu) is obtained by renaming the spectral variable.  A c-number
    solution of the reflection equation makes this vanish identically.
    """
    if k.shape != (2, 2):
        raise ValueError("K must be 2x2")
    vars = k.vars
    lam = MPoly.variable(vars, "lam")
    mu = MPoly.variable(vars, "mu")
    eye = MPolyMatrix.identity(vars, 2)
    p = permutation_matrix(vars)
    k1 = k.kron(eye)
    k2 = eye.kron(k.rename({"lam": "mu"}))
    k12 = k1 * k2
    return ((p * k12 - k12 * p).scale(lam + mu)
            + (k1 * p * k2 - k2 * p * k1).scale(lam - mu))


# ---------------------------------------------------------------------------
# linear Poisson structure checks
# ---------------------------------------------------------------------------

_BRACKETS = {
    "V": {("u", "pi"): 1, ("pi", "u"): -1, ("uh", "pih"): 1, ("pih", "uh"): -1},
    "U": {("u", "uh"): 1, ("uh", "u"): -1},
}


def _lax_matrix(series: LaurentSeries) -> MPolyMatrix:
    """A 2x2 lam-polynomial Lax operator in underived scalar fields, over PVARS."""
    if series.mode != "scalar" or series.row_dims != ("1", "1") or series.truncation:
        raise ValueError("expected an exact 2x2 scalar-mode Lax operator")

    def exponent(power, word):
        e = [power] + [0] * (len(PVARS) - 1)
        for a in word:
            if a.dt or a.dx or a.base not in PVARS[2:]:
                raise ValueError(f"{a} is not an underived field of {PVARS[2:]}")
            e[PVARS.index(a.base)] += 1
        return tuple(e)
    return MPolyMatrix(PVARS, [[MPoly(PVARS, collect(
        (exponent(p, w), c) for p, m in series.coeffs.items()
        for w, c in m.entries[i][j].terms.items())) for j in range(2)] for i in range(2)])


def _poisson_sides(which: str):
    """L(lam), L(mu) and the bracket matrix B = sum sign * d_f L (x) d_g L(mu)."""
    if which not in _BRACKETS:
        raise ValueError("which must be 'V' or 'U'")
    lax = _lax_matrix(nls_v("scalar") if which == "V" else dress_u(2, "scalar").series)
    lax_mu = lax.rename({"lam": "mu"})
    terms = [lax.map(lambda a: a.partial(f)).kron(lax_mu.map(lambda a: a.partial(g)))
             .scale(sign) for (f, g), sign in _BRACKETS[which].items()]
    return lax, lax_mu, sum(terms[1:], terms[0])


def poisson_residual(which: str = "V") -> MPolyMatrix:
    """(lam - mu) B - [P, L(lam) (x) 1 + 1 (x) L(mu)] for r(z) = P/z.

    B holds the delta-coefficients of the ultralocal brackets {L (x), L(mu)}
    read off the field table ``_BRACKETS``; L is the engine's own time (V) or
    x_2-flow (U) Lax operator.  The linear Poisson structure
    B = [r(lam - mu), L (x) 1 + 1 (x) L(mu)] holds exactly when this
    polynomial identity does, with no division.
    """
    lax, lax_mu, bracket = _poisson_sides(which)
    vars_, eye = lax.vars, MPolyMatrix.identity(lax.vars, 2)
    p = permutation_matrix(vars_)
    s = lax.kron(eye) + eye.kron(lax_mu)
    lam_minus_mu = MPoly.variable(vars_, "lam") - MPoly.variable(vars_, "mu")
    return bracket.scale(lam_minus_mu) - (p * s - s * p)


def poisson_antisymmetry_defect(which: str = "V") -> MPolyMatrix:
    """B(lam, mu) + P B(mu, lam) P; zero by antisymmetry of the bracket."""
    bracket = _poisson_sides(which)[2]
    p = permutation_matrix(bracket.vars)
    return bracket + p * bracket.rename({"lam": "mu", "mu": "lam"}) * p


# ---------------------------------------------------------------------------
# boundary Lax operators and boundary conditions
# ---------------------------------------------------------------------------

def _bconst(c) -> MPoly:
    return c if isinstance(c, MPoly) else MPoly.constant(BVARS, c)


def _bvar(name) -> MPoly:
    return MPoly.variable(BVARS, name)


def _bpoly_const(c) -> NCPolynomial:
    return NCPolynomial.unit("scalar", "1", _bconst(c))


def _bfield(base, coeff=None) -> NCPolynomial:
    p = NCPolynomial.from_atom(atom(base, mode="scalar"), "scalar")
    return p.map_coeff(lambda c: _bconst(c) * (coeff if coeff is not None else _bconst(1)))


def promote_poly(p: NCPolynomial) -> NCPolynomial:
    """Lift Gaussian-rational coefficients into the boundary-constant ring."""
    return p.map_coeff(lambda c: _bconst(c))


def promote_matrix(m: PolyMatrix) -> PolyMatrix:
    return m.map_entries(promote_poly)


def promote_series(s: LaurentSeries) -> LaurentSeries:
    return s.map_coefficients(promote_matrix)


def _two_by_two(e11, e12, e21, e22) -> PolyMatrix:
    return PolyMatrix("scalar", ("1", "1"), ("1", "1"), [[e11, e12], [e21, e22]])


def bulk_u2() -> LaxOperator:
    """The second-flow bulk operator in the half-normalized convention."""
    return LaxOperator(promote_series(dress_u(2, "scalar").series), flow=2,
                       kind="U_bulk", mode="scalar")


def boundary_u(side: str, params: BoundaryParams | None = None) -> LaxOperator:
    """Boundary operator at t = +tau or t = -tau (parametric constructor)."""
    params = params or BoundaryParams()
    params.check_kappa()
    z = NCPolynomial.zero("scalar", ("1", "1"))
    half = gr(Fraction(1, 2))
    if side == "+":
        ka, xi, fld = _bvar("ka_p"), _bvar("xi_p"), "u"
    elif side == "-":
        ka, xi, fld = _bvar("ka_m"), _bvar("xi_m"), "uh"
    else:
        raise ValueError("side must be '+' or '-'")
    i_over_ka = _bconst(_I) / ka
    diag_field = _bfield(fld, i_over_ka)
    corner = _bfield(fld) + _bpoly_const(xi / ka)
    lam1_corner = _bpoly_const(i_over_ka)
    if side == "+":
        lam1 = _two_by_two(_bpoly_const(half), lam1_corner, z, _bpoly_const(-half))
        lam0 = _two_by_two(-diag_field, corner, _bfield("u"), diag_field)
    else:
        lam1 = _two_by_two(_bpoly_const(half), z, lam1_corner, _bpoly_const(-half))
        lam0 = _two_by_two(-diag_field, _bfield("uh"), corner, diag_field)
    series = LaurentSeries.of(lam1, 1) + LaurentSeries.of(lam0, 0)
    return LaxOperator(series, flow=2, kind="U_bulk", mode="scalar")


@dataclass
class BoundaryConditions:
    side: str
    equations: list[tuple[str, NCPolynomial]]     # (field base, boundary value)
    flags: list[str] = field(default_factory=list)  # lam-terms valid only for large constants
    residual_after: LaurentSeries | None = None

    def as_dict(self):
        return {f: str(v) for f, v in self.equations}


def extract_boundary_conditions(bulk: LaxOperator, bdry: LaxOperator,
                                side: str = "+") -> BoundaryConditions:
    """Solve delta U = 0 entrywise; lam-dependent leftovers become flags."""
    delta = bdry.series - bulk.series

    def lone_field(e: NCPolynomial):
        """An underived field alone in its word and absent from the other words."""
        for w, _ in e.sorted_terms():
            if len(w) == 1 and not (w.atoms[0].dt or w.atoms[0].dx) and \
                    sole_word(e, lambda a: a.base == w.atoms[0].base) == w:
                return w
        return None

    found, left = eliminate(
        [e for row in delta.coefficient(0).entries for e in row], lone_field)
    if left:
        raise ValueError(f"inconsistent boundary system: residual entry {left[0]}")
    equations = sorted(((pat[0].base, v.substitute(found)) for pat, v in found),
                       key=lambda kv: kv[0])
    residual_after = delta.substitute(found)
    flags = [f"lam^{p} coefficient {e} (negligible only for large constants)"
             for p in residual_after.coeffs
             for row in residual_after.coefficient(p).entries for e in row if e]
    return BoundaryConditions(side, equations, sorted(flags), residual_after)


# ---------------------------------------------------------------------------
# open-chain charge expansion
# ---------------------------------------------------------------------------

def _k_series(side: str) -> LaurentSeries:
    """K matrix as a lam-linear series with boundary-constant coefficients."""
    xi, ka = (_bvar("xi_p"), _bvar("ka_p")) if side == "+" else (_bvar("xi_m"), _bvar("ka_m"))
    i = _bconst(_I)
    z = NCPolynomial.zero("scalar", ("1", "1"))
    lam1 = _two_by_two(_bpoly_const(1), _bpoly_const(i * ka),
                       _bpoly_const(i * ka), _bpoly_const(-1))
    lam0 = _two_by_two(_bpoly_const(i * xi), z, z, _bpoly_const(i * xi))
    return LaurentSeries.of(lam1, 1) + LaurentSeries.of(lam0, 0)


def _hat(series: LaurentSeries) -> LaurentSeries:
    """lam -> -lam on a Laurent series."""
    return LaurentSeries(series.mode, series.row_dims, series.col_dims,
                         {p: m if p % 2 == 0 else m.scale(gr(-1))
                          for p, m in series.coeffs.items()}, series.truncation)


def _transpose_series(series: LaurentSeries) -> LaurentSeries:
    return series.map_coefficients(lambda m: m.transpose())


@dataclass
class OpenChargeExpansion:
    order: int
    bulk_density: NCPolynomial
    plus_term: NCPolynomial
    minus_term: NCPolynomial
    plus_prefix: tuple
    minus_prefix: tuple
    generator_plus: LaurentSeries
    generator_minus: LaurentSeries

    def charge_density(self):
        """The order-2 open-chain charge with its boundary terms attached."""
        return ChargeDensity("H", 2, self.bulk_density,
                             boundary_terms=(self.plus_term, self.minus_term))


def open_charge_expansion(params: BoundaryParams | None = None,
                          order: int = 4) -> OpenChargeExpansion:
    """Expand the two boundary generators and the bulk part of the open chain.

    Builds the plus-end generator ((1 + What^t) Omega K+ (1 + W))_11 and the
    minus-end generator ((1 + W)^-1 K- Omega ((1 + What)^-1)^t)_11 at the
    respective boundary points, takes series logs, halves, and returns the
    lam^-2 coefficients with field-independent constants stripped.  Only
    lam^-2 of each log is read, so each generator is logged cut at lam^-2.
    """
    if order < 3:
        raise ValueError("order must be >= 3: the lam^-2 bulk term is Z^(2), which "
                         "the Riccati solve reaches only at order >= 3")
    params = params or BoundaryParams()
    params.check_kappa()
    sol = solve_w_z(order, "scalar")
    one_plus_w = promote_series(sol.one_plus_w())
    one_plus_what = _hat(one_plus_w)
    omega = LaurentSeries.of(promote_matrix(omega_matrix("scalar"))).truncated(order)

    read = 2  # the power of each log that is read: the lam^-2 charge
    a_fac = _transpose_series(one_plus_what) * (omega * _k_series("+").truncated(order)) \
        * one_plus_w
    w_plus = a_fac.block(0, 0)
    log_plus, prefix_plus = series_log(w_plus.truncated(read))

    inv_w = series_invert(one_plus_w)   # lam -> -lam is a ring automorphism:
    inv_what = _hat(inv_w)               # (1 + What)^-1 is the hat of (1 + W)^-1
    b_fac = inv_w * (_k_series("-").truncated(order) * omega) * _transpose_series(inv_what)
    w_minus = b_fac.block(0, 0)
    log_minus, prefix_minus = series_log(w_minus.truncated(read))

    half = gr(Fraction(1, 2))
    plus_term = log_plus.coefficient(-read).entries[0][0].scale(half).strip_constant()
    minus_term = log_minus.coefficient(-read).entries[0][0].scale(half).strip_constant()

    # bulk part: (Z11 + Z11-hat)/2 at lam^-2 equals the closed-chain density
    z11 = sol.z(2).entries[0][0]
    bulk = promote_poly(z11)  # hat contributes the same sign at even order

    pv = params.values()
    if pv:
        sub = {k: GaussianRational.of(v) for k, v in pv.items()}
        plus_term = plus_term.map_coeff(lambda c: c.subs_values(sub))
        minus_term = minus_term.map_coeff(lambda c: c.subs_values(sub))
    return OpenChargeExpansion(order, bulk, plus_term, minus_term,
                               prefix_plus, prefix_minus, w_plus, w_minus)
