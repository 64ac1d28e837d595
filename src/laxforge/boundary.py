"""Reflection-equation checks, Poisson structures, and time-like boundaries.

Everything here is exact: the spectral parameters and boundary constants live
in one ring of Laurent polynomials over Q(i) (the constants xi enter
polynomially, ka only through powers of 1/ka), the reflection and Poisson
checks are polynomial identities with their (lam -+ mu) denominators cleared,
and boundary charge terms are extracted from the reflected double-row
generating function.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .atoms import atom
from .coeff import GaussianRational, gr
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .ratfunc import MPoly, MPolyMatrix
from .riccati import omega_matrix, solve_w_z
from .series import LaurentSeries, series_invert, series_log

RVARS = ("lam", "mu", "xi", "ka")          # reflection-equation working variables
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
    k2 = eye.kron(k.subs_var("lam", "mu"))
    k12 = k1 * k2
    return ((p * k12 - k12 * p).scale(lam + mu)
            + (k1 * p * k2 - k2 * p * k1).scale(lam - mu))


# ---------------------------------------------------------------------------
# linear Poisson structure checks
# ---------------------------------------------------------------------------

class BiPoly:
    """Polynomial in (lam, mu) with scalar-mode NCPolynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], NCPolynomial] = {}
        for e, p in (terms or {}).items():
            if not p.is_zero:
                self.terms[e] = p

    @staticmethod
    def of(p: NCPolynomial, lam_pow=0, mu_pow=0) -> "BiPoly":
        return BiPoly({(lam_pow, mu_pow): p})

    def __add__(self, other):
        t = dict(self.terms)
        for e, p in other.terms.items():
            s = t[e] + p if e in t else p
            if s.is_zero:
                t.pop(e, None)
            else:
                t[e] = s
        return BiPoly(t)

    def __neg__(self):
        return BiPoly({e: -p for e, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out = BiPoly()
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                prod = p1 * p2
                cur = out.terms.get(e)
                s = prod if cur is None else cur + prod
                if s.is_zero:
                    out.terms.pop(e, None)
                else:
                    out.terms[e] = s
        return out

    @property
    def is_zero(self):
        return not self.terms

    def swap_lam_mu(self) -> "BiPoly":
        return BiPoly({(b, a): p for (a, b), p in self.terms.items()})

    def lam_degree(self) -> int:
        return max((a for a, _ in self.terms), default=-1)

    def divide_by_lam_minus_mu(self) -> "BiPoly":
        """Exact quotient by (lam - mu); raises if the remainder is nonzero."""
        rem = BiPoly(dict(self.terms))
        quo = BiPoly()
        while True:
            deg = rem.lam_degree()
            if deg < 1:
                break
            tops = {e: p for e, p in rem.terms.items() if e[0] == deg}
            for (a, b), p in tops.items():
                quo = quo + BiPoly.of(p, a - 1, b)
                rem = rem - BiPoly.of(p, a, b) + BiPoly.of(p, a - 1, b + 1)
        if not rem.is_zero:
            raise ArithmeticError(f"not divisible by (lam - mu); remainder {rem}")
        return quo

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"lam^{a}*mu^{b}*({p})"
                          for (a, b), p in sorted(self.terms.items()))

    __repr__ = __str__


def _scalar_field(base):
    return NCPolynomial.from_atom(atom(base, mode="scalar"), "scalar")


def _time_lax_entries() -> list[list[BiPoly]]:
    """Entries of the time Lax operator as lam-polynomials (scalar fields)."""
    u, uh, pi, pih = map(_scalar_field, ("u", "uh", "pi", "pih"))
    half = NCPolynomial.unit("scalar", "1", gr(Fraction(1, 2)))
    return [
        [BiPoly.of(half, 2) + BiPoly.of(-(u * uh)), BiPoly.of(uh, 1) + BiPoly.of(pi)],
        [BiPoly.of(u, 1) + BiPoly.of(-pih), BiPoly.of(-half, 2) + BiPoly.of(u * uh)],
    ]


def _space_lax_entries() -> list[list[BiPoly]]:
    u, uh = map(_scalar_field, ("u", "uh"))
    half = NCPolynomial.unit("scalar", "1", gr(Fraction(1, 2)))
    return [
        [BiPoly.of(half, 1), BiPoly.of(uh)],
        [BiPoly.of(u), BiPoly.of(-half, 1)],
    ]


_BRACKETS = {
    "V": {("u", "pi"): 1, ("pi", "u"): -1, ("uh", "pih"): 1, ("pih", "uh"): -1},
    "U": {("u", "uh"): 1, ("uh", "u"): -1},
}


@dataclass
class PoissonReport:
    which: str
    bracket: list[list[BiPoly]]
    rhs: list[list[BiPoly]]
    residual: list[list[BiPoly]]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.residual for e in row)

    def offending(self):
        return [(i, j) for i, row in enumerate(self.residual)
                for j, e in enumerate(row) if not e.is_zero]


def poisson_residual(which: str = "V") -> PoissonReport:
    """Delta-coefficient of the ultralocal bracket minus [r, L1 + L2].

    The commutator [P, L1 + L2] is proved divisible by (lam - mu) by exact
    polynomial division; the quotient is compared entrywise to the bracket
    matrix built from the field table.
    """
    if which not in _BRACKETS:
        raise ValueError("which must be 'V' or 'U'")
    L = _time_lax_entries() if which == "V" else _space_lax_entries()
    Lmu = [[e.swap_lam_mu() for e in row] for row in L]  # entries are lam-only
    table = _BRACKETS[which]
    fields = sorted({f for pair in table for f in pair})
    atom_of = {f: atom(f, mode="scalar") for f in fields}

    def bracket(plam: BiPoly, pmu: BiPoly) -> BiPoly:
        out = BiPoly()
        for (f, g), sign in table.items():
            for e1, c1 in plam.terms.items():
                d1 = c1.partial(atom_of[f])
                if d1.is_zero:
                    continue
                for e2, c2 in pmu.terms.items():
                    d2 = c2.partial(atom_of[g])
                    if d2.is_zero:
                        continue
                    prod = (d1 * d2).scale(gr(sign))
                    out = out + BiPoly({(e1[0] + e2[0], e1[1] + e2[1]): prod})
        return out

    B = [[bracket(L[i // 2][j // 2], Lmu[i % 2][j % 2]) for j in range(4)]
         for i in range(4)]
    # [P, L1 + L2] entrywise: P M has rows swapped in the second index pair
    S = [[L[i // 2][j // 2] if (i % 2) == (j % 2) else BiPoly()
          for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if (i // 2) == (j // 2):
                S[i][j] = S[i][j] + Lmu[i % 2][j % 2]
    PM = [[S[(i % 2) * 2 + (i // 2)][j] for j in range(4)] for i in range(4)]
    MP = [[S[i][(j % 2) * 2 + (j // 2)] for j in range(4)] for i in range(4)]
    comm = [[PM[i][j] - MP[i][j] for j in range(4)] for i in range(4)]
    rhs = [[comm[i][j].divide_by_lam_minus_mu() for j in range(4)] for i in range(4)]
    residual = [[B[i][j] - rhs[i][j] for j in range(4)] for i in range(4)]
    return PoissonReport(which, B, rhs, residual)


def poisson_antisymmetry_defect(which: str = "V") -> list[list[BiPoly]]:
    """B[(ik),(jl)](lam,mu) + B[(ki),(lj)](mu,lam); all-zero by antisymmetry."""
    rep = poisson_residual(which)
    B = rep.bracket
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            iswap = (i % 2) * 2 + (i // 2)
            jswap = (j % 2) * 2 + (j // 2)
            row.append(B[i][j] + B[iswap][jswap].swap_lam_mu())
        out.append(row)
    return out


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


from .hierarchy import LaxOperator  # noqa: E402  (no cycle: hierarchy never imports boundary)


def bulk_u2() -> LaxOperator:
    """The second-flow bulk operator in the half-normalized convention."""
    half = _bconst(gr(Fraction(1, 2)))
    z = NCPolynomial.zero("scalar", ("1", "1"))
    lam1 = _two_by_two(_bpoly_const(gr(Fraction(1, 2))), z, z,
                       _bpoly_const(gr(Fraction(-1, 2))))
    lam0 = _two_by_two(z, _bfield("uh"), _bfield("u"), z)
    series = LaurentSeries.of(lam1, 1) + LaurentSeries.of(lam0, 0)
    return LaxOperator(series, flow=2, kind="U_bulk", mode="scalar")


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
    entries = []
    for p in sorted(delta.coeffs, reverse=True):
        m = delta.coefficient(p)
        for row in m.entries:
            for e in row:
                if not e.is_zero:
                    entries.append((p, e))
    equations: list[tuple[str, NCPolynomial]] = []
    while True:
        entries = [(p, e) for p, e in entries if not e.is_zero]
        pick = None
        for p, e in entries:
            if p != 0:
                continue
            for w, c in e.sorted_terms():
                if len(w) != 1 or w.atoms[0].dt or w.atoms[0].dx:
                    continue
                a = w.atoms[0]
                others = e - NCPolynomial("scalar", ("1", "1"), {w: c})
                if a.base not in {x.base for ww in others.terms for x in ww}:
                    value = others.scale(-(_bconst(1) / c))
                    pick = (a, value)
                    break
            if pick:
                break
        if pick is None:
            break
        equations.append((pick[0].base, pick[1]))
        entries = [(p, e.substitute([pick])) for p, e in entries]
    flags = []
    for p, e in entries:
        if e.is_zero:
            continue
        if p != 0:
            flags.append(f"lam^{p} coefficient {e} (negligible only for large constants)")
        else:
            raise ValueError(f"inconsistent boundary system: residual entry {e}")
    # chain solved values into each other until stable
    for _ in range(len(equations) + 1):
        rules = {b: v for b, v in equations}
        new = [(b, v.substitute([(atom(o, mode="scalar"), ov)
                                 for o, ov in rules.items() if o != b]))
               for b, v in equations]
        if new == equations:
            break
        equations = new
    equations.sort(key=lambda kv: kv[0])
    residual_after = delta.substitute([(atom(b, mode="scalar"), v) for b, v in equations])
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


def _entry_series(series: LaurentSeries, i: int, j: int) -> LaurentSeries:
    coeffs = {p: PolyMatrix("scalar", ("1",), ("1",), [[m.entries[i][j]]])
              for p, m in series.coeffs.items() if not m.entries[i][j].is_zero}
    return LaurentSeries("scalar", ("1",), ("1",), coeffs, series.truncation)


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
        from .hierarchy import ChargeDensity
        return ChargeDensity("H", 2, self.bulk_density,
                             boundary_terms=(self.plus_term, self.minus_term))


def open_charge_expansion(params: BoundaryParams | None = None,
                          order: int = 4) -> OpenChargeExpansion:
    """Expand the two boundary generators and the bulk part of the open chain.

    Builds the plus-end generator ((1 + What^t) Omega K+ (1 + W))_11 and the
    minus-end generator ((1 + W)^-1 K- Omega ((1 + What)^-1)^t)_11 at the
    respective boundary points, takes series logs, halves, and returns the
    lam^-2 coefficients with field-independent constants stripped.
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

    a_fac = _transpose_series(one_plus_what) * (omega * _k_series("+").truncated(order)) \
        * one_plus_w
    w_plus = _entry_series(a_fac, 0, 0)
    log_plus, prefix_plus = series_log(w_plus)

    inv_w = series_invert(one_plus_w)
    inv_what = series_invert(one_plus_what)
    b_fac = inv_w * (_k_series("-").truncated(order) * omega) * _transpose_series(inv_what)
    w_minus = _entry_series(b_fac, 0, 0)
    log_minus, prefix_minus = series_log(w_minus)

    half = gr(Fraction(1, 2))
    plus_term = log_plus.coefficient(-2).entries[0][0].scale(half).strip_constant()
    minus_term = log_minus.coefficient(-2).entries[0][0].scale(half).strip_constant()

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
