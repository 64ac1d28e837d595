"""Reflection-equation checks, Poisson structures, and time-like boundaries.

Everything here is exact: the spectral parameters and boundary constants live
in one ring of Laurent polynomials over Q(i) (the constants xi enter
polynomially, ka only through powers of 1/ka), and boundary charge terms are
extracted from the reflected double-row generating function.  The reflection
and Poisson checks are polynomial identities with their (lam -+ mu)
denominators cleared; each returns its residual as a scalar-mode PolyMatrix
whose coefficients lie in that ring and whose words hold the fields, so d_f L
is ``NCPolynomial.partial`` on a field atom.  The Poisson check reads its Lax
operators from the engine (``nls_v`` and ``dress_u(2)``); the only operators
typed here are K and the two boundary operators.

A polynomial may hold Gaussian-rational and MPoly coefficients at once (see
``ratfunc``), so the engine's ``1 + W``, ``Omega`` and ``dress_u(2)`` enter
as they are; a reflected product's transposed hat factor is the end swap
iota (``ncpoly.end_swap``) of ``1 + W`` or its inverse.  K's entries are typed
once (``_k_blocks``) and read by one route, ``LaurentSeries.from_rows``:
``k_matrix`` sets lam in that series (``_at_lam``, as the Poisson check does
for its Lax operators) and ``_k_series`` keeps it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .atoms import FIELD_BASES, atom
from .coeff import I, ONE, GaussianRational, gr
from .hierarchy import LaxOperator, dress_u
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial, eliminate, end_swap, sole_word
from .ratfunc import MPoly
from .riccati import _f, nls_v, omega_matrix, solve_w_z
from .series import LaurentSeries, series_invert, series_log

RVARS = ("lam", "mu", "xi", "ka")          # spectral variables and K's constants
BVARS = ("xi_p", "xi_m", "ka_p", "ka_m")   # boundary constants for charge work


class BoundaryParamError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryParams:
    """Boundary constants, each an int or Fraction; None leaves one fully symbolic.
    A zero ka, which enters through 1/ka, is refused on construction."""
    xi_p: Fraction | None = None
    xi_m: Fraction | None = None
    ka_p: Fraction | None = None
    ka_m: Fraction | None = None

    def __post_init__(self):
        for name in BVARS:
            if not isinstance(v := getattr(self, name), (int, Fraction, type(None))):
                raise TypeError(f"{name} must be an int or Fraction, not {type(v).__name__}")
        if self.ka_p == 0 or self.ka_m == 0:
            raise BoundaryParamError("kappa constants must be nonzero")

    def values(self) -> dict[str, GaussianRational]:
        """The constants that are given, by their names in BVARS."""
        return {name: gr(v) for name in BVARS
                if (v := getattr(self, name)) is not None}


# ---------------------------------------------------------------------------
# reflection equation
# ---------------------------------------------------------------------------

def permutation_matrix() -> PolyMatrix:
    """The flip P of C^2 (x) C^2: row 2i + j has its 1 in column 2j + i."""
    return PolyMatrix.from_rows("scalar", [[int(c == (r % 2) * 2 + r // 2) for c in range(4)]
                                           for r in range(4)])


def _k_blocks(xi, ka) -> dict:
    """K(lam) = [[lam + i xi, i ka lam], [i ka lam, -lam + i xi]] by power of lam.

    The one place K's entries are typed, over whichever ring xi and ka are from.
    """
    return {1: [[ONE, I * ka], [I * ka, -ONE]], 0: [[I * xi, 0], [0, I * xi]]}


def _at_lam(series: LaurentSeries) -> PolyMatrix:
    """The matrix sum_p m_p lam^p of an exact scalar-mode series, lam an MPoly over RVARS."""
    terms = [m.scale(MPoly(RVARS, {tuple(p if v == "lam" else 0 for v in RVARS): ONE}))
             for p, m in series.coeffs.items()]
    return sum(terms[1:], terms[0])


def _rename(m: PolyMatrix, mapping: dict[str, str]) -> PolyMatrix:
    """``MPoly.rename`` on every coefficient of m; a Gaussian rational stays."""
    return m.map_entries(lambda e: e.map_coeff(
        lambda c: c.rename(mapping) if isinstance(c, MPoly) else c))


def k_matrix() -> PolyMatrix:
    """The two-parameter boundary matrix K(lam) over RVARS."""
    xi, ka = (MPoly.variable(RVARS, v) for v in ("xi", "ka"))
    return _at_lam(LaurentSeries.from_rows("scalar", _k_blocks(xi, ka)))


def reflection_residual(k: PolyMatrix) -> PolyMatrix:
    """(lam^2 - mu^2) times the reflection-equation residual for r(z) = P/z.

    The residual [r(l-m), K1(l) K2(m)] + K1(l) r(l+m) K2(m) - K2(m) r(l+m) K1(l)
    times (lam - mu)(lam + mu) is the polynomial
    (lam + mu) [P, K1 K2] + (lam - mu) (K1 P K2 - K2 P K1),
    so the check is an exact identity with no division.  The argument is
    K(lam), a 2x2 scalar-mode matrix with coefficients over RVARS; K(mu) is
    obtained by renaming the spectral variable.  A c-number solution of the
    reflection equation makes this vanish identically.
    """
    if k.mode != "scalar" or k.row_dims != ("1", "1") or k.col_dims != ("1", "1"):
        raise ValueError("K must be a 2x2 scalar-mode matrix")
    lam, mu = (MPoly.variable(RVARS, v) for v in ("lam", "mu"))
    eye = PolyMatrix.identity("scalar", ("1", "1"))
    p = permutation_matrix()
    k1 = k.kron(eye)
    k2 = eye.kron(_rename(k, {"lam": "mu"}))
    k12 = k1 * k2
    return (p.commutator(k12).scale(lam + mu)
            + (k1 * p * k2 - k2 * p * k1).scale(lam - mu))


# ---------------------------------------------------------------------------
# linear Poisson structure checks
# ---------------------------------------------------------------------------

_BRACKETS = {
    "V": {("u", "pi"): 1, ("pi", "u"): -1, ("uh", "pih"): 1, ("pih", "uh"): -1},
    "U": {("u", "uh"): 1, ("uh", "u"): -1},
}


def _lax_matrix(series: LaurentSeries) -> PolyMatrix:
    """A 2x2 lam-polynomial Lax operator in underived scalar fields, over RVARS."""
    if series.mode != "scalar" or series.row_dims != ("1", "1") or series.truncation:
        raise ValueError("expected an exact 2x2 scalar-mode Lax operator")
    stray = [a for m in series.coeffs.values() for row in m.entries for e in row
             for a in e.atoms_set() if a.dt or a.dx or a.base not in FIELD_BASES]
    if stray:
        raise ValueError(f"{stray[0]} is not an underived field of {FIELD_BASES}")
    return _at_lam(series)


def _poisson_sides(which: str):
    """L(lam), L(mu) and the bracket matrix B = sum sign * d_f L (x) d_g L(mu)."""
    if which not in _BRACKETS:
        raise ValueError("which must be 'V' or 'U'")
    lax = _lax_matrix(nls_v("scalar") if which == "V" else dress_u(2, "scalar").series)
    lax_mu = _rename(lax, {"lam": "mu"})

    def grad(m, base):
        field = atom(base, mode="scalar")
        return m.map_entries(lambda e: e.partial(field))
    terms = [grad(lax, f).kron(grad(lax_mu, g)).scale(sign)
             for (f, g), sign in _BRACKETS[which].items()]
    return lax, lax_mu, sum(terms[1:], terms[0])


def poisson_residual(which: str = "V") -> PolyMatrix:
    """(lam - mu) B - [P, L(lam) (x) 1 + 1 (x) L(mu)] for r(z) = P/z.

    B holds the delta-coefficients of the ultralocal brackets {L (x), L(mu)}
    read off the field table ``_BRACKETS``; L is the engine's own time (V) or
    x_2-flow (U) Lax operator.  The linear Poisson structure
    B = [r(lam - mu), L (x) 1 + 1 (x) L(mu)] holds exactly when this
    polynomial identity does, with no division.
    """
    lax, lax_mu, bracket = _poisson_sides(which)
    eye = PolyMatrix.identity("scalar", ("1", "1"))
    s = lax.kron(eye) + eye.kron(lax_mu)
    lam_minus_mu = MPoly.variable(RVARS, "lam") - MPoly.variable(RVARS, "mu")
    return bracket.scale(lam_minus_mu) - permutation_matrix().commutator(s)


def poisson_antisymmetry_defect(which: str = "V") -> PolyMatrix:
    """B(lam, mu) + P B(mu, lam) P; zero by antisymmetry of the bracket."""
    bracket = _poisson_sides(which)[2]
    p = permutation_matrix()
    return bracket + p * _rename(bracket, {"lam": "mu", "mu": "lam"}) * p


# ---------------------------------------------------------------------------
# boundary Lax operators and boundary conditions
# ---------------------------------------------------------------------------

def _end_constants(side: str) -> tuple[MPoly, MPoly]:
    """(xi, ka) of the end at t = +tau (side "+") or t = -tau ("-"), over BVARS."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    end = "p" if side == "+" else "m"
    return MPoly.variable(BVARS, f"xi_{end}"), MPoly.variable(BVARS, f"ka_{end}")


def bulk_u2() -> LaxOperator:
    """The second-flow bulk operator in the half-normalized convention."""
    return dress_u(2, "scalar")


def boundary_u(side: str, params: BoundaryParams | None = None) -> LaxOperator:
    """Boundary operator at t = +tau or -tau, with the constants ``params`` gives."""
    params = params or BoundaryParams()
    half = gr(Fraction(1, 2))
    values = params.values()
    xi, ka = (c.subs_values(values) for c in _end_constants(side))
    fld = "u" if side == "+" else "uh"
    i_over_ka = I / ka
    diag_field = _f(fld, "scalar", i_over_ka)
    corner = _f(fld, "scalar") + NCPolynomial.unit("scalar", "1", xi / ka)
    if side == "+":
        lam1 = [[half, i_over_ka], [0, -half]]
        lam0 = [[-diag_field, corner], [_f("u", "scalar"), diag_field]]
    else:
        lam1 = [[half, 0], [i_over_ka, -half]]
        lam0 = [[-diag_field, _f("uh", "scalar")], [corner, diag_field]]
    return LaxOperator(LaurentSeries.from_rows("scalar", {1: lam1, 0: lam0}),
                       flow=2, side=side)


@dataclass
class BoundaryConditions:
    side: str
    equations: list[tuple[str, NCPolynomial]]     # (field base, boundary value)
    flags: list[str] = field(default_factory=list)  # lam-terms valid only for large constants
    residual_after: LaurentSeries | None = None

    def as_dict(self):
        return {f: str(v) for f, v in self.equations}


def extract_boundary_conditions(bulk: LaxOperator, bdry: LaxOperator,
                                side: str | None = None) -> BoundaryConditions:
    """Solve delta U = 0 entrywise; lam-dependent leftovers become flags.

    ``side`` labels the result; it must agree with the end ``bdry`` records,
    if it records one.  By default it is that end, or '+' for an operator
    that records none.
    """
    if side is None:
        side = bdry.side or "+"
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if bdry.side is not None and bdry.side != side:
        raise ValueError(f"side {side!r} contradicts the operator's end {bdry.side!r}")
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
    """K of one end as a lam-linear series over BVARS."""
    return LaurentSeries.from_rows("scalar", _k_blocks(*_end_constants(side)))


def _swap_ends(series: LaurentSeries) -> LaurentSeries:
    """iota on every entry; a block layout raises ShapeError (iota of N x M is M x N)."""
    return series.map_coefficients(lambda m: m.map_entries(end_swap))


@dataclass
class OpenChargeExpansion:
    """The open chain's bulk density and its two boundary terms at lam^-2.

    ``generator_plus`` and ``generator_minus`` are the two ends' generators,
    built only down to lam^-2, the power their logs are read at: their
    ``truncation`` is 2.  The Riccati order of the solve that built them is
    not kept: it changes nothing in the terms.
    """
    bulk_density: NCPolynomial
    plus_term: NCPolynomial
    minus_term: NCPolynomial
    plus_prefix: tuple
    minus_prefix: tuple
    generator_plus: LaurentSeries
    generator_minus: LaurentSeries


def open_charge_expansion(params: BoundaryParams | None = None,
                          order: int = 4) -> OpenChargeExpansion:
    """Expand the two boundary generators and the bulk part of the open chain.

    Builds the plus-end generator ((1 + What)^t Omega K+ (1 + W))_11 and the
    minus-end generator ((1 + W)^-1 K- Omega ((1 + What)^-1)^t)_11 at the
    respective boundary points, takes series logs, halves, and returns the
    lam^-2 coefficients with field-independent constants stripped.  Each ^t
    factor is the end swap iota, entry by entry: W12^(n) = (-1)^n iota(W21^(n))
    makes iota(W^(n)) = (What^(n))^t, and in scalar mode iota (an automorphism)
    and transpose-after-hat (an anti-automorphism) both commute with inversion,
    so they agree on (1 + W)^-1 to its truncation.  Only lam^-read (read = 2)
    of each log is read, so the reflected products stop there: 1 + W, and with
    it its end swap and inverse, is cut at lam^-(read + 1); Omega and K are
    exact, and K's lead lam^1 lifts each product's floor to lam^-read.  The
    logs are cut where the products end.  ``order`` sets only the Riccati solve.
    """
    read = 2
    if order < read + 1:
        raise ValueError(f"order must be >= {read + 1}: the lam^-{read} bulk term is Z^({read}), "
                         f"which the Riccati solve reaches only at order >= {read + 1}")
    sol = solve_w_z(order, "scalar")
    one_plus_w = sol.one_plus_w().truncated(read + 1)
    omega = LaurentSeries.of(omega_matrix("scalar"))
    values = (params or BoundaryParams()).values()

    a_fac = _swap_ends(one_plus_w) * (omega * _k_series("+")) * one_plus_w
    w_plus, plus_term, prefix_plus = _end_term(a_fac, values, read)

    inv_w = series_invert(one_plus_w)
    b_fac = inv_w * (_k_series("-") * omega) * _swap_ends(inv_w)
    w_minus, minus_term, prefix_minus = _end_term(b_fac, values, read)

    # bulk part: (Z11 + Z11-hat)/2 at lam^-read equals the closed-chain density;
    # the hat contributes the same sign at even order
    bulk = sol.z(read).entries[0][0]
    return OpenChargeExpansion(bulk, plus_term, minus_term,
                               prefix_plus, prefix_minus, w_plus, w_minus)


def _end_term(factor: LaurentSeries, values: dict, read: int):
    """One end's generator, boundary term and log prefix from its reflected product.

    The generator is block 11 of ``factor``, which is built only down to
    lam^-read, the one power of its log that is read (the charge); so the log
    is cut where the product ends.  That coefficient is halved, its
    field-independent constant stripped and ``values`` substituted for the
    constants they name.
    """
    generator = factor.block(0, 0)
    log, prefix = series_log(generator)
    term = log.coefficient(-read).entries[0][0].scale(gr(Fraction(1, 2))).strip_constant()
    if values:
        term = term.map_coeff(lambda c: c.subs_values(values))
    return generator, term, prefix
