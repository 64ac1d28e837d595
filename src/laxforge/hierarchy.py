"""The U-operator hierarchy, conserved charges, and conservation proofs.

Two independent routes construct the space components of the Lax pairs:

* generating route: expand (1 + W) D (1 + W)^-1 / (lam - mu), pick the
  lam^-n coefficient and relabel mu -> lam;
* dressing route: run the recursion w_{n-2} = [K, Sigma]/2,
  w_{k-1} = -w_k K and eliminate the opaque kernel blocks K11/K22 through a
  frozen rewrite set derived blockwise from Y = -XK and dK/dt = YK.

The two agree up to the bare shift lam^(n-1)/2 * identity, which reflects
the diag(1,0)-vs-Sigma/2 leading-term conventions of the two routes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .atoms import FIELD_BASES, FieldAtom, atom
from .coeff import GaussianRational, gr
from .matrices import PolyMatrix
from .ncpoly import (NCPolynomial, TracePolynomial, is_total_t_derivative,
                     nc_mul)
from .riccati import (BLOCK_DIMS, _f, nls_v, projector_d, sigma_matrix,
                      solve_gamma, solve_w_z, x_matrix)
from .series import LaurentSeries, series_invert


class DressRewriteError(RuntimeError):
    """The frozen kernel-block rewrite set does not close at this order."""


@dataclass
class LaxOperator:
    """Polynomial-in-lambda operator attached to one flow of the hierarchy."""
    series: LaurentSeries
    flow: int
    kind: str  # 'V' | 'U_bulk' | 'U_bare'
    mode: str

    def coefficient(self, power: int) -> PolyMatrix:
        return self.series.coefficient(power)


def nls_v_operator(mode: str = "scalar") -> LaxOperator:
    return LaxOperator(nls_v(mode), flow=0, kind="V", mode=mode)


def bare_u(n: int, mode: str = "matrix") -> LaxOperator:
    """The vacuum operator lam^(n-1)/2 * Sigma of the x_n flow."""
    if n < 1:
        raise ValueError("flow index must be >= 1")
    half = gr(Fraction(1, 2))
    s = LaurentSeries.of(sigma_matrix(mode).scale(half), n - 1)
    return LaxOperator(s, flow=n, kind="U_bare", mode=mode)


def generate_u(n: int, mode: str = "scalar") -> LaxOperator:
    """Generating-function route to the x_n-flow operator.

    Expands (1+W(lam)) D (1+W(lam))^-1 over (lam - mu) as a double series,
    extracts the lam^-n coefficient and relabels mu -> lam: the result is
    sum_{k<n} lam^(n-1-k) M^(k) with M the conjugated projector series.
    """
    if n < 1:
        raise ValueError("flow index must be >= 1")
    sol = solve_w_z(n, mode)
    one_plus = sol.one_plus_w()
    m_series = one_plus * LaurentSeries.of(projector_d(mode)).truncated(n) \
        * series_invert(one_plus)
    acc = LaurentSeries.zero(mode, m_series.row_dims, m_series.col_dims)
    for k in range(n):
        acc = acc + LaurentSeries.of(m_series.coefficient(-k), n - 1 - k)
    return LaxOperator(acc, flow=n, kind="U_bulk", mode=mode)


# frozen rewrite set for the opaque kernel blocks, derived once blockwise
# from Y = -XK (diagonal blocks) and dK/dt = YK (all four blocks)
def _kernel_rules(mode: str = "matrix"):
    u, uh, pi, pih = (_f(b, mode) for b in FIELD_BASES)
    k11 = atom("K11", mode=mode)
    k22 = atom("K22", mode=mode)
    k11_t = atom("K11", dt=1, mode=mode)
    k22_t = atom("K22", dt=1, mode=mode)
    au = atom("u", mode=mode)
    auh = atom("uh", mode=mode)
    api = atom("pi", mode=mode)
    apih = atom("pih", mode=mode)
    return [
        ((au, k11), pih),                                        # u K11 = pih
        ((auh, k22), -pi),                                       # uh K22 = -pi
        ((apih, k11), nc_mul(nc_mul(u, uh), u) - u.differentiate_t()),
        ((api, k22), -uh.differentiate_t() - nc_mul(nc_mul(uh, u), uh)),
        ((k11_t,), nc_mul(pi, u) - nc_mul(uh, pih)),             # dK11/dt
        ((k22_t,), nc_mul(pih, uh) - nc_mul(u, pi)),             # dK22/dt
    ]


def _kernel_matrix(mode: str = "matrix") -> PolyMatrix:
    n, m = BLOCK_DIMS[mode]
    return PolyMatrix(mode, (n, m), (n, m),
                      [[_f("K11", mode), -_f("uh", mode)],
                       [_f("u", mode), _f("K22", mode)]])


def _assert_kernel_free(mat: PolyMatrix, n: int):
    residual = sorted({str(a) for row in mat.entries for e in row
                       for w in e.terms for a in w if a.base in ("K11", "K22")})
    if residual:
        raise DressRewriteError(
            f"kernel blocks {residual} survive rewriting at flow {n}; "
            "the frozen rule set does not close at this order")


def dress_u(n: int, mode: str = "matrix") -> LaxOperator:
    """Dressing route to the x_n-flow operator (kernel blocks eliminated)."""
    if n < 1:
        raise ValueError("flow index must be >= 1")
    if mode == "scalar":
        op = dress_u(n, "matrix")
        return LaxOperator(op.series.scalarized(), n, "U_bulk", "scalar")
    rules = _kernel_rules(mode)
    K = _kernel_matrix(mode)
    w: dict[int, PolyMatrix] = {}
    if n >= 2:
        w[n - 2] = x_matrix(mode)  # (1/2)[K, Sigma]
        for k in range(n - 2, 0, -1):
            w[k - 1] = (-(w[k] * K)).substitute(rules)
            _assert_kernel_free(w[k - 1], n)
    series = bare_u(n, mode).series
    for k, mat in w.items():
        series = series + LaurentSeries.of(mat, k)
    return LaxOperator(series, flow=n, kind="U_bulk", mode=mode)


def route_difference(n: int) -> LaurentSeries:
    """generate_u - dress_u - bare identity shift, in scalar mode (must vanish)."""
    gen = generate_u(n, "scalar").series
    dre = dress_u(n, "scalar").series
    half = gr(Fraction(1, 2))
    shift = LaurentSeries.of(
        PolyMatrix.identity("scalar", ("1", "1")).scale(half), n - 1)
    return gen - dre - shift


# ---------------------------------------------------------------------------
# charges
# ---------------------------------------------------------------------------

@dataclass
class ChargeDensity:
    """One conserved-charge integrand; boundary terms attach in the open case."""
    kind: str  # 'H' | 'I'
    index: int
    density: NCPolynomial | TracePolynomial
    boundary_terms: tuple | None = None


def charges(kind: str, max_k: int, mode: str | None = None) -> list[ChargeDensity]:
    """Charge densities by coefficient extraction; no extra normalization.

    H-charges are the 11-entry of the diagonal phase densities (scalar mode by
    default); I-charges are the matrix-mode traces tr(uh G^(k+1) + pi G^(k)).
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    out = []
    if kind == "H":
        mode = mode or "scalar"
        sol = solve_w_z(max_k + 1, mode)
        for k in range(1, max_k + 1):
            out.append(ChargeDensity("H", k, sol.z(k).entries[0][0]))
        return out
    if kind == "I":
        if mode not in (None, "matrix"):
            raise ValueError("I-charges are defined in matrix mode")
        sol = solve_gamma(max_k + 1)
        uh, pi = _f("uh", "matrix"), _f("pi", "matrix")
        for k in range(1, max_k + 1):
            inner = nc_mul(uh, sol.gamma(k + 1)) + nc_mul(pi, sol.gamma(k))
            out.append(ChargeDensity("I", k, TracePolynomial.from_nc(inner)))
        return out
    raise ValueError("kind must be 'H' or 'I'")


# ---------------------------------------------------------------------------
# zero curvature, equations of motion, conservation
# ---------------------------------------------------------------------------

def zero_curvature_residual(u_op: LaxOperator, v_op: LaxOperator) -> LaurentSeries:
    """d_{x_n} V - d_t U + [V, U], with formal x_n-derivative atoms."""
    if (u_op.series.row_dims, u_op.series.col_dims) != \
            (v_op.series.row_dims, v_op.series.col_dims):
        raise ValueError("operator shapes disagree")
    V, U = v_op.series, u_op.series
    return V.differentiate_x(u_op.flow) - U.differentiate_t() + V.commutator(U)


@dataclass
class EOMRules:
    """Flow relations solved from a zero-curvature residual.

    ``rules`` rewrite first x_n-derivatives of the fields into t-derivative
    polynomials (the direction needed to eliminate x-derivatives).
    ``first_order`` holds the momentum identifications (pi = d_x uh, ...),
    ``evolution`` the canonical evolution residuals per field, e.g.
    d_t u + d_x^2 u - 2 u uh u for the second flow in matrix mode.
    """
    flow: int
    mode: str
    rules: list[tuple[FieldAtom, NCPolynomial]]
    first_order: dict[str, NCPolynomial] = field(default_factory=dict)
    evolution: dict[str, NCPolynomial] = field(default_factory=dict)


class EOMExtractionError(RuntimeError):
    pass


def _bare_unknown(poly: NCPolynomial, flow: int):
    """Unknown x_flow-derivative atoms that occur as single-atom words."""
    out = set()
    for w in poly.terms:
        if len(w) == 1 and w.atoms[0].dx > 0 and w.atoms[0].flow == flow:
            out.add(w.atoms[0])
    return out


def _unknowns(poly: NCPolynomial, flow: int):
    return {a for w in poly.terms for a in w if a.dx > 0 and a.flow == flow}


def extract_eom(u_op: LaxOperator, v_op: LaxOperator) -> EOMRules:
    """Solve the residual entrywise for the x_n-derivatives of the fields."""
    from .atoms import make_word
    flow, mode = u_op.flow, u_op.mode
    res = zero_curvature_residual(u_op, v_op)
    entries: list[NCPolynomial] = []
    for p in sorted(res.coeffs, reverse=True):
        mat = res.coefficient(p)
        entries.extend(e for row in mat.entries for e in row if not e.is_zero)
    rules: list[tuple[FieldAtom, NCPolynomial]] = []
    while True:
        entries = [e for e in entries if not e.is_zero]
        pick = None
        for e in entries:
            for a in sorted(_bare_unknown(e, flow), key=lambda x: x.sort_key):
                word = make_word([a], mode)
                coeff = e.terms[word]
                rest = e - NCPolynomial(mode, e.shape, {word: coeff})
                if not _unknowns(rest, flow):
                    pick = (a, rest.scale(-(GaussianRational.of(1) / coeff)))
                    break
            if pick:
                break
        if pick is None:
            break
        rules.append(pick)
        entries = [e.substitute([pick]) for e in entries]
    unsolved = [e for e in entries if _unknowns(e, flow)]
    if unsolved:
        raise EOMExtractionError(
            "entries not solvable by linear elimination: "
            + "; ".join(str(e) for e in unsolved))
    bad = [e for e in entries if not e.is_zero]
    if bad:
        raise EOMExtractionError(
            "inconsistent residual entries: " + "; ".join(str(e) for e in bad))
    rules.sort(key=lambda r: r[0].sort_key)
    out = EOMRules(flow, mode, rules)
    by_atom = {(a.base, a.dt, a.dx): r for a, r in rules}
    for fld, momentum in (("uh", "pi"), ("u", "pih")):
        r = by_atom.get((fld, 0, 1))
        if r is not None and r == NCPolynomial.from_atom(atom(momentum, mode=mode), mode):
            out.first_order[momentum] = r
    # canonical evolution residuals built from the momentum-derivative rules:
    # pih_x = -u_t + (...)  =>  u_t + u_xx - (...) = 0, and the uh companion
    for fld, momentum in (("u", "pih"), ("uh", "pi")):
        r = by_atom.get((momentum, 0, 1))
        if r is None or momentum not in out.first_order:
            continue
        fxx = NCPolynomial.from_atom(atom(fld, dx=2, mode=mode, flow=flow), mode)
        out.evolution[fld] = fxx - r if fld == "u" else r - fxx
    return out


def eliminate_x(p: NCPolynomial, rules: EOMRules) -> NCPolynomial:
    """Rewrite every x_n-derivative atom of p through the flow relations."""
    base_rules = {(a.base, a.dt): r for a, r in rules.rules if a.dx == 1}
    flow = rules.flow
    cur = p
    for _ in range(64):
        targets = sorted({a for w in cur.terms for a in w
                          if a.dx > 0 and a.flow == flow},
                         key=lambda a: (a.dx, a.sort_key))
        if not targets:
            return cur
        a = targets[-1]
        key = (a.base, 0)
        if key not in base_rules:
            raise EOMExtractionError(f"no flow relation eliminates {a}")
        img = base_rules[key]
        for _ in range(a.dt):
            img = img.differentiate_t()
        for _ in range(a.dx - 1):
            img = img.differentiate_x(flow)
        cur = cur.substitute([(FieldAtom(a.base, a.dt, a.dx, flow, a.shape), img)])
    raise EOMExtractionError("x-derivative elimination did not terminate")


@dataclass
class ConservationProof:
    k: int
    density: NCPolynomial
    x_derivative: NCPolynomial
    flux: NCPolynomial
    elapsed: float


def verify_conservation(k: int) -> ConservationProof:
    """Certify d_x(H-density) is a total d_t derivative; return the flux witness."""
    t0 = time.perf_counter()
    rho = charges("H", k)[k - 1].density
    rules = extract_eom(generate_u(2, "scalar"), nls_v_operator("scalar"))
    dx_rho = eliminate_x(rho.differentiate_x(rules.flow), rules)
    ok, flux = is_total_t_derivative(dx_rho)
    if not ok:
        raise RuntimeError(
            f"conservation violated: d_x of charge {k} is not a total t-derivative")
    assert flux.differentiate_t() == dx_rho
    return ConservationProof(k, rho, dx_rho, flux, time.perf_counter() - t0)
