"""The U-operator hierarchy, conserved charges, and conservation proofs.

Two independent routes construct the space components of the Lax pairs:

* generating route: expand (1 + W) D (1 + W)^-1 / (lam - mu), pick the
  lam^-n coefficient and relabel mu -> lam;
* dressing route: run the recursion w_{n-2} = [K, Sigma]/2,
  w_{k-1} = -w_k K and eliminate the opaque kernel blocks K11/K22 through
  rewrite rules that ``ncpoly.eliminate`` solves from the entries of
  Y = -XK and dK/dt = YK, closed under d/dt as deep as flow n needs.

The two agree up to the bare shift lam^(n-1)/2 * identity, which reflects
the diag(1,0)-vs-Sigma/2 leading-term conventions of the two routes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .atoms import KERNEL_BASES, FieldAtom, atom
from .coeff import gr
from .matrices import PolyMatrix, block_dims
from .ncpoly import NCPolynomial, eliminate, is_total_t_derivative, sole_word, trace
from .riccati import _f, nls_v, solve_w_z
from .series import LaurentSeries, series_invert


class DressRewriteError(RuntimeError):
    """Kernel blocks survive the derived rewrite rules at this order."""


@dataclass
class LaxOperator:
    """Polynomial-in-lambda operator attached to one flow of the hierarchy."""
    series: LaurentSeries
    flow: int
    mode: str
    side: str | None = None   # the end ("+" or "-") of a boundary operator; None in the bulk

    def coefficient(self, power: int) -> PolyMatrix:
        return self.series.coefficient(power)


def nls_v_operator(mode: str = "scalar") -> LaxOperator:
    return LaxOperator(nls_v(mode), flow=0, mode=mode)


def bare_u(n: int, mode: str = "matrix") -> LaxOperator:
    """The vacuum operator lam^(n-1)/2 * Sigma of the x_n flow."""
    if n < 1:
        raise ValueError("flow index must be >= 1")
    return LaxOperator(LaurentSeries.of(nls_v(mode).coefficient(2), n - 1), flow=n, mode=mode)


def generate_u(n: int, mode: str = "scalar") -> LaxOperator:
    """Generating-function route to the x_n-flow operator.

    Expands (1+W(lam)) D (1+W(lam))^-1 over (lam - mu) as a double series,
    extracts the lam^-n coefficient and relabels mu -> lam: the result is
    sum_{k<n} lam^(n-1-k) M^(k) with M the conjugated projector series.
    Only M^(0..n-1) are read, so M is built to truncation n - 1, from
    W^(1..n-1).
    """
    if n < 1:
        raise ValueError("flow index must be >= 1")
    one_plus = solve_w_z(max(n - 1, 1), mode).one_plus_w().truncated(n - 1)
    projector = PolyMatrix.from_rows(mode, [[1, 0], [0, 0]])
    m_series = one_plus * LaurentSeries.of(projector).truncated(n - 1) \
        * series_invert(one_plus)
    acc = LaurentSeries.zero(mode, m_series.row_dims, m_series.col_dims)
    for k in range(n):
        acc = acc + LaurentSeries.of(m_series.coefficient(-k), n - 1 - k)
    return LaxOperator(acc, flow=n, mode=mode)


@lru_cache(maxsize=None)
def _kernel_rules(mode: str, depth: int) -> tuple:
    """Rewrite rules for the kernel blocks, from Y = -XK and dK/dt = YK.

    Each rule solves one identity for its sole word holding K11/K22.  Each
    of ``depth`` closure levels lifts every product rule a*K -> r to
    a_t*K -> r_t - a*K_t by the rules so far; earlier lifts reduce to zero.
    """
    def kernel_word(p: NCPolynomial):
        return sole_word(p, lambda a: a.base in KERNEL_BASES)

    v = nls_v(mode)
    K, X, Y = _kernel_matrix(mode), v.coefficient(1), v.coefficient(0)
    entries = [e for m in (Y + X * K, K.differentiate_t() - Y * K)
               for row in m.entries for e in row]
    rules, left = eliminate(entries, kernel_word)
    for _ in range(depth):
        lifted = [(NCPolynomial.from_word(pat, mode) - r).differentiate_t()
                  for pat, r in rules if len(pat) > 1]
        rules, unsolved = eliminate(lifted, kernel_word, rules)
        left += unsolved
    if left:
        raise DressRewriteError("kernel identities left unsolved: "
                                + "; ".join(str(e) for e in left))
    return tuple(rules)


def _kernel_matrix(mode: str = "matrix") -> PolyMatrix:
    return PolyMatrix.from_rows(mode, [[_f("K11", mode), -_f("uh", mode)],
                                       [_f("u", mode), _f("K22", mode)]])


def _assert_kernel_free(mat: PolyMatrix, n: int):
    residual = sorted({str(a) for row in mat.entries for e in row
                       for w in e.terms for a in w if a.base in KERNEL_BASES})
    if residual:
        raise DressRewriteError(
            f"kernel blocks {residual} survive rewriting at flow {n}; "
            "the rule closure is too shallow for this order")


def dress_u(n: int, mode: str = "matrix") -> LaxOperator:
    """Dressing route to the x_n-flow operator (kernel blocks eliminated)."""
    if n < 1:
        raise ValueError("flow index must be >= 1")
    if mode == "scalar":
        op = dress_u(n, "matrix")
        return LaxOperator(op.series.scalarized(), n, "scalar")
    series = bare_u(n, mode).series   # refuses an unknown mode before K is built
    K = _kernel_matrix(mode)
    w: dict[int, PolyMatrix] = {}
    if n >= 2:
        w[n - 2] = nls_v(mode).coefficient(1)  # X = (1/2)[K, Sigma]
        for k in range(n - 2, 0, -1):
            # the t-order of the atom next to K rises by at most one every two
            # steps, so flow n needs the rules closed (n - 3) // 2 times
            w[k - 1] = (-(w[k] * K)).substitute(_kernel_rules(mode, (n - 3) // 2))
            _assert_kernel_free(w[k - 1], n)
    for k, mat in w.items():
        series = series + LaurentSeries.of(mat, k)
    return LaxOperator(series, flow=n, mode=mode)


def route_difference(n: int, mode: str = "scalar") -> LaurentSeries:
    """generate_u - dress_u - bare identity shift (must vanish)."""
    shift = PolyMatrix.identity(mode, block_dims(mode)).scale(gr(Fraction(1, 2)))
    return (generate_u(n, mode).series - dress_u(n, mode).series
            - LaurentSeries.of(shift, n - 1))


# ---------------------------------------------------------------------------
# charges
# ---------------------------------------------------------------------------

@dataclass
class ChargeDensity:
    """One conserved-charge integrand: scalar H, or trace-mode I."""
    kind: str  # 'H' | 'I'
    index: int
    density: NCPolynomial


def charges(kind: str, max_k: int, mode: str | None = None) -> list[ChargeDensity]:
    """Charge densities by coefficient extraction; no extra normalization.

    Both read the 11-entry Z^(k)_11 of the diagonal phase densities: H-charges
    are that entry (scalar mode by default), I-charges the trace of the
    matrix-mode entry, Z^(k)_11 = uh G^(k+1) + pi G^(k).
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    if kind not in ("H", "I"):
        raise ValueError("kind must be 'H' or 'I'")
    if kind == "I" and mode not in (None, "matrix"):
        raise ValueError("I-charges are defined in matrix mode")
    sol = solve_w_z(max_k + 1, mode or ("scalar" if kind == "H" else "matrix"))
    out = []
    for k in range(1, max_k + 1):
        z11 = sol.z(k).entries[0][0]
        out.append(ChargeDensity(kind, k, trace(z11) if kind == "I" else z11))
    return out


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


def extract_eom(u_op: LaxOperator, v_op: LaxOperator) -> EOMRules:
    """Solve the residual entrywise for the x_n-derivatives of the fields."""
    flow, mode = u_op.flow, u_op.mode
    res = zero_curvature_residual(u_op, v_op)

    def unknown(a: FieldAtom) -> bool:
        return a.dx > 0 and a.flow == flow

    def bare_unknown(e: NCPolynomial):
        w = sole_word(e, unknown)
        return w if w is not None and len(w) == 1 else None

    found, entries = eliminate(
        [e for p in sorted(res.coeffs, reverse=True)
         for row in res.coefficient(p).entries for e in row], bare_unknown)
    rules = sorted(((pat[0], r) for pat, r in found), key=lambda r: r[0].sort_key)
    unsolved = [e for e in entries if any(unknown(a) for a in e.atoms_set())]
    if unsolved:
        raise EOMExtractionError(
            "entries not solvable by linear elimination: "
            + "; ".join(str(e) for e in unsolved))
    if entries:
        raise EOMExtractionError(
            "inconsistent residual entries: " + "; ".join(str(e) for e in entries))
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
        cur = cur.substitute([(a, img)])
    raise EOMExtractionError("x-derivative elimination did not terminate")


@dataclass
class ConservationProof:
    k: int
    density: NCPolynomial
    x_derivative: NCPolynomial
    flux: NCPolynomial
    elapsed: float


@lru_cache(maxsize=None)
def _flow2_rules() -> EOMRules:
    """The scalar flow-2 relations, derived once per process; callers must not mutate them."""
    return extract_eom(generate_u(2, "scalar"), nls_v_operator("scalar"))


def verify_conservation(k: int) -> ConservationProof:
    """Certify d_x(H-density) is a total d_t derivative; return the flux witness."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t0 = time.perf_counter()
    rho = charges("H", k)[k - 1].density
    rules = _flow2_rules()
    dx_rho = eliminate_x(rho.differentiate_x(rules.flow), rules)
    ok, flux = is_total_t_derivative(dx_rho)
    if not ok:
        raise RuntimeError(
            f"conservation violated: d_x of charge {k} is not a total t-derivative")
    assert flux.differentiate_t() == dx_rho
    return ConservationProof(k, rho, dx_rho, flux, time.perf_counter() - t0)
