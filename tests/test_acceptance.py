"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every tolerance is pinned here; nothing is deferred to later calibration.

Criterion 7 is split: the plus-end boundary term and the extracted boundary
conditions reproduce their typed reference values exactly, and the minus-end
term is derived from the plus-end reference by the involution iota that
exchanges the two ends (t -> -t, u <-> uh, pi <-> pih).  iota maps the
double-row transfer matrix to itself with K+ <-> sigma_x K- sigma_x, and
sigma_x K(xi, ka) sigma_x = -K(-xi, -ka), so the boundary constants follow
phi: (xi+, ka+) <-> (-xi-, -ka-); the bulk density moves by the total
derivative d/dt(u*uh) under iota.  Hence minus = iota(plus)|phi - u*uh and
plus = iota(minus)|phi + u*uh, both checked exactly below together with each
ingredient of the derivation.
"""
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxforge.tables as T
from laxforge.atoms import FieldAtom, make_word
from laxforge.boundary import (BVARS, boundary_u, bulk_u2,
                               extract_boundary_conditions, k_matrix,
                               open_charge_expansion, poisson_residual,
                               reflection_residual)
from laxforge.checks import run_numeric
from laxforge.coeff import gr
from laxforge.hierarchy import (charges, dress_u, generate_u, nls_v_operator,
                                extract_eom, route_difference,
                                verify_conservation)
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial, end_swap, is_total_t_derivative
from laxforge.oracle import (ExponentialSolution, FieldSample, evaluate,
                             finite_difference_crosscheck)
from laxforge.parser import parse_poly
from laxforge.ratfunc import MPoly
from laxforge.riccati import nls_v, solve_gamma, solve_w_z

TOL_NUMERIC = 1e-9       # symbolic zeros under random trig samples
TOL_EXPONENTIAL = 1e-12  # exact-solution residuals
FD_RATIO = (3.2, 4.8)    # 4 +- 20% on h-halving
NUMERIC_TRIALS = 100
EXP_DRAWS = 20


def report(n, status, detail=""):
    print(f"ACCEPTANCE {n}: {status}" + (f" - {detail}" if detail else ""))


def test_criterion_01_riccati_goldens():
    sol = solve_w_z(5, "scalar")
    for k in range(1, 5):
        e12, e21 = T.w_scalar(k)
        assert sol.w(k).entries[0][1] == e12 and sol.w(k).entries[1][0] == e21
    for k in range(1, 5):
        e11, e22 = T.z_scalar(k)
        assert sol.z(k).entries[0][0] == e11 and sol.z(k).entries[1][1] == e22
    # order 5: compare against the published variant and pin the discrepancy
    t12, t21 = T.w5_transcription()
    d12 = sol.w(5).entries[0][1] - t12
    d21 = sol.w(5).entries[1][0] - t21
    assert d12 == parse_poly("-4*uh*pi*pih")
    assert d21 == parse_poly("4*u*pi*pih")
    detail = ("W(1..4), Z(1..4) exact; W(5) matches up to the recorded "
              f"transcription defects: 12-entry diff {d12}; 21-entry diff {d21}; "
              + " | ".join(T.W5_NOTES))
    report(1, "PASS", detail)


def test_criterion_02_gamma_goldens():
    g = solve_gamma(4)
    for k in range(1, 5):
        assert g.gamma(k) == T.gamma_matrix(k), f"order {k}"
    report(2, "PASS", "ratio coefficients 1..4 exact in matrix mode, word order kept")


def test_criterion_02b_gamma_hat_goldens():
    gh = solve_gamma(4, "gamma_hat")
    for k in range(1, 5):
        assert gh.gamma(k) == T.gamma_matrix(k, "gamma_hat"), f"order {k}"
    report("2b", "PASS", "hat ratio coefficients 1..4 exact in matrix mode, word order kept")


def test_criterion_03_hierarchy_goldens():
    for n in range(1, 5):
        assert generate_u(n, "scalar").series.coeffs == T.u_gen_scalar(n).coeffs
        assert dress_u(n, "matrix").series.coeffs == T.u_dress_matrix(n).coeffs
    for n in range(1, 13):
        assert route_difference(n).is_zero, f"n={n}"
    report(3, "PASS", "both routes match their tables for n=1..4; routes agree "
                      "under N=M=1 up to the bare shift lam^(n-1)/2 * identity "
                      "for n=1..12")


def test_criterion_04_charges():
    ch = charges("H", 4)
    for k in range(1, 4):
        assert ch[k - 1].density == T.h_scalar(k)
    got4, pub4 = ch[3].density, T.h4_transcription()
    shared = {w for w in got4.terms if w in pub4.terms
              and got4.terms[w] == pub4.terms[w]}
    only_engine = {str(w) for w in got4.terms} - {str(w) for w in pub4.terms}
    only_pub = {str(w) for w in pub4.terms} - {str(w) for w in got4.terms}
    assert len(shared) == 3  # u_tt*uh and the two cubic-in-fields terms
    assert got4 == T.h_scalar(4)
    ich = charges("I", 3)
    for k in range(1, 4):
        assert ich[k - 1].density == T.i_matrix(k)
    report(4, "PASS", "H(1..3) exact; H(4) multiset diff vs published form: "
                      f"engine-only {sorted(only_engine)} vs published-only "
                      f"{sorted(only_pub)} ({'; '.join(T.H4_NOTES)}); I(1..3) exact")


def test_criterion_05_conservation():
    t0 = time.perf_counter()
    fluxes = {}
    for k in (1, 2, 3):
        proof = verify_conservation(k)
        assert proof.flux.differentiate_t() == proof.x_derivative
        fluxes[k] = str(proof.flux)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "PASS", f"Euler certificate + flux witnesses {fluxes} in {elapsed:.2f}s")


def test_criterion_06_algebra_checks():
    assert reflection_residual(k_matrix()).is_zero
    assert poisson_residual("V").is_zero
    assert poisson_residual("U").is_zero
    report(6, "PASS", "reflection residual == 0 with fully symbolic constants; "
                      "both linear Poisson residuals == 0 (exact, not sampled)")


@pytest.fixture(scope="module")
def expansion():
    return open_charge_expansion()


def _boundary_value(field_text, xi, ka, extra=None):
    xi_v = MPoly.variable(BVARS, xi)
    ka_v = MPoly.variable(BVARS, ka)
    i_over = MPoly.constant(BVARS, gr(0, 1)) / ka_v
    fld, mom, sign = field_text
    out = (parse_poly(fld).map_coeff(lambda c: (xi_v / ka_v) * c)
           + parse_poly(mom).map_coeff(lambda c: (i_over * sign) * c)
           + parse_poly(f"{fld}*{fld}").map_coeff(
               lambda c: MPoly.constant(BVARS, c) * Fraction(1, 2)))
    if extra is not None:
        out = out + extra
    return out


def test_criterion_07a_open_charge_plus_and_bulk(expansion):
    from laxforge.hierarchy import charges as _charges
    assert expansion.bulk_density == _charges("H", 2)[1].density
    expected_plus = _boundary_value(("u", "pih", -1), "xi_p", "ka_p")
    assert expansion.plus_term == expected_plus
    report("7a", "PASS", "bulk part equals the closed-chain order-2 density; "
                         "plus-end term xi+ u/ka+ - i pih/ka+ + u^2/2 exact")


def test_criterion_07b_boundary_conditions():
    plus = extract_boundary_conditions(bulk_u2(), boundary_u("+"), "+")
    minus = extract_boundary_conditions(bulk_u2(), boundary_u("-"), "-")
    assert plus.as_dict() == {"u": "0", "uh": "(xi_p)/(ka_p)"}
    assert minus.as_dict() == {"uh": "0", "u": "(xi_m)/(ka_m)"}
    assert len(plus.flags) == 1 and "ka_p" in plus.flags[0]
    assert len(minus.flags) == 1 and "ka_m" in minus.flags[0]
    report("7b", "PASS", "u(tau)=0, uh(tau)=xi+/ka+, uh(-tau)=0, u(-tau)=xi-/ka-, "
                         "with the lam/ka large-parameter flags present")


# -- the end-swapping involution behind criterion 7c -------------------------
# iota: t -> -t, u <-> uh, pi <-> pih on scalar polynomials.  t-derivatives
# flip sign, x-derivatives do not; the swapped word is re-sorted.
_IOTA_BASE = {"u": "uh", "uh": "u", "pi": "pih", "pih": "pi"}


def _iota(p):
    assert p.mode == "scalar"
    terms = {}
    for w, c in p.terms.items():
        atoms = [FieldAtom(_IOTA_BASE[a.base], a.dt, a.dx, a.flow, a.shape)
                 for a in w]
        terms[make_word(atoms, "scalar")] = -c if sum(a.dt for a in w) % 2 else c
    return NCPolynomial(p.mode, p.shape, terms)


def _signed_rename(p, mapping):
    """p with every variable v replaced by sign * dst for (dst, sign) = mapping[v].

    The replacements are simultaneous, so the mapping may swap variables.  A
    negative sign flips odd powers, negative ones included.
    """
    idx = {p.vars.index(v): (p.vars.index(dst), sign)
           for v, (dst, sign) in mapping.items()}
    terms = {}
    for e, c in p.terms.items():
        e2 = [0] * len(e)
        for i, k in enumerate(e):
            j, sign = idx.get(i, (i, 1))
            e2[j] += k
            if sign < 0 and k % 2:
                c = -c
        terms[tuple(e2)] = c
    return MPoly(p.vars, terms)


def _end_swap_signs():
    """The signs (s_xi, s_ka) with sigma_x K(xi, ka) sigma_x = -K(s_xi xi, s_ka ka).

    Read off k_matrix by trying every sign pair; exactly one must fit.  The
    overall -1 is immaterial: it enters the transfer matrix once per end.
    """
    k = k_matrix()
    zero, one = NCPolynomial.zero("scalar"), NCPolynomial.unit("scalar")
    sx = PolyMatrix("scalar", ("1", "1"), ("1", "1"), [[zero, one], [one, zero]])
    swapped = sx * k * sx
    fits = [(s_xi, s_ka) for s_xi in (1, -1) for s_ka in (1, -1)
            if (swapped + k.map_entries(lambda e: e.map_coeff(lambda c: _signed_rename(
                c, {"xi": ("xi", s_xi), "ka": ("ka", s_ka)})))).is_zero]
    assert len(fits) == 1, fits
    return fits[0]


def _phi(p):
    """Exchange the ends' constants: (xi+, ka+) <-> (s_xi xi-, s_ka ka-)."""
    s_xi, s_ka = _end_swap_signs()
    mapping = {"xi_p": ("xi_m", s_xi), "xi_m": ("xi_p", s_xi),
               "ka_p": ("ka_m", s_ka), "ka_m": ("ka_p", s_ka)}
    return p.map_coeff(lambda c: _signed_rename(c, mapping))


def _bulk_shift():
    """G with iota(H2) - H2 = dG/dt, found by the Euler-operator test."""
    h2 = T.h_scalar(2)
    ok, g = is_total_t_derivative(_iota(h2) - h2)
    assert ok, "iota must move the bulk density by a total t-derivative"
    return g


def test_criterion_07c_open_charge_minus(expansion):
    """The minus-end term is the end-swapped image of the plus-end term.

    iota (t -> -t, u <-> uh, pi <-> pih) maps the double-row transfer matrix
    to itself with K+ <-> sigma_x K- sigma_x, and sigma_x K(xi, ka) sigma_x =
    -K(-xi, -ka), so the constants follow phi: (xi+, ka+) -> (-xi-, -ka-).
    The bulk density moves by iota(H2) - H2 = dG/dt, which shifts the lower
    end by -G.  Matching the local terms at t = -tau gives
    minus = iota(plus)|phi - G = xi- uh/ka- + i pi/ka- + uh^2/2 - u uh,
    built here from the typed plus-end reference (criterion 7a) and compared
    exactly with the direct expansion of ((1+W)^-1 K- Omega ((1+What)^-1)^t)_11.
    A mirror that renames the constants without phi's signs and drops G
    would give xi- uh/ka- - i pi/ka- + uh^2/2 instead.
    """
    plus_ref = _boundary_value(("u", "pih", -1), "xi_p", "ka_p")
    reference_minus = _phi(_iota(plus_ref)) - _bulk_shift()
    diff = expansion.minus_term - reference_minus
    detail = (f"minus-end direct expansion: {expansion.minus_term}; "
              f"end-swapped plus-end reference: {reference_minus}; diff = {diff}")
    if diff.is_zero:
        report("7c", "PASS", detail)
    else:
        report("7c", "FAIL", detail)
    assert diff.is_zero, ("minus-end boundary term does not match the "
                          f"end-swapped plus-end reference; diff = {diff}")


def test_end_swap_k_matrix():
    """sigma_x K(xi, ka) sigma_x = -K(-xi, -ka) on k_matrix, so phi negates."""
    assert _end_swap_signs() == (-1, -1)


def _sigma_x_conj(m):
    (a, b), (c, d) = m.entries
    return PolyMatrix(m.mode, m.row_dims, m.col_dims, [[d, c], [b, a]])


def test_end_swap_maps_nls_to_itself():
    """V[iota u](t, lam) = -sigma_x V[u](-t, -lam) sigma_x, and the Riccati
    tower follows: iota(W^(k)) = (-1)^k sigma_x W^(k) sigma_x for k = 1..4."""
    v = nls_v("scalar")
    for p, m in v.coeffs.items():
        assert m.map_entries(_iota) == _sigma_x_conj(m).scale(gr((-1) ** (p + 1))), p
    sol = solve_w_z(4, "scalar")
    for k in range(1, 5):
        w = sol.w(k)
        assert w.map_entries(_iota) == _sigma_x_conj(w).scale(gr((-1) ** k)), k


def test_the_engine_end_swap_is_iota_on_the_scalar_tower():
    sol = solve_w_z(12, "scalar")
    for n in range(1, 13):
        w21 = sol.w(n).entries[1][0]
        assert end_swap(w21) == _iota(w21), n


@given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(list(_IOTA_BASE)),
                                              st.integers(0, 3), st.integers(0, 1)),
                                    max_size=4),
                           st.integers(-3, 3)), max_size=4))
@settings(max_examples=80, deadline=None)
def test_the_engine_end_swap_is_iota(words):
    """ncpoly.end_swap equals this file's iota on random scalar polynomials,
    x-derivatives included, and it is an involution."""
    p = NCPolynomial.zero("scalar")
    for atoms, c in words:
        p = p + NCPolynomial("scalar", ("1", "1"), {
            make_word([FieldAtom(b, dt, dx) for b, dt, dx in atoms], "scalar"): gr(c)})
    assert end_swap(p) == _iota(p)
    assert end_swap(end_swap(p)) == p


def test_end_swap_bulk_shift():
    """iota(H2) - H2 = d/dt(u*uh) for H2 = -u_t*uh - pi*pih + u^2*uh^2."""
    g = _bulk_shift()
    assert g == parse_poly("u*uh")
    h2 = T.h_scalar(2)
    assert g.differentiate_t() == _iota(h2) - h2


def test_end_swap_upper_end_counterpart(expansion):
    """The inverse relation at t = +tau: plus = iota(minus)|phi + G."""
    assert expansion.plus_term == \
        _phi(_iota(expansion.minus_term)) + _bulk_shift()


def test_criterion_08_equations_of_motion():
    for mode, u_eq, uh_eq in (
            ("scalar", "u_t + u_xx - 2*u*u*uh", "uh_t - uh_xx + 2*u*uh*uh"),
            ("matrix", "u_t + u_xx - 2*u*uh*u", "uh_t - uh_xx + 2*uh*u*uh")):
        rules = extract_eom(generate_u(2, mode), nls_v_operator(mode))
        got = {(a.base, a.dt, a.dx): v for a, v in rules.rules}
        from laxforge.atoms import atom
        from laxforge.ncpoly import NCPolynomial as P
        assert got[("uh", 0, 1)] == P.from_atom(atom("pi", mode=mode), mode)
        assert got[("u", 0, 1)] == P.from_atom(atom("pih", mode=mode), mode)
        assert rules.evolution["u"] == parse_poly(u_eq, mode=mode)
        assert rules.evolution["uh"] == parse_poly(uh_eq, mode=mode)
    report(8, "PASS", "pi = d_x uh, pih = d_x u; scalar and matrix evolution "
                      "equations exact (hat equation carries the reversed "
                      "time sign)")


def test_criterion_09_numeric_oracle():
    rep = run_numeric("all", NUMERIC_TRIALS, TOL_NUMERIC, seed=42)
    assert rep["passed"], rep
    # exponential-solution residual over 20 parameter draws, |.| <= 2 each
    resid = parse_poly("u_t + u_xx - 2*u*u*uh")
    worst = 0.0
    import random
    rng = random.Random(2024)
    for d in range(EXP_DRAWS):
        sol = ExponentialSolution.random(d)
        assert max(abs(sol.alpha), abs(sol.beta), abs(sol.k)) <= 2
        for _ in range(5):
            pt = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            worst = max(worst, abs(evaluate(resid, sol, pt)))
    assert worst < TOL_EXPONENTIAL
    # order-2 convergence of the finite-difference cross-check
    sample = FieldSample.random(2024)
    e1 = finite_difference_crosscheck(parse_poly("u"), sample, (0.2, 0.4),
                                      h=1e-3, var="t", order=2)["abs_error"]
    e2 = finite_difference_crosscheck(parse_poly("u"), sample, (0.2, 0.4),
                                      h=5e-4, var="t", order=2)["abs_error"]
    ratio = e1 / e2
    assert FD_RATIO[0] < ratio < FD_RATIO[1]
    maxima = {c["name"]: c["max_abs"] for c in rep["checks"]}
    report(9, "PASS", f"symbolic zeros < {TOL_NUMERIC} over {NUMERIC_TRIALS} "
                      f"trials (maxima {maxima}); exponential residual "
                      f"{worst:.2e} < {TOL_EXPONENTIAL}; FD ratio {ratio:.2f}")


def test_criterion_10_determinism():
    from laxforge import serialize
    a = serialize.dumps(run_numeric("all", 10, TOL_NUMERIC, seed=7))
    b = serialize.dumps(run_numeric("all", 10, TOL_NUMERIC, seed=7))
    assert a.encode() == b.encode()
    report(10, "PASS", "same seed gives byte-identical JSON reports")
