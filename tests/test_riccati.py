"""Riccati solver: golden tables, residuals, structure invariants."""
import pytest

import laxforge.riccati as R
import laxforge.tables as T
from laxforge.atoms import atom, make_word
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial, scalarize
from laxforge.riccati import (GammaSolution, gamma_residual, riccati_residual,
                              solve_gamma, solve_w_z, v_antidiagonal, v_diagonal)
from laxforge.series import LaurentSeries


@pytest.fixture(scope="module")
def scalar5():
    return solve_w_z(5, "scalar")


def test_w_goldens(scalar5):
    for k in range(1, 6):
        e12, e21 = T.w_scalar(k)
        assert scalar5.w(k).entries[0][1] == e12, f"W^({k}) 12-entry"
        assert scalar5.w(k).entries[1][0] == e21, f"W^({k}) 21-entry"


def test_z_goldens(scalar5):
    for k in range(1, 5):
        e11, e22 = T.z_scalar(k)
        assert scalar5.z(k).entries[0][0] == e11, f"Z^({k}) 11-entry"
        assert scalar5.z(k).entries[1][1] == e22, f"Z^({k}) 22-entry"


def test_w5_transcription_discrepancy(scalar5):
    """The published order-5 entries differ by exactly the recorded defects."""
    from laxforge.parser import parse_poly
    t12, t21 = T.w5_transcription()
    d12 = scalar5.w(5).entries[0][1] - t12
    d21 = scalar5.w(5).entries[1][0] - t21
    assert d12 == parse_poly("-4*uh*pi*pih")
    assert d21 == parse_poly("4*u*pi*pih")


def test_anti_diagonal_and_diagonal_split(scalar5):
    for k in range(1, 6):
        assert scalar5.w(k).is_anti_diagonal()
    for k in range(1, 5):
        assert scalar5.z(k).is_diagonal()
    m = solve_w_z(4, "matrix")
    for k in range(1, 5):
        assert m.w(k).is_anti_diagonal()
    for k in range(1, 4):
        assert m.z(k).is_diagonal()


def test_residual_vanishes_below_truncation(scalar5):
    assert riccati_residual(scalar5).is_zero
    assert riccati_residual(solve_w_z(4, "matrix")).is_zero


def test_order_validation():
    with pytest.raises(ValueError):
        solve_w_z(0)
    with pytest.raises(ValueError):
        solve_gamma(-1)


def test_gamma_goldens():
    g = solve_gamma(4)
    for k in range(1, 5):
        assert g.gamma(k) == T.gamma_matrix(k), f"order {k}"


def test_gamma_residuals():
    assert gamma_residual(solve_gamma(5)).is_zero
    assert gamma_residual(solve_gamma(4, "gamma_hat")).is_zero


def test_gamma_scalar_equals_w21(scalar5):
    """Scalar specialization of the ratio equals the 21-entry exactly.

    The two recursions coincide termwise once products commute, so the
    order-1 dictionary is the identity: no sign or ordering adjustment.
    """
    g = solve_gamma(5)
    for k in range(1, 6):
        assert scalarize(g.gamma(k)) == scalar5.w(k).entries[1][0]


def test_z_lambda2_metadata(scalar5):
    from fractions import Fraction
    half = scalar5.z_lam2_density
    assert half.is_diagonal()
    assert half.entries[0][0].constant_term().re == Fraction(1, 2)
    assert half.entries[1][1].constant_term().re == Fraction(-1, 2)


@pytest.mark.parametrize("which", ["gamma", "gamma_hat"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_gamma_residual_detects_a_changed_coefficient(which, k):
    """Adding Gamma^(1) to one coefficient leaves a nonzero residual."""
    sol = solve_gamma(5, which)
    coeffs = list(sol.coeffs)
    coeffs[k - 1] = coeffs[k - 1] + coeffs[0]
    assert coeffs[k - 1] != sol.coeffs[k - 1]
    assert not gamma_residual(GammaSolution(which, 5, coeffs)).is_zero


# iota: t -> -t, u <-> uh, pi <-> pih, the end swap of test_acceptance.py.  On
# matrix words it also reverses the factor order, so an M x N block maps to an
# N x M block; each t-derivative flips the sign.
_IOTA_BASE = {"u": "uh", "uh": "u", "pi": "pih", "pih": "pi"}


def _iota_matrix(p):
    terms = {}
    for w, c in p.terms.items():
        atoms = [atom(_IOTA_BASE[a.base], a.dt, a.dx, "matrix", a.flow)
                 for a in reversed(w.atoms)]
        terms[make_word(atoms, "matrix")] = -c if sum(a.dt for a in w) % 2 else c
    return NCPolynomial("matrix", p.shape[::-1], terms)


def test_gamma_hat_is_end_swap_of_gamma():
    """Gamma-hat^(k) = (-1)^k iota(Gamma^(k)): a check of Gamma-hat that does not
    come from the solver (Gamma-hat has no typed table)."""
    g, gh = solve_gamma(9), solve_gamma(9, "gamma_hat")
    for k in range(1, 10):
        assert gh.gamma(k) == _iota_matrix(g.gamma(k)).scale((-1) ** k), k


def test_gamma_refuses_unknown_which():
    with pytest.raises(ValueError):
        solve_gamma(3, "gamma_tilde")


# -- the residuals build only the orders that their sum keeps -----------------------

def _full_form(w, vd_l, vd_r, va_q, va):
    """The residual as first written: every product built whole, then summed."""
    t = w.truncation
    vd_l, vd_r, va_q, va = (s.truncated(t) for s in (vd_l, vd_r, va_q, va))
    return w.differentiate_t() + w * vd_r - vd_l * w + w * va_q * w - va


def _same(got, want):
    """Equal coefficients, truncation and term order of every kept coefficient."""
    assert got == want and got.truncation == want.truncation
    assert [(p, [list(e.terms) for row in m.entries for e in row])
            for p, m in got.coeffs.items()] == \
        [(p, [list(e.terms) for row in m.entries for e in row])
         for p, m in want.coeffs.items()]


@pytest.mark.parametrize("mode,top", [("scalar", 10), ("matrix", 8)])
def test_riccati_residual_equals_the_full_product_formula(mode, top):
    """Also off the solution: with W^(1) doubled the residual is nonzero."""
    VD, VA = v_diagonal(mode), v_antidiagonal(mode)
    for order in range(1, top + 1):
        sol = solve_w_z(order, mode)
        w = sol.w_series()
        _same(riccati_residual(sol), _full_form(w, VD, VD, VA, VA))
        off = w + LaurentSeries.of(sol.w(1), -1)
        got = R._riccati_form(off, VD, VD, VA, VA)
        _same(got, _full_form(off, VD, VD, VA, VA))
        assert not got.is_zero


def _gamma_series(sol):
    i, j = R._GAMMA_BLOCK[sol.which]
    r, c = R.BLOCK_DIMS["matrix"][i], R.BLOCK_DIMS["matrix"][j]
    return LaurentSeries("matrix", (r,), (c,),
                         {-k: PolyMatrix("matrix", (r,), (c,), [[g]])
                          for k, g in enumerate(sol.coeffs, 1)}, sol.order), i, j


@pytest.mark.parametrize("which", ["gamma", "gamma_hat"])
def test_gamma_residual_equals_the_full_product_formula(which):
    VD, VA = v_diagonal("matrix"), v_antidiagonal("matrix")
    for order in range(1, 9):
        sol = solve_gamma(order, which)
        off = GammaSolution(which, order, [sol.coeffs[0] + sol.coeffs[0]] + sol.coeffs[1:])
        for s in (sol, off):
            g, i, j = _gamma_series(s)
            _same(gamma_residual(s), _full_form(g, VD.block(i, i), VD.block(j, j),
                                                VA.block(j, i), VA.block(i, j)))
        assert not gamma_residual(off).is_zero


@pytest.mark.parametrize("mode,top", [("scalar", 12), ("matrix", 9)])
def test_z_from_a_grown_tower_equals_a_cold_solve(mode, top, monkeypatch):
    """Z^(k) read from the tower after a solve at a higher order is the Z^(k) of
    a solve in an empty tower."""
    solve_w_z.cache_clear()
    solve_w_z(top, mode)
    warm = {k: solve_w_z(k, mode).z_coeffs for k in range(1, top)}
    for k in range(1, top):
        monkeypatch.setattr(R, "_TOWER", {})
        monkeypatch.setattr(R, "_Z", {})
        solve_w_z.cache_clear()
        cold = solve_w_z(k, mode).z_coeffs
        assert cold == warm[k] and [str(z) for z in cold] == [str(z) for z in warm[k]]
    solve_w_z.cache_clear()
