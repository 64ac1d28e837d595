"""Riccati solver: golden tables, residuals, structure invariants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxforge.riccati as R
import laxforge.tables as T
from laxforge.atoms import ShapeError, atom, make_word
from laxforge.coeff import gr
from laxforge.matrices import PolyMatrix, block_dims
from laxforge.ncpoly import NCPolynomial, end_swap, scalarize, trace
from laxforge.riccati import (GammaSolution, gamma_residual, nls_v, riccati_residual,
                              solve_gamma, solve_w_z)
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
        assert not scalar5.w(k).diagonal_part()
    for k in range(1, 5):
        assert scalar5.z(k).is_diagonal()
    m = solve_w_z(4, "matrix")
    for k in range(1, 5):
        assert not m.w(k).diagonal_part()
    for k in range(1, 4):
        assert m.z(k).is_diagonal()


def test_residual_vanishes_below_truncation(scalar5):
    assert riccati_residual(scalar5).is_zero
    assert riccati_residual(solve_w_z(4, "matrix")).is_zero


def test_a_zero_entry_takes_its_block_shape():
    for mode in ("scalar", "matrix"):
        m = PolyMatrix.from_rows(mode, [[0, 0], [0, 0]])
        assert m == PolyMatrix.zero(mode, block_dims(mode), block_dims(mode))
        assert [e.shape for row in m.entries for e in row] == \
            [(r, c) for r in block_dims(mode) for c in block_dims(mode)]


def test_a_constant_entry_is_a_multiple_of_its_block_identity():
    half = gr(Fraction(1, 2))
    m = PolyMatrix.from_rows("matrix", [[half, 0], [0, -1]])
    assert m.entries[0][0] == NCPolynomial.unit("matrix", "N", half)
    assert m.entries[1][1] == NCPolynomial.unit("matrix", "M", -1)
    assert PolyMatrix.from_rows("matrix", [[1, 0], [0, 1]]) == \
        PolyMatrix.identity("matrix", ("N", "M"))
    uh = NCPolynomial.from_atom(atom("uh", mode="matrix"), "matrix")
    assert PolyMatrix.from_rows("matrix", [[0, uh], [0, 0]]).entries[0][1] is uh


def test_a_constant_in_a_non_square_block_is_refused():
    with pytest.raises(ShapeError, match="cannot fill a NxM block"):
        PolyMatrix.from_rows("matrix", [[0, 1], [0, 0]])
    with pytest.raises(ShapeError, match="cannot fill a NxM block"):
        R.omega_matrix("matrix")
    assert R.omega_matrix("scalar") == \
        PolyMatrix.from_rows("scalar", [[0, gr(0, 1)], [gr(0, -1), 0]])


def test_other_row_counts_lay_out_scalar_blocks():
    m = PolyMatrix.from_rows("matrix", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m == PolyMatrix.identity("matrix", ("1", "1", "1"))
    with pytest.raises(ValueError):
        PolyMatrix.from_rows("scalar", [[1, 0], [0]])


def test_the_lam_series_form_keeps_the_table_order():
    s = LaurentSeries.from_rows("matrix", {1: [[1, 0], [0, 0]], -2: [[0, 0], [0, 0]],
                                           0: [[0, 0], [0, -1]]})
    assert list(s.coeffs) == [1, 0] and s.truncation is None
    assert s.row_dims == s.col_dims == ("N", "M")
    assert s.coefficient(0).entries[1][1] == NCPolynomial.unit("matrix", "M", -1)


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_v_splits_into_its_diagonal_and_anti_diagonal_parts(mode):
    v = nls_v(mode)
    vd, va = R._v_split(mode)
    assert vd + va == v
    assert all(m.is_diagonal() for m in vd.coeffs.values())
    assert all(not m.diagonal_part() for m in va.coeffs.values())
    assert list(vd.coeffs) == [2, 0] and list(va.coeffs) == [1, 0]
    f = {b: NCPolynomial.from_atom(atom(b, mode=mode), mode) for b in ("u", "uh", "pi", "pih")}
    assert va.coefficient(1) == PolyMatrix.from_rows(mode, [[0, f["uh"]], [f["u"], 0]])
    assert va.coefficient(0) == PolyMatrix.from_rows(mode, [[0, f["pi"]], [-f["pih"], 0]])
    assert vd.coefficient(2) == R.sigma_matrix(mode).scale(gr(Fraction(1, 2)))


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
    """Gamma-hat^(k) = (-1)^k iota(Gamma^(k)) beyond the typed orders 1..4, with
    the tests' own iota as the reference."""
    g, gh = solve_gamma(9), solve_gamma(9, "gamma_hat")
    for k in range(1, 10):
        assert gh.gamma(k) == _iota_matrix(g.gamma(k)).scale((-1) ** k), k


# -- the engine's end swap against the tests' iota ------------------------------------

@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_w12_is_the_end_swap_of_w21(mode):
    """W12^(n) = (-1)^n end_swap(W21^(n)), and end_swap is the tests' iota on
    W21 (the scalar-mode iota is test_acceptance.py's, checked there)."""
    sol = solve_w_z(12, mode)
    for n in range(1, 13):
        w21 = sol.w(n).entries[1][0]
        assert sol.w(n).entries[0][1] == end_swap(w21).scale((-1) ** n), n
        if mode == "matrix":
            assert end_swap(w21) == _iota_matrix(w21), n
        assert end_swap(end_swap(w21)) == w21, n


_STEPS = [(atom(a, da, dx, "matrix"), atom(b, db, 0, "matrix"))
          for a in ("u", "pih") for b in ("uh", "pi") for da in (0, 2) for db in (0, 1)
          for dx in (0, 1)]


@st.composite
def _matrix_polys(draw):
    """Field words M -> N -> M ..., of odd or even length, some with x-derivatives."""
    odd = draw(st.booleans())
    p = NCPolynomial.zero("matrix", ("M", "N") if odd else ("M", "M"))
    for steps, c in draw(st.lists(st.tuples(st.lists(st.sampled_from(_STEPS), min_size=1,
                                                     max_size=3),
                                            st.integers(-3, 3)), max_size=4)):
        atoms = [a for step in steps for a in step][:-1 if odd else None]
        p = p + NCPolynomial.from_word(atoms, "matrix", c)
    return p


@given(_matrix_polys())
@settings(max_examples=80, deadline=None)
def test_end_swap_is_iota_on_matrix_polynomials(p):
    assert end_swap(p) == _iota_matrix(p)
    assert end_swap(end_swap(p)) == p
    if p.shape[0] == p.shape[1]:
        assert trace(end_swap(p)) == end_swap(trace(p))


def test_end_swap_commutes_with_the_trace():
    sol = solve_w_z(8, "matrix")
    for k in range(1, 8):
        z11 = sol.z(k).entries[0][0]
        assert trace(end_swap(z11)) == end_swap(trace(z11)), k


@pytest.mark.parametrize("base", ["K11", "K22"])
def test_end_swap_refuses_a_kernel_atom_by_name(base):
    k = NCPolynomial.from_atom(atom(base, mode="matrix"), "matrix")
    with pytest.raises(ValueError, match=base):
        end_swap(k + k)


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_z22_is_the_end_swap_of_z11(mode):
    """Z22^(k) = (-1)^(k+1) end_swap(Z11^(k)) exactly in scalar mode.  In matrix
    mode the N x N and M x M blocks agree only under the trace, so the Z step
    builds both blocks rather than one from the other."""
    sol = solve_w_z(10, mode)
    for k in range(1, 10):
        z11, z22 = sol.z(k).entries[0][0], sol.z(k).entries[1][1]
        image = end_swap(z11).scale((-1) ** (k + 1))
        if mode == "scalar":
            assert z22 == image, k
        else:
            assert z22 != image and trace(z22) == trace(image), k


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


def _v_parts(mode):
    """V_D and V_A: the diagonal and anti-diagonal blocks of V's coefficients."""
    v = nls_v(mode)
    vd = v.map_coefficients(lambda m: m.diagonal_part())
    return vd, v - vd


@pytest.mark.parametrize("mode,top", [("scalar", 10), ("matrix", 8)])
def test_riccati_residual_equals_the_full_product_formula(mode, top):
    """Also off the solution: with W^(1) doubled the residual is nonzero."""
    VD, VA = _v_parts(mode)
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
    r, c = block_dims("matrix")[i], block_dims("matrix")[j]
    return LaurentSeries("matrix", (r,), (c,),
                         {-k: PolyMatrix("matrix", (r,), (c,), [[g]])
                          for k, g in enumerate(sol.coeffs, 1)}, sol.order), i, j


@pytest.mark.parametrize("which", ["gamma", "gamma_hat"])
def test_gamma_residual_equals_the_full_product_formula(which):
    VD, VA = _v_parts("matrix")
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


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_two_threads_growing_an_empty_tower_write_each_z_once(mode, monkeypatch):
    """Two solves that both read the density list empty, held together at their
    first Z density, leave one Z^(k) per order, and a later solve reads the
    densities of a cold one, term order included."""
    import threading

    monkeypatch.setattr(R, "_TOWER", {})
    monkeypatch.setattr(R, "_Z", {})
    solve_w_z.cache_clear()
    cold = solve_w_z(9, mode).z_coeffs
    monkeypatch.setattr(R, "_TOWER", {})
    monkeypatch.setattr(R, "_Z", {})
    solve_w_z.cache_clear()
    barrier, waited, errors = threading.Barrier(2, timeout=10), set(), []
    is_diagonal = PolyMatrix.is_diagonal

    def held(m):
        me = threading.get_ident()
        if me not in waited:
            waited.add(me)
            barrier.wait()
        return is_diagonal(m)

    def solve():
        try:
            solve_w_z(6, mode)
        except Exception as e:   # re-raised below, in the test's thread
            errors.append(e)

    monkeypatch.setattr(PolyMatrix, "is_diagonal", held)
    try:
        threads = [threading.Thread(target=solve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        monkeypatch.setattr(PolyMatrix, "is_diagonal", is_diagonal)
        assert not errors, errors
        assert len(R._Z[mode]) == 5
        warm = solve_w_z(9, mode).z_coeffs
        assert warm == cold and [str(z) for z in warm] == [str(z) for z in cold]
    finally:
        solve_w_z.cache_clear()


# sha256 of every W^(k) and Z^(k) entry of solve_w_z(10) as its (word, coefficient)
# terms in insertion order: that order sets the numeric oracle's summation order.
# W12 takes W21's order through the end swap, and Z22 follows from W12
_TERM_ORDER_DIGESTS = {
    "scalar": "fec7f42290304771908eab48baf6e27ca2f0af7de1cde1c85fde7743df6639ca",
    "matrix": "d641a9d8cdf1b3f3006164c9fd57339fd5ae2a29fe08b1600dc6b61767f0040e",
}


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_w_and_z_keep_their_term_order(mode, monkeypatch):
    """The digest holds for the shared tower and for an empty tower grown in two
    calls, where the second call reads orders the first one built."""
    import hashlib

    def digest(sol):
        text = repr([[(str(w), str(c)) for e in row for w, c in e.terms.items()]
                     for m in sol.w_coeffs + sol.z_coeffs for row in m.entries])
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(solve_w_z(10, mode)) == _TERM_ORDER_DIGESTS[mode]
    monkeypatch.setattr(R, "_TOWER", {})
    monkeypatch.setattr(R, "_Z", {})
    solve_w_z.cache_clear()
    try:
        solve_w_z(4, mode)
        assert len(R._TOWER[mode]) == 5
        assert digest(solve_w_z(10, mode)) == _TERM_ORDER_DIGESTS[mode]
    finally:
        solve_w_z.cache_clear()


# sha256 of every W^(k) and Z^(k) entry as its (word, coefficient) terms sorted by
# word: the values of the tower, whatever order the step sums their terms in
_VALUE_DIGESTS = {
    ("scalar", 16): ("c46ceded106fa79638e74a91a522c91c7dafcc7fdf61ac16e8a177296c41c2c5",
                     "c01e33528e7cf5a579e0055835f1f60b3615c8cc83d8cb75bc3e0310ca3afe2a"),
    ("matrix", 14): ("06733dcbbaea614afd0d3c1bf3b0f1db634887e116374cd0bc5698cecc16a283",
                     "e332fd1c0253b6435b83cd3a49370d866bd488ca80f38c1bcbb532cfd237ee65"),
}


def _value_digest(ms):
    import hashlib
    text = repr([[(str(w), str(c)) for e in row for w, c in e.sorted_terms()]
                 for m in ms for row in m.entries])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode,order", list(_VALUE_DIGESTS))
def test_w_and_z_keep_their_values(mode, order):
    sol = solve_w_z(order, mode)
    assert (_value_digest(sol.w_coeffs), _value_digest(sol.z_coeffs)) == \
        _VALUE_DIGESTS[mode, order]
