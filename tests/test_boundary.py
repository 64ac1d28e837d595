"""Reflection equation, Poisson structures, boundary operators and charges."""
import random
from fractions import Fraction
from itertools import product

import pytest

from laxforge import boundary, riccati
from laxforge.boundary import (BVARS, BoundaryParamError, BoundaryParams,
                               boundary_u, bulk_u2, extract_boundary_conditions,
                               k_matrix, open_charge_expansion,
                               poisson_antisymmetry_defect, poisson_residual,
                               reflection_residual, RVARS)
from laxforge.atoms import ShapeError
from laxforge.coeff import gr
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial, nc_mul
from laxforge.parser import parse_poly
from laxforge.ratfunc import MPoly
from laxforge.riccati import solve_w_z
from laxforge.series import LaurentSeries, series_invert, series_log


def _constants(rows) -> PolyMatrix:
    """A scalar-mode matrix whose entries are constants: Gaussian rationals or MPolys."""
    return PolyMatrix("scalar", ("1",) * len(rows), ("1",) * len(rows[0]),
                      [[NCPolynomial.unit("scalar", "1", c) for c in row] for row in rows])


def _nonzero(m: PolyMatrix):
    return [(i, j) for i, row in enumerate(m.entries) for j, e in enumerate(row) if e]


def test_kron_is_the_entry_formula():
    lam, xi = MPoly.variable(RVARS, "lam"), MPoly.variable(RVARS, "xi")
    u = parse_poly("u", "scalar")
    a = PolyMatrix("scalar", ("1", "1"), ("1", "1"),
                   [[u.scale(lam), NCPolynomial.unit("scalar", "1", gr(0, 1))],
                    [NCPolynomial.zero("scalar"), parse_poly("uh + 2", "scalar")]])
    b = _constants([[xi, gr(Fraction(1, 2))], [lam * xi - 1, gr(3, -1)]])
    got = a.kron(b)
    assert (got.row_dims, got.col_dims) == (("1",) * 4, ("1",) * 4)
    for i, j, k, l in product(range(2), repeat=4):
        assert got.entries[2 * i + k][2 * j + l] == nc_mul(a.entries[i][j], b.entries[k][l])


def test_kron_refuses_a_block_layout():
    blocks = PolyMatrix.identity("matrix", ("N", "M"))
    scalar = PolyMatrix.identity("matrix", ("1", "1"))
    for left, right in ((blocks, scalar), (scalar, blocks)):
        with pytest.raises(ShapeError, match="kron is only supported for all-scalar"):
            left.kron(right)


def test_reflection_residual_symbolic_zero():
    assert reflection_residual(k_matrix()).is_zero


def test_reflection_residual_identity_k():
    assert reflection_residual(PolyMatrix.identity("scalar", ("1", "1"))).is_zero


def test_reflection_residual_diagonal_limit():
    k = k_matrix()
    assert reflection_residual(k.diagonal_part()).is_zero


def test_reflection_detects_non_solution():
    lam = MPoly.variable(RVARS, "lam")
    xi = MPoly.variable(RVARS, "xi")
    bad = _constants([[lam + xi, lam * lam], [1, -lam + xi]])
    assert not reflection_residual(bad).is_zero


def test_reflection_flags_the_entries_of_a_non_solution():
    lam = MPoly.variable(RVARS, "lam")
    bad = _constants([[lam, lam * lam], [1, -lam]])
    assert _nonzero(reflection_residual(bad)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3),
        (2, 0), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize("k", [PolyMatrix.identity("scalar", ("1", "1", "1")),
                               PolyMatrix.identity("matrix", ("1", "1")),
                               PolyMatrix.identity("matrix", ("N", "M"))])
def test_reflection_residual_refuses_a_k_that_is_not_2x2(k):
    with pytest.raises(ValueError, match="K must be a 2x2 scalar-mode matrix"):
        reflection_residual(k)


@pytest.mark.parametrize("which", ["V", "U"])
def test_poisson_residual_zero(which):
    assert poisson_residual(which).is_zero


@pytest.mark.parametrize("which", ["V", "U"])
def test_poisson_antisymmetry(which):
    assert poisson_antisymmetry_defect(which).is_zero


# the entries each flipped bracket sign leaves nonzero
_FLIPPED = {
    ("V", ("u", "pi")): [(0, 1), (2, 1), (2, 3)],
    ("V", ("pi", "u")): [(0, 2), (1, 2), (1, 3)],
    ("V", ("uh", "pih")): [(1, 0), (1, 2), (3, 2)],
    ("V", ("pih", "uh")): [(2, 0), (2, 1), (3, 1)],
    ("U", ("u", "uh")): [(2, 1)],
    ("U", ("uh", "u")): [(1, 2)],
}


@pytest.mark.parametrize("which,pair", [(w, pair) for w in ("V", "U")
                                        for pair in boundary._BRACKETS[w]])
def test_poisson_detects_a_flipped_bracket_sign(which, pair, monkeypatch):
    table = dict(boundary._BRACKETS[which])
    table[pair] = -table[pair]
    monkeypatch.setitem(boundary._BRACKETS, which, table)
    assert _nonzero(poisson_residual(which)) == _FLIPPED[which, pair]


def test_poisson_detects_a_changed_lax_operator(monkeypatch):
    # a second copy of the momenta at lam^0: the brackets no longer fit V
    def with_momenta_twice(mode):
        v = riccati.nls_v(mode)
        y = v.coefficient(0)
        return v + LaurentSeries.of(y - y.diagonal_part())
    monkeypatch.setattr(boundary, "nls_v", with_momenta_twice)
    assert not poisson_residual("V").is_zero


def test_lax_operators_outside_the_poisson_variables_are_refused():
    with pytest.raises(ValueError, match="not an underived field"):
        boundary._lax_matrix(riccati.nls_v("scalar").differentiate_t())


# -- the end swap of 1 + W against the old hat-and-transpose route -------------

def _hat(series: LaurentSeries) -> LaurentSeries:
    """lam -> -lam on a Laurent series."""
    return series.map_powers(lambda p, m: -m if p % 2 else m)


def _transposed(series: LaurentSeries) -> LaurentSeries:
    """The entry transpose of every coefficient of a 2x2 scalar-mode series."""
    def transpose(m):
        return PolyMatrix(m.mode, m.col_dims, m.row_dims,
                          [[m.entries[j][i] for j in range(2)] for i in range(2)])
    return series.map_coefficients(transpose)


def test_hat_commutes_with_series_invert():
    """lam -> -lam is a ring automorphism, so it commutes with inversion,
    truncation included; the reference route inverts 1 + What this way."""
    s = solve_w_z(6, "scalar").one_plus_w()
    assert series_invert(_hat(s)) == _hat(series_invert(s))


@pytest.mark.parametrize("order", range(1, 13))
def test_end_swap_of_one_plus_w_is_the_transposed_hat(order):
    """W12^(n) = (-1)^n iota(W21^(n)) makes iota(1 + W) = (1 + What)^t; both
    sides commute with inversion, so iota((1 + W)^-1) = ((1 + What)^-1)^t."""
    s = solve_w_z(order, "scalar").one_plus_w()
    assert boundary._swap_ends(s) == _transposed(_hat(s))
    assert boundary._swap_ends(series_invert(s)) == _transposed(series_invert(_hat(s)))


def test_end_swap_refuses_a_block_layout():
    # an entrywise iota puts the N x M entry W12 in the M x N block
    with pytest.raises(ShapeError, match=r"entry \(0,1\) has shape \('M', 'N'\), "
                                         r"expected \('N', 'M'\)"):
        boundary._swap_ends(solve_w_z(2, "matrix").one_plus_w())


# -- boundary operators and conditions ---------------------------------------

def test_bulk_operator_form():
    s = bulk_u2().series
    assert str(s.coefficient(0).entries[0][1]) == "uh"
    assert s.coefficient(1).entries[0][0].constant_term() == \
        MPoly.constant(BVARS, gr(Fraction(1, 2)))


def _bp(c):
    return NCPolynomial.unit("scalar", "1", c)


def _bf(base, coeff=None):
    p = parse_poly(base)
    if coeff is None:
        return p.map_coeff(lambda c: MPoly.constant(BVARS, c))
    return p.map_coeff(lambda c: MPoly.constant(BVARS, c) * coeff)


def test_boundary_operator_entries_verbatim():
    """Both boundary operators match their parametric forms entry by entry.

    The asymmetry is as given: the plus operator's 21-entry is the bare u
    while the minus operator's 12-entry is the bare uh.
    """
    half = MPoly.constant(BVARS, gr(Fraction(1, 2)))
    for side, ka_n, xi_n, fld in (("+", "ka_p", "xi_p", "u"),
                                  ("-", "ka_m", "xi_m", "uh")):
        ka = MPoly.variable(BVARS, ka_n)
        xi = MPoly.variable(BVARS, xi_n)
        i_over = MPoly.constant(BVARS, gr(0, 1)) / ka
        s = boundary_u(side).series
        lam1 = s.coefficient(1).entries
        lam0 = s.coefficient(0).entries
        corner = (1, 0) if side == "-" else (0, 1)
        bare = (0, 1) if side == "-" else (1, 0)
        assert lam1[0][0] == _bp(half) and lam1[1][1] == _bp(-half)
        assert lam1[corner[0]][corner[1]] == _bp(i_over)
        assert lam1[bare[0]][bare[1]].is_zero
        assert lam0[0][0] == _bf(fld, -i_over)
        assert lam0[1][1] == _bf(fld, i_over)
        assert lam0[corner[0]][corner[1]] == _bf(fld) + _bp(xi / ka)
        assert lam0[bare[0]][bare[1]] == _bf("u" if side == "+" else "uh")


def test_kappa_zero_rejected():
    """A zero ka is refused when the constants are built, so no reader checks it again."""
    for given in ({"ka_p": 0}, {"ka_m": 0}, {"ka_p": Fraction(0), "xi_p": 1}):
        with pytest.raises(BoundaryParamError, match="kappa constants must be nonzero"):
            BoundaryParams(**given)
    with pytest.raises(BoundaryParamError):
        boundary_u("+", BoundaryParams(ka_p=0))
    with pytest.raises(BoundaryParamError):
        open_charge_expansion(BoundaryParams(ka_m=0))


@pytest.mark.parametrize("field", BVARS)
@pytest.mark.parametrize("value", [0.5, "1/2"], ids=["float", "str"])
def test_inexact_constants_are_refused(field, value):
    # a float 0.1 once became 3602879701896397/36028797018963968 in the terms
    with pytest.raises(TypeError, match=f"^{field} must be an int or Fraction, "
                                        f"not {type(value).__name__}$"):
        BoundaryParams(**{field: value})


@pytest.mark.parametrize("field", BVARS)
def test_int_and_fraction_constants_are_accepted(field):
    for value in (2, Fraction(-3, 4)):
        assert BoundaryParams(**{field: value}).values() == {field: gr(value)}


def test_the_expansion_keeps_no_riccati_order():
    import dataclasses
    assert "order" not in {f.name for f in dataclasses.fields(boundary.OpenChargeExpansion)}
    assert not hasattr(open_charge_expansion(order=4), "order")


@pytest.mark.parametrize("order", [0, 1, 2])
def test_open_charge_expansion_refuses_low_orders(order):
    # the lam^-2 bulk term reads Z^(2), which only an order >= 3 solve has
    with pytest.raises(ValueError, match="order must be >= 3"):
        open_charge_expansion(order=order)


def test_extract_boundary_conditions_plus():
    bc = extract_boundary_conditions(bulk_u2(), boundary_u("+"), "+")
    eqs = bc.as_dict()
    assert eqs["u"] == "0"
    assert eqs["uh"] == "(xi_p)/(ka_p)"
    assert len(bc.flags) == 1 and "lam^1" in bc.flags[0] and "ka_p" in bc.flags[0]


@pytest.mark.parametrize("side", ["x", "", "+-", "plus"])
def test_extract_boundary_conditions_refuses_a_bad_side(side):
    # "x" once returned the "+" conditions labelled "x"
    with pytest.raises(ValueError, match="side must be '[+]' or '-'"):
        extract_boundary_conditions(bulk_u2(), boundary_u("+"), side=side)


def test_extract_boundary_conditions_refuses_the_other_end():
    # the "-" label once came back on the "+" end's conditions
    for end, side in (("+", "-"), ("-", "+")):
        with pytest.raises(ValueError, match=f"side '[{side}]' contradicts the "
                                             f"operator's end '[{end}]'"):
            extract_boundary_conditions(bulk_u2(), boundary_u(end), side)


def test_extract_boundary_conditions_minus():
    bc = extract_boundary_conditions(bulk_u2(), boundary_u("-"), "-")
    eqs = bc.as_dict()
    assert eqs["uh"] == "0"
    assert eqs["u"] == "(xi_m)/(ka_m)"
    assert len(bc.flags) == 1 and "ka_m" in bc.flags[0]


def test_extract_boundary_conditions_take_the_operators_end_by_default():
    # the '-' end once raised "side '+' contradicts the operator's end '-'"
    for end in ("+", "-"):
        assert extract_boundary_conditions(bulk_u2(), boundary_u(end)) == \
            extract_boundary_conditions(bulk_u2(), boundary_u(end), end)
    assert extract_boundary_conditions(bulk_u2(), bulk_u2()).side == "+"


def test_boundary_operator_substitutes_the_given_constants():
    params = BoundaryParams(xi_p=Fraction(1, 2), xi_m=1, ka_p=3, ka_m=4)
    values = params.values()

    def subs(c):
        return c.subs_values(values) if isinstance(c, MPoly) else c

    for side, fld, value in (("+", "uh", "1/6"), ("-", "u", "1/4")):
        bare, given = boundary_u(side).series, boundary_u(side, params).series
        assert given != bare
        assert given == bare.map_coefficients(
            lambda m: m.map_entries(lambda e: e.map_coeff(subs)))
        eqs = extract_boundary_conditions(bulk_u2(), boundary_u(side, params), side).as_dict()
        assert eqs[fld] == value                        # xi/ka of that end
        assert boundary_u(side, BoundaryParams()).series == bare


def test_extract_boundary_conditions_idempotent():
    """Applying the equations to delta U leaves only the flagged lam-terms."""
    bc = extract_boundary_conditions(bulk_u2(), boundary_u("+"), "+")
    residual = bc.residual_after
    assert residual.coefficient(0).is_zero
    assert not residual.coefficient(1).is_zero  # exactly the flagged term


def test_extract_boundary_conditions_trivial():
    bc = extract_boundary_conditions(bulk_u2(), bulk_u2(), "+")
    assert bc.equations == [] and bc.flags == []


# -- open-chain charges --------------------------------------------------------

@pytest.fixture(scope="module")
def expansion():
    return open_charge_expansion()


def test_open_bulk_reproduces_closed_density(expansion):
    from laxforge.hierarchy import charges
    assert expansion.bulk_density == charges("H", 2)[1].density


def test_open_plus_term(expansion):
    """The plus-end term reproduces the reference value exactly."""
    xi_over_ka = MPoly.variable(BVARS, "xi_p") / MPoly.variable(BVARS, "ka_p")
    i_over_ka = MPoly.constant(BVARS, gr(0, 1)) / MPoly.variable(BVARS, "ka_p")
    expected = (parse_poly("u").map_coeff(lambda c: xi_over_ka * c)
                + parse_poly("pih").map_coeff(lambda c: -(i_over_ka * c))
                + parse_poly("u*u").map_coeff(
                    lambda c: MPoly.constant(BVARS, c) * Fraction(1, 2)))
    assert expansion.plus_term == expected


def test_open_minus_term_direct_expansion(expansion):
    """The minus-end generator expands to xi uh/ka + i pi/ka + uh^2/2 - u uh.

    This is the direct series expansion of the minus-end construction.  It is
    the end-swapped image of the plus-end term: iota(plus)|phi - u*uh, with
    iota: t -> -t, u <-> uh, pi <-> pih, phi: (xi+, ka+) -> (-xi-, -ka-) and
    u*uh the antiderivative of iota(H2) - H2.  test_acceptance (criterion 7c)
    derives that value from the typed plus-end reference.
    """
    xi_over_ka = MPoly.variable(BVARS, "xi_m") / MPoly.variable(BVARS, "ka_m")
    i_over_ka = MPoly.constant(BVARS, gr(0, 1)) / MPoly.variable(BVARS, "ka_m")
    expected = (parse_poly("uh").map_coeff(lambda c: xi_over_ka * c)
                + parse_poly("pi").map_coeff(lambda c: i_over_ka * c)
                + parse_poly("uh*uh").map_coeff(
                    lambda c: MPoly.constant(BVARS, c) * Fraction(1, 2))
                + parse_poly("u*uh").map_coeff(
                    lambda c: MPoly.constant(BVARS, -c)))
    assert expansion.minus_term == expected


def test_open_prefixes(expansion):
    c_plus, k_plus = expansion.plus_prefix
    c_minus, k_minus = expansion.minus_prefix
    assert k_plus == 1 and k_minus == 1
    assert c_plus == -MPoly.variable(BVARS, "ka_p")
    assert c_minus == MPoly.variable(BVARS, "ka_m")


def test_all_fields_zero_leaves_constants_only(expansion):
    """The boundary terms are purely field-dependent after constant stripping."""
    assert expansion.plus_term.constant_term() is None
    assert expansion.minus_term.constant_term() is None


def test_numeric_params_substituted():
    exp = open_charge_expansion(BoundaryParams(xi_p=2, ka_p=3, xi_m=1, ka_m=2))
    s = str(exp.plus_term)
    assert "xi_p" not in s and "ka_p" not in s


# -- the products cut at the power read, against the full-truncation route ------

def _reference_end_term(factor, values):
    """One end's term and prefix from a product built to the solve's order; its
    generator is cut at lam^-2 only for the log."""
    log, prefix = series_log(factor.block(0, 0).truncated(2))
    term = log.coefficient(-2).entries[0][0].scale(gr(Fraction(1, 2))).strip_constant()
    if values:
        term = term.map_coeff(lambda c: c.subs_values(values))
    return term, prefix


def _reference_expansion(params, order):
    """(bulk, plus term and prefix, minus term and prefix) with every factor of
    both reflected products truncated at ``order`` and each transposed hat factor
    built by the lam-flip and the entry transpose, as the expansion once built them."""
    sol = solve_w_z(order, "scalar")
    one_plus_w = sol.one_plus_w()
    omega = LaurentSeries.of(riccati.omega_matrix("scalar")).truncated(order)
    values = params.values()
    a_fac = _transposed(_hat(one_plus_w)) \
        * (omega * boundary._k_series("+").truncated(order)) * one_plus_w
    inv_w = series_invert(one_plus_w)
    b_fac = inv_w * (boundary._k_series("-").truncated(order) * omega) \
        * _transposed(_hat(inv_w))
    return (sol.z(2).entries[0][0], _reference_end_term(a_fac, values),
            _reference_end_term(b_fac, values))


def _seeded_params(seed):
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return BoundaryParams(rational(), rational(), rational(), rational())


def _term_list(p: NCPolynomial):
    return [(w, c, str(c)) for w, c in p.terms.items()]


@pytest.mark.parametrize("params", [BoundaryParams(), _seeded_params(5), _seeded_params(23)],
                         ids=["symbolic", "seed5", "seed23"])
@pytest.mark.parametrize("order", [3, 4, 6, 8])
def test_products_cut_at_the_read_power_match_the_full_truncation(order, params):
    """Building the reflected products only down to lam^-2, with the end swap in
    place of the transposed hat, changes no term, no term's place in its
    polynomial, no prefix and not the bulk."""
    exp = open_charge_expansion(params, order=order)
    bulk, (plus, plus_prefix), (minus, minus_prefix) = _reference_expansion(params, order)
    assert exp.bulk_density == bulk
    assert _term_list(exp.plus_term) == _term_list(plus)
    assert _term_list(exp.minus_term) == _term_list(minus)
    assert (exp.plus_prefix, exp.minus_prefix) == (plus_prefix, minus_prefix)
    assert exp.generator_plus.lowest_reliable == exp.generator_minus.lowest_reliable == -2


# -- independent numeric confirmation of both boundary generators ---------------

def _contour_log_coeff(build_matrix, entry, prefix_sign, radius=100.0, m=8):
    """lam^-2 coefficient of log(entry / (c lam)) via a DFT over a circle.

    The matrix is assembled with numpy (exact inverses, no truncated series),
    so this is independent of the Laurent-series arithmetic.
    """
    import numpy as np
    vals = []
    for j in range(m):
        lam = radius * np.exp(2j * np.pi * j / m)
        b = build_matrix(lam)
        c = prefix_sign * lam
        vals.append(np.log(b[entry] / c) * lam ** 2)
    return sum(vals) / m


@pytest.mark.parametrize("side", ["+", "-"])
def test_generator_numeric_contour(side, expansion):
    """numpy contour extraction agrees with the symbolic half-log coefficients."""
    import random

    import numpy as np

    from laxforge.oracle import evaluate
    from laxforge.riccati import solve_w_z
    rng = random.Random(314)
    sol = solve_w_z(4, "scalar")
    from laxforge.oracle import FieldSample
    sample = FieldSample.random(rng.randrange(2 ** 31))
    point = (0.3, -0.2)
    xi, ka = complex(rng.uniform(1, 2), rng.uniform(-1, 1)), \
        complex(rng.uniform(1, 2), rng.uniform(-1, 1))
    w_num = {k: np.atleast_2d(evaluate(sol.w(k), sample, point))
             for k in range(1, 5)}
    omega = np.array([[0, 1j], [-1j, 0]])

    def kmat(lam):
        return np.array([[lam + 1j * xi, 1j * ka * lam],
                         [1j * ka * lam, -lam + 1j * xi]])

    def one_plus_w(lam):
        return np.eye(2) + sum(w_num[k] * lam ** -k for k in w_num)

    if side == "+":
        def build(lam):
            wh = one_plus_w(-lam)
            return wh.T @ omega @ kmat(lam) @ one_plus_w(lam)
        got = _contour_log_coeff(build, (0, 0), -ka)
        term, names = expansion.plus_term, {"xi_p": xi, "ka_p": ka}
    else:
        def build(lam):
            wh = one_plus_w(-lam)
            return (np.linalg.inv(one_plus_w(lam)) @ kmat(lam) @ omega
                    @ np.linalg.inv(wh).T)
        got = _contour_log_coeff(build, (0, 0), ka)
        term, names = expansion.minus_term, {"xi_m": xi, "ka_m": ka}
    params = {"xi_p": 1.0, "xi_m": 1.0, "ka_p": 1.0, "ka_m": 1.0, **names}
    want = 2 * evaluate(term, sample, point, params=params)
    assert abs(got - want) < 1e-8
