"""Flow operators, charges, equations of motion, conservation."""
import pytest

import laxforge.hierarchy as H
import laxforge.tables as T
from laxforge.atoms import atom, make_word
from laxforge.hierarchy import (DressRewriteError, bare_u, charges, dress_u,
                                eliminate_x, extract_eom, generate_u,
                                nls_v_operator, route_difference,
                                verify_conservation, zero_curvature_residual)
from laxforge.ncpoly import NCPolynomial, nc_mul, set_fields_zero
from laxforge.parser import parse_poly


def typed_kernel_rules(mode):
    """Reference data: the six seed kernel rules written out by hand, blockwise
    from Y = -XK (off-diagonal blocks) and dK/dt = YK (all four blocks)."""
    u, uh, pi, pih = (NCPolynomial.from_atom(atom(b, mode=mode), mode)
                      for b in ("u", "uh", "pi", "pih"))
    k11, k22 = atom("K11", mode=mode), atom("K22", mode=mode)
    a = {b: atom(b, mode=mode) for b in ("u", "uh", "pi", "pih")}
    return [
        ((a["u"], k11), pih),                                     # u K11 = pih
        ((a["uh"], k22), -pi),                                    # uh K22 = -pi
        ((a["pih"], k11), nc_mul(nc_mul(u, uh), u) - u.differentiate_t()),
        ((a["pi"], k22), -uh.differentiate_t() - nc_mul(nc_mul(uh, u), uh)),
        ((atom("K11", dt=1, mode=mode),), nc_mul(pi, u) - nc_mul(uh, pih)),
        ((atom("K22", dt=1, mode=mode),), nc_mul(pih, uh) - nc_mul(u, pi)),
    ]


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
def test_derived_seed_rules_equal_the_typed_ones(mode):
    def as_set(rules):
        return {(make_word(pat, mode), rep) for pat, rep in rules}
    derived = H._kernel_rules(mode, 0)
    assert len(derived) == 6
    assert as_set(derived) == as_set(typed_kernel_rules(mode))


def test_kernel_closure_adds_the_differentiated_product_rules():
    """Each level lifts the four product rules a*K -> r to a_t*K -> r_t - a*K_t."""
    seed, once = H._kernel_rules("matrix", 0), H._kernel_rules("matrix", 1)
    assert once[:6] == seed and len(once) == 10
    lifted = {tuple((a.base, a.dt) for a in pat) for pat, _ in once[6:]}
    assert lifted == {(("u", 1), ("K11", 0)), (("uh", 1), ("K22", 0)),
                      (("pih", 1), ("K11", 0)), (("pi", 1), ("K22", 0))}
    u_t_k11 = dict(once)[(atom("u", dt=1, mode="matrix"), atom("K11", mode="matrix"))]
    assert u_t_k11 == parse_poly("pih_t - u*pi*u + u*uh*pih", mode="matrix")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generate_goldens(n):
    assert generate_u(n, "scalar").series.coeffs == T.u_gen_scalar(n).coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dress_goldens(n):
    assert dress_u(n).series.coeffs == T.u_dress_matrix(n).coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_route_agreement(n):
    """The two routes differ by exactly the bare shift lam^(n-1)/2 * 1."""
    assert route_difference(n).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_route_agreement_matrix(n):
    """In matrix mode too the routes differ by the bare shift alone."""
    assert route_difference(n, "matrix").is_zero


@pytest.mark.parametrize("mode", ["matrix", "scalar"])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_dress_beyond_the_seed_rules(n, mode):
    op = dress_u(n, mode)
    kernel = {a.base for c in op.series.coeffs.values() for row in c.entries
              for e in row for a in e.atoms_set()} & {"K11", "K22"}
    assert op.flow == n and not kernel
    assert max(op.series.coeffs) == n - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_charge_operator_pairing(n):
    got = dress_u(n).series.coefficient(0)
    assert [list(r) for r in got.entries] == T.w0_matrix(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_bare_limit(n):
    """All fields -> 0 in the dressed operator leaves the vacuum operator."""
    op = dress_u(n)
    stripped = op.series.map_coefficients(
        lambda m: m.map_entries(set_fields_zero))
    assert stripped.coeffs == bare_u(n).series.coeffs


def test_dress_fails_loudly_when_closure_too_shallow(monkeypatch):
    """Flow 5 needs the rules closed once under d/dt; the seed rules alone
    leave kernel blocks behind, and dressing must say so."""
    derive = H._kernel_rules
    monkeypatch.setattr(H, "_kernel_rules", lambda mode, depth: derive(mode, 0))
    with pytest.raises(DressRewriteError, match="flow 5"):
        dress_u(5)


def test_h_charge_goldens():
    ch = charges("H", 4)
    for k in range(1, 4):
        assert ch[k - 1].density == T.h_scalar(k), f"H^({k})"
    assert ch[3].density == T.h_scalar(4)


def test_h4_transcription_diff_reported():
    """Term-multiset comparison for the order-4 charge, diff pinned exactly."""
    got = charges("H", 4)[3].density
    pub = T.h4_transcription()
    diff = got - pub
    shared = {w for w in got.terms if w in pub.terms
              and got.terms[w] == pub.terms[w]}
    assert shared  # the unambiguous terms agree
    expected_diff = parse_poly(
        "pi*pih_t - pih*pih_t - u*u*pi*pi + 2*u*uh*pi*pih - uh*uh*pih*pih "
        "- u*u*u*uh*pi*pi + 2*u*u*uh*uh*pi*pih - u*uh*uh*uh*pih*pih")
    assert diff == expected_diff


def test_i_charge_goldens():
    ch = charges("I", 3)
    for k in range(1, 4):
        assert ch[k - 1].density == T.i_matrix(k), f"I^({k})"


def test_charges_validation():
    with pytest.raises(ValueError):
        charges("H", 0)
    with pytest.raises(ValueError):
        charges("X", 2)


@pytest.mark.parametrize("mode,expected", [
    ("scalar", "u_t + u_xx - 2*u*u*uh"),
    ("matrix", "u_t + u_xx - 2*u*uh*u"),
])
def test_extract_eom_evolution(mode, expected):
    rules = extract_eom(generate_u(2, mode), nls_v_operator(mode))
    assert rules.evolution["u"] == parse_poly(expected, mode=mode)


@pytest.mark.parametrize("mode,expected", [
    ("scalar", "uh_t - uh_xx + 2*u*uh*uh"),
    ("matrix", "uh_t - uh_xx + 2*uh*u*uh"),
])
def test_extract_eom_hat_evolution(mode, expected):
    """The hat-field equation carries the reversed time sign."""
    rules = extract_eom(generate_u(2, mode), nls_v_operator(mode))
    assert rules.evolution["uh"] == parse_poly(expected, mode=mode)


def test_extract_eom_first_order():
    rules = extract_eom(generate_u(2, "matrix"), nls_v_operator("matrix"))
    got = {(a.base, a.dt, a.dx): v for a, v in rules.rules}
    from laxforge.atoms import atom
    from laxforge.ncpoly import NCPolynomial as P
    assert got[("uh", 0, 1)] == P.from_atom(atom("pi", mode="matrix"), "matrix")
    assert got[("u", 0, 1)] == P.from_atom(atom("pih", mode="matrix"), "matrix")
    assert set(rules.first_order) == {"pi", "pih"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_curvature_closes_for_each_flow(n):
    """Residual vanishes identically modulo that flow's extracted relations."""
    mode = "scalar"
    u_op = generate_u(n, mode)
    v_op = nls_v_operator(mode)
    rules = extract_eom(u_op, v_op)
    res = zero_curvature_residual(u_op, v_op)
    cleaned = res.substitute(rules.rules)
    assert cleaned.is_zero


def test_first_flow_relations_recorded():
    """The x_1 flow acts as opposite scaling on the two field pairs."""
    rules = extract_eom(generate_u(1, "scalar"), nls_v_operator("scalar"))
    got = {(a.base): v for a, v in rules.rules}
    assert got["u"] == parse_poly("-u") and got["pih"] == parse_poly("-pih")
    assert got["uh"] == parse_poly("uh") and got["pi"] == parse_poly("pi")


def test_third_flow_is_time_translation():
    rules = extract_eom(generate_u(3, "scalar"), nls_v_operator("scalar"))
    got = {a.base: v for a, v in rules.rules}
    for base in ("u", "uh", "pi", "pih"):
        assert got[base] == parse_poly(f"{base}_t")


def test_zero_curvature_constant_fields():
    """With t- and x-independent fields the third-flow residual vanishes."""
    res = zero_curvature_residual(generate_u(3, "scalar"), nls_v_operator("scalar"))
    # drop every term containing a derivative atom (constant-field limit)
    def constant_part(p):
        keep = {w: c for w, c in p.terms.items()
                if all(a.dt == 0 and a.dx == 0 for a in w.atoms)}
        return NCPolynomial(p.mode, p.shape, keep)
    limited = res.map_coefficients(lambda m: m.map_entries(constant_part))
    assert limited.is_zero


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_conservation(k):
    proof = verify_conservation(k)
    assert proof.flux.differentiate_t() == proof.x_derivative
    expected = {1: "u*uh", 2: "-uh*pih", 3: "-u_t*uh + u*u*uh*uh"}
    assert proof.flux == parse_poly(expected[k])


def test_eliminate_x_removes_all_x_atoms():
    rules = extract_eom(generate_u(2, "scalar"), nls_v_operator("scalar"))
    rho = charges("H", 2)[1].density
    out = eliminate_x(rho.differentiate_x(), rules)
    assert not out.has_x_atoms()


def test_constant_fields_make_density_x_flat():
    """With constant fields, d_x of every charge density evaluates to zero."""
    from laxforge.oracle import ExponentialSolution, evaluate
    const = ExponentialSolution(alpha=0.7 - 0.2j, beta=0, k=0)  # omega = 0
    for k in (1, 2, 3):
        rho = charges("H", k)[k - 1].density
        assert abs(evaluate(rho.differentiate_x(), const, (0.3, 0.4))) == 0.0


def test_generate_requires_valid_flow():
    with pytest.raises(ValueError):
        generate_u(0)
    with pytest.raises(ValueError):
        dress_u(-1)
