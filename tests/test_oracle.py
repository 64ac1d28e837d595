"""Numeric oracle: exact evaluation, identity checks, finite differences."""
import pytest

from laxforge.atoms import atom
from laxforge.ncpoly import NCPolynomial
from laxforge.oracle import (ExponentialSolution, FieldSample,
                             UnhousedAtomError, evaluate,
                             finite_difference_crosscheck, identity_check)
from laxforge.parser import parse_poly


def test_exponential_solution_at_origin():
    sol = ExponentialSolution(1, 1, 0)
    assert evaluate(parse_poly("u"), sol, (0.0, 0.0)) == pytest.approx(1.0)


def test_exponential_is_eigenfunction():
    sol = ExponentialSolution(0.7 + 0.2j, -0.3 + 0.1j, 0.4 - 0.5j)
    w = sol.omega
    expr = parse_poly("u_t")
    import random
    rng = random.Random(0)
    for _ in range(10):
        pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = evaluate(expr, sol, pt)
        rhs = w * evaluate(parse_poly("u"), sol, pt)
        assert abs(lhs - rhs) < 1e-12


def test_dispersion_relation():
    """Verified by direct substitution: u_t + u_xx - 2 uh u^2 vanishes."""
    import random
    rng = random.Random(1)
    resid = parse_poly("u_t + u_xx - 2*u*u*uh")
    resid_hat = parse_poly("uh_t - uh_xx + 2*u*uh*uh")
    for k in range(20):
        sol = ExponentialSolution.random(k)
        for _ in range(5):
            pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(evaluate(resid, sol, pt)) < 1e-12
            assert abs(evaluate(resid_hat, sol, pt)) < 1e-12


def test_unhoused_atom_rejected():
    sample = FieldSample.random(3)
    with pytest.raises(UnhousedAtomError):
        evaluate(NCPolynomial.from_atom(atom("K11", mode="scalar"), "scalar"),
                 sample, (0.0, 0.0))


def test_matrix_sample_shapes():
    sample = FieldSample.random(5, mode="matrix", dims=(2, 1))
    v = evaluate(NCPolynomial.from_atom(atom("u", mode="matrix"), "matrix"),
                 sample, (0.1, -0.2))
    assert v.shape == (1, 2)  # u is M x N
    prod = parse_poly("u*uh", mode="matrix")
    pv = evaluate(prod, sample, (0.1, -0.2))
    assert pv.shape == (1, 1)


def test_identity_check_syntactic_equality_is_exact():
    p = parse_poly("u*uh + pi")
    rep = identity_check(p, p, trials=5, tol=1e-15, seed=9)
    assert rep.passed and rep.max_abs == 0.0


def test_identity_check_reports_failure():
    rep = identity_check(parse_poly("u"), parse_poly("uh"), trials=5,
                         tol=1e-9, seed=9)
    assert not rep.passed and rep.max_abs > 1e-3


def test_identity_check_deterministic():
    a, b = parse_poly("u*uh"), parse_poly("u*uh")
    r1 = identity_check(a, b, trials=7, tol=1e-9, seed=123)
    r2 = identity_check(a, b, trials=7, tol=1e-9, seed=123)
    assert r1.as_dict() == r2.as_dict()


def test_fd_first_derivative():
    sample = FieldSample.random(11)
    rep = finite_difference_crosscheck(parse_poly("u"), sample, (0.3, -0.7),
                                       h=1e-4, var="t")
    assert rep["rel_error"] < 1e-7


def test_fd_second_derivative_order():
    """Halving h divides the central-difference error by about four."""
    sample = FieldSample.random(12)
    point = (0.2, 0.4)
    e1 = finite_difference_crosscheck(parse_poly("u"), sample, point,
                                      h=1e-3, var="t", order=2)["abs_error"]
    e2 = finite_difference_crosscheck(parse_poly("u"), sample, point,
                                      h=5e-4, var="t", order=2)["abs_error"]
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_fd_constant_expression():
    sample = FieldSample.random(13)
    rep = finite_difference_crosscheck(NCPolynomial.unit("scalar"), sample,
                                       (0.0, 0.0), h=1e-4)
    assert rep["abs_error"] == 0.0


def test_fd_step_validation():
    with pytest.raises(ValueError):
        finite_difference_crosscheck(parse_poly("u"), FieldSample.random(1),
                                     (0, 0), h=1e-2)


def test_sample_determinism():
    s1 = FieldSample.random(77)
    s2 = FieldSample.random(77)
    pt = (0.5, -0.5)
    a = evaluate(parse_poly("u*uh + pi*pih"), s1, pt)
    b = evaluate(parse_poly("u*uh + pi*pih"), s2, pt)
    assert a == b


def test_mode_budget():
    for seed in range(20):
        s = FieldSample.random(seed)
        for f in s.fields.values():
            assert 1 <= len(f.modes) <= 8
            assert all(abs(a) <= 1 for a, _ in f.modes)


def test_route_check_reaches_flow_8():
    """Generating and dressing routes agree numerically through flow 8."""
    from laxforge.checks import check_route
    rep = check_route(3, 1e-9, 7, max_n=8)
    assert rep["passed"] and rep["max_abs"] < 1e-12
