"""Numeric oracle: exact evaluation, identity checks, finite differences."""
import numpy as np
import pytest

from laxforge.atoms import atom
from laxforge.checks import identity_check
from laxforge.ncpoly import NCPolynomial
from laxforge.oracle import (ExponentialSolution, FieldSample,
                             UnhousedAtomError, evaluate,
                             finite_difference_crosscheck)
from laxforge.parser import parse_poly
from laxforge.series import LaurentSeries


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


def test_trace_evaluates_as_numpy_trace():
    import numpy as np

    from laxforge.ncpoly import nc_mul, trace
    from laxforge.riccati import solve_gamma
    g = solve_gamma(3)
    uh, pi = (NCPolynomial.from_atom(atom(b, mode="matrix"), "matrix") for b in ("uh", "pi"))
    inner = nc_mul(uh, g.gamma(3)) + nc_mul(pi, g.gamma(2))  # I^(2) = tr(inner)
    sample = FieldSample.random(9, mode="matrix", dims=(2, 1))
    for point in ((0.1, -0.2), (0.7, 0.4)):
        want = np.trace(evaluate(inner, sample, point))
        assert abs(evaluate(trace(inner), sample, point) - want) < 1e-12


def test_matrix_sample_shapes():
    sample = FieldSample.random(5, mode="matrix", dims=(2, 1))
    v = evaluate(NCPolynomial.from_atom(atom("u", mode="matrix"), "matrix"),
                 sample, (0.1, -0.2))
    assert v.shape == (1, 2)  # u is M x N
    prod = parse_poly("u*uh", mode="matrix")
    pv = evaluate(prod, sample, (0.1, -0.2))
    assert pv.shape == (1, 1)
    zero = LaurentSeries.zero("matrix", ("N", "M"), ("N", "M"))
    assert (evaluate(zero, sample, (0.1, -0.2), lam=1.5) == np.zeros((3, 3))).all()
    sol = ExponentialSolution(0.7 + 0.2j, -0.3 + 0.1j, 0.4 - 0.5j)
    zero = LaurentSeries.zero("scalar", ("1", "1"), ("1", "1"))
    assert (evaluate(zero, sol, (0.1, -0.2), lam=1.5) == np.zeros((2, 2))).all()


def test_identity_check_syntactic_equality_is_exact():
    p = parse_poly("u*uh + pi")
    rep = identity_check(p, p, trials=5, tol=1e-15, seed=9)
    assert rep["passed"] and rep["max_abs"] == 0.0


def test_identity_check_reports_failure():
    rep = identity_check(parse_poly("u"), parse_poly("uh"), trials=5,
                         tol=1e-9, seed=9)
    assert not rep["passed"] and rep["max_abs"] > 1e-3


def test_identity_check_deterministic():
    a, b = parse_poly("u*uh"), parse_poly("u*uh")
    r1 = identity_check(a, b, trials=7, tol=1e-9, seed=123)
    r2 = identity_check(a, b, trials=7, tol=1e-9, seed=123)
    assert r1 == r2


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


def test_riccati_worst_seed_names_the_sample_of_max_abs(monkeypatch):
    """The reported seed belongs to the mode whose maximum is reported."""
    from laxforge import checks
    drawn = []
    draw = FieldSample.random

    def logged(seed, mode="scalar", dims=(2, 1)):
        drawn.append((seed, mode))
        return draw(seed, mode, dims)
    monkeypatch.setattr(FieldSample, "random", staticmethod(logged))
    rep = checks.check_riccati(20, 1e-9, 2)
    assert rep["per_mode"]["scalar"] > rep["per_mode"]["matrix"]
    assert rep["max_abs"] == rep["per_mode"]["scalar"]
    assert (rep["worst_seed"], "scalar") in drawn


def test_nan_residual_fails_the_check(monkeypatch):
    """A NaN at an early order must not hide a large residual at a later one."""
    from laxforge import checks
    calls = []

    def poisoned(obj, sample, point, lam=None, params=None):
        calls.append(obj)  # 8 calls per sample: gen and dre for n = 1..4
        return np.full((2, 2), np.nan if len(calls) == 1 else 1e3)
    monkeypatch.setattr(checks, "evaluate", poisoned)
    rep = checks.check_route(3, 1e-9, 7)
    assert not rep["passed"] and np.isnan(rep["max_abs"])
    first = checks._worst(1, 7, lambda s, rng: 1.0)[1]
    assert rep["worst_seed"] == first
    assert checks._worst(3, 1, lambda s, rng: float("nan"))[0] != 0.0
    # nor may a NaN at a later equation hide behind a zero at an earlier one
    calls.clear()
    monkeypatch.setattr(checks, "evaluate", lambda *a, **k: (
        calls.append(a[0]) or (np.nan if len(calls) == 2 else 0.0)))
    rep = checks.check_dispersion(3, 1e-9, 7)
    assert not rep["passed"] and rep["worst_seed"] == first


def test_riccati_keeps_a_nan_mode(monkeypatch):
    """A NaN in either mode is the reported maximum, whatever the other mode gives."""
    from laxforge import checks
    for nan_mode in ("scalar", "matrix"):
        monkeypatch.setattr(checks, "_riccati_residual", lambda mode, order: (
            lambda s, rng: float("nan") if mode == nan_mode else 1.0))
        rep = checks.check_riccati(4, 1e-9, 3)
        assert not rep["passed"] and np.isnan(rep["max_abs"]), nan_mode


@pytest.mark.parametrize("trials", [0, -3])
def test_run_numeric_refuses_fewer_than_one_trial(trials):
    """With no sample drawn, every check would pass with max_abs 0.0."""
    from laxforge.checks import run_numeric
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_numeric("route", trials, 1e-9, 7)
