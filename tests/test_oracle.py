"""Numeric oracle: exact evaluation, identity checks, finite differences."""
import hashlib
import os
import signal
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge import checks
from laxforge.atoms import FIELD_BASES, MATRIX_SHAPES, ShapeError, atom, make_word
from laxforge.checks import check_conservation, check_route, identity_check
from laxforge.coeff import GaussianRational, gr
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import NCPolynomial, trace
from laxforge.oracle import (Chunk, ExponentialSolution, FieldSample, Plan, TrigPoly,
                             UnhousedAtomError, evaluate,
                             finite_difference_crosscheck, plan, pymul)
from laxforge.parser import parse_poly
from laxforge.ratfunc import MPoly
from laxforge.riccati import solve_w_z
from laxforge.serialize import dumps
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


class _Underivable:
    """An expression that fails the test if the check differentiates it."""

    def differentiate_t(self):
        raise AssertionError("differentiated before the arguments were checked")

    differentiate_x = differentiate_t


@pytest.mark.parametrize("kwargs, message", [
    ({"var": "y"}, "var must be 't' or 'x', got 'y'"),     # once the x check, labelled y
    ({"order": 3}, "order must be 1 or 2, got 3"),
    ({"order": 0}, "order must be 1 or 2, got 0"),
    ({"order": True}, "order must be 1 or 2, got True"),
])
def test_fd_refuses_a_bad_variable_or_order_before_differentiating(kwargs, message):
    with pytest.raises(ValueError, match=message):
        finite_difference_crosscheck(_Underivable(), FieldSample.random(1), (0.1, 0.2),
                                     h=1e-4, **kwargs)


@pytest.mark.parametrize("check, size, message", [
    (check_route, {"max_n": 0}, "max_n must be >= 1, got 0"),
    (check_route, {"max_n": -2}, "max_n must be >= 1, got -2"),
    (check_conservation, {"max_k": 0}, "max_k must be >= 1, got 0"),
])
def test_a_battery_with_nothing_to_check_is_refused(check, size, message):
    """Each once failed deep in numpy, reducing an empty array of residuals."""
    with pytest.raises(ValueError, match=message):
        check(3, 1e-9, 7, **size)


def test_an_empty_chunk_is_refused():
    """An empty chunk once failed with an unnamed IndexError."""
    with pytest.raises(ValueError, match="at least one .* trial, got none"):
        plan(parse_poly("u*uh")).value([])
    with pytest.raises(ValueError, match="at least one .* trial, got none"):
        Chunk([])


@pytest.mark.parametrize("mode, dims, message", [
    ("bogus", (2, 1), "mode must be 'scalar' or 'matrix', got 'bogus'"),
    ("trace", (2, 1), "mode must be 'scalar' or 'matrix', got 'trace'"),
    ("matrix", (0, 1), r"dims must be two sizes >= 1, got \(0, 1\)"),
    ("scalar", (2, -1), r"dims must be two sizes >= 1, got \(2, -1\)"),
    ("matrix", (2,), r"dims must be two sizes >= 1, got \(2,\)"),
    ("matrix", (1.5, 1), r"dims must be two sizes >= 1, got \(1.5, 1\)"),
])
def test_a_sample_of_an_unknown_mode_or_empty_size_is_refused(mode, dims, message):
    """Both were once accepted: an unknown mode was drawn as a matrix sample."""
    with pytest.raises(ValueError, match=message):
        FieldSample.random(1, mode, dims)


def test_a_chunk_of_samples_with_other_sizes_is_refused():
    trials = [(FieldSample.random(1, "matrix", (2, 1)), (0.1, 0.2), None),
              (FieldSample.random(2, "matrix", (1, 2)), (0.1, 0.2), None)]
    with pytest.raises(ValueError, match="must share their mode and sizes"):
        Chunk(trials).atom_values([atom("u", mode="matrix")])


def test_sample_determinism():
    s1 = FieldSample.random(77)
    s2 = FieldSample.random(77)
    pt = (0.5, -0.5)
    a = evaluate(parse_poly("u*uh + pi*pih"), s1, pt)
    b = evaluate(parse_poly("u*uh + pi*pih"), s2, pt)
    assert a == b


def _entries(field) -> list:
    """The ``TrigPoly`` of each block entry of a sample's field, from its flat lists."""
    counts, amps, ws, ks = field
    modes = list(zip(amps, zip(ws, ks)))
    return [TrigPoly(tuple(modes[start:start + n]))
            for start, n in zip(accumulate([0] + counts), counts)]


def test_mode_budget():
    for seed in range(20):
        s = FieldSample.random(seed)
        for f in s.fields.values():
            for g in _entries(f):
                assert 1 <= len(g.modes) <= 8
                assert all(abs(a) <= 1 for a, _ in g.modes)


def _trig_by_methods(rng):
    """The draw as written with the random.Random methods."""
    from laxforge.oracle import MAX_MODES, TrigPoly
    modes = []
    for _ in range(rng.randint(1, MAX_MODES)):
        amp = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        modes.append((amp, (rng.randint(-2, 2), rng.randint(-2, 2))))
    return TrigPoly(tuple(modes))


def test_trig_draws_equal_the_random_methods():
    """Drawing straight from getrandbits and random into flat lists gives the
    same samples and leaves the generator in the same state as randint and
    uniform."""
    import random
    from laxforge.oracle import _draw_modes
    for seed in range(1200):
        direct, methods = random.Random(seed), random.Random(seed)
        drawn = _draw_modes(direct, 3)
        assert _entries(drawn) == [_trig_by_methods(methods) for _ in range(3)], seed
        assert direct.getstate() == methods.getstate(), seed


def test_route_check_reaches_flow_12():
    """Generating and dressing routes agree numerically through flow 12, as far
    as the symbolic route comparison goes."""
    from laxforge.checks import check_route
    rep = check_route(3, 1e-9, 7, max_n=12)
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

    def poisoned(plan, trials):
        calls.append(plan)  # 8 calls per chunk: gen and dre for n = 1..4
        return np.full((len(trials), 2, 2), np.nan if len(calls) == 1 else 1e3)
    monkeypatch.setattr(Plan, "value", poisoned)
    rep = checks.check_route(3, 1e-9, 7)
    assert not rep["passed"] and np.isnan(rep["max_abs"])
    first = checks._worst(1, 7, lambda batch: np.ones(len(batch)), int)[1]
    assert rep["worst_seed"] == first
    assert checks._worst(3, 1, lambda batch: np.full(len(batch), np.nan), int)[0] != 0.0
    # nor may a NaN at a later equation hide behind a zero at an earlier one
    calls.clear()
    monkeypatch.setattr(Plan, "value", lambda plan, trials: (
        calls.append(plan) or np.full(len(trials), np.nan if len(calls) == 2 else 0.0)))
    rep = checks.check_dispersion(3, 1e-9, 7)
    assert not rep["passed"] and rep["worst_seed"] == first


def test_riccati_keeps_a_nan_mode(monkeypatch):
    """A NaN in either mode is the reported maximum, whatever the other mode gives."""
    from laxforge import checks
    for nan_mode in ("scalar", "matrix"):
        monkeypatch.setattr(checks, "_riccati_residual", lambda mode, order: (
            lambda batch: np.full(len(batch), np.nan if mode == nan_mode else 1.0)))
        rep = checks.check_riccati(4, 1e-9, 3)
        assert not rep["passed"] and np.isnan(rep["max_abs"]), nan_mode


@pytest.mark.parametrize("trials", [0, -3])
def test_run_numeric_refuses_fewer_than_one_trial(trials):
    """With no sample drawn, every check would pass with max_abs 0.0."""
    from laxforge.checks import run_numeric
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_numeric("route", trials, 1e-9, 7)


@pytest.mark.parametrize("run", [
    lambda: checks.run_numeric("all", 5, 1e-9, -5),
    lambda: checks.check_algebra(5, 1e-9, -5),
    lambda: identity_check(parse_poly("u"), parse_poly("u"), trials=5, tol=1e-9, seed=-5),
], ids=["run_numeric", "check", "identity_check"])
def test_a_negative_seed_is_refused(run):
    """``random.Random(-5)`` draws what ``random.Random(5)`` does: a negative
    seed once gave seed 5's max_abs and worst_seed in a report labelled -5."""
    with pytest.raises(ValueError, match="^seed must be >= 0, got -5$"):
        run()


# -- the compiled evaluation against the per-term algorithm ---------------------

def _reference(expr, sample, point, lam=None, params=None):
    """Per-term evaluation: every atom of every word evaluated afresh, each
    entry summed in its own array and the blocks joined by ``np.block``."""
    t, x = point

    def coeff(c):
        return c.to_complex() if isinstance(c, GaussianRational) else c.eval(params)

    def poly(p):
        rows, cols = map(sample.dim_of, p.shape)
        out = np.zeros((rows, cols), dtype=complex)
        for w, c in p.terms.items():
            if not w.atoms:
                out += coeff(c) * np.eye(rows, cols, dtype=complex)
                continue
            val = None
            for a in w.atoms:
                v = np.atleast_2d(sample.atom_value(a, t, x))
                val = v if val is None else val @ v
            out += coeff(c) * (np.trace(val) if p.mode == "trace" else val)
        if out.shape == (1, 1) and (p.mode == "scalar" or p.shape == ("1", "1")):
            return out[0, 0]
        return out

    def matrix(m):
        return np.block([[np.atleast_2d(poly(e)) for e in row] for row in m.entries])

    if isinstance(expr, NCPolynomial):
        return poly(expr)
    if isinstance(expr, PolyMatrix):
        return matrix(expr)
    out = np.zeros((sum(map(sample.dim_of, expr.row_dims)),
                    sum(map(sample.dim_of, expr.col_dims))), dtype=complex)
    for p, m in expr.coeffs.items():
        out = out + matrix(m) * lam ** p
    return out


_FROM = {d: [b for b in FIELD_BASES if MATRIX_SHAPES[b][0] == d] for d in ("N", "M")}
_GAUSSIAN = st.builds(lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
                      st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
_MPOLY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-2, 1)), _GAUSSIAN,
                         max_size=3).map(lambda terms: MPoly(("xi", "ka"), terms))


@st.composite
def _word(draw, mode, rows, cols):
    """A word from block dimension ``rows`` to ``cols`` (any word in scalar mode)."""
    def derivs():
        return draw(st.integers(0, 2)), draw(st.integers(0, 1))
    if mode == "scalar":
        return [atom(draw(st.sampled_from(FIELD_BASES)), *derivs(), mode="scalar")
                for _ in range(draw(st.integers(0, 4)))]
    atoms, dim = [], rows
    for _ in range(2 * draw(st.integers(0, 2)) + (rows != cols)):
        base = draw(st.sampled_from(_FROM[dim]))
        atoms.append(atom(base, *derivs(), mode="matrix"))
        dim = MATRIX_SHAPES[base][1]
    return atoms


@st.composite
def _poly(draw, mode, rows="N", cols="N", coeffs=_GAUSSIAN):
    shape = ("1", "1") if mode == "scalar" else (rows, cols)
    words = draw(st.lists(_word(mode, rows, cols), max_size=4))
    return NCPolynomial(mode, shape, {make_word(w, mode): draw(coeffs) for w in words})


def _block_dims(mode):
    return ("1", "1") if mode == "scalar" else ("N", "M")


@st.composite
def _poly_matrix(draw, mode):
    dims = _block_dims(mode)
    return PolyMatrix(mode, dims, dims, [[draw(_poly(mode, r, c)) for c in dims]
                                         for r in dims])


@st.composite
def _series(draw, mode):
    dims = _block_dims(mode)
    powers = draw(st.sets(st.integers(-3, 3), max_size=3))
    return LaurentSeries(mode, dims, dims, {p: draw(_poly_matrix(mode)) for p in powers})


def _traced(p):
    return trace(NCPolynomial("matrix", p.shape,
                              {w: c for w, c in p.terms.items() if w.atoms}))


_DIM_PAIRS = st.sampled_from([("N", "N"), ("N", "M"), ("M", "N"), ("M", "M")])
_MODES = st.sampled_from(["scalar", "matrix"])
EXPRESSIONS = {
    "scalar": _poly("scalar"),
    "matrix": _DIM_PAIRS.flatmap(lambda d: _poly("matrix", *d)),
    "trace": st.sampled_from(["N", "M"]).flatmap(lambda d: _poly("matrix", d, d)).map(_traced),
    "poly-matrix": _MODES.flatmap(_poly_matrix),
    "series": _MODES.flatmap(_series),
    "mpoly-coefficients": _poly("scalar", coeffs=_MPOLY),
    "mixed-coefficients": _poly("scalar", coeffs=st.one_of(_GAUSSIAN, _MPOLY)),
}


@pytest.mark.parametrize("kind", sorted(EXPRESSIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_plan_matches_the_per_term_evaluation(kind, data):
    expr = data.draw(EXPRESSIONS[kind])
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    if expr.mode == "scalar":
        samples = [FieldSample.random(seed), ExponentialSolution.random(seed)]
    else:
        dims = data.draw(st.sampled_from([(2, 1), (1, 2), (2, 2)]))
        samples = [FieldSample.random(seed, "matrix", dims)]
    coord = st.floats(-1, 1)
    point = (data.draw(coord), data.draw(coord))
    lam = complex(data.draw(st.floats(0.5, 2)), data.draw(coord))
    params = {"xi": complex(data.draw(coord), data.draw(coord)),
              "ka": complex(data.draw(st.floats(0.5, 2)), data.draw(coord))}
    for sample in samples:
        got = evaluate(expr, sample, point, lam, params)
        want = _reference(expr, sample, point, lam, params)
        assert np.shape(got) == np.shape(want)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(EXPRESSIONS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_a_chunk_evaluates_each_trial_as_alone(kind, data):
    """Each trial of a chunk gets its own value, on the chunk's leading axis
    (equal up to the one fused product a lone trial may leave unfused)."""
    expr = data.draw(EXPRESSIONS[kind])
    seeds = data.draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=4))
    if expr.mode == "scalar":   # both sample types answer a scalar expression
        samples = [(FieldSample.random, ExponentialSolution.random)[i % 2](s)
                   for i, s in enumerate(seeds)]
    else:
        samples = [FieldSample.random(s, "matrix") for s in seeds]
    coord = st.floats(-1, 1)
    trials = [(sample, (data.draw(coord), data.draw(coord)),
               complex(data.draw(st.floats(0.5, 2)), data.draw(coord))) for sample in samples]
    compiled = plan(expr, {"xi": 0.3 - 0.2j, "ka": 1.1 + 0.4j})
    chunk = compiled.value(trials)
    assert len(chunk) == len(trials)
    for got, trial in zip(chunk, trials):
        alone = evaluate(compiled, *trial)
        assert np.shape(got) == np.shape(alone)
        assert np.allclose(got, alone, rtol=1e-13, atol=1e-13)


_FINITE = st.floats(-1e150, 1e150)


@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE), min_size=1, max_size=40))
def test_pymul_rounds_as_python(parts):
    """numpy's complex product may fuse a multiply and an add; ``pymul`` rounds
    every product and sum as Python's ``complex * complex`` does."""
    a = [complex(ar, ai) for ar, ai, _, _ in parts]
    b = [complex(br, bi) for _, _, br, bi in parts]
    bits = [(z.real, z.imag) for z in pymul(np.array(a), np.array(b)).tolist()]
    assert bits == [((x * y).real, (x * y).imag) for x, y in zip(a, b)]
    assert pymul(a[0], np.array(b)).tolist() == [a[0] * y for y in b]


def test_each_atom_is_evaluated_once_per_chunk(monkeypatch):
    """The chunk keeps its atom values: plans reading one chunk share them, and
    another chunk, at another point or with another sample, evaluates afresh."""
    from laxforge import oracle
    calls = []
    trig_values = oracle._trig_values

    def counted(samples, points, atoms, stacks):
        calls.extend(str(a) for a in atoms)
        return trig_values(samples, points, atoms, stacks)
    monkeypatch.setattr(oracle, "_trig_values", counted)
    sample, point = FieldSample.random(4), (0.1, 0.2)
    p, q = plan(parse_poly("u*u*uh + u_t*uh")), plan(parse_poly("u*uh_x"))
    chunk = Chunk([(sample, point, None), (FieldSample.random(5), (0.3, -0.4), None)])
    first = p.value(chunk)
    for _ in range(2):
        assert (p.value(chunk) == first).all()
        q.value(chunk)
    assert sorted(calls) == ["u", "u_t", "uh", "uh_x"]
    assert p.value([(sample, point, None)]) == first[0]       # a new chunk misses
    p.value([(sample, (0.3, 0.2), None)])                     # so does another point
    p.value([(FieldSample.random(4), point, None)])           # and another sample
    assert len(calls) == 4 + 3 * 3


def test_a_plan_allocates_per_block_entry():
    """A plan sums each block entry's terms on their own: evaluating W^(6) (22
    terms, 3x3 blocks) on 64 trials allocates less than one full 3x3 block
    per term and trial would take."""
    w6 = solve_w_z(6, "matrix").w(6)
    terms = sum(len(e.terms) for row in w6.entries for e in row)
    compiled = plan(w6)
    chunk = Chunk([(FieldSample.random(s, "matrix"), (0.1 * s, -0.05 * s), None)
                   for s in range(64)])
    chunk.atom_values(compiled.atoms)
    tracemalloc.start()
    try:
        compiled.value(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == 22 and peak < 64 * terms * 3 * 3 * 16


def _bits(values) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(values).tolist()]


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_the_chunk_evaluator_is_trig_poly_value_bit_for_bit(mode):
    """Every atom up to u_tttt_xx at 200 seeds, eight trials a chunk: the
    stacked numpy route gives each value exactly as TrigPoly.value does,
    signed zeros included, whatever the mix of mode counts padded together."""
    import random
    atoms = [atom(b, dt, dx, mode=mode) for b in FIELD_BASES for dt in range(5)
             for dx in range(3)]
    rng, counts = random.Random(17), set()
    for start in range(0, 200, 8):
        dims = [(2, 1), (1, 2), (2, 2)][start // 8 % 3]
        samples = [FieldSample.random(s, mode, dims) for s in range(start, start + 8)]
        points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in samples]
        chunk_counts = {n for s in samples for f in s.fields.values() for n in f[0]}
        assert len(chunk_counts) > 1
        counts |= chunk_counts
        values = Chunk([(s, pt, None) for s, pt in zip(samples, points)]).atom_values(atoms)
        for a, got in zip(atoms, values):
            for s, (t, x), v in zip(samples, points, got):
                polys = _entries(s.fields[a.base])
                assert _bits(v) == _bits([g.value(t, x, a.dt, a.dx) for g in polys]), (a, s.seed)
    assert counts == set(range(1, 9))


def test_a_field_without_modes_is_zero():
    """A trig polynomial with no modes is the zero field, alone or padded
    beside an entry that keeps its exact value."""
    sample = FieldSample.random(6, "matrix")
    (n, kept), amps, ws, ks = sample.fields["u"]    # u is M x N: one row of two entries
    sample.fields["u"] = ([0, kept], amps[n:], ws[n:], ks[n:])
    u_t = atom("u", 1, mode="matrix")
    got = sample.atom_value(u_t, 0.3, -0.2)
    second = _entries(sample.fields["u"])[1]
    assert len(second.modes) == kept
    assert _bits(got) == _bits([0j, second.value(0.3, -0.2, 1)])
    sample = FieldSample.random(6)
    sample.fields["uh"] = ([0], [], [], [])
    assert _bits(sample.atom_value(atom("uh", 2, 1, mode="scalar"), 0.3, -0.2)) == _bits(0j)


@pytest.mark.parametrize("sample", [FieldSample.random(3), ExponentialSolution.random(3)],
                         ids=["trig", "exponential"])
def test_x_derivatives_of_other_flows_are_refused(sample):
    """u_x4 once evaluated silently as u_x: only flow 2 has an evaluator."""
    u_x4 = atom("u", dx=1, mode="scalar", flow=4)
    with pytest.raises(UnhousedAtomError):
        sample.atom_value(u_x4, 0.1, 0.2)
    with pytest.raises(UnhousedAtomError):
        evaluate(NCPolynomial.from_atom(u_x4, "scalar"), sample, (0.1, 0.2))
    assert evaluate(parse_poly("u_x"), sample, (0.1, 0.2)) == sample.atom_value(
        atom("u", dx=1, mode="scalar"), 0.1, 0.2)


def _as_series(p):
    return LaurentSeries.of(PolyMatrix(p.mode, p.shape[:1], p.shape[1:], [[p]]))


@pytest.mark.parametrize("expr, refusing, accepting", [
    (parse_poly("u", mode="matrix"), "scalar", "matrix"),     # once [[v, v]]
    (parse_poly("u*uh"), "matrix", "scalar"),                 # once a number
    (trace(parse_poly("uh*u", mode="matrix")), "scalar", "matrix"),
], ids=["matrix-on-scalar", "scalar-on-matrix", "trace-on-scalar"])
def test_a_sample_of_the_other_mode_is_refused(expr, refusing, accepting):
    """A plan refuses a FieldSample of the other mode; a trace counts as matrix."""
    point = (0.1, 0.2)
    kinds = [expr] if expr.mode == "trace" else [expr, _as_series(expr)]
    for e in kinds:
        with pytest.raises(ValueError, match=f"{expr.mode}-mode expression cannot be "
                                             f"evaluated on a {refusing}-mode sample"):
            evaluate(e, FieldSample.random(1, refusing), point, lam=0.5)
        evaluate(e, FieldSample.random(1, accepting), point, lam=0.5)


def test_the_exponential_solution_takes_either_mode():
    """Every block of the exponential family is 1x1, so it has no mode to refuse."""
    sol, point = ExponentialSolution.random(1), (0.1, 0.2)
    assert np.allclose(evaluate(parse_poly("uh*u", mode="matrix"), sol, point),
                       [[evaluate(parse_poly("u*uh"), sol, point)]])


@pytest.mark.parametrize("text", ["uh*u", "uh*u*uh*u", "pi*pih"])
def test_the_trace_of_a_word_of_exponentials_is_its_value(text):
    """A 1x1 block is its own trace, so a trace-mode plan reads the word's value
    (up to rounding: the trace word is a rotation, multiplied in another order)."""
    sol, point = ExponentialSolution.random(1), (0.1, 0.2)
    p = parse_poly(text, mode="matrix")
    (entry,) = np.asarray(evaluate(p, sol, point)).ravel()
    assert evaluate(trace(p), sol, point) == pytest.approx(entry, rel=1e-14)


def test_battery_worst_seeds_are_pinned():
    """The compiled route rounds as the per-term one did, so each check still
    names the same worst sample (values recorded before plans existed)."""
    from laxforge.checks import run_numeric
    rep = run_numeric("all", 20, 1e-9, seed=7)
    assert {c["name"]: c["worst_seed"] for c in rep["checks"]} == {
        "algebra": 404285457, "conservation": 1836494974, "eom": 346094055,
        "dispersion": 1836494974, "riccati": 507088656, "gamma": 949539216,
        "route": 1475216845}
    assert rep["passed"]


# sha256 of the canonical report of run_numeric("all", 300, 1e-9, seed), recorded
# when every trial was evaluated on its own
BATTERY_DIGESTS = {
    1: "0142efe1736900e9818c5ba1fd74e40374d50890f14dbd08d9faedf4204cf8e1",
    42: "189182667e8ecdda047ce20f03e73358d88d022295aebc25df8b9daca5734893",
}


@pytest.mark.parametrize("seed", sorted(BATTERY_DIGESTS))
def test_battery_reports_are_pinned(seed):
    """Evaluating a chunk of trials at once rounds every residual as the
    trial-by-trial loop did, so the report bytes do not move."""
    from laxforge.checks import run_numeric
    text = dumps(run_numeric("all", 300, 1e-9, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == BATTERY_DIGESTS[seed]


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    """160 trials fill chunks of 7 and of the default size unevenly; the report
    is the one of chunks of one trial."""
    from laxforge import checks
    sizes = (1, 7, checks._CHUNK)
    assert 160 % sizes[-1] and 160 % 7 and sizes[-1] < 160 and sizes[-1] > 7
    reports = []
    for size in sizes:
        monkeypatch.setattr(checks, "_CHUNK", size)
        reports.append(dumps(checks.run_numeric("all", 160, 1e-9, 5)))
    assert reports == [reports[0]] * len(sizes)


def test_checks_refuse_fewer_than_one_trial():
    """A check that samples nothing once passed with max_abs 0.0."""
    from laxforge.checks import check_gamma
    with pytest.raises(ValueError, match="trials must be >= 1"):
        identity_check(parse_poly("u"), parse_poly("u"), trials=0, tol=1e-9)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_gamma(0, 1e-9, 7)


def test_the_battery_builds_no_trig_poly(monkeypatch):
    """Samples are drawn into flat lists and stacked from them: a ``TrigPoly``
    built anywhere in the battery, in the caller or a child, fails it."""
    from laxforge import oracle

    def refused(self, *args):
        raise AssertionError("a TrigPoly was built during run_numeric")
    monkeypatch.setattr(oracle.TrigPoly, "__init__", refused)
    with pytest.raises(AssertionError):
        TrigPoly(())
    assert checks.run_numeric("all", 5, 1e-9, 3)["passed"]
    assert not hasattr(oracle, "_random_trig")


@pytest.mark.parametrize("trials, per_mode", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_riccati_reports_the_samples_it_draws(monkeypatch, trials, per_mode):
    from laxforge import checks
    drawn = Counter()
    draw = FieldSample.random

    def logged(seed, mode="scalar", dims=(2, 1)):
        drawn[mode] += 1
        return draw(seed, mode, dims)
    monkeypatch.setattr(FieldSample, "random", staticmethod(logged))
    rep = checks.check_riccati(trials, 1e-9, 5)
    assert rep["trials"] == trials and rep["per_mode_trials"] == per_mode
    assert drawn == {"scalar": per_mode, "matrix": per_mode}


# -- run_numeric's process split ------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls of this process, one entry each."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


def _cpus(monkeypatch, n):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: n)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("target", [*sorted(checks.TARGETS), "all"])
def test_split_reports_are_the_one_process_reports(target, monkeypatch, forks):
    """Two processes give the report bytes of one, for every target, seed and
    trial count; a target of one check never forks."""
    runs = {}
    for n in (2, 1):
        _cpus(monkeypatch, n)
        runs[n] = [dumps(checks.run_numeric(target, trials, 1e-9, seed))
                   for seed in (1, 7, 42) for trials in (1, 5, 70)]
    assert runs[2] == runs[1]
    split = target == "all" or len(checks.TARGETS[target]) > 1
    assert len(forks) == (9 if split else 0)
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [3, 8])
def test_more_processes_give_the_same_report(cpus, monkeypatch, forks):
    """Seven checks on more CPUs: one process per check at most."""
    _cpus(monkeypatch, 1)
    alone = dumps(checks.run_numeric("all", 5, 1e-9, 7))
    _cpus(monkeypatch, cpus)
    assert dumps(checks.run_numeric("all", 5, 1e-9, 7)) == alone
    assert len(forks) == min(cpus, 7) - 1
    _assert_no_child_left()


def _every_check(monkeypatch, tmp_path, in_child, in_caller):
    """Every check of ``checks.TARGETS`` replaced, in its place and under its name.

    In a child a check writes its name to the returned path and calls
    ``in_child``; in the caller it first waits (10 s at most) until a child
    has taken a check, then calls ``in_caller``.  So which process runs what
    is left to the queue, but a child surely takes a check.
    """
    caller, taken = os.getpid(), tmp_path / "taken-by-a-child"

    def replaced(fn):
        def check(trials, tol, seed):
            if os.getpid() != caller:
                taken.write_text(fn.__name__.removeprefix("check_"))
                return in_child()
            deadline = time.monotonic() + 10
            while not taken.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return in_caller()
        check.__name__ = fn.__name__
        return check
    for target, fns in checks.TARGETS.items():
        monkeypatch.setitem(checks.TARGETS, target, tuple(map(replaced, fns)))
    return taken


def _passes():
    return {"passed": True}


def test_a_child_error_is_raised_by_the_caller(monkeypatch, tmp_path, forks):
    """The child's exception comes back with its type and message."""
    def raises():
        raise ShapeError("raised in a child")
    taken = _every_check(monkeypatch, tmp_path, raises, _passes)
    _cpus(monkeypatch, 2)
    with pytest.raises(ShapeError) as exc:
        checks.run_numeric("all", 3, 1e-9, 1)
    assert exc.type is ShapeError and str(exc.value) == "raised in a child"
    assert taken.exists() and len(forks) == 1
    _assert_no_child_left()


def test_a_child_that_dies_is_named(monkeypatch, tmp_path, forks):
    """A child killed in the first check it takes leaves no report: the caller
    runs the rest of the queue and names the check that child took."""
    taken = _every_check(monkeypatch, tmp_path,
                         lambda: os.kill(os.getpid(), signal.SIGKILL), _passes)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^the process running checks (.*) exited "
                                           "without a report$") as exc:
        checks.run_numeric("all", 3, 1e-9, 1)
    assert exc.value.args[0].split()[4] == taken.read_text()
    assert len(forks) == 1
    _assert_no_child_left()


def test_the_caller_kills_its_children_when_its_own_share_raises(monkeypatch, tmp_path, forks):
    """The caller's own error wins; a child still running is killed, not awaited."""
    def raises():
        raise ValueError("the caller's check failed")
    taken = _every_check(monkeypatch, tmp_path, lambda: time.sleep(30), raises)
    _cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^the caller's check failed$"):
        checks.run_numeric("all", 3, 1e-9, 1)
    assert time.perf_counter() - start < 20
    assert taken.exists() and len(forks) == 1
    _assert_no_child_left()


def test_pulled_calls_come_back_in_call_order_from_both_processes(monkeypatch, tmp_path,
                                                                  forks):
    """No share is fixed in advance: while the child runs its first call, which
    lasts until five calls ran in the caller, the caller pulls every other
    call from the queue.  The results keep the calls' order."""
    caller, busy = os.getpid(), tmp_path / "child-busy"

    def call(i):
        deadline = time.monotonic() + 10
        if os.getpid() != caller:
            busy.touch()
            while len(list(tmp_path.glob("ran-*"))) < 5 and time.monotonic() < deadline:
                time.sleep(0.005)
        else:
            while not busy.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            (tmp_path / f"ran-{i}").touch()
        return i, os.getpid() == caller
    _cpus(monkeypatch, 2)
    out = checks._run_split([lambda i=i: call(i) for i in range(6)], list("abcdef"))
    assert [i for i, _ in out] == list(range(6))
    assert sorted(here for _, here in out) == [False] + [True] * 5
    assert len(forks) == 1
    _assert_no_child_left()


def test_the_split_returns_with_no_child_left(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    assert checks.run_numeric("all", 2, 1e-9, 3)["passed"]
    assert len(forks) == 1
    _assert_no_child_left()


def test_no_fork_while_another_python_thread_runs(monkeypatch, forks):
    """A forked child holds only the forking thread, so the checks stay here."""
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert checks.run_numeric("riccati", 2, 1e-9, 3)["passed"]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
