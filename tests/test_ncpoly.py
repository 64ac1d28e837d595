"""Kernel algebra: products, derivations, substitution, the total-derivative test."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxforge.atoms import EMPTY_WORD, MATRIX_SHAPES, ShapeError, atom, make_word
from laxforge.coeff import GaussianRational, collect, gr
from laxforge.hierarchy import verify_conservation
from laxforge.matrices import PolyMatrix
from laxforge.ncpoly import (NCPolynomial, SubstitutionError, eliminate,
                             euler_derivative, is_total_t_derivative, nc_mul,
                             scalarize, sole_word, trace)
from laxforge.parser import parse_poly
from laxforge.serialize import to_dict


def f(base, dt=0, dx=0, mode="scalar"):
    return NCPolynomial.from_atom(atom(base, dt, dx, mode), mode)


# -- multiplication ----------------------------------------------------------

def test_matrix_product_concatenates():
    p = nc_mul(f("u", mode="matrix"), f("uh", mode="matrix"))
    assert p.shape == ("M", "M")
    (w, c), = p.terms.items()
    assert [a.base for a in w.atoms] == ["u", "uh"]


def test_scalar_product_canonicalizes():
    assert nc_mul(f("uh"), f("u")) == nc_mul(f("u"), f("uh"))


def test_distributivity_example():
    lhs = nc_mul(f("u", mode="matrix") + f("pih", mode="matrix"), f("uh", mode="matrix"))
    rhs = nc_mul(f("u", mode="matrix"), f("uh", mode="matrix")) + \
        nc_mul(f("pih", mode="matrix"), f("uh", mode="matrix"))
    assert lhs == rhs


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        nc_mul(f("u", mode="matrix"), f("u", mode="matrix"))


# -- derivations ---------------------------------------------------------------

def test_derivative_examples():
    assert f("u").differentiate_t() == f("u", dt=1)
    assert nc_mul(f("u"), f("uh")).differentiate_t() == \
        nc_mul(f("u", dt=1), f("uh")) + nc_mul(f("u"), f("uh", dt=1))
    assert NCPolynomial.unit("scalar").differentiate_t().is_zero


# random well-shaped matrix words: a shape-compatible random walk
_BASES = list(MATRIX_SHAPES)


@st.composite
def matrix_words(draw, max_len=4):
    n = draw(st.integers(1, max_len))
    first = draw(st.sampled_from(_BASES))
    atoms = [atom(first, draw(st.integers(0, 2)), mode="matrix")]
    for _ in range(n - 1):
        want = atoms[-1].cols
        choices = [b for b in _BASES if MATRIX_SHAPES[b][0] == want]
        base = draw(st.sampled_from(choices))
        atoms.append(atom(base, draw(st.integers(0, 2)), mode="matrix"))
    return atoms


@st.composite
def matrix_polys(draw, shape=None):
    words = draw(st.lists(matrix_words(), min_size=1, max_size=3))
    if shape is None:
        shape = (words[0][0].rows, words[0][-1].cols)
    p = NCPolynomial.zero("matrix", shape)
    for ats in words:
        if (ats[0].rows, ats[-1].cols) != shape:
            continue
        c = gr(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
        if c.is_zero:
            continue
        p = p + NCPolynomial("matrix", shape, {make_word(ats, "matrix"): c})
    return p


@given(matrix_polys(), matrix_polys())
@settings(max_examples=60, deadline=None)
def test_derivation_property(p, q):
    if p.shape[1] != q.shape[0]:
        q = NCPolynomial.unit("matrix", p.shape[1])
    lhs = nc_mul(p, q).differentiate_t()
    rhs = nc_mul(p.differentiate_t(), q) + nc_mul(p, q.differentiate_t())
    assert lhs == rhs


@given(matrix_polys(), matrix_polys())
@settings(max_examples=60, deadline=None)
def test_scalarize_is_homomorphic(p, q):
    if p.shape[1] != q.shape[0]:
        q = NCPolynomial.unit("matrix", p.shape[1])
    assert scalarize(nc_mul(p, q)) == nc_mul(scalarize(p), scalarize(q))
    assert scalarize(p + p) == scalarize(p) + scalarize(p)
    assert scalarize(p.differentiate_t()) == scalarize(p).differentiate_t()


@given(matrix_polys())
@settings(max_examples=60, deadline=None)
def test_shape_chaining_preserved(p):
    for w in p.terms:
        for a, b in zip(w.atoms, w.atoms[1:]):
            assert a.cols == b.rows
    q = nc_mul(p, NCPolynomial.unit("matrix", p.shape[1]))
    assert q == p


@given(matrix_polys(), matrix_polys())
@settings(max_examples=60, deadline=None)
def test_matrix_product_words_are_canonical(p, q):
    """nc_mul concatenates matrix words without make_word; the result is the
    word make_word would build, and its shapes chain."""
    if p.shape[1] != q.shape[0]:
        q = NCPolynomial.unit("matrix", p.shape[1])
    for w in nc_mul(p, q).terms:
        assert make_word(w.atoms, "matrix") == w


@given(matrix_polys())
@settings(max_examples=60, deadline=None)
def test_matrix_derivative_equals_the_make_word_route(p):
    """Matrix-mode differentiate builds its words as they stand; the result is
    the Leibniz sum with every word put through make_word."""
    for var in ("t", "x"):
        want = NCPolynomial.zero("matrix", p.shape)
        for w, c in p.terms.items():
            for k, a in enumerate(w.atoms):
                atoms = w.atoms[:k] + (a.with_derivative(var),) + w.atoms[k + 1:]
                want = want + NCPolynomial("matrix", p.shape, {make_word(atoms, "matrix"): c})
        assert p.differentiate(var) == want


@st.composite
def scalar_polys(draw):
    p = NCPolynomial.zero("scalar")
    for _ in range(draw(st.integers(0, 4))):
        atoms = [atom(draw(st.sampled_from(_BASES)), draw(st.integers(0, 2)),
                      draw(st.integers(0, 1)), mode="scalar")
                 for _ in range(draw(st.integers(0, 4)))]
        c = gr(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
        p = p + NCPolynomial("scalar", ("1", "1"), {make_word(atoms, "scalar"): c})
    return p


@given(scalar_polys(), scalar_polys())
@settings(max_examples=80, deadline=None)
def test_scalar_product_equals_the_make_word_route(p, q):
    """Scalar-mode nc_mul sorts each concatenated word itself; the result is
    the product with every word put through make_word, term order included."""
    want = collect((make_word(w1.atoms + w2.atoms, "scalar"), c1 * c2)
                   for w1, c1 in p.terms.items() for w2, c2 in q.terms.items())
    assert list(nc_mul(p, q).terms.items()) == list(want.items())


# -- substitution ----------------------------------------------------------------

def test_substitute_momentum():
    from laxforge.parser import parse_expression
    s = parse_expression("lam*uh + pi")
    out = s.substitute([(atom("pi", mode="scalar"), f("uh", dx=1))])
    assert out == parse_expression("lam*uh + uh_x")


def test_substitute_two_atom_pattern():
    uhuK = nc_mul(nc_mul(f("uh", mode="matrix"), f("u", mode="matrix")),
                  f("K11", mode="matrix"))
    rule = ((atom("u", mode="matrix"), atom("K11", mode="matrix")),
            f("pih", mode="matrix"))
    assert uhuK.substitute([rule]) == nc_mul(f("uh", mode="matrix"),
                                             f("pih", mode="matrix"))


def test_substitute_empty_rules_is_identity():
    p = parse_poly("u*uh + 2*pi")
    assert p.substitute([]) == p


def test_substitute_divergent_rules_flagged():
    rule = (atom("u", mode="scalar"), f("u") + NCPolynomial.unit("scalar"))
    with pytest.raises(SubstitutionError):
        f("u").substitute([rule], max_steps=20)


# -- elimination -------------------------------------------------------------------

def _underived_u_or_pi(p):
    return sole_word(p, lambda a: a.base in ("u", "pi") and a.dt == 0)


def test_sole_word():
    p = parse_poly("u*uh + 2*pi - uh_t")
    assert sole_word(p, lambda a: a.base == "pi") == make_word([atom("pi", mode="scalar")], "scalar")
    assert sole_word(p, lambda a: a.base == "uh") is None   # two words hold uh
    assert sole_word(p, lambda a: a.base == "pih") is None  # no word holds pih


def test_eliminate_keeps_seed_first_then_solving_order():
    seed = [((atom("uh", mode="scalar"),), parse_poly("pih"))]
    rules, left = eliminate([parse_poly("u + pi + uh"), parse_poly("2*pi - 4*uh_t")],
                            _underived_u_or_pi, seed)
    assert left == []
    assert rules == [((atom("uh", mode="scalar"),), parse_poly("pih")),
                     ((atom("pi", mode="scalar"),), parse_poly("2*uh_t")),
                     ((atom("u", mode="scalar"),), parse_poly("-2*uh_t - pih"))]


def test_eliminate_substitutes_each_rule_into_later_entries():
    """The second entry is solvable only once the first entry's rule is in it."""
    rules, left = eliminate([parse_poly("pi - uh_t"), parse_poly("u + pi")],
                            _underived_u_or_pi)
    assert left == []
    assert rules == [((atom("pi", mode="scalar"),), parse_poly("uh_t")),
                     ((atom("u", mode="scalar"),), parse_poly("-uh_t"))]


def test_eliminate_returns_inconsistent_entries_and_drops_vanishing_ones():
    rules, left = eliminate([parse_poly("pi - uh_t"), parse_poly("2*pi - 2*uh_t"),
                             parse_poly("pi - uh_t + 3"), parse_poly("uh*pih")],
                            _underived_u_or_pi)
    assert rules == [((atom("pi", mode="scalar"),), parse_poly("uh_t"))]
    assert left == [parse_poly("3"), parse_poly("uh*pih")]


# -- Euler operator / total-derivative test ----------------------------------------

def test_total_derivative_simple():
    p = parse_poly("u_t*uh + u*uh_t")
    ok, witness = is_total_t_derivative(p)
    assert ok and witness == parse_poly("u*uh")


def test_not_total_derivative():
    ok, witness = is_total_t_derivative(parse_poly("u*pi"))
    assert not ok and witness is None


def test_total_derivative_second_order():
    p = parse_poly("u_tt*uh - u*uh_tt")
    ok, witness = is_total_t_derivative(p)
    assert ok and witness == parse_poly("u_t*uh - u*uh_t")
    assert witness.differentiate_t() == p


def test_euler_detects_u_pi():
    e = euler_derivative(parse_poly("u*pi"), "pi")
    assert e == parse_poly("u")


def test_matrix_mode_requires_trace():
    with pytest.raises(ValueError):
        is_total_t_derivative(f("u", mode="matrix"))


def test_trace_total_derivative():
    inner = nc_mul(f("u", dt=1, mode="matrix"), f("uh", mode="matrix")) + \
        nc_mul(f("u", mode="matrix"), f("uh", dt=1, mode="matrix"))
    ok, witness = is_total_t_derivative(trace(inner))
    assert ok
    assert witness.differentiate_t() == trace(inner)


def test_trace_cyclic_identification():
    a = nc_mul(f("u", mode="matrix"), f("uh", mode="matrix"))
    b = nc_mul(f("uh", mode="matrix"), f("u", mode="matrix"))
    assert trace(a) == trace(b)


def test_trace_mode_refuses_products_substitution_and_open_chains():
    q = trace(parse_poly("u*uh", mode="matrix"))
    with pytest.raises(ValueError):
        nc_mul(q, q)
    with pytest.raises(ValueError):
        q.substitute([(atom("u", mode="matrix"), f("pih", mode="matrix"))])
    with pytest.raises(ShapeError):
        make_word([atom("u", mode="matrix")], "trace")
    with pytest.raises(ShapeError):
        make_word([atom("u", mode="matrix"), atom("uh", mode="matrix"),
                   atom("pih", mode="matrix")], "trace")


def test_trace_words_have_scalar_shape():
    k = NCPolynomial.from_word([atom("K11")], "trace")
    assert k.shape == ("1", "1")
    q = trace(parse_poly("uh*u", mode="matrix"))
    assert (q + k).terms == {**q.terms, **k.terms}
    with pytest.raises(ShapeError):
        NCPolynomial.from_atom(atom("u"), "trace")


def test_constant_is_not_exact():
    ok, _ = is_total_t_derivative(NCPolynomial.unit("scalar"))
    assert not ok


def test_euler_gate_reads_kernel_atoms_too():
    k11_t = f("K11", dt=1)
    assert is_total_t_derivative(nc_mul(k11_t, k11_t)) == (False, None)


def test_integration_by_parts_divides_by_the_copies_of_the_lower_atom():
    ok, witness = is_total_t_derivative(parse_poly("u_t*u_tt"))
    assert ok and witness == parse_poly("1/2*u_t*u_t")
    # u_t twice in one trace word: each cyclic gradient word holds one copy
    q = trace(parse_poly("u_t*uh*u_t*pi", mode="matrix"))
    assert is_total_t_derivative(q.differentiate_t()) == (True, q)


# d_x H^(8) on the NLS flow, and the flux the ansatz solve returned for it
_FLUX_8 = ("uh*pih_ttt - u*u*uh*pi_tt - 6*u*u_t*uh*pi_t - 6*u*u_tt*uh*pi - 5*u_t*u_t*uh*pi"
           " + 4*u_t*uh*uh*pih_t + 2*u_t*uh*uh_t*pih + 4*u_tt*uh*uh*pih + 4*uh*pi*pih*pih_t"
           " + uh*pi_t*pih*pih + 2*u*u*u*uh*uh*pi_t + 4*u*u*u*uh*uh_t*pi + 10*u*u*u_t*uh*uh*pi"
           " - 4*u*u*uh*uh*uh*pih_t - 6*u*u*uh*uh*uh_t*pih - 6*u*u*uh*pi*pi*pih"
           " - 8*u*u_t*uh*uh*uh*pih + 6*u*uh*uh*pi*pih*pih - 2*uh*uh*uh*pih*pih*pih"
           " + u*u*u*u*uh*uh*uh*pi")


def test_conservation_flux_at_order_8():
    proof = verify_conservation(8)
    assert proof.flux == parse_poly(_FLUX_8)
    assert is_total_t_derivative(proof.x_derivative) == (True, parse_poly(_FLUX_8))


# field atoms only, up to two t-derivatives
_FIELD_ATOMS = [atom(b, dt, mode="scalar") for b in ("u", "uh", "pi", "pih") for dt in (0, 1, 2)]
_FIELD_STEPS = [(atom(a, da, mode="matrix"), atom(b, db, mode="matrix"))
                for a in ("u", "pih") for b in ("uh", "pi") for da in (0, 2) for db in (0, 1)]


@st.composite
def antiderivatives(draw, traced):
    """q without constant term: scalar, or the trace of an M x M polynomial."""
    mode = "matrix" if traced else "scalar"
    if traced:
        words = st.lists(st.sampled_from(_FIELD_STEPS), min_size=1, max_size=2).map(
            lambda steps: [a for step in steps for a in step])
    else:
        words = st.lists(st.sampled_from(_FIELD_ATOMS), min_size=1, max_size=3)
    pairs = draw(st.lists(st.tuples(words, _small), max_size=4))
    q = NCPolynomial(mode, ("M", "M") if traced else ("1", "1"),
                     {make_word(ats, mode): c for ats, c in pairs})
    return trace(q) if traced else q


@given(st.sampled_from([False, True]).flatmap(antiderivatives))
@settings(max_examples=60, deadline=None)
def test_integration_by_parts_recovers_every_antiderivative(q):
    traced = q.mode == "trace"
    p = q.differentiate_t()
    assert is_total_t_derivative(p) == (True, q)
    bad = parse_poly("u_t*uh", mode="matrix" if traced else "scalar")
    bad = trace(bad) if traced else bad
    assert is_total_t_derivative(p + bad) == (False, None)



_FIELDS = ("u", "uh", "pi", "pih")


@st.composite
def t_polys(draw, mode):
    """A sum of words over the four fields at t-orders 0-3; a trace word is a
    closed chain M -> N -> M -> ... of even length."""
    if mode == "scalar":
        word = st.lists(st.builds(atom, st.sampled_from(_FIELDS), st.integers(0, 3),
                                  mode=st.just("scalar")), min_size=1, max_size=4)
    else:
        step = st.tuples(st.builds(atom, st.sampled_from(("u", "pih")), st.integers(0, 3),
                                   mode=st.just("matrix")),
                         st.builds(atom, st.sampled_from(("uh", "pi")), st.integers(0, 3),
                                   mode=st.just("matrix")))
        word = st.lists(step, min_size=1, max_size=2).map(lambda ss: [a for s in ss for a in s])
    p = NCPolynomial.zero(mode)
    for ats, c in draw(st.lists(st.tuples(word, _small), max_size=3)):
        p = p + NCPolynomial.from_word(ats, mode, c)
    return p


@st.composite
def maybe_exact(draw):
    """dq/dt plus a remainder that is often zero, or an arbitrary polynomial;
    sometimes with a constant term."""
    mode = draw(st.sampled_from(("scalar", "trace")))
    p = draw(t_polys(mode))
    if draw(st.booleans()):
        p = draw(t_polys(mode)).differentiate_t() + (p if draw(st.booleans()) else p.zero(mode))
    if draw(st.integers(0, 9)) == 0:
        p = p + NCPolynomial.unit(mode)
    return p


@given(maybe_exact())
@settings(max_examples=200, deadline=None)
def test_integration_by_parts_agrees_with_the_euler_operator(p):
    """p is exact iff it has no constant term and every field's Euler derivative
    vanishes; integration by parts decides alone, and its witness is exact."""
    euler = EMPTY_WORD not in p.terms and not any(euler_derivative(p, b) for b in _FIELDS)
    ok, witness = is_total_t_derivative(p)
    assert ok == euler
    assert (witness.differentiate_t() == p) if ok else witness is None


def test_an_x_derivative_is_refused_under_every_hash_seed():
    """The Euler gate once read the fields in string-hash order, so ``u*u + uh_x*pi``
    gave (False, None) under some PYTHONHASHSEED values and ValueError under others."""
    code = ("from laxforge.ncpoly import is_total_t_derivative\n"
            "from laxforge.parser import parse_poly\n"
            "try:\n"
            "    print(is_total_t_derivative(parse_poly('u*u + uh_x*pi')))\n"
            "except ValueError as e:\n"
            "    print('ValueError:', e)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in range(8):
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)))
        assert run.stdout.startswith("ValueError: eliminate x-derivative"), (seed, run)


# -- the add-and-drop-zeros accumulator (coeff.collect) ------------------------
# Few atoms and small coefficients, so that sums and products cancel often.

_small = st.builds(gr, st.integers(-2, 2), st.integers(-1, 1))
_SCALAR_ATOMS = [atom(b, dt, mode="scalar") for b in ("u", "uh", "pi") for dt in (0, 1)]
# an M x M matrix word is a chain of steps M -> N -> M, or K22 (M x M)
_MATRIX_STEPS = [(atom(a, dt, mode="matrix"), atom(b, mode="matrix"))
                 for a in ("u", "pih") for b in ("uh", "pi") for dt in (0, 1)] \
    + [(atom("K22", mode="matrix"),)]


@st.composite
def small_polys(draw, mode):
    """A polynomial of shape (1, 1) in scalar mode and (M, M) in matrix mode."""
    if mode == "scalar":
        words, shape = st.lists(st.sampled_from(_SCALAR_ATOMS), max_size=3), ("1", "1")
    else:
        words = st.lists(st.sampled_from(_MATRIX_STEPS), max_size=2).map(
            lambda steps: [a for step in steps for a in step])
        shape = ("M", "M")
    pairs = draw(st.lists(st.tuples(words, _small), max_size=4))
    return NCPolynomial(mode, shape, {make_word(ats, mode): c for ats, c in pairs})


_triples = st.sampled_from(["scalar", "matrix"]).flatmap(
    lambda mode: st.tuples(small_polys(mode), small_polys(mode), small_polys(mode)))


@given(_triples, _small)
@settings(max_examples=80, deadline=None)
def test_accumulated_algebra_is_exact_and_stores_no_zero(pqr, c):
    p, q, r = pqr
    seen = []

    def kept(x):
        seen.append(x)
        return x

    assert kept(kept(p + q) + r) == kept(p + kept(q + r))
    assert kept(nc_mul(kept(nc_mul(p, q)), r)) == kept(nc_mul(p, kept(nc_mul(q, r))))
    assert kept(nc_mul(p, q + r)) == kept(nc_mul(p, r) + kept(nc_mul(p, q)))
    assert kept(nc_mul(p + q, r)) == kept(nc_mul(p, r) + kept(nc_mul(q, r)))
    dt = NCPolynomial.differentiate_t
    assert kept(dt(p + q)) == kept(kept(dt(p)) + kept(dt(q)))
    assert kept(dt(p.scale(c))) == dt(p).scale(c)
    assert kept(p - p).is_zero
    if p.mode == "scalar":
        a = _SCALAR_ATOMS[0]
        assert kept((p + q).partial(a)) == kept(kept(p.partial(a)) + kept(q.partial(a)))
    else:
        assert kept(scalarize(p + q)) == kept(kept(scalarize(p)) + kept(scalarize(q)))
        tp, tq = trace(p), trace(q)
        assert trace(p + q) == tp + tq
        assert (tp + tq).differentiate_t() == tp.differentiate_t() + tq.differentiate_t()
        seen += [tp, tq, tp + tq, (tp + tq).differentiate_t()]
    assert all(all(x.terms.values()) for x in seen)


def test_cancellations_leave_no_key():
    for mode in ("scalar", "matrix"):
        d = parse_poly("u_t*uh - u*uh_t", mode=mode).differentiate_t()
        assert d == parse_poly("u_tt*uh - u*uh_tt", mode=mode)
        assert "u_t*uh_t" not in {str(w) for w in d.terms}
    m = {b: f(b, mode="matrix") for b in ("u", "uh", "pih")}
    assert scalarize(nc_mul(nc_mul(m["u"], m["uh"]), m["pih"])
                     - nc_mul(nc_mul(m["pih"], m["uh"]), m["u"])).terms == {}
    tr = trace
    assert (tr(nc_mul(m["u"], m["uh"])) - tr(nc_mul(m["uh"], m["u"]))).terms == {}
    rule = (atom("pi", mode="scalar"), f("uh", dx=1))
    assert parse_poly("pi - uh_x").substitute([rule]).terms == {}
    rule = ((atom("u", mode="matrix"), atom("K11", mode="matrix")), m["pih"])
    uk = nc_mul(m["u"], f("K11", mode="matrix"))
    assert (uk - m["pih"]).substitute([rule]).terms == {}


def test_a_fraction_coefficient_is_a_gaussian_rational():
    """A raw Fraction once went into the terms: it printed like gr(1/2) but was
    not equal to it, and to_dict raised AttributeError on it."""
    half = Fraction(1, 2)
    unit = NCPolynomial.unit("scalar", "1", half)
    assert unit == NCPolynomial.unit("scalar", "1", gr(half))
    assert to_dict(unit) == to_dict(NCPolynomial.unit("scalar", "1", gr(half)))
    m = PolyMatrix.from_rows("scalar", [[half, 0], [0, 1]])
    assert m == PolyMatrix.from_rows("scalar", [[gr(half), 0], [0, 1]])
    scaled = PolyMatrix.from_rows("scalar", [[1, 0], [0, 2]]).scale(half)
    assert scaled == PolyMatrix.from_rows("scalar", [[gr(half), 0], [0, 1]])
    for poly in (unit, *m.entries[0], *scaled.entries[1]):
        assert all(type(c) is GaussianRational for c in poly.terms.values())
