"""Block and series products summed in place: values and term order against the
dense immutable sums they replace, and operands that stay untouched."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laxforge.riccati as R
from laxforge import hierarchy
from laxforge.atoms import atom, make_word
from laxforge.coeff import collect, gr
from laxforge.matrices import MatrixSum, PolyMatrix, block_dims
from laxforge.ncpoly import NCPolynomial, nc_mul
from laxforge.parser import parse_poly
from laxforge.series import LaurentSeries


# -- the dense references: every block pair multiplied, partial sums immutable ----

def _dense_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a * b as first written: acc = acc + nc_mul(...) over every block pair."""
    ent = []
    for i, r in enumerate(a.row_dims):
        row = []
        for j, c in enumerate(b.col_dims):
            acc = NCPolynomial.zero(a.mode, (r, c))
            for k in range(len(a.col_dims)):
                acc = acc + nc_mul(a.entries[i][k], b.entries[k][j])
            row.append(acc)
        ent.append(row)
    return PolyMatrix(a.mode, a.row_dims, b.col_dims, ent)


def _dense_times(s: LaurentSeries, o: LaurentSeries, floor=None) -> LaurentSeries:
    """s._times(o, floor) as first written: collect over immutable PolyMatrix sums."""
    lows = [floor] if floor is not None else []
    if s.lowest_reliable is not None:
        lows.append(s.lowest_reliable + o.max_power)
    if o.lowest_reliable is not None:
        lows.append(o.lowest_reliable + s.max_power)
    low = max(lows) if lows else None
    out = collect((p1 + p2, _dense_mul(m1, m2))
                  for p1, m1 in s.coeffs.items() for p2, m2 in o.coeffs.items()
                  if low is None or p1 + p2 >= low)
    return LaurentSeries(s.mode, s.row_dims, o.col_dims, out, None if low is None else -low)


# iota: u <-> uh, pi <-> pih, and each t-derivative flips the sign; a matrix word
# is read backwards (an M x N block maps to an N x M block), a scalar one re-sorted
_IOTA_BASE = {"u": "uh", "uh": "u", "pi": "pih", "pih": "pi"}


def _iota_ref(p):
    terms = {}
    for w, c in p.terms.items():
        atoms = [atom(_IOTA_BASE[a.base], a.dt, a.dx, p.mode, a.flow) for a in reversed(w.atoms)]
        terms[make_word(atoms, p.mode)] = -c if sum(a.dt for a in w) % 2 else c
    return NCPolynomial(p.mode, p.shape[::-1], terms)


def _reference_tower(order, mode):
    """W^(1..order) and Z^(1..order-1) by the full 2x2 Riccati step as first
    written.  Its 12 block must equal (-1)^n iota(W21^(n)) as a value, and that
    image is kept as W12^(n), in W21's term order."""
    vd, va = R._v_split(mode)
    lead = vd.max_power
    below = [(j, d) for j, d in sorted(vd.coeffs.items(), reverse=True) if j < lead]
    anti = sorted(va.coeffs.items(), reverse=True)
    dims = block_dims(mode)
    zero = PolyMatrix.zero(mode, dims, dims)
    W = {0: zero}
    for k in range(1 - lead, order - lead + 1):
        rhs = -W.get(k, zero).differentiate_t()
        for j, d in below:
            w = W.get(k + j, zero)
            rhs = rhs - (_dense_mul(w, d) - _dense_mul(d, w))
        for j, a_j in anti:
            for a in range(1, k + j):
                rhs = rhs - _dense_mul(_dense_mul(W.get(a, zero), a_j), W.get(k + j - a, zero))
        if -k in va.coeffs:
            rhs = rhs + va.coeffs[-k]
        n, w21 = k + lead, rhs.entries[1][0]
        w12 = _iota_ref(w21).scale((-1) ** n)
        assert w12 == -rhs.entries[0][1], n
        W[n] = PolyMatrix.from_rows(mode, [[0, w12], [w21, 0]])
    Z = []
    for k in range(1, order):
        terms = [_dense_mul(a_j, W[k + j]) for j, a_j in anti]
        Z.append(sum(terms[1:], terms[0]))
    return [W[k] for k in range(1, order + 1)], Z


def _dense_form(w, vd_l, vd_r, va_q, va):
    """The Riccati form with dense products and immutable series sums."""
    t = w.truncation
    vd_l, vd_r, va_q, va = (s.truncated(t) for s in (vd_l, vd_r, va_q, va))
    w_vd, vd_w = _dense_times(w, vd_r), _dense_times(vd_l, w)
    floor = max(w_vd.lowest_reliable, vd_w.lowest_reliable)
    return (w.truncated(-floor).differentiate_t() + w_vd - vd_w
            + _dense_times(_dense_times(w, va_q, floor), w, floor) - va)


def _order(x):
    """Every term, with its coefficient, in insertion order: equal iff value and order are."""
    if isinstance(x, LaurentSeries):
        return [(p, _order(m)) for p, m in x.coeffs.items()], x.truncation
    if isinstance(x, PolyMatrix):
        return [[list(e.terms.items()) for e in row] for row in x.entries]
    return [_order(m) for m in x]


def _same(got, want):
    assert got == want and _order(got) == _order(want)


# -- the tower's own operands ----------------------------------------------------

@pytest.mark.parametrize("mode,top", [("scalar", 10), ("matrix", 8)])
def test_the_tower_keeps_the_dense_term_order(mode, top):
    sol = R.solve_w_z(top, mode)
    W, Z = _reference_tower(top, mode)
    _same(sol.w_coeffs, W)
    _same(sol.z_coeffs, Z)
    VD, VA = R._v_split(mode)
    for a in range(1, top + 1):
        for m in (*VA.coeffs.values(), *VD.coeffs.values()):
            _same(sol.w(a) * m, _dense_mul(sol.w(a), m))
            _same(m * sol.w(a), _dense_mul(m, sol.w(a)))
            for b in range(1, top + 1 - a):
                _same(sol.w(a) * m * sol.w(b), _dense_mul(_dense_mul(sol.w(a), m), sol.w(b)))
    w = sol.w_series()
    off = w + LaurentSeries.of(sol.w(1), -1)
    for series in (w, off):
        _same(R._riccati_form(series, VD, VD, VA, VA), _dense_form(series, VD, VD, VA, VA))
        _same(series * VA * series, _dense_times(_dense_times(series, VA), series))


def test_the_gamma_residual_keeps_the_dense_term_order():
    VD, VA = R._v_split("matrix")
    for which, (i, j) in R._GAMMA_BLOCK.items():
        sol = R.solve_gamma(7, which)
        r, c = block_dims("matrix")[i], block_dims("matrix")[j]
        g = LaurentSeries("matrix", (r,), (c,), {-k: PolyMatrix("matrix", (r,), (c,), [[e]])
                                                  for k, e in enumerate(sol.coeffs, 1)}, 7)
        _same(R.gamma_residual(sol), _dense_form(g, VD.block(i, i), VD.block(j, j),
                                                 VA.block(j, i), VA.block(i, j)))


# -- random block matrices with zero blocks ----------------------------------------

_POOL = {("N", "N"): ["uh*u", "pi*pih", "uh_t*u", "uh*pih"],
         ("N", "M"): ["uh", "pi", "uh*u*uh", "uh_t"],
         ("M", "N"): ["u", "pih", "u*uh*u", "u_t"],
         ("M", "M"): ["u*uh", "pih*pi", "u*pi", "u_t*uh"]}


def _block(mode, dims, picks):
    """A linear combination of pool words, a multiple of the identity on a square block."""
    r, c = dims
    shape = ("1", "1") if mode == "scalar" else dims
    out = NCPolynomial.zero(mode, shape)
    for idx, coeff in picks:
        words = _POOL[dims] + ([""] if r == c else [])
        text = words[idx % len(words)]
        term = (NCPolynomial.unit(mode, shape[0]) if not text
                else parse_poly(text, mode)).scale(gr(coeff))
        out = out + term
    return out


@st.composite
def block_matrices(draw, mode):
    """A 2x2 block matrix on the mode's (N, M) split; empty picks give zero blocks."""
    picks = st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), max_size=3)
    rows = [[_block(mode, (r, c), draw(picks)) for c in ("N", "M")] for r in ("N", "M")]
    return PolyMatrix(mode, block_dims(mode), block_dims(mode), rows)


@st.composite
def series(draw, mode):
    powers = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=4, unique=True))
    trunc = draw(st.sampled_from([None, 2, 4]))
    dims = block_dims(mode)
    return LaurentSeries(mode, dims, dims, {p: draw(block_matrices(mode)) for p in powers},
                         trunc)


_modes = st.sampled_from(["scalar", "matrix"])


@given(data=st.data(), mode=_modes)
@settings(max_examples=150, deadline=None)
def test_random_block_products_keep_the_dense_term_order(data, mode):
    a, b, c = (data.draw(block_matrices(mode)) for _ in range(3))
    _same(a * b, _dense_mul(a, b))
    _same(a * b * c, _dense_mul(_dense_mul(a, b), c))
    _same(a.commutator(b), _dense_mul(a, b) - _dense_mul(b, a))
    acc = MatrixSum(mode, a.row_dims, a.col_dims)
    acc.add(a)
    acc.add_product(b, c)
    acc.add(-a)
    acc.add_product(-b, c)
    acc.add(b)
    _same(acc.matrix(), a + _dense_mul(b, c) - a + _dense_mul(-b, c) + b)


@given(data=st.data(), mode=_modes, floor=st.sampled_from([None, -4, -1, 0]))
@settings(max_examples=100, deadline=None)
def test_random_series_products_keep_the_dense_term_order(data, mode, floor):
    s, o, t = (data.draw(series(mode)) for _ in range(3))
    _same(s._times(o, floor), _dense_times(s, o, floor))
    _same(s * o * t, _dense_times(_dense_times(s, o), t))


# -- a partial sum that cancels, then a later summand that re-adds the word -------

@pytest.mark.parametrize("left,right,order", [
    # u*u + uh*uh, then -u*u cancels u*u, then u*u comes back after uh*uh
    (("u*u + uh*uh", "-u", "1"), ("1", "u", "u*u"), ["uh*uh", "u*u"]),
    # -u*uh, then (u - uh)(u + uh), whose own u*uh and -uh*u cancel: merged as a
    # whole product it leaves u*uh first; fed in term by term it would move it
    (("-u", "u - uh"), ("uh", "u + uh"), ["u*uh", "u*u", "uh*uh"])])
def test_a_cancelled_word_keeps_the_place_of_the_immutable_sum(left, right, order):
    ones = ("1",) * len(left)
    row = PolyMatrix("scalar", ("1",), ones, [[parse_poly(t) for t in left]])
    col = PolyMatrix("scalar", ones, ("1",), [[parse_poly(t)] for t in right])
    got = row * col
    _same(got, _dense_mul(row, col))
    assert [str(w) for w in got.entries[0][0].terms] == order


def test_a_block_product_merges_into_its_power_as_a_whole():
    """lam^0 holds u*uh from A C when B D arrives, whose own -u*uh and uh*u
    cancel: merged as one matrix B D leaves u*uh first."""
    def m(rows):
        return PolyMatrix.from_rows("scalar", [[parse_poly(e) if isinstance(e, str) else e
                                                for e in row] for row in rows])
    dims = block_dims("scalar")
    s = LaurentSeries("scalar", dims, dims, {1: m([[1, 0], [0, 1]]), 0: m([["-u", "uh"], [0, 0]])})
    o = LaurentSeries("scalar", dims, dims, {-1: m([["u*uh", 0], [0, 0]]),
                                             0: m([["uh + 1", 0], ["u", 0]])})
    prod = s * o
    _same(prod, _dense_times(s, o))
    assert [str(w) for w in prod.coeffs[0].entries[0][0].terms] == ["u*uh", "u"]


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_a_power_that_cancels_is_re_added_last(mode):
    """lam^1 of s*o sums to zero after two of its three products, so the third
    re-adds it after every other power."""
    dims = block_dims(mode)
    u = PolyMatrix.from_rows(mode, [[0, parse_poly("uh", mode)], [parse_poly("u", mode), 0]])
    one = PolyMatrix.identity(mode, dims)
    s = LaurentSeries(mode, dims, dims, {1: u, 0: one, -1: u})
    o = LaurentSeries(mode, dims, dims, {0: one, 1: -u, 2: one})
    prod = s._times(o)
    _same(prod, _dense_times(s, o))
    assert list(prod.coeffs) == [2, 3, 0, -1, 1]


# -- nothing that a product reads is written ----------------------------------------

def _snapshot(*objs):
    return repr([_order(x) for x in objs])


@pytest.mark.parametrize("mode", ["scalar", "matrix"])
def test_solves_residuals_and_flows_leave_their_operands_untouched(mode, monkeypatch):
    monkeypatch.setattr(R, "_TOWER", {})
    monkeypatch.setattr(R, "_Z", {})
    R.solve_w_z.cache_clear()
    try:
        R.solve_w_z(5, mode)
        shared = (R.nls_v(mode), *R._v_split(mode))
        before = _snapshot(*shared, list(R._TOWER[mode].values()), R._Z[mode])
        sol = R.solve_w_z(9, mode)
        grown = _snapshot(list(R._TOWER[mode].values()), R._Z[mode])
        R.riccati_residual(sol)
        hierarchy.generate_u(5, mode)
        hierarchy.dress_u(5, mode)
        if mode == "matrix":
            R.gamma_residual(R.solve_gamma(9))
        low = [R._TOWER[mode][k] for k in range(6)]
        assert _snapshot(*shared, low, R._Z[mode][:4]) == before
        assert _snapshot(list(R._TOWER[mode].values()), R._Z[mode]) == grown
    finally:
        R.solve_w_z.cache_clear()


@given(data=st.data(), mode=_modes)
@settings(max_examples=60, deadline=None)
def test_products_and_sums_leave_their_operands_untouched(data, mode):
    """An entry may share its dict with another polynomial: ``p + 0`` is p itself."""
    a, b = (data.draw(block_matrices(mode)) for _ in range(2))
    shared = a.map_entries(lambda e: e + NCPolynomial.zero(mode, e.shape))
    s, o = (data.draw(series(mode)) for _ in range(2))
    before = _snapshot(a, b, shared, s, o)
    a * b, shared * a, b * shared
    s * o, o._times(s, -1)
    copied = MatrixSum(mode, a.row_dims, a.col_dims)
    copied.add(shared)
    copied = copied.matrix()
    acc = MatrixSum(mode, a.row_dims, a.col_dims)
    acc.add(shared)
    acc.add_product(b, shared)
    acc.add(a)
    acc.add_product(a, b)
    acc.matrix()
    assert _snapshot(a, b, shared, s, o) == before
    # a sum builds its own dicts, even for an entry it takes from one summand whole
    for row, shared_row in zip(copied.entries, shared.entries):
        for e, f in zip(row, shared_row):
            assert e.terms is not f.terms
