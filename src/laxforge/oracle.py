"""Independent numeric verification of the symbolic results.

Random smooth fields are trigonometric polynomials in (t, x): closed under
differentiation and exactly evaluable to machine precision, so every check is
a pointwise identity evaluation (never an x-evolution of the PDE, which is
ill-posed).  Matrix products and commutators on the numeric side go through
numpy, keeping the route independent of the symbolic multiplication.

``plan`` compiles an expression once: complex coefficients, each word as
indices into the expression's distinct atoms, and the block layout.
``evaluate`` is a plan evaluated at one point.  A sample keeps every atom
value it computes, keyed by atom and point, so each distinct atom is
evaluated once per sample and point however many expressions read it.  Only
the flow-2 variable x has an evaluator: an atom with ``dx > 0`` in another
flow is refused.
"""
from __future__ import annotations

import cmath
import operator
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate

import numpy as np

from .atoms import FIELD_BASES, MATRIX_SHAPES, FieldAtom
from .coeff import GaussianRational
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .series import LaurentSeries

MAX_MODES = 8


class UnhousedAtomError(ValueError):
    """An atom with no evaluator (e.g. a kernel block that was not eliminated)."""


@dataclass(frozen=True)
class TrigPoly:
    """Sum of complex exponentials a * exp(i(w t + k x)); derivatives exact."""
    modes: tuple[tuple[complex, tuple[int, int]], ...]

    def value(self, t: float, x: float, dt: int = 0, dx: int = 0) -> complex:
        out = 0j
        for a, (w, k) in self.modes:
            out += a * (1j * w) ** dt * (1j * k) ** dx * cmath.exp(1j * (w * t + k * x))
        return out


def _random_trig(rng: random.Random) -> TrigPoly:
    n = rng.randint(1, MAX_MODES)
    modes = []
    for _ in range(n):
        amp = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        modes.append((amp, (rng.randint(-2, 2), rng.randint(-2, 2))))
    return TrigPoly(tuple(modes))


@dataclass
class FieldSample:
    """Independent trig polynomials per field; scalar or small-matrix mode."""
    seed: int
    mode: str = "scalar"
    dims: tuple[int, int] = (2, 1)  # concrete sizes for the symbolic N and M
    fields: dict = field(default_factory=dict)
    # atom values by (atom, t, x), filled by ``atom_values``
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def random(seed: int, mode: str = "scalar", dims: tuple[int, int] = (2, 1)) -> "FieldSample":
        rng = random.Random(seed)
        sample = FieldSample(seed, mode, dims)
        for base in FIELD_BASES:
            if mode == "scalar":
                sample.fields[base] = _random_trig(rng)
            else:
                r, c = (sample.dim_of(d) for d in MATRIX_SHAPES[base])
                sample.fields[base] = [[_random_trig(rng) for _ in range(c)] for _ in range(r)]
        return sample

    def dim_of(self, d: str) -> int:
        return {"N": self.dims[0], "M": self.dims[1], "1": 1}[d]

    def atom_value(self, a: FieldAtom, t: float, x: float):
        if a.dx and a.flow != 2:
            raise UnhousedAtomError(f"no evaluator for {a}: x-derivatives of flow {a.flow}")
        if a.base not in self.fields:
            raise UnhousedAtomError(f"no evaluator for atom {a}")
        f = self.fields[a.base]
        if self.mode == "scalar":
            return f.value(t, x, a.dt, a.dx)
        return np.array([[g.value(t, x, a.dt, a.dx) for g in row] for row in f],
                        dtype=complex)


@dataclass(frozen=True)
class ExponentialSolution:
    """u = a e^(kx+wt), uh = b e^-(kx+wt), w = 2ab - k^2.

    The dispersion relation makes the pair an exact solution of the order-2
    flow equations, with pi and pih realized as true x-derivatives.
    """
    alpha: complex
    beta: complex
    k: complex
    # atom values by (atom, t, x), filled by ``atom_values``
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def omega(self) -> complex:
        return 2 * self.alpha * self.beta - self.k ** 2

    @staticmethod
    def random(seed: int) -> "ExponentialSolution":
        rng = random.Random(seed)
        def c():
            return rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        return ExponentialSolution(c(), c(), c())

    def dim_of(self, d: str) -> int:
        return 1  # every field is a scalar exponential

    def atom_value(self, a: FieldAtom, t: float, x: float) -> complex:
        if a.dx and a.flow != 2:
            raise UnhousedAtomError(f"no evaluator for {a}: x-derivatives of flow {a.flow}")
        w, k = self.omega, self.k
        base, dt, dx = a.base, a.dt, a.dx
        if base == "pi":
            base, dx = "uh", dx + 1
        elif base == "pih":
            base, dx = "u", dx + 1
        if base == "u":
            return self.alpha * w ** dt * k ** dx * cmath.exp(k * x + w * t)
        if base == "uh":
            return self.beta * (-w) ** dt * (-k) ** dx * cmath.exp(-(k * x + w * t))
        raise UnhousedAtomError(f"no evaluator for atom {a}")


def atom_values(sample, atoms, t: float, x: float) -> list:
    """Values of ``atoms`` at (t, x); ``sample.atom_value`` runs only on a miss."""
    memo, out = sample.memo, []
    for a in atoms:
        key = (a, t, x)
        v = memo.get(key)
        if v is None:
            v = memo[key] = sample.atom_value(a, t, x)
        out.append(v)
    return out


def _coeff_value(c, params: dict | None) -> complex:
    if isinstance(c, GaussianRational):
        return c.to_complex()
    if params is None:
        raise ValueError("boundary-constant coefficients need parameter values")
    return c.eval(params)


class Plan:
    """An expression compiled for evaluation at many samples and points.

    ``atoms`` are the distinct atoms of the expression.  ``powers`` are the
    lambda powers of a series, or None for a polynomial or block matrix
    (whose value is a number when ``scalar_out`` is set and it is 1x1).
    Each term is a word (a tuple of indices into ``atoms``) in block entry
    ``(i, j)`` at slot ``(p, k)``, where ``p`` numbers the powers (0 outside
    a series) and ``k`` the terms of one power; ``coeffs[p, k]`` is its
    coefficient as a complex number, zero in an unused slot.

    A value writes each word into its block entry of an otherwise zero slot
    array, scales the slots by the coefficients and sums each power's slots
    in term order.  Scaling and sums stay in numpy, whose complex products
    may round differently from Python's, so a value rounds as a term-by-term
    numpy evaluation does.  Block offsets are worked out once per sizes of
    N and M.
    """

    __slots__ = ("atoms", "row_dims", "col_dims", "powers", "terms", "coeffs", "trace",
                 "scalar_out", "_layouts")

    def __init__(self, atoms, row_dims, col_dims, powers, terms, coeffs, trace, scalar_out):
        self.atoms, self.row_dims, self.col_dims = atoms, row_dims, col_dims
        self.powers, self.terms, self.coeffs = powers, terms, coeffs
        self.trace, self.scalar_out = trace, scalar_out
        self._layouts = {}

    def _layout(self, sample):
        """``(shape, ones, cells, scalar)`` for the sample's sizes of N and M.

        ``ones`` holds the identity block of each empty word (None for the
        other words), ``cells`` the positions in the flattened slot array of
        each term's block elements, term by term and row by row, and
        ``scalar`` whether every term's block is 1x1.
        """
        key = (sample.dim_of("N"), sample.dim_of("M"))
        layout = self._layouts.get(key)
        if layout is None:
            def offsets(dims):
                sizes = [sample.dim_of(d) for d in dims]
                return sizes, list(accumulate([0] + sizes))
            (nr, r0), (nc, c0) = offsets(self.row_dims), offsets(self.col_dims)
            shape = (r0[-1], c0[-1])
            slots = np.arange(self.coeffs[..., 0, 0].size * shape[0] * shape[1])
            slots = slots.reshape(self.coeffs.shape[:2] + shape)
            cells = np.array([n for p, k, i, j, _ in self.terms
                              for n in slots[p, k, r0[i]:r0[i + 1], c0[j]:c0[j + 1]].flat],
                             dtype=np.intp)
            ones = [None if w else np.eye(nr[i], nc[j], dtype=complex)
                    for _, _, i, j, w in self.terms]
            layout = self._layouts[key] = (shape, ones, cells, len(cells) == len(self.terms))
        return layout

    def value(self, sample, point, lam: complex | None = None):
        """The expression at ``point`` of ``sample`` (and at ``lam`` for a series)."""
        if self.powers is not None and lam is None:
            raise ValueError("a spectral-parameter value is required for series")
        vals = atom_values(sample, self.atoms, *point)
        mul = operator.matmul if vals and isinstance(vals[0], np.ndarray) else operator.mul
        words = [reduce(mul, map(vals.__getitem__, w)) if w else None
                 for *_, w in self.terms]
        if self.trace:
            out = 0j
            for c, v in zip(self.coeffs.ravel().tolist(), words):
                out += c * np.trace(v)
            return out
        shape, ones, cells, scalar = self._layout(sample)
        buf = np.zeros(self.coeffs.shape[:2] + shape, dtype=complex)
        if scalar and mul is operator.mul:   # every word is a number
            buf.reshape(-1)[cells] = [1 if v is None else v for v in words]
        else:
            buf.reshape(-1)[cells] = np.concatenate(
                [one if v is None else v for one, v in zip(ones, words)], axis=None)
        mats = np.add.accumulate(self.coeffs * buf, axis=1)[:, -1]
        if self.powers is not None:
            if not self.powers:
                return np.zeros(shape, dtype=complex)
            lams = np.array([lam ** p for p in self.powers])
            return np.add.accumulate(mats * lams[:, None, None])[-1]
        return mats[0, 0, 0] if self.scalar_out and shape == (1, 1) else mats[0]


def plan(expr, params: dict | None = None) -> Plan:
    """Compile an NCPolynomial, PolyMatrix or LaurentSeries for evaluation.

    ``params`` gives the values of the boundary constants in MPoly
    coefficients; every coefficient is converted to a complex number here,
    once.
    """
    powers = None
    if isinstance(expr, NCPolynomial):
        row_dims, col_dims, matrices = expr.shape[:1], expr.shape[1:], [((expr,),)]
    elif isinstance(expr, PolyMatrix):
        row_dims, col_dims, matrices = expr.row_dims, expr.col_dims, [expr.entries]
    elif isinstance(expr, LaurentSeries):
        row_dims, col_dims = expr.row_dims, expr.col_dims
        powers, matrices = tuple(expr.coeffs), [m.entries for m in expr.coeffs.values()]
    else:
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    trace = expr.mode == "trace"
    index: dict = {}
    terms, by_power = [], []
    for p, entries in enumerate(matrices):
        cs = []
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                for w, c in e.terms.items():
                    if trace and not w.atoms:
                        raise ValueError("the trace of a constant depends on the block size")
                    word = tuple(index.setdefault(a, len(index)) for a in w.atoms)
                    terms.append((p, len(cs), i, j, word))
                    cs.append(_coeff_value(c, params))
        by_power.append(cs)
    coeffs = np.zeros((len(by_power), max(map(len, by_power), default=0) or 1, 1, 1),
                      dtype=complex)
    for p, cs in enumerate(by_power):
        coeffs[p, :len(cs), 0, 0] = cs
    scalar_out = isinstance(expr, NCPolynomial) and (expr.mode == "scalar"
                                                     or expr.shape == ("1", "1"))
    return Plan(tuple(index), row_dims, col_dims, powers, terms, coeffs, trace, scalar_out)


def evaluate(expr, sample, point, lam: complex | None = None, params: dict | None = None):
    """Exact analytic evaluation of kernel values on a field sample.

    NCPolynomial -> complex (scalar) or ndarray (matrix); PolyMatrix ->
    assembled ndarray; LaurentSeries -> value at the given lam.  Trace-mode
    polynomials evaluate through numpy traces.  ``expr`` may already be a
    ``Plan``, which a check builds once before its trial loop; ``params``
    is read only when ``expr`` is compiled here.
    """
    compiled = expr if isinstance(expr, Plan) else plan(expr, params)
    return compiled.value(sample, point, lam)


def finite_difference_crosscheck(expr, sample, point, h: float, var: str = "t",
                                 order: int = 1) -> dict:
    """Central-difference check of the analytic derivative; O(h^2) accurate."""
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-6, 1e-3]")
    t, x = point
    d = expr
    for _ in range(order):
        d = d.differentiate_t() if var == "t" else d.differentiate_x()
    exact = evaluate(d, sample, point)

    dt, dx = (h, 0) if var == "t" else (0, h)

    def f(s):
        return evaluate(expr, sample, (t + s * dt, x + s * dx))

    if order == 1:
        fd = (f(1) - f(-1)) / (2 * h)
    elif order == 2:
        fd = (f(1) - 2 * f(0) + f(-1)) / h ** 2
    else:
        raise ValueError("order must be 1 or 2")
    err = float(np.max(np.abs(np.asarray(fd) - np.asarray(exact))))
    scale = max(1.0, float(np.max(np.abs(np.asarray(exact)))))
    return {"h": h, "var": var, "order": order, "abs_error": err,
            "rel_error": err / scale, "exact": exact, "fd": fd}
