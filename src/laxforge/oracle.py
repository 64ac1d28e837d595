"""Independent numeric verification of the symbolic results.

Random smooth fields are trigonometric polynomials in (t, x): closed under
differentiation and exactly evaluable to machine precision, so every check is
a pointwise identity evaluation (never an x-evolution of the PDE, which is
ill-posed).  Matrix products and commutators on the numeric side go through
numpy, keeping the route independent of the symbolic multiplication.

``plan`` compiles an expression once: complex coefficients, each word as
indices into the expression's distinct atoms, and the block layout.  A plan
evaluates a whole chunk of trials (sample, point, lam) at once; ``evaluate``
is a chunk of one.  Each trial rounds as it would alone, save one case (see
``Plan``), and the reports match a trial-by-trial loop.  A sample keeps each atom
value it computes, keyed by atom and point, so each distinct atom is evaluated
once per sample and point however many expressions read it.  Only the flow-2
variable x has an evaluator: an atom with ``dx > 0`` in another flow is
refused, and so is a ``FieldSample`` of the other mode than the expression's
(a trace counts as matrix).
"""
from __future__ import annotations

import cmath
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


def _below(getrandbits, n: int) -> int:
    """CPython's ``randrange(n)``: draws of ``n.bit_length()`` bits until one is below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_trig(rng: random.Random) -> TrigPoly:
    """The draws of ``randint`` and ``uniform`` without their Python layers.

    ``randint(a, b)`` is ``a + randrange(b - a + 1)`` and ``uniform(-1, 1)`` is
    ``-1 + 2 * random()``, so the stream and the samples are those of the calls.
    """
    bits, unit = rng.getrandbits, rng.random
    modes = []
    for _ in range(1 + _below(bits, MAX_MODES)):
        amp = ((-1 + 2 * unit()) + 1j * (-1 + 2 * unit())) / 2
        modes.append((amp, (_below(bits, 5) - 2, _below(bits, 5) - 2)))
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


def atom_values(trials, atoms) -> list:
    """Each atom's values at the ``(sample, point, lam)`` trials, shape ``(T,)``
    or ``(T, r, c)``; ``sample.atom_value`` runs only on a memo miss."""
    rows = []
    for sample, (t, x), _ in trials:
        memo, row = sample.memo, []
        for a in atoms:
            key = (a, t, x)
            v = memo.get(key)
            if v is None:
                v = memo[key] = sample.atom_value(a, t, x)
            row.append(v)
        rows.append(row)
    return [np.array(col) for col in zip(*rows)]


def pymul(a, b):
    """``a * b`` entry by entry, rounded as Python's ``complex * complex`` (one
    rounding per product and sum; numpy's own product may fuse them)."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.empty(np.broadcast(ar, br).shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
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

    ``value`` evaluates a chunk of trials at once, on one leading axis.  It
    stacks each atom's values, forms each word once for the chunk, writes
    the words into their block entries of an otherwise zero slot array,
    scales the slots by the coefficients and sums each power's slots in term
    order.  Products of numbers round as Python's (``pymul``).  Matrix
    products, scaling and sums stay in numpy and round each entry as for one
    trial, save that numpy may leave a complex product unfused when it is
    the whole operation (a one-trial chunk of a one-term 1x1 plan), which
    changes nothing for the battery's real or imaginary coefficients: its
    reports do not move.  Block offsets are worked out once per N and M.
    """

    __slots__ = ("atoms", "row_dims", "col_dims", "powers", "terms", "coeffs", "mode",
                 "scalar_out", "_layouts")

    def __init__(self, atoms, row_dims, col_dims, powers, terms, coeffs, mode, scalar_out):
        self.atoms, self.row_dims, self.col_dims = atoms, row_dims, col_dims
        self.powers, self.terms, self.coeffs = powers, terms, coeffs
        self.mode, self.scalar_out = mode, scalar_out
        self._layouts = {}

    def _layout(self, sample):
        """``(shape, ones, cells)`` for the sample's sizes of N and M.

        ``ones`` holds the identity block of each empty word (None for the
        other words), and ``cells`` the positions in the flattened slot
        array of each term's block elements, term by term and row by row.
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
            ones = [None if w else np.eye(nr[i], nc[j], dtype=complex).reshape(1, -1)
                    for _, _, i, j, w in self.terms]
            layout = self._layouts[key] = (shape, ones, cells)
        return layout

    def value(self, trials):
        """The expression at each ``(sample, point, lam)`` of ``trials``, stacked:
        ``(T,)`` numbers or ``(T, rows, cols)`` blocks.  ``lam`` is read only for
        a series; the samples must share their sizes of N and M."""
        n, scalar = len(trials), self.mode == "scalar"
        for sample, _, lam in trials:
            if self.powers is not None and lam is None:
                raise ValueError("a spectral-parameter value is required for series")
            if isinstance(sample, FieldSample) and (sample.mode == "scalar") != scalar:
                raise ValueError(f"a {self.mode}-mode expression cannot be evaluated "
                                 f"on a {sample.mode}-mode sample")
        vals = atom_values(trials, self.atoms)
        blocks = bool(vals) and vals[0].ndim == 3
        mul = np.matmul if blocks else pymul
        words = [reduce(mul, map(vals.__getitem__, w)) if w else None
                 for *_, w in self.terms]
        if self.mode == "trace":   # a word of 1x1 blocks is a number, its own trace
            return sum((pymul(c, np.trace(v, axis1=1, axis2=2) if blocks else v)
                        for c, v in zip(self.coeffs.ravel().tolist(), words)),
                       np.zeros(n, dtype=complex))
        shape, ones, cells = self._layout(trials[0][0])
        buf = np.zeros((n,) + self.coeffs.shape[:2] + shape, dtype=complex)
        if cells.size:
            buf.reshape(n, -1)[:, cells] = np.concatenate(
                [np.broadcast_to(one, (n, one.size)) if v is None else v.reshape(n, -1)
                 for one, v in zip(ones, words)], axis=1)
        np.multiply(self.coeffs, buf, out=buf)
        mats = np.add.accumulate(buf, axis=2, out=buf)[:, :, -1]
        if self.powers is None:
            out = mats[:, 0, 0, 0] if self.scalar_out and shape == (1, 1) else mats[:, 0]
        elif not self.powers:
            out = np.zeros((n,) + shape, dtype=complex)
        else:
            lams = np.array([[lam ** p for p in self.powers] for *_, lam in trials])
            out = np.add.accumulate(mats * lams[:, :, None, None], axis=1)[:, -1]
        return out.copy()   # a view would keep the whole slot array alive


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
    return Plan(tuple(index), row_dims, col_dims, powers, terms, coeffs, expr.mode, scalar_out)


def evaluate(expr, sample, point, lam: complex | None = None, params: dict | None = None):
    """Exact analytic evaluation of kernel values on a field sample.

    NCPolynomial -> complex (scalar) or ndarray (matrix); PolyMatrix ->
    assembled ndarray; LaurentSeries -> value at the given lam.  Trace-mode
    polynomials evaluate through numpy traces, or as the word itself on a
    sample whose blocks are all 1x1.  ``expr`` may already be a ``Plan``;
    ``params`` is read only when ``expr`` is compiled here.
    """
    compiled = expr if isinstance(expr, Plan) else plan(expr, params)
    return compiled.value([(sample, point, lam)])[0]


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
