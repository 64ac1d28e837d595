"""Independent numeric verification of the symbolic results.

Random smooth fields are trigonometric polynomials in (t, x): closed under
differentiation and exactly evaluable to machine precision, so every check is
a pointwise identity evaluation (never an x-evolution of the PDE, which is
ill-posed).  Matrix products and commutators on the numeric side go through
numpy, keeping the route independent of the symbolic multiplication.

``plan`` compiles an expression once into its nonzero block entries: each
word as indices into the expression's distinct atoms, with its complex
coefficient.  A plan evaluates a whole chunk of trials (sample, point, lam)
at once; ``evaluate`` is a chunk of one.  Each trial rounds as it would
alone, save one case (see ``Plan``), and the reports match a trial-by-trial
loop.  A ``Chunk`` keeps each atom value it computes, so each distinct atom
is evaluated once per chunk however many expressions read it.  A
``FieldSample`` draws each field's block entries straight into flat lists
(mode counts, amplitudes, ω and k; no ``TrigPoly`` is built), and a chunk of
trig samples evaluates the atoms of a field for all its trials in one numpy
pass over those lists, bit for bit ``TrigPoly.value``, the per-entry
reference (see ``_trig_values``).  Only
the flow-2 variable x has an evaluator: an atom with ``dx > 0`` in another
flow is refused, and so is a ``FieldSample`` of the other mode than the
expression's (a trace counts as matrix).
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


def _draw_modes(rng: random.Random, entries: int) -> tuple[list, list, list, list]:
    """``entries`` trig polynomials from ``rng``, as four flat lists: the mode
    count of each entry, then the amplitude, ``ω`` and ``k`` of every mode in order.

    An entry draws ``randint(1, MAX_MODES)`` modes, each an amplitude
    ``(uniform(-1, 1) + 1j * uniform(-1, 1)) / 2`` then ``randint(-2, 2)`` for
    ``ω`` and for ``k``.  The draws go straight to ``getrandbits`` and
    ``random``: ``randint(a, b)`` is ``a + randrange(b - a + 1)``, which draws
    ``n.bit_length()`` bits until they read below ``n = b - a + 1``, and
    ``uniform(-1, 1)`` is ``-1 + 2 * random()``.  So the stream, the samples
    and the generator's end state are those of the calls.  With ``x`` and
    ``y`` the two uniforms, the amplitude ``(x + 1j * y) / 2`` is
    ``complex(x / 2, y / 2)`` (neither is ever ``-0.0``), and ``x / 2`` is
    ``random() - 0.5``: every one of these steps is exact in binary floating
    point.
    """
    bits, unit = rng.getrandbits, rng.random
    count_bits = MAX_MODES.bit_length()
    counts, amps, ws, ks = [], [], [], []
    for _ in range(entries):
        n = bits(count_bits)
        while n >= MAX_MODES:
            n = bits(count_bits)
        counts.append(n + 1)
        for _ in range(n + 1):
            amps.append(complex(unit() - 0.5, unit() - 0.5))
            w = bits(3)
            while w >= 5:
                w = bits(3)
            k = bits(3)
            while k >= 5:
                k = bits(3)
            ws.append(w - 2)
            ks.append(k - 2)
    return counts, amps, ws, ks


@dataclass
class FieldSample:
    """Independent trig polynomials per field; scalar or small-matrix mode.

    ``fields`` maps each base to its block entries, row by row (one entry in
    scalar mode), as four flat lists: the mode count of each entry, then the
    amplitude, ``ω`` and ``k`` of every mode, entry after entry.  An entry is
    the ``TrigPoly`` whose modes are its ``(a, (ω, k))``.
    """
    seed: int
    mode: str = "scalar"
    dims: tuple[int, int] = (2, 1)  # concrete sizes for the symbolic N and M
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("scalar", "matrix"):
            raise ValueError(f"a sample's mode must be 'scalar' or 'matrix', got {self.mode!r}")
        if len(self.dims) != 2 or not all(isinstance(d, int) and d >= 1 for d in self.dims):
            raise ValueError(f"a sample's dims must be two sizes >= 1, got {self.dims!r}")

    @staticmethod
    def random(seed: int, mode: str = "scalar", dims: tuple[int, int] = (2, 1)) -> "FieldSample":
        rng = random.Random(seed)
        sample = FieldSample(seed, mode, dims)
        entries = 1 if mode == "scalar" else dims[0] * dims[1]   # each field is N x M or M x N
        for base in FIELD_BASES:
            sample.fields[base] = _draw_modes(rng, entries)
        return sample

    def dim_of(self, d: str) -> int:
        return {"N": self.dims[0], "M": self.dims[1], "1": 1}[d]

    def atom_value(self, a: FieldAtom, t: float, x: float):
        """The atom at one point: the chunk evaluator on a chunk of one trial."""
        (v,) = Chunk([(self, (t, x), None)]).atom_values([a])[0]
        return complex(v) if self.mode == "scalar" else v.copy()


@dataclass(frozen=True)
class ExponentialSolution:
    """u = a e^(kx+wt), uh = b e^-(kx+wt), w = 2ab - k^2.

    The dispersion relation makes the pair an exact solution of the order-2
    flow equations, with pi and pih realized as true x-derivatives.
    """
    alpha: complex
    beta: complex
    k: complex

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


def _stack_field(samples, points, base):
    """One field's modes over a chunk of trig samples, padded to the most modes.

    Returns ``(amp, e, freqs, where, counts, shape)``.  The ``R`` rows run over
    the trials and, within a trial, over the block entries row by row; the
    columns over the modes.  ``amp`` is ``(R, n)`` and so is the table
    ``e = cos φ + i sin φ``, ``φ = ωt + kx``; ``where`` is ``(2, R, n)``,
    the index of each ``ω`` and ``k`` in ``freqs``, the sorted distinct
    values and 0; ``counts`` are the modes of each row and ``shape`` the
    block shape (``()`` in scalar mode).  The samples' flat lists are joined
    and scattered into the padded rows by numpy.
    """
    counts, amps, ws, ks = ([], [], [], [])
    for s in samples:
        c, a, w, k = s.fields[base]
        counts += c
        amps += a
        ws += w
        ks += k
    counts = np.array(counts)
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.arange(len(amps)) - np.repeat(np.cumsum(counts) - counts, counts)
    amp = np.zeros((len(counts), max(int(counts.max()), 1)), dtype=complex)
    amp[rows, cols] = amps
    freqs = sorted({0}.union(ws, ks))
    where = np.zeros((2,) + amp.shape, dtype=np.intp)
    where[:, rows, cols] = np.searchsorted(freqs, (ws, ks))
    t, x = (np.repeat(c, len(counts) // len(points))[:, None] for c in np.array(points).T)
    w, k = np.array(freqs, dtype=float)[where]   # as Python's int * float converts
    phase = w * t + k * x
    e = np.empty(phase.shape, dtype=complex)
    e.real, e.imag = np.cos(phase), np.sin(phase)
    first = samples[0]
    shape = () if first.mode == "scalar" else tuple(map(first.dim_of, MATRIX_SHAPES[base]))
    return amp, e, freqs, where, counts, shape


def _trig_values(samples, points, atoms, stacks: dict) -> list:
    """Each atom's values at the trig samples and points, bit for bit ``TrigPoly.value``.

    Per base, the modes are stacked once (``stacks`` keeps them for later
    atoms of the chunk; see ``_stack_field``).  ``exp(i φ)`` is
    ``cmath.exp(1j * φ)``: the real part of ``1j * φ`` is a zero and
    ``exp(±0) = 1``.  Every atom of the base is then evaluated at once as
    ``((a·(iω)^dt)·(ik)^dx)·e``: the powers come from a table of Python's own
    ``(1j * w) ** d``, the products from ``pymul``, and each row's modes are
    summed in order from ``0j`` up to its own count, past which the padded
    slots lie.
    """
    out = {}
    by_base: dict = {}
    for a in atoms:
        by_base.setdefault(a.base, []).append(a)
    for base, group in by_base.items():
        if base not in stacks:
            stacks[base] = _stack_field(samples, points, base)
        amp, e, freqs, where, counts, shape = stacks[base]
        orders = np.array([(a.dt, a.dx) for a in group])
        powers = np.array([[(1j * w) ** d for w in freqs]
                           for d in range(int(orders.max()) + 1)], dtype=complex)
        dt, dx = (orders[:, i, None, None] for i in (0, 1))
        terms = pymul(pymul(pymul(amp, powers[dt, where[0]]), powers[dx, where[1]]), e)
        terms[:, :, 0] += 0   # the sum starts from 0j, as TrigPoly.value's does
        sums = np.add.accumulate(terms, axis=2, out=terms)
        # each row stops at its last mode; a row without modes reads the last
        # slot, where its padded zeros, summed from 0j, make 0j
        acc = sums[:, np.arange(len(counts)), counts - 1]
        out.update(zip(group, acc.reshape((len(group), len(points)) + shape)))
    return [out[a] for a in atoms]


class Chunk:
    """Trials ``(sample, point, lam)`` evaluated together, as a sequence.

    A chunk keeps the value of each atom at all its trials (``(T,)`` or
    ``(T, r, c)``, read-only), so each distinct atom is evaluated once per
    chunk however many plans read it.  A chunk of trig samples only, which
    must share their mode (and in matrix mode their sizes), goes through
    ``_trig_values``; any other chunk asks each sample for each atom.
    """

    __slots__ = ("trials", "_values", "_stacks")

    def __init__(self, trials):
        self.trials = tuple(trials)
        if not self.trials:
            raise ValueError("a chunk needs at least one (sample, point, lam) trial, got none")
        self._values: dict = {}
        self._stacks: dict = {}

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __getitem__(self, i):
        return self.trials[i]

    def atom_values(self, atoms) -> list:
        """Each atom's values at the chunk's trials, evaluated on a first read."""
        values = self._values
        missing = [a for a in dict.fromkeys(atoms) if a not in values]
        if missing:
            for a, v in zip(missing, self._evaluate(missing)):
                v.flags.writeable = False
                values[a] = v
        return [values[a] for a in atoms]

    def _evaluate(self, atoms) -> list:
        samples = [s for s, _, _ in self.trials]
        if not all(isinstance(s, FieldSample) for s in samples):
            rows = [[sample.atom_value(a, t, x) for a in atoms]
                    for sample, (t, x), _ in self.trials]
            return [np.array(col) for col in zip(*rows)]
        first = samples[0]
        for s in samples:
            if s.mode != first.mode or (s.mode != "scalar" and s.dims != first.dims):
                raise ValueError(f"the samples of a chunk must share their mode and sizes: "
                                 f"{s.mode} {s.dims} after {first.mode} {first.dims}")
        for a in atoms:
            if a.dx and a.flow != 2:
                raise UnhousedAtomError(f"no evaluator for {a}: x-derivatives of flow {a.flow}")
            if any(a.base not in s.fields for s in samples):
                raise UnhousedAtomError(f"no evaluator for atom {a}")
        return _trig_values(samples, [p for _, p, _ in self.trials], atoms, self._stacks)


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
    ``entries`` are the nonzero block entries in term order, each
    ``(p, i, j, words, coeffs)``: ``p`` numbers the powers (0 outside a
    series), ``(i, j)`` is the block, ``words`` are its terms as tuples of
    indices into ``atoms`` and ``coeffs`` their coefficients as complex
    numbers, shaped ``(terms, 1, 1)``.

    ``value`` evaluates a chunk of trials at once, on one leading axis.  For
    each entry it forms each word once for the chunk (an empty word is the
    entry's identity block), stacks the words on a term axis, scales them by
    the coefficients and sums them in term order into the entry's block of
    the result.  Products of numbers round as Python's (``pymul``).  Matrix
    products, scaling and sums stay in numpy and round each entry as for one
    trial, save that numpy may leave a complex product unfused when it is
    the whole operation (a one-trial chunk of a one-term 1x1 entry), which
    changes nothing for the battery's real or imaginary coefficients: its
    reports do not move.
    """

    __slots__ = ("atoms", "row_dims", "col_dims", "powers", "entries", "mode", "scalar_out")

    def __init__(self, atoms, row_dims, col_dims, powers, entries, mode, scalar_out):
        self.atoms, self.row_dims, self.col_dims = atoms, row_dims, col_dims
        self.powers, self.entries = powers, entries
        self.mode, self.scalar_out = mode, scalar_out

    def value(self, trials):
        """The expression at each ``(sample, point, lam)`` of ``trials``, stacked:
        ``(T,)`` numbers or ``(T, rows, cols)`` blocks.  ``lam`` is read only for
        a series; the samples must share their sizes of N and M.  ``trials`` may
        be a ``Chunk``, whose atom values serve every plan that reads it."""
        trials = trials if isinstance(trials, Chunk) else Chunk(trials)
        n, scalar = len(trials), self.mode == "scalar"
        for sample, _, lam in trials:
            if self.powers is not None and lam is None:
                raise ValueError("a spectral-parameter value is required for series")
            if isinstance(sample, FieldSample) and (sample.mode == "scalar") != scalar:
                raise ValueError(f"a {self.mode}-mode expression cannot be evaluated "
                                 f"on a {sample.mode}-mode sample")
        vals = trials.atom_values(self.atoms)
        blocks = bool(vals) and vals[0].ndim == 3
        mul = np.matmul if blocks else pymul

        def word(w):
            return reduce(mul, map(vals.__getitem__, w))
        if self.mode == "trace":   # a word of 1x1 blocks is a number, its own trace
            return sum((pymul(c, np.trace(word(w), axis1=1, axis2=2) if blocks else word(w))
                        for *_, words, cs in self.entries
                        for w, c in zip(words, cs.ravel().tolist())),
                       np.zeros(n, dtype=complex))
        r0, c0 = (list(accumulate([0] + [trials[0][0].dim_of(d) for d in dims]))
                  for dims in (self.row_dims, self.col_dims))
        # one power slot outside a series, and for a series without terms
        mats = np.zeros((n, len(self.powers or (0,)), r0[-1], c0[-1]), dtype=complex)
        for p, i, j, words, coeffs in self.entries:
            shape = (n, r0[i + 1] - r0[i], c0[j + 1] - c0[j])
            one = np.broadcast_to(np.eye(*shape[1:], dtype=complex), shape)
            terms = np.stack([word(w).reshape(shape) if w else one for w in words], axis=1)
            np.multiply(coeffs, terms, out=terms)
            mats[:, p, r0[i]:r0[i + 1], c0[j]:c0[j + 1]] = \
                np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        if not self.powers:
            return mats[:, 0, 0, 0] if self.scalar_out and mats.shape[2:] == (1, 1) else mats[:, 0]
        lams = np.array([[lam ** p for p in self.powers] for *_, lam in trials])
        # a copy, so the result is contiguous and keeps no power's block alive
        return np.add.accumulate(mats * lams[:, :, None, None], axis=1)[:, -1].copy()


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
    entries = []
    for p, block in enumerate(matrices):
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                words, cs = [], []
                for w, c in e.terms.items():
                    if trace and not w.atoms:
                        raise ValueError("the trace of a constant depends on the block size")
                    words.append(tuple(index.setdefault(a, len(index)) for a in w.atoms))
                    cs.append(_coeff_value(c, params))
                if words:
                    entries.append((p, i, j, words, np.array(cs, dtype=complex)[:, None, None]))
    scalar_out = isinstance(expr, NCPolynomial) and (expr.mode == "scalar"
                                                     or expr.shape == ("1", "1"))
    return Plan(tuple(index), row_dims, col_dims, powers, entries, expr.mode, scalar_out)


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
    if var not in ("t", "x"):
        raise ValueError(f"var must be 't' or 'x', got {var!r}")
    if type(order) is not int or order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
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
    else:
        fd = (f(1) - 2 * f(0) + f(-1)) / h ** 2
    err = float(np.max(np.abs(np.asarray(fd) - np.asarray(exact))))
    scale = max(1.0, float(np.max(np.abs(np.asarray(exact)))))
    return {"h": h, "var": var, "order": order, "abs_error": err,
            "rel_error": err / scale, "exact": exact, "fd": fd}
