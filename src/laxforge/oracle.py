"""Independent numeric verification of the symbolic results.

Random smooth fields are trigonometric polynomials in (t, x): closed under
differentiation and exactly evaluable to machine precision, so every check is
a pointwise identity evaluation (never an x-evolution of the PDE, which is
ill-posed).  Matrix products and commutators on the numeric side go through
numpy, keeping the route independent of the symbolic multiplication.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

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
            out += a * (1j * w) ** dt * (1j * k) ** dx * np.exp(1j * (w * t + k * x))
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
        w, k = self.omega, self.k
        base, dt, dx = a.base, a.dt, a.dx
        if base == "pi":
            base, dx = "uh", dx + 1
        elif base == "pih":
            base, dx = "u", dx + 1
        if base == "u":
            return self.alpha * w ** dt * k ** dx * np.exp(k * x + w * t)
        if base == "uh":
            return self.beta * (-w) ** dt * (-k) ** dx * np.exp(-(k * x + w * t))
        raise UnhousedAtomError(f"no evaluator for atom {a}")


def _coeff_value(c, params: dict | None) -> complex:
    if isinstance(c, GaussianRational):
        return c.to_complex()
    if params is None:
        raise ValueError("boundary-constant coefficients need parameter values")
    return c.eval(params)


def evaluate(expr, sample, point, lam: complex | None = None, params: dict | None = None):
    """Exact analytic evaluation of kernel values on a field sample.

    NCPolynomial -> complex (scalar) or ndarray (matrix); PolyMatrix ->
    assembled ndarray; LaurentSeries -> value at the given lam.  Trace-mode
    polynomials evaluate through numpy traces.
    """
    t, x = point
    if isinstance(expr, NCPolynomial):
        return _eval_poly(expr, sample, t, x, params)
    if isinstance(expr, PolyMatrix):
        return _eval_matrix(expr, sample, t, x, params)
    if isinstance(expr, LaurentSeries):
        if lam is None:
            raise ValueError("a spectral-parameter value is required for series")
        out = np.zeros((sum(map(sample.dim_of, expr.row_dims)),
                        sum(map(sample.dim_of, expr.col_dims))), dtype=complex)
        for p, m in expr.coeffs.items():
            out = out + _eval_matrix(m, sample, t, x, params) * lam ** p
        return out
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def _eval_poly(p: NCPolynomial, sample, t, x, params=None):
    rows, cols = map(sample.dim_of, p.shape)
    out = np.zeros((rows, cols), dtype=complex)
    for w, c in p.terms.items():
        cv = _coeff_value(c, params)
        if len(w) == 0:
            if p.mode == "trace":
                raise ValueError("the trace of a constant depends on the block size")
            out += cv * np.eye(rows, cols, dtype=complex)
            continue
        val = None
        for a in w.atoms:
            v = np.atleast_2d(sample.atom_value(a, t, x))
            val = v if val is None else val @ v
        out += cv * (np.trace(val) if p.mode == "trace" else val)
    if out.shape == (1, 1) and (p.mode == "scalar" or p.shape == ("1", "1")):
        return out[0, 0]
    return out


def _eval_matrix(m: PolyMatrix, sample, t, x, params=None):
    return np.block([[np.atleast_2d(_eval_poly(e, sample, t, x, params)) for e in row]
                     for row in m.entries])


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
