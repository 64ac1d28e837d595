"""Numeric verification battery.

Each check recomputes a symbolic zero through an independent numeric route:
matrix products and commutators via numpy on evaluated coefficients, boundary
algebra via complex arithmetic on randomly drawn constants.  Every check runs
one trial loop (``_worst``) and returns one report dict (``_report``) so the
CLI can emit it as canonical JSON; identical seeds produce byte-identical
reports.
"""
from __future__ import annotations

import random

import numpy as np

from .atoms import FIELD_BASES, atom
from .hierarchy import (dress_u, extract_eom, generate_u, nls_v_operator,
                        verify_conservation, zero_curvature_residual)
from .oracle import ExponentialSolution, FieldSample, evaluate
from .riccati import (p_a_matrix, sigma_matrix, solve_gamma, solve_w_z, x_matrix,
                      y_matrix)


def _worst(trials: int, seed: int, residual, rng: random.Random | None = None):
    """``(max_abs, worst_seed)`` of ``residual(s_seed, rng)`` over the trials.

    Each trial draws its sample seed ``s_seed`` from ``rng`` (by default a
    generator seeded with ``seed``); the residual may draw its point from the
    same generator.  ``worst_seed`` names the sample of ``max_abs``, or
    ``seed`` when no residual is positive.  A NaN residual is the worst
    result: the first one is kept, so the report fails.
    """
    rng = rng or random.Random(seed)
    max_abs, worst_seed = 0.0, seed
    for _ in range(trials):
        s_seed = rng.randrange(2 ** 31)
        d = residual(s_seed, rng)
        if not d <= max_abs and max_abs == max_abs:
            max_abs, worst_seed = d, s_seed
    return max_abs, worst_seed


def _report(name: str, trials: int, tol: float, max_abs: float, worst_seed: int,
            **extra) -> dict:
    return {"name": name, "trials": trials, "tol": tol, "max_abs": max_abs,
            "worst_seed": worst_seed, "passed": bool(max_abs < tol), **extra}


def _point(rng: random.Random, r: float) -> tuple[float, float]:
    return (rng.uniform(-r, r), rng.uniform(-r, r))


def _lam(rng: random.Random) -> complex:
    return rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1, 1)


def identity_check(lhs, rhs, trials: int, tol: float, seed: int = 0,
                   name: str = "identity", mode: str = "scalar",
                   lam: complex | None = None, params: dict | None = None) -> dict:
    """Max |lhs - rhs| over random samples and points; never raises on failure."""
    def residual(s_seed, rng):
        sample = FieldSample.random(s_seed, mode)
        point = _point(rng, 2)
        a = evaluate(lhs, sample, point, lam, params)
        b = evaluate(rhs, sample, point, lam, params)
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    return _report(name, trials, tol, *_worst(trials, seed, residual))


def _riccati_residual(mode: str, order: int):
    """Residual of one mode's anti-diagonal system, one order k at a time."""
    sol = solve_w_z(order, mode)
    W = {k: sol.w(k) for k in range(1, order + 1)}
    dW = {k: W[k].differentiate_t() for k in W}
    X, PA = x_matrix(mode), p_a_matrix(mode)
    Sig = sigma_matrix(mode)
    YD_blocks = y_matrix(mode)  # diagonal part only is needed

    def residual(s_seed, rng):
        sample = FieldSample.random(s_seed, mode)
        point = _point(rng, 2)
        Xv = np.atleast_2d(evaluate(X, sample, point))
        PAv = np.atleast_2d(evaluate(PA, sample, point))
        Sv = np.atleast_2d(evaluate(Sig, sample, point))
        Yv = np.atleast_2d(evaluate(YD_blocks, sample, point))
        Yd = np.zeros_like(Yv)
        n = Xv.shape[0] // 2 if mode == "scalar" else sample.dims[0]
        Yd[:n, :n] = Yv[:n, :n]
        Yd[n:, n:] = Yv[n:, n:]
        Wv = {k: np.atleast_2d(evaluate(W[k], sample, point)) for k in W}
        dWv = {k: np.atleast_2d(evaluate(dW[k], sample, point)) for k in W}
        ds = []
        for k in range(-1, order - 1):
            r = np.zeros_like(Xv)
            if k >= 1:
                r = r + dWv[k] + Wv[k] @ Yd - Yd @ Wv[k]
            if k + 2 <= order:
                r = r + (Wv[k + 2] @ Sv - Sv @ Wv[k + 2]) / 2
            for a in range(1, k + 1):
                b = k + 1 - a
                if b >= 1:
                    r = r + Wv[a] @ Xv @ Wv[b]
            for a in range(1, k):
                b = k - a
                if b >= 1:
                    r = r + Wv[a] @ PAv @ Wv[b]
            if k == -1:
                r = r - Xv
            if k == 0:
                r = r - PAv
            ds.append(float(np.max(np.abs(r))))
        return float(np.max(ds))
    return residual


def check_riccati(trials: int, tol: float, seed: int, order: int = 5) -> dict:
    """Per-order residual of the anti-diagonal system, assembled with numpy.

    For each k <= order-2 the five contributions (time derivative, both
    commutator parts, both quadratic convolutions, inhomogeneity) are
    evaluated separately and summed as complex matrices.  ``worst_seed``
    names the sample of the mode whose maximum is reported.
    """
    rng = random.Random(seed)
    worst = {mode: _worst(max(1, trials // 2), seed, _riccati_residual(mode, order), rng)
             for mode in ("scalar", "matrix")}
    max_abs, worst_seed = max(worst.values(), key=lambda w: (w[0] != w[0], w[0]))
    return _report("riccati", trials, tol, max_abs, worst_seed, order=order,
                   per_mode={mode: w[0] for mode, w in worst.items()})


def check_gamma(trials: int, tol: float, seed: int, order: int = 5) -> dict:
    """Matrix Riccati recursion residual with numpy matrix arithmetic."""
    sol = solve_gamma(order)
    G = {k: sol.gamma(k) for k in range(1, order + 1)}
    dG = {k: G[k].differentiate_t() for k in G}

    def residual(s_seed, rng):
        sample = FieldSample.random(s_seed, "matrix")
        point = _point(rng, 2)
        Gv = {k: np.atleast_2d(evaluate(G[k], sample, point)) for k in G}
        dGv = {k: np.atleast_2d(evaluate(dG[k], sample, point)) for k in G}
        uv, uhv, piv, pihv = (
            np.atleast_2d(sample.atom_value(atom(b, mode="matrix"), *point))
            for b in FIELD_BASES)
        uuhv, uhuv = uv @ uhv, uhv @ uv
        ds = []
        for k in range(-1, order - 1):
            r = -Gv[k + 2] if k + 2 <= order else 0 * Gv[1]
            if k >= 1:
                r = r - dGv[k] + uuhv @ Gv[k] + Gv[k] @ uhuv
            for a in range(1, k):
                r = r - Gv[a] @ piv @ Gv[k - a]
            for a in range(1, k + 1):
                if k + 1 - a >= 1:
                    r = r - Gv[a] @ uhv @ Gv[k + 1 - a]
            if k == -1:
                r = r + uv
            if k == 0:
                r = r - pihv
            ds.append(float(np.max(np.abs(r))))
        return float(np.max(ds))
    return _report("gamma", trials, tol, *_worst(max(1, trials), seed, residual),
                   order=order)


def check_eom(trials: int, tol: float, seed: int) -> dict:
    """Zero-curvature residual of the second flow on exact exponential solutions."""
    res = zero_curvature_residual(generate_u(2, "scalar"), nls_v_operator("scalar"))

    def residual(s_seed, rng):
        sol = ExponentialSolution.random(s_seed)
        point = _point(rng, 0.5)
        v = evaluate(res, sol, point, lam=_lam(rng))
        return float(np.max(np.abs(v)))
    return _report("eom", trials, tol, *_worst(trials, seed, residual))


def check_dispersion(trials: int, tol: float, seed: int) -> dict:
    """EOM residual of the exponential family itself (dispersion relation)."""
    rules = extract_eom(generate_u(2, "scalar"), nls_v_operator("scalar"))

    def residual(s_seed, rng):
        sol = ExponentialSolution.random(s_seed)
        point = _point(rng, 0.5)
        return float(np.max([float(abs(evaluate(e, sol, point)))
                             for e in rules.evolution.values()]))
    return _report("dispersion", trials, tol, *_worst(trials, seed, residual))


def check_conservation(trials: int, tol: float, seed: int, max_k: int = 3) -> dict:
    """Flux identity d_x rho = d_t j on exponential solutions for k <= max_k."""
    pairs = []
    for k in range(1, max_k + 1):
        proof = verify_conservation(k)
        pairs.append((proof.density.differentiate_x(), proof.flux.differentiate_t()))

    def residual(s_seed, rng):
        sol = ExponentialSolution.random(s_seed)
        point = _point(rng, 0.5)
        return float(np.max([float(abs(evaluate(lhs, sol, point) - evaluate(rhs, sol, point)))
                             for lhs, rhs in pairs]))
    return _report("conservation", trials, tol, *_worst(trials, seed, residual))


def check_algebra(trials: int, tol: float, seed: int) -> dict:
    """Reflection equation and both linear Poisson structures, numerically."""
    P = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            P[i * 2 + j, j * 2 + i] = 1

    def kmat(lam, xi, ka):
        return np.array([[lam + 1j * xi, 1j * ka * lam],
                         [1j * ka * lam, -lam + 1j * xi]], dtype=complex)

    eye = np.eye(2, dtype=complex)

    def residual(s_seed, rng):
        r2 = random.Random(s_seed)
        def c():
            return r2.uniform(-2, 2) + 1j * r2.uniform(-2, 2)
        lam, mu, xi, ka = c(), c(), c(), c()
        K1 = np.kron(kmat(lam, xi, ka), eye)
        K2 = np.kron(eye, kmat(mu, xi, ka))
        rm, rp = P / (lam - mu), P / (lam + mu)
        refl = rm @ K1 @ K2 - K1 @ K2 @ rm + K1 @ rp @ K2 - K2 @ rp @ K1
        d = float(np.max(np.abs(refl)))

        # Poisson: bracket matrix vs [P, L1 + L2] / (lam - mu)
        u, uh, pi, pih = c(), c(), c(), c()
        V = lambda l: np.array([[l * l / 2 - u * uh, l * uh + pi],
                                [l * u - pih, -l * l / 2 + u * uh]], dtype=complex)
        # nonzero brackets: {u,pi}={uh,pih}=1; d/dfield of V entries
        dV = {
            "u": lambda l: np.array([[-uh, 0], [l, uh]], dtype=complex),
            "uh": lambda l: np.array([[-u, l], [0, u]], dtype=complex),
            "pi": lambda l: np.array([[0, 1], [0, 0]], dtype=complex),
            "pih": lambda l: np.array([[0, 0], [-1, 0]], dtype=complex),
        }
        table = [("u", "pi", 1), ("pi", "u", -1), ("uh", "pih", 1), ("pih", "uh", -1)]
        B = sum(sgn * np.kron(dV[f](lam), dV[g](mu)) for f, g, sgn in table)
        V1 = np.kron(V(lam), eye)
        V2 = np.kron(eye, V(mu))
        rhs = (P @ (V1 + V2) - (V1 + V2) @ P) / (lam - mu)
        return float(np.max([d, float(np.max(np.abs(B - rhs)))]))
    return _report("algebra", trials, tol, *_worst(trials, seed, residual))


def check_route(trials: int, tol: float, seed: int, max_n: int = 4) -> dict:
    """Generating vs dressing route, numerically, including the bare shift."""
    ops = [(generate_u(n, "scalar").series, dress_u(n, "scalar").series, n)
           for n in range(1, max_n + 1)]

    def residual(s_seed, rng):
        sample = FieldSample.random(s_seed, "scalar")
        point = _point(rng, 2)
        lam = _lam(rng)
        ds = []
        for gen, dre, n in ops:
            g = evaluate(gen, sample, point, lam=lam)
            h = evaluate(dre, sample, point, lam=lam)
            shift = lam ** (n - 1) / 2 * np.eye(2)
            ds.append(float(np.max(np.abs(g - h - shift))))
        return float(np.max(ds))
    return _report("route", trials, tol, *_worst(trials, seed, residual))


TARGETS = {
    "riccati": (check_riccati, check_gamma),
    "eom": (check_eom, check_dispersion),
    "conservation": (check_conservation,),
    "algebra": (check_algebra,),
    "route": (check_route,),
}


def run_numeric(target: str, trials: int, tol: float, seed: int) -> dict:
    """Run one target (or 'all') with at least one trial; returns a canonical report dict."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if target not in (*TARGETS, "all"):
        raise ValueError(f"unknown target {target!r}")
    names = sorted(TARGETS) if target == "all" else [target]
    checks = [fn(trials, tol, seed) for name in names for fn in TARGETS[name]]
    return {"target": target, "trials": trials, "tol": tol, "seed": seed,
            "checks": checks, "passed": all(c["passed"] for c in checks)}
