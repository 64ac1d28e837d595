"""Numeric verification battery.

Each check recomputes a symbolic zero through an independent numeric route:
matrix products and commutators via numpy on evaluated coefficients, boundary
algebra via complex arithmetic on randomly drawn constants.  Every check runs
its trials through one routine (``_worst``) and returns one report dict
(``_report``) so the CLI can emit it as canonical JSON; identical seeds
produce byte-identical reports.

A check draws all its trials first, then evaluates them a chunk at a time:
each plan once per chunk, each residual assembled with batched numpy
operations, one number per trial.  Products of numbers go through
``oracle.pymul``, which rounds as Python does, so every residual, and with
it every report, is bit for bit what a trial-by-trial loop gives.

``run_numeric`` spreads its checks over ``n = min(usable CPUs, checks)``
processes: this one and ``n - 1`` children made with ``os.fork``, each
pulling the next check from one queue, the slowest first (``_run_split``).
A check seeds its own generator and reads nothing another check writes,
and the reports are merged back into the order one process runs them in,
so the report is byte-identical to a one-process run, whichever process
ran which check.  The checks stay in this process when there is one check
or one CPU, when the platform has no ``os.fork``, and while another Python
thread runs.
"""
from __future__ import annotations

import random

import numpy as np

from .atoms import FIELD_BASES, atom
from .hierarchy import (_flow2_rules, dress_u, generate_u, nls_v_operator,
                        verify_conservation, zero_curvature_residual)
from .oracle import Chunk, ExponentialSolution, FieldSample, plan, pymul
from .riccati import nls_v, sigma_matrix, solve_gamma, solve_w_z

_CHUNK = 150   # trials evaluated together: larger chunks run faster but hold more samples


def _worst(trials: int, seed: int, residuals, sample, r: float | None = 2,
           lam: bool = False, rng: random.Random | None = None):
    """``(max_abs, worst_seed)`` over ``trials`` seeded trials.

    All trials are drawn from ``rng`` (by default seeded with ``seed``) first,
    each as a trial-by-trial loop drew it: its sample seed, its point in
    ``[-r, r]^2`` unless ``r`` is None, its spectral parameter if ``lam``.
    ``residuals`` maps each ``Chunk`` of at most ``_CHUNK`` trials, given as
    ``(sample(s_seed), point, lam)``, to one residual per trial.
    ``worst_seed`` names the sample of the first strict maximum above 0
    (``seed`` if none); the first NaN is kept as the worst, so the report
    fails.  Fewer than one trial is refused: it would certify nothing; so is
    a seed below 0, which would draw the samples of its absolute value.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = rng or random.Random(seed)
    drawn = [(rng.randrange(2 ** 31), None if r is None else _point(rng, r),
              _lam(rng) if lam else None) for _ in range(trials)]
    max_abs, worst_seed = 0.0, seed
    for start in range(0, trials, _CHUNK):
        chunk = drawn[start:start + _CHUNK]
        ds = residuals(Chunk((sample(s), point, z) for s, point, z in chunk))
        for (s_seed, _, _), d in zip(chunk, ds.tolist()):
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


def _amax(values) -> np.ndarray:
    """Largest ``|entry|`` of each trial's value; NaN if any entry is NaN."""
    return np.abs(values).reshape(len(values), -1).max(axis=1)


def identity_check(lhs, rhs, trials: int, tol: float, seed: int = 0,
                   name: str = "identity", mode: str = "scalar",
                   lam: complex | None = None, params: dict | None = None) -> dict:
    """Max |lhs - rhs| over random samples and points; never raises on failure."""
    lhs, rhs = plan(lhs, params), plan(rhs, params)

    def residuals(batch):
        batch = Chunk((sample, point, lam) for sample, point, _ in batch)
        return _amax(lhs.value(batch) - rhs.value(batch))
    return _report(name, trials, tol, *_worst(trials, seed, residuals,
                                              lambda s: FieldSample.random(s, mode)))


def _riccati_residual(mode: str, order: int):
    """Residuals of one mode's anti-diagonal system, one order k at a time."""
    sol = solve_w_z(order, mode)
    W = {k: plan(sol.w(k)) for k in range(1, order + 1)}
    dW = {k: plan(sol.w(k).differentiate_t()) for k in W}
    v = nls_v(mode)
    y_d = v.coefficient(0).diagonal_part()
    X, PA, YD = (plan(m) for m in (v.coefficient(1), v.coefficient(0) - y_d, y_d))
    Sig = plan(sigma_matrix(mode))

    def residuals(batch):
        Xv, PAv, Sv, Yd = (P.value(batch) for P in (X, PA, Sig, YD))
        Wv = {k: W[k].value(batch) for k in W}
        dWv = {k: dW[k].value(batch) for k in W}
        ds = []
        for k in range(-1, order - 1):
            r = np.zeros_like(Xv)
            if k >= 1:
                r = r + dWv[k] + Wv[k] @ Yd - Yd @ Wv[k]
            if k + 2 <= order:
                r = r + (Wv[k + 2] @ Sv - Sv @ Wv[k + 2]) / 2
            for a in range(1, k + 1):
                r = r + Wv[a] @ Xv @ Wv[k + 1 - a]
            for a in range(1, k):
                r = r + Wv[a] @ PAv @ Wv[k - a]
            if k == -1:
                r = r - Xv
            if k == 0:
                r = r - PAv
            ds.append(_amax(r))
        return np.max(ds, axis=0)
    return residuals


def check_riccati(trials: int, tol: float, seed: int, order: int = 5) -> dict:
    """Per-order residual of the anti-diagonal system, assembled with numpy.

    For each k <= order-2 the five contributions (time derivative, both
    commutator parts, both quadratic convolutions, inhomogeneity) are
    evaluated separately and summed as complex matrices.  ``worst_seed``
    names the sample of the mode whose maximum is reported; each mode draws
    ``per_mode_trials = (trials + 1) // 2`` samples, the scalar mode first,
    from one generator.
    """
    rng = random.Random(seed)
    per_mode = (trials + 1) // 2
    worst = {mode: _worst(per_mode, seed, _riccati_residual(mode, order),
                          lambda s: FieldSample.random(s, mode), rng=rng)
             for mode in ("scalar", "matrix")}
    max_abs, worst_seed = max(worst.values(), key=lambda w: (w[0] != w[0], w[0]))
    return _report("riccati", trials, tol, max_abs, worst_seed, order=order,
                   per_mode={mode: w[0] for mode, w in worst.items()},
                   per_mode_trials=per_mode)


def check_gamma(trials: int, tol: float, seed: int, order: int = 5) -> dict:
    """Matrix Riccati recursion residual with numpy matrix arithmetic."""
    sol = solve_gamma(order)
    G = {k: plan(sol.gamma(k)) for k in range(1, order + 1)}
    dG = {k: plan(sol.gamma(k).differentiate_t()) for k in G}
    fields = [atom(b, mode="matrix") for b in FIELD_BASES]

    def residuals(batch):
        Gv = {k: G[k].value(batch) for k in G}
        dGv = {k: dG[k].value(batch) for k in G}
        uv, uhv, piv, pihv = batch.atom_values(fields)
        uuhv, uhuv = uv @ uhv, uhv @ uv
        ds = []
        for k in range(-1, order - 1):
            r = -Gv[k + 2] if k + 2 <= order else 0 * Gv[1]
            if k >= 1:
                r = r - dGv[k] + uuhv @ Gv[k] + Gv[k] @ uhuv
            for a in range(1, k):
                r = r - Gv[a] @ piv @ Gv[k - a]
            for a in range(1, k + 1):
                r = r - Gv[a] @ uhv @ Gv[k + 1 - a]
            if k == -1:
                r = r + uv
            if k == 0:
                r = r - pihv
            ds.append(_amax(r))
        return np.max(ds, axis=0)
    return _report("gamma", trials, tol,
                   *_worst(trials, seed, residuals, lambda s: FieldSample.random(s, "matrix")),
                   order=order)


def _abs_each(values) -> np.ndarray:
    """``abs`` of each number as a numpy scalar; numpy's array ``abs`` rounds otherwise."""
    return np.array([abs(v) for v in values])


def check_eom(trials: int, tol: float, seed: int) -> dict:
    """Zero-curvature residual of the second flow on exact exponential solutions."""
    res = plan(zero_curvature_residual(generate_u(2, "scalar"), nls_v_operator("scalar")))

    def residuals(batch):
        return _amax(res.value(batch))
    return _report("eom", trials, tol, *_worst(trials, seed, residuals,
                                               ExponentialSolution.random, 0.5, lam=True))


def check_dispersion(trials: int, tol: float, seed: int) -> dict:
    """EOM residual of the exponential family itself (dispersion relation)."""
    rules = _flow2_rules()
    evolution = [plan(e) for e in rules.evolution.values()]

    def residuals(batch):
        return np.max([_abs_each(e.value(batch)) for e in evolution], axis=0)
    return _report("dispersion", trials, tol, *_worst(trials, seed, residuals,
                                                      ExponentialSolution.random, 0.5))


def check_conservation(trials: int, tol: float, seed: int, max_k: int = 3) -> dict:
    """Flux identity d_x rho = d_t j on exponential solutions for k <= max_k."""
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    pairs = []
    for k in range(1, max_k + 1):
        proof = verify_conservation(k)
        pairs.append((plan(proof.density.differentiate_x()),
                      plan(proof.flux.differentiate_t())))

    def residuals(batch):
        return np.max([_abs_each(lhs.value(batch) - rhs.value(batch))
                       for lhs, rhs in pairs], axis=0)
    return _report("conservation", trials, tol, *_worst(trials, seed, residuals,
                                                        ExponentialSolution.random, 0.5))


def _stack2(a, b, c, d) -> np.ndarray:
    """The 2x2 matrices ``[[a, b], [c, d]]``, one per trial (entries broadcast)."""
    entries = np.stack(np.broadcast_arrays(a, b, c, d), axis=-1)
    return entries.astype(complex, copy=False).reshape(-1, 2, 2)


def _kron(a, b) -> np.ndarray:
    """``np.kron`` of each trial's 2x2 blocks: the same entry-by-entry products."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def check_algebra(trials: int, tol: float, seed: int) -> dict:
    """Reflection equation and both linear Poisson structures, numerically."""
    P = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            P[i * 2 + j, j * 2 + i] = 1

    def kmat(lam, xi, ka):
        ika = pymul(1j, ka)
        return _stack2(lam + pymul(1j, xi), pymul(ika, lam),
                       pymul(ika, lam), -lam + pymul(1j, xi))

    eye = np.eye(2, dtype=complex)

    def constants(s_seed):   # a trial's "sample": lam, mu, xi, ka, u, uh, pi, pih
        r2 = random.Random(s_seed)
        return [r2.uniform(-2, 2) + 1j * r2.uniform(-2, 2) for _ in range(8)]

    def residuals(batch):
        lam, mu, xi, ka, u, uh, pi, pih = np.array([c for c, _, _ in batch]).T
        K1 = _kron(kmat(lam, xi, ka), eye)
        K2 = _kron(eye, kmat(mu, xi, ka))
        rm, rp = P / (lam - mu)[:, None, None], P / (lam + mu)[:, None, None]
        refl = rm @ K1 @ K2 - K1 @ K2 @ rm + K1 @ rp @ K2 - K2 @ rp @ K1
        d = _amax(refl)

        # Poisson: bracket matrix vs [P, L1 + L2] / (lam - mu)
        def V(l):
            return _stack2(pymul(l, l) / 2 - pymul(u, uh), pymul(l, uh) + pi,
                           pymul(l, u) - pih, pymul(-l, l) / 2 + pymul(u, uh))
        # nonzero brackets: {u,pi}={uh,pih}=1; d/dfield of V entries
        dV = {"u": lambda l: _stack2(-uh, 0, l, uh), "uh": lambda l: _stack2(-u, l, 0, u),
              "pi": lambda l: _stack2(0, 1, 0, 0), "pih": lambda l: _stack2(0, 0, -1, 0)}
        table = [("u", "pi", 1), ("pi", "u", -1), ("uh", "pih", 1), ("pih", "uh", -1)]
        B = sum(sgn * _kron(dV[f](lam), dV[g](mu)) for f, g, sgn in table)
        V1 = _kron(V(lam), eye)
        V2 = _kron(eye, V(mu))
        rhs = (P @ (V1 + V2) - (V1 + V2) @ P) / (lam - mu)[:, None, None]
        return np.max([d, _amax(B - rhs)], axis=0)
    return _report("algebra", trials, tol, *_worst(trials, seed, residuals, constants,
                                                   r=None))


def check_route(trials: int, tol: float, seed: int, max_n: int = 4) -> dict:
    """Generating vs dressing route, numerically, including the bare shift."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    ops = [(plan(generate_u(n, "scalar").series), plan(dress_u(n, "scalar").series), n)
           for n in range(1, max_n + 1)]

    def residuals(batch):
        lams = [lam for _, _, lam in batch]
        ds = []
        for gen, dre, n in ops:
            shift = np.array([lam ** (n - 1) / 2 for lam in lams])[:, None, None] * np.eye(2)
            ds.append(_amax(gen.value(batch) - dre.value(batch) - shift))
        return np.max(ds, axis=0)
    return _report("route", trials, tol, *_worst(trials, seed, residuals,
                                                 lambda s: FieldSample.random(s, "scalar"),
                                                 lam=True))


TARGETS = {
    "riccati": (check_riccati, check_gamma),
    "eom": (check_eom, check_dispersion),
    "conservation": (check_conservation,),
    "algebra": (check_algebra,),
    "route": (check_route,),
}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    import os
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_split(calls: list, names: list[str]) -> list:
    """``[call() for call in calls]``, spread over the usable CPUs.

    With ``n = min(_usable_cpus(), len(calls))``, this process makes ``n - 1``
    children with ``os.fork``, and all ``n`` pull the calls from one queue: a
    pipe holding each call's index as one byte (so at most 256 calls), the
    last call first, since the battery's slowest checks come last.  Each
    process takes one index at a time with ``os.read(fd, 1)``, which is
    atomic, and runs that call, so no call runs twice and the processes
    finish at about the same time.  A child sends back the ``(index,
    result)`` of each call it ran, ending at the exception of its first
    failing call, pickled through a pipe of its own, and leaves with
    ``os._exit``.  The results are merged by index, so the list is the one a
    single process gives.  A child's exception is raised here; a child that
    dies sends nothing, and the calls it took, those no process reported,
    are named.  This process waits for every child on every path, and kills
    the children first when it raises itself.

    The calls run here, one after another, when ``n`` is 1, when there is no
    ``os.fork``, or while another Python thread runs: a child holds only the
    forking thread, so a lock another thread held would stay held in it.
    The one other OS thread a plain run has is OpenBLAS's worker pool, which
    OpenBLAS stops in its own at-fork handler.  CPython 3.12+ warns
    (``DeprecationWarning``) when it counts more than one thread, and it
    counts in the parent after the fork, with the pool stopped, so a plain
    run gives no warning.  No warning is silenced: if some other C thread
    runs, the warning is the true one.
    """
    import os
    import threading
    n = min(_usable_cpus(), len(calls))
    if n == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [call() for call in calls]
    import pickle
    import signal   # not loaded by numpy: a run in one process skips its import
    order = bytes(reversed(range(len(calls))))   # far below the pipe's buffer
    queue, write = os.pipe()
    os.write(write, order)
    os.close(write)   # before the forks, so an empty queue reads as its end

    def taken():
        """The indices this process takes from the queue, one at a time."""
        while index := os.read(queue, 1):
            yield index[0]
    done = {}
    children = {}   # pid -> the read end of its pipe
    try:
        for _ in range(n - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                status = 1
                try:
                    out = []
                    for i in taken():
                        try:
                            out.append((i, calls[i]()))
                        except Exception as exc:
                            out.append((i, exc))
                            break
                    with open(write, "wb") as pipe:
                        pickle.dump(out, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = open(read, "rb")
        for i in taken():
            done[i] = calls[i]()
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status:   # it died: the checks it took are named below
                continue
            for i, out in pickle.loads(data):
                if isinstance(out, Exception):
                    raise out
                done[i] = out
        lost = [names[i] for i in range(len(calls)) if i not in done]
        if lost:
            raise RuntimeError(f"the process running checks {', '.join(lost)} "
                               f"exited without a report")
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(calls))]


def run_numeric(target: str, trials: int, tol: float, seed: int) -> dict:
    """Run one target (or 'all'); returns a canonical report dict.

    The checks are independent and seeded, so ``_run_split`` spreads them
    over the usable CPUs; the report is the one a single process gives.
    """
    if target not in (*TARGETS, "all"):
        raise ValueError(f"unknown target {target!r}")
    if seed < 0:   # random.Random(-5) draws what random.Random(5) does
        raise ValueError(f"seed must be >= 0, got {seed}")
    names = sorted(TARGETS) if target == "all" else [target]
    fns = [fn for name in names for fn in TARGETS[name]]
    checks = _run_split([lambda fn=fn: fn(trials, tol, seed) for fn in fns],
                        [fn.__name__.removeprefix("check_") for fn in fns])
    return {"target": target, "trials": trials, "tol": tol, "seed": seed,
            "checks": checks, "passed": all(c["passed"] for c in checks)}
