"""In-memory span tracer for one traced pass of a workload.

The tracer wraps, from outside the program, the public functions and the
operator methods of every ``laxforge.*`` module, then rebinds every alias of
a wrapped function in every ``laxforge`` namespace (``from .riccati import
solve_w_z`` leaves a second name that must point at the wrapper too).
``lru_cache`` wrappers keep their public ``cache_info``/``cache_clear``.

Each call is a span: name, layer (the module), start, end and parent span;
all spans of a file belong to one pass, whose id is written with them.
Spans are kept in flat arrays and written out when the pass ends.  Leaf calls
(coefficient arithmetic and ``__hash__``) run millions of times per pass, so
they are counted and timed per name but not stored one by one; their time
still counts as child time of the span that called them.

A wrapper costs about a microsecond per call, and a pass makes millions of
wrapped calls, so self times would mostly measure the tracer.  ``install``
times wrapped and plain no-op calls first and every self time is corrected
by it: the wrapper's cost inside a span's own clock window is taken off that
span, and its cost outside the window (argument passing, bookkeeping, the
probes) is taken off the caller, where it would otherwise land.  A hash is
cheaper than its wrapper, so the pass that gives self times is made with
``hashes=False``, which leaves every ``__hash__`` unwrapped.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

OPERATOR_METHODS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__hash__",
})
LEAF_LAYERS = frozenset({"coeff"})
PACKAGE = "laxforge"
ROOT_LAYER = "bench"        # layer of the root span around each op of a pass
CALIBRATION_CALLS = 20000


class Tracer:
    def __init__(self, pass_id: str, hashes: bool = True):
        self.pass_id = pass_id
        self.hashes = hashes    # False leaves every __hash__ unwrapped
        self.names: list[str] = []
        self.layers: list[str] = []
        self.stats: list[list] = []          # per name: [calls, self seconds]
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list[list] = [[-1, 0.0]]  # frames: [span index, child seconds]
        self.probes: dict[str, callable] = {}
        # per-call wrapper cost (inside, outside) the span's clock window
        self.overhead = {True: (0.0, 0.0), False: (0.0, 0.0)}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.stats.append([0, 0.0])
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, leaf: bool):
        nid = self._register(name, layer)
        stat = self.stats[nid]
        stack = self.stack
        perf = time.perf_counter
        probe = self.probes.get(name)
        inside, outside = self.overhead[leaf]

        if leaf:
            def wrapper(*args, **kwargs):
                frame = [stack[-1][0], 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dur - frame[1] - inside
                    stack[-1][1] += dur + outside
        else:
            start, end = self.start, self.end
            name_ids, parents = self.name_id, self.parent

            def wrapper(*args, **kwargs):
                idx = len(start)
                name_ids.append(nid)
                parents.append(stack[-1][0])
                end.append(0.0)
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = perf()
                start.append(t0)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    end[idx] = t1
                    stack.pop()
                    dur = t1 - t0
                    stat[0] += 1
                    stat[1] += dur - frame[1] - inside
                    stack[-1][1] += dur + outside
                if probe is not None:
                    tp = perf()
                    probe(args, out)
                    stack[-1][1] += perf() - tp
                return out

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def span(self, name: str):
        """A root span around one op of the workload; use as a decorator."""
        def deco(fn):
            return self._wrap(fn, name, ROOT_LAYER, leaf=False)
        return deco

    def _calibrate(self):
        """Measure the per-call cost of both wrapper kinds around a no-op."""
        def noop(x):
            return x

        def loop(f, n=CALIBRATION_CALLS):
            t0 = time.perf_counter()
            for _ in range(n):
                f(None)
            return time.perf_counter() - t0

        for leaf in (True, False):
            best = None
            for _ in range(5):
                wrapped = self._wrap(noop, "calibration", "calibration", leaf)
                stat = self.stats.pop()
                self.names.pop()
                self.layers.pop()
                plain, total = loop(noop), loop(wrapped)
                per_call = (total - plain) / CALIBRATION_CALLS
                inside = stat[1] / stat[0] - plain / CALIBRATION_CALLS
                if best is None or per_call < best[0]:
                    best = (per_call, max(inside, 0.0))
            per_call, inside = best
            self.overhead[leaf] = (inside, max(per_call - inside, 0.0))
        self.stack[0][1] = 0.0
        for arr in (self.start, self.end, self.name_id, self.parent):
            del arr[:]

    # -- installing ----------------------------------------------------------
    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATOR_METHODS:
                continue
            if attr == "__hash__" and not self.hashes:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            leaf = layer in LEAF_LAYERS or attr == "__hash__"
            w = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer, leaf)
            self._set(cls, attr, kind(w) if kind else w)

    def install(self):
        """Wrap every laxforge module already imported and rebind the aliases."""
        self._calibrate()
        replace: dict[int, object] = {}
        for mod in self._modules():
            if mod.__name__ == PACKAGE:
                continue
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    w = self._wrap(obj, f"{layer}.{attr}", layer, layer in LEAF_LAYERS)
                    replace[id(obj)] = w
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    # registries such as checks.TARGETS hold functions in tuples
                    for key, val in list(obj.items()):
                        new = _rebound(val, replace)
                        if new is not val:
                            self._patches.append((obj, key, val))
                            obj[key] = new
        return self

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def by_layer(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for layer, (calls, self_s) in zip(self.layers, self.stats):
            acc = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            acc["calls"] += calls
            acc["self_s"] += self_s
        return out

    def by_name(self) -> dict[str, dict]:
        return {n: {"calls": c, "self_s": s}
                for n, (c, s) in zip(self.names, self.stats)}

    def write(self, path):
        """Write the stored spans and the per-name totals as one .npz file."""
        import numpy as np
        np.savez_compressed(
            path,
            names=np.array(self.names), layers=np.array(self.layers),
            calls=np.array([s[0] for s in self.stats], dtype=np.int64),
            self_s=np.array([s[1] for s in self.stats]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            pass_id=np.array(self.pass_id))


def _rebound(val, replace):
    if id(val) in replace:
        return replace[id(val)]
    if isinstance(val, tuple):
        new = tuple(_rebound(v, replace) for v in val)
        return val if all(a is b for a, b in zip(new, val)) else new
    return val
