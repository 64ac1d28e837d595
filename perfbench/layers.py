"""Per-layer metrics of a traced pass.

Layers are the ``laxforge`` modules.  Times and call counts come from the
tracer; ratios and sizes come from probes that look at the arguments and
results of a few spans (``nc_mul``, ``LaurentSeries.__mul__``, ``RatFunc``
arithmetic, ``atom_value``, ``serialize.dumps``).
"""
from __future__ import annotations

import dataclasses
import re

# Layers that must record spans on the workload they dominate; the traced run
# fails when one records none, so a wrapper that stopped binding shows.
DOMINANT = {
    "tower": ("atoms", "coeff", "ncpoly", "matrices", "series", "riccati", "hierarchy"),
    "open-chain": ("ratfunc", "series", "ncpoly", "riccati", "boundary"),
    "oracle": ("oracle", "checks"),
    "cli-small": ("parser", "serialize", "latex", "cli"),
}

GR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__neg__", "conjugate")
RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__neg__", "inverse")


class Probes:
    """Counters taken at span boundaries during the traced pass."""

    def __init__(self):
        self.mul_formed = self.mul_terms = self.terms_max = 0
        self.series_formed = self.series_kept = 0
        self.ratfunc_results = self.monomial_dens = self.den_terms_max = 0
        self.atom_calls = self.atom_repeats = 0
        self._atom_keys: set = set()
        self._samples: list = []   # keeps samples alive so their ids stay unique
        self.bytes_out = 0

    def attach(self, tracer):
        probes = {
            "ncpoly.nc_mul": self._nc_mul,
            "ncpoly.NCPolynomial.__add__": self._poly_result,
            "series.LaurentSeries.__mul__": self._series_mul,
            "oracle.FieldSample.atom_value": self._atom_value,
            "oracle.ExponentialSolution.atom_value": self._atom_value,
            "serialize.dumps": self._dumps,
        }
        probes.update({f"ratfunc.RatFunc.{op}": self._ratfunc for op in RATFUNC_OPS})
        tracer.probes.update(probes)

    def _poly_result(self, args, out):
        self.terms_max = max(self.terms_max, len(out.terms))

    def _nc_mul(self, args, out):
        p, q = args[0], args[1]
        self.mul_formed += len(p.terms) * len(q.terms)
        self.mul_terms += len(out.terms)
        self._poly_result(args, out)

    def _series_mul(self, args, out):
        a, b = args[0], args[1]
        if not hasattr(b, "coeffs"):
            return   # scalar multiple
        low = None if out.truncation is None else -out.truncation
        for p1 in a.coeffs:
            for p2 in b.coeffs:
                self.series_formed += 1
                self.series_kept += low is None or p1 + p2 >= low

    def _ratfunc(self, args, out):
        if not hasattr(out, "den"):
            return
        n = len(out.den.terms)
        self.ratfunc_results += 1
        self.monomial_dens += n == 1
        self.den_terms_max = max(self.den_terms_max, n)

    def _atom_value(self, args, out):
        sample, a, t, x = args[:4]
        # primitive key: hashing the atom itself would count as atoms.hash_calls
        key = (id(sample), a.base, a.dt, a.dx, a.flow, a.shape, t, x)
        self.atom_calls += 1
        if key in self._atom_keys:
            self.atom_repeats += 1
        else:
            self._atom_keys.add(key)
            self._samples.append(sample)

    def _dumps(self, args, out):
        self.bytes_out += len(out.encode("utf-8"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


_INT = re.compile(r"\d+")


def max_coeff_bits(obj) -> int:
    """Largest numerator/denominator bit length among the coefficients in obj.

    Coefficients are read through their printed form, so the figure does not
    depend on how a coefficient ring stores its numbers.
    """
    best, stack, seen = 0, [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen or o is None or isinstance(o, (str, int, float, bool, complex)):
            continue
        seen.add(id(o))
        terms = getattr(o, "terms", None)
        if isinstance(terms, dict):
            for c in terms.values():
                for m in _INT.findall(str(c)):
                    best = max(best, int(m).bit_length())
        elif hasattr(o, "entries"):
            stack.extend(e for row in o.entries for e in row)
        elif isinstance(getattr(o, "coeffs", None), dict):
            stack.extend(o.coeffs.values())
        elif dataclasses.is_dataclass(o):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
    return best


def reduce(tracer, probes: Probes, outputs, cache_infos) -> dict[str, float]:
    """Every per-layer metric except trace_overhead_ratio, which needs two passes.

    The names are those of BENCHMARK.json's ``per_layer`` list.
    """
    names = tracer.by_name()
    layers = tracer.by_layer()

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    hits = sum(ci.hits for ci in cache_infos)
    misses = sum(ci.misses for ci in cache_infos)
    return {
        "atoms.hash_calls": sum(v["calls"] for n, v in names.items()
                                if n.startswith("atoms.") and n.endswith(".__hash__")),
        "atoms.make_word.calls": calls("atoms.make_word"),
        "atoms.self_s": layer("atoms", "self_s"),
        "coeff.ops": sum(calls(f"coeff.GaussianRational.{op}") for op in GR_OPS),
        "coeff.self_s": layer("coeff", "self_s"),
        "coeff.max_bits": max_coeff_bits(outputs),
        "ncpoly.calls": layer("ncpoly", "calls"),
        "ncpoly.self_s": layer("ncpoly", "self_s"),
        "ncpoly.nc_mul.calls": calls("ncpoly.nc_mul"),
        "ncpoly.nc_mul.self_s": self_s("ncpoly.nc_mul"),
        "ncpoly.nc_mul.merge_ratio": _ratio(probes.mul_terms, probes.mul_formed),
        "ncpoly.add.calls": calls("ncpoly.NCPolynomial.__add__"),
        "ncpoly.add.self_s": self_s("ncpoly.NCPolynomial.__add__"),
        "ncpoly.substitute.self_s": self_s("ncpoly.NCPolynomial.substitute"),
        "ncpoly.terms_max": probes.terms_max,
        "matrices.calls": layer("matrices", "calls"),
        "matrices.self_s": layer("matrices", "self_s"),
        "ratfunc.ops": sum(calls(f"ratfunc.RatFunc.{op}") for op in RATFUNC_OPS),
        "ratfunc.self_s": layer("ratfunc", "self_s"),
        "ratfunc.monomial_den_ratio": _ratio(probes.monomial_dens, probes.ratfunc_results),
        "ratfunc.den_terms_max": probes.den_terms_max,
        "series.calls": layer("series", "calls"),
        "series.self_s": layer("series", "self_s"),
        "series.series_log.self_s": self_s("series.series_log"),
        "series.series_invert.self_s": self_s("series.series_invert"),
        "series.mul.kept_ratio": _ratio(probes.series_kept, probes.series_formed),
        "riccati.self_s": layer("riccati", "self_s"),
        "riccati.solves": misses,
        "riccati.cache_hit_ratio": _ratio(hits, hits + misses),
        "hierarchy.self_s": layer("hierarchy", "self_s"),
        "boundary.self_s": layer("boundary", "self_s"),
        "oracle.evaluate.calls": calls("oracle.evaluate"),
        "oracle.self_s": layer("oracle", "self_s"),
        "oracle.atom_value.calls": probes.atom_calls,
        "oracle.atom_value.repeat_ratio": _ratio(probes.atom_repeats, probes.atom_calls),
        "checks.self_s": layer("checks", "self_s"),
        "parser.calls": layer("parser", "calls"),
        "parser.self_s": layer("parser", "self_s"),
        "serialize.self_s": layer("serialize", "self_s"),
        "serialize.bytes_out": probes.bytes_out,
        "latex.self_s": layer("latex", "self_s"),
        "cli.self_s": layer("cli", "self_s"),
    }


def missing_dominant(tracer, workload: str) -> list[str]:
    layers = tracer.by_layer()
    return [name for name in DOMINANT[workload]
            if layers.get(name, {}).get("calls", 0) == 0]
