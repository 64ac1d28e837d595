"""Stable JSON schema for kernel values.

Words are arrays of atom records, coefficients exact rational strings
``a/b+c/d*i``.  Emission is canonical: terms sorted by word key, object keys
sorted, fixed separators, so byte-identical output is reproducible.
"""
from __future__ import annotations

import json

from .atoms import FieldAtom, make_word
from .coeff import GaussianRational, collect, format_coeff
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .series import LaurentSeries


def atom_to_dict(a: FieldAtom) -> dict:
    return {"base": a.base, "dt": a.dt, "dx": a.dx, "flow": a.flow,
            "shape": list(a.shape)}


def atom_from_dict(d: dict) -> FieldAtom:
    return FieldAtom(d["base"], d["dt"], d["dx"], d.get("flow", 2),
                     tuple(d["shape"]))


def _coeff_to_str(c) -> str:
    if not isinstance(c, GaussianRational):
        raise TypeError(f"cannot serialize a coefficient of type {type(c).__name__}: only exact "
                        "Gaussian rationals have a JSON form (print boundary terms instead)")
    return format_coeff(c)


def poly_to_dict(p: NCPolynomial) -> dict:
    terms = [{"word": [atom_to_dict(a) for a in w.atoms],
              "coeff": _coeff_to_str(c)}
             for w, c in p.sorted_terms()]
    if p.mode == "trace":  # a trace is always (1, 1): its record has no mode or shape
        return {"kind": "trace", "terms": terms}
    return {"kind": "ncpoly", "mode": p.mode, "shape": list(p.shape), "terms": terms}


def poly_from_dict(d: dict) -> NCPolynomial:
    from .parser import parse_coeff   # imported here: the CLI does not load the parser at start-up
    mode, shape = ("trace", ("1", "1")) if d["kind"] == "trace" else (d["mode"], d["shape"])
    p = NCPolynomial(mode, tuple(shape))
    p.terms = collect((make_word([atom_from_dict(x) for x in t["word"]], mode),
                       parse_coeff(t["coeff"])) for t in d["terms"])
    return p


def matrix_to_dict(m: PolyMatrix) -> dict:
    return {"kind": "polymatrix", "mode": m.mode,
            "row_dims": list(m.row_dims), "col_dims": list(m.col_dims),
            "entries": [[poly_to_dict(e) for e in row] for row in m.entries]}


def matrix_from_dict(d: dict) -> PolyMatrix:
    ent = [[poly_from_dict(e) for e in row] for row in d["entries"]]
    return PolyMatrix(d["mode"], tuple(d["row_dims"]), tuple(d["col_dims"]), ent)


def series_to_dict(s: LaurentSeries) -> dict:
    return {"kind": "laurent", "mode": s.mode,
            "row_dims": list(s.row_dims), "col_dims": list(s.col_dims),
            "truncation": s.truncation,
            "coeffs": {str(p): matrix_to_dict(m)
                       for p, m in sorted(s.coeffs.items())}}


def series_from_dict(d: dict) -> LaurentSeries:
    coeffs = {int(p): matrix_from_dict(m) for p, m in d["coeffs"].items()}
    return LaurentSeries(d["mode"], tuple(d["row_dims"]), tuple(d["col_dims"]),
                         coeffs, d["truncation"])


def to_dict(obj):
    if isinstance(obj, NCPolynomial):
        return poly_to_dict(obj)
    if isinstance(obj, PolyMatrix):
        return matrix_to_dict(obj)
    if isinstance(obj, LaurentSeries):
        return series_to_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_dict(d: dict):
    kind = d.get("kind")
    loaders = {"ncpoly": poly_from_dict, "trace": poly_from_dict,
               "polymatrix": matrix_from_dict, "laurent": series_from_dict}
    if kind not in loaders:
        raise ValueError(f"unknown serialized kind {kind!r}")
    return loaders[kind](d)


def dumps(obj) -> str:
    payload = to_dict(obj) if not isinstance(obj, (dict, list)) else obj
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    return from_dict(json.loads(text))
