"""LaTeX emission for kernel values.

Terms are ordered by the canonical word order so output is stable across
runs regardless of construction order.
"""
from __future__ import annotations

from .atoms import FieldAtom
from .coeff import GaussianRational
from .matrices import PolyMatrix
from .ncpoly import NCPolynomial
from .series import LaurentSeries

_BASE_TEX = {"u": "u", "uh": r"\hat{u}", "pi": r"\pi", "pih": r"\hat{\pi}",
             "K11": "K_{11}", "K22": "K_{22}"}


def atom_tex(a: FieldAtom) -> str:
    s = _BASE_TEX[a.base]
    if a.dt or a.dx:
        subs = "t" * a.dt
        if a.dx:
            xs = "x" if a.flow == 2 else f"x_{a.flow}"
            subs += (" " if subs else "") + " ".join([xs] * a.dx)
        if a.base in ("K11", "K22"):
            return rf"\partial_{{{subs}}}{s}"
        s += f"_{{{subs}}}"
    return s


def _coeff_tex(c) -> str:
    if isinstance(c, GaussianRational):
        re_, im = c.re, c.im
        if im == 0:
            if re_.denominator == 1:
                return str(re_.numerator)
            sign = "-" if re_ < 0 else ""
            return rf"{sign}\tfrac{{{abs(re_.numerator)}}}{{{re_.denominator}}}"
        txt = str(c)
        return txt.replace("*i", "i")
    return str(c)


def poly_tex(p: NCPolynomial) -> str:
    items = p.sorted_terms()
    if not items:
        return "0"
    parts = []
    for w, c in items:
        word = r"\,".join(atom_tex(a) for a in w.atoms) if len(w) else "1"
        ctex = _coeff_tex(c)
        if ctex == "1" and len(w):
            term = word
        elif ctex == "-1" and len(w):
            term = "-" + word
        else:
            if any(s in ctex[1:] for s in "+-") and len(w):
                ctex = rf"\left({ctex}\right)"
            term = ctex + (r"\," + word if len(w) else "")
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    if p.mode == "trace":
        return rf"\mathrm{{tr}}\left({out}\right)"
    return out


def matrix_tex(m: PolyMatrix) -> str:
    rows = [" & ".join(poly_tex(e) for e in row) for row in m.entries]
    return r"\begin{pmatrix} " + r" \\ ".join(rows) + r" \end{pmatrix}"


def series_tex(s: LaurentSeries) -> str:
    if s.is_zero:
        return "0"
    parts = []
    for p, m in sorted(s.coeffs.items(), reverse=True):
        if p == 0:
            lam = ""
        elif p == 1:
            lam = r"\lambda\,"
        else:
            lam = rf"\lambda^{{{p}}}\,"
        parts.append(lam + matrix_tex(m))
    out = " + ".join(parts)
    if s.truncation is not None:
        out += rf" + O\!\left(\lambda^{{-{s.truncation + 1}}}\right)"
    return out


def tex(obj) -> str:
    if isinstance(obj, NCPolynomial):
        return poly_tex(obj)
    if isinstance(obj, PolyMatrix):
        return matrix_tex(obj)
    if isinstance(obj, LaurentSeries):
        return series_tex(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
