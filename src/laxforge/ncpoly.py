"""Noncommutative differential polynomials with exact coefficients.

An NCPolynomial is a finite Q(i)-linear combination of words.  Matrix mode
keeps factor order and chains block shapes; scalar mode is the commutative
image (all shapes (1,1), words canonically sorted).  The coefficient type is
pluggable: anything with +, -, *, ==, and truthiness-as-nonzero works, so the
boundary module can swap in Laurent polynomials in the boundary constants.
"""
from __future__ import annotations

from typing import Callable, Iterable

from .atoms import (EMPTY_WORD, FIELD_BASES, FieldAtom, ShapeError, Word,
                    chain_shape, cyclic_canonical, make_word)
from .coeff import GaussianRational, ONE as GR_ONE, ZERO as GR_ZERO


class SubstitutionError(RuntimeError):
    """Raised when rewriting fails to reach a fixed point within the step bound."""


def _coerce(c):
    if isinstance(c, (int,)):
        return GaussianRational.of(c)
    return c


class NCPolynomial:
    """Exact linear combination of ordered words sharing one overall shape."""

    __slots__ = ("mode", "shape", "terms")

    def __init__(self, mode: str, shape, terms=None):
        if mode not in ("scalar", "matrix"):
            raise ValueError(f"bad mode {mode!r}")
        self.mode = mode
        self.shape = tuple(shape)
        self.terms: dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(mode: str, shape=("1", "1")) -> "NCPolynomial":
        return NCPolynomial(mode, shape)

    @staticmethod
    def unit(mode: str, dim: str = "1", coeff=GR_ONE) -> "NCPolynomial":
        """``coeff`` times the identity of shape (dim, dim)."""
        return NCPolynomial(mode, (dim, dim), {EMPTY_WORD: _coerce(coeff)})

    @staticmethod
    def from_atom(a: FieldAtom, mode: str, coeff=GR_ONE) -> "NCPolynomial":
        return NCPolynomial(mode, a.shape, {make_word([a], mode): _coerce(coeff)})

    @staticmethod
    def from_word(atoms: Iterable[FieldAtom], mode: str, coeff=GR_ONE) -> "NCPolynomial":
        w = make_word(atoms, mode)
        shape = chain_shape(w.atoms)
        if shape is None:
            raise ValueError("use unit() for the empty word")
        return NCPolynomial(mode, shape, {w: _coerce(coeff)})

    # -- basics --------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return (self.mode == other.mode and self.shape == other.shape
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.mode, self.shape, frozenset(self.terms.items())))

    def _check_compat(self, other: "NCPolynomial"):
        if self.mode != other.mode:
            raise ValueError("mode mismatch")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        self._check_compat(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            s = c if s is None else s + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return NCPolynomial(self.mode, self.shape, terms)

    def __neg__(self):
        return NCPolynomial(self.mode, self.shape,
                            {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NCPolynomial":
        c = _coerce(c)
        if not c:
            return NCPolynomial(self.mode, self.shape)
        return NCPolynomial(self.mode, self.shape,
                            {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            return nc_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- inspection ----------------------------------------------------------
    def atoms_set(self) -> set[FieldAtom]:
        return {a for w in self.terms for a in w}

    def has_x_atoms(self) -> bool:
        return any(a.dx > 0 for a in self.atoms_set())

    def max_dt(self) -> int:
        return max((a.dt for w in self.terms for a in w), default=0)

    def constant_term(self):
        return self.terms.get(EMPTY_WORD)

    def strip_constant(self) -> "NCPolynomial":
        terms = {w: c for w, c in self.terms.items() if len(w) > 0}
        return NCPolynomial(self.mode, self.shape, terms)

    def map_coeff(self, fn: Callable) -> "NCPolynomial":
        out = {}
        for w, c in self.terms.items():
            v = fn(c)
            if v:
                out[w] = v
        return NCPolynomial(self.mode, self.shape, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            cs = str(c)
            if len(w) == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(str(w))
            elif cs == "-1":
                parts.append(f"-{w}")
            else:
                cs = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                parts.append(f"{cs}*{w}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__

    # -- calculus ------------------------------------------------------------
    def differentiate(self, var: str, flow: int | None = None) -> "NCPolynomial":
        """Leibniz derivative; factor order is preserved in matrix mode."""
        out = NCPolynomial(self.mode, self.shape)
        for w, c in self.terms.items():
            for k, a in enumerate(w.atoms):
                da = a.with_derivative(var, flow)
                new = w.atoms[:k] + (da,) + w.atoms[k + 1:]
                out = out + NCPolynomial(self.mode, self.shape,
                                         {make_word(new, self.mode): c})
        return out

    def differentiate_t(self) -> "NCPolynomial":
        return self.differentiate("t")

    def differentiate_x(self, flow: int = 2) -> "NCPolynomial":
        return self.differentiate("x", flow)

    def partial(self, a: FieldAtom) -> "NCPolynomial":
        """Commutative partial derivative with respect to one atom (scalar mode)."""
        if self.mode != "scalar":
            raise ValueError("partial derivatives are defined in scalar mode")
        out = NCPolynomial(self.mode, self.shape)
        for w, c in self.terms.items():
            n = sum(1 for x in w.atoms if x == a)
            if not n:
                continue
            rest = list(w.atoms)
            rest.remove(a)
            out = out + NCPolynomial(self.mode, self.shape,
                                     {make_word(rest, "scalar"): c * n})
        return out

    # -- substitution --------------------------------------------------------
    def substitute(self, rules, max_steps: int = 10000) -> "NCPolynomial":
        """Replace subword patterns until no rule applies.

        ``rules`` is a list of ``(pattern, replacement)`` where pattern is a
        FieldAtom or a tuple of FieldAtoms and replacement an NCPolynomial of
        the matching shape.  Non-termination within ``max_steps`` rewriting
        passes signals a non-confluent rule set.
        """
        norm = []
        for pat, rep in rules:
            pat = (pat,) if isinstance(pat, FieldAtom) else tuple(pat)
            norm.append((pat, rep))
        cur = self
        for _ in range(max_steps):
            nxt = _rewrite_once(cur, norm)
            if nxt is None:
                return cur
            cur = nxt
        raise SubstitutionError("rewriting exceeded step bound; rule set is not confluent here")


def _match_scalar(word: Word, pat: tuple[FieldAtom, ...]):
    """Multiset containment for commutative words; returns leftover atoms or None."""
    rest = list(word.atoms)
    for a in pat:
        if a in rest:
            rest.remove(a)
        else:
            return None
    return rest


def _rewrite_once(p: NCPolynomial, rules) -> NCPolynomial | None:
    """One pass: rewrite the first matching pattern in each word; None if clean."""
    changed = False
    out = NCPolynomial(p.mode, p.shape)
    for w, c in p.terms.items():
        hit = None
        if p.mode == "scalar":
            for pat, rep in rules:
                rest = _match_scalar(w, pat)
                if rest is not None:
                    hit = (rep.scale(c), NCPolynomial.from_word(rest, "scalar") if rest
                           else NCPolynomial.unit("scalar"), None)
                    break
        else:
            for pat, rep in rules:
                npat = len(pat)
                for k in range(len(w) - npat + 1):
                    if w.atoms[k:k + npat] == pat:
                        left = w.atoms[:k]
                        right = w.atoms[k + npat:]
                        hit = (rep.scale(c), left, right)
                        break
                if hit:
                    break
        if hit is None:
            out = out + NCPolynomial(p.mode, p.shape, {w: c})
            continue
        changed = True
        if p.mode == "scalar":
            piece, restpoly, _ = hit
            out = out + nc_mul(restpoly, piece)
        else:
            piece, left, right = hit
            for rw, rc in piece.terms.items():
                new_atoms = left + rw.atoms + right
                try:
                    word = make_word(new_atoms, "matrix")
                except ShapeError as e:
                    raise ShapeError(f"replacement breaks shape chain: {e}") from e
                out = out + NCPolynomial(p.mode, p.shape, {word: rc})
    return out if changed else None


def nc_mul(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Bilinear product; concatenation in matrix mode, canonical sort in scalar."""
    if p.mode != q.mode:
        raise ValueError("mode mismatch")
    if p.shape[1] != q.shape[0]:
        raise ShapeError(f"cannot multiply shapes {p.shape} and {q.shape}")
    shape = (p.shape[0], q.shape[1])
    out = NCPolynomial(p.mode, shape)
    terms: dict[Word, object] = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            w = make_word(w1.atoms + w2.atoms, p.mode)
            c = c1 * c2
            s = terms.get(w)
            s = c if s is None else s + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
    out.terms = terms
    return out


def scalarize(p: NCPolynomial) -> NCPolynomial:
    """Homomorphic image of a matrix-mode polynomial under N = M = 1."""
    if p.mode == "scalar":
        return p
    out = NCPolynomial("scalar", ("1", "1"))
    for w, c in p.terms.items():
        ats = [FieldAtom(a.base, a.dt, a.dx, a.flow, ("1", "1")) for a in w.atoms]
        out = out + NCPolynomial("scalar", ("1", "1"),
                                 {make_word(ats, "scalar"): c})
    return out


def set_fields_zero(p: NCPolynomial) -> NCPolynomial:
    """Keep only the field-independent (empty-word) part."""
    kept = {w: c for w, c in p.terms.items() if len(w) == 0}
    return NCPolynomial(p.mode, p.shape, kept)


# ---------------------------------------------------------------------------
# trace-scalar polynomials (cyclic word classes)
# ---------------------------------------------------------------------------

class TracePolynomial:
    """Formal trace of a square matrix-mode polynomial: cyclic word classes."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @staticmethod
    def from_nc(p: NCPolynomial) -> "TracePolynomial":
        if p.shape[0] != p.shape[1]:
            raise ShapeError("trace requires a square shape")
        out = TracePolynomial()
        for w, c in p.terms.items():
            cw = cyclic_canonical(w)
            s = out.terms.get(cw)
            s = c if s is None else s + c
            if s:
                out.terms[cw] = s
            else:
                out.terms.pop(cw, None)
        return out

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TracePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            s = c if s is None else s + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return TracePolynomial(terms)

    def __neg__(self):
        return TracePolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce(c)
        return TracePolynomial({w: v * c for w, v in self.terms.items()} if c else {})

    def differentiate_t(self) -> "TracePolynomial":
        out = TracePolynomial()
        for w, c in self.terms.items():
            for k, a in enumerate(w.atoms):
                da = a.with_derivative("t")
                new = Word(w.atoms[:k] + (da,) + w.atoms[k + 1:])
                out = out + TracePolynomial({cyclic_canonical(new): c})
        return out

    def cyclic_partial(self, a: FieldAtom) -> NCPolynomial:
        """Cyclic derivative: rotate each occurrence of ``a`` to the front, drop it."""
        mode = "matrix"
        shape = (a.cols, a.rows)  # leftover chain runs from a's right back to a's left
        out = NCPolynomial(mode, shape)
        for w, c in self.terms.items():
            for k, x in enumerate(w.atoms):
                if x == a:
                    rest = w.atoms[k + 1:] + w.atoms[:k]
                    if rest:
                        out = out + NCPolynomial(mode, shape,
                                                 {make_word(rest, "matrix"): c})
                    else:
                        out = out + NCPolynomial.unit(mode, a.rows).scale(c) \
                            if a.rows == a.cols else out
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key)

    def __str__(self):
        if self.is_zero:
            return "tr(0)"
        return "tr(" + " + ".join(
            (f"{c}*{w}" if str(c) != "1" else str(w)) for w, c in self.sorted_terms()) + ")"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# total-t-derivative test (Euler operator) and antiderivative witness
# ---------------------------------------------------------------------------

def euler_derivative(p: NCPolynomial | TracePolynomial, base: str):
    """Variational derivative of p with respect to the field ``base``.

    Scalar polynomials use the commutative partial derivative; trace-scalars
    the cyclic derivative.  Returns a polynomial that vanishes identically iff
    p has no genuine dependence on the field modulo total t-derivatives.
    """
    if isinstance(p, NCPolynomial) and p.mode == "matrix":
        raise ValueError("matrix mode requires a formal trace wrapper")
    trace = isinstance(p, TracePolynomial)
    atoms = {a for w in p.terms for a in w if a.base == base}
    if any(a.dx > 0 for a in atoms):
        raise ValueError("eliminate x-derivative atoms before the Euler test")
    max_j = max((a.dt for a in atoms), default=-1)
    total = None
    for j in range(max_j + 1):
        proto = next((a for a in atoms if a.dt == j), None)
        if proto is None:
            continue
        part = p.cyclic_partial(proto) if trace else p.partial(proto)
        for _ in range(j):
            part = part.differentiate_t()
        if j % 2 == 1:
            part = -part
        total = part if total is None else total + part
    return total


def _lowered_words(p, mode: str):
    """Candidate antiderivative words: lower one atom's dt in each word of p."""
    out = set()
    for w in p.terms:
        for k, a in enumerate(w.atoms):
            if a.dt > 0:
                la = FieldAtom(a.base, a.dt - 1, a.dx, a.flow, a.shape)
                ats = w.atoms[:k] + (la,) + w.atoms[k + 1:]
                if mode == "trace":
                    out.add(cyclic_canonical(Word(ats)))
                else:
                    out.add(make_word(ats, mode))
    return out


def _raised_terms(w: Word, mode: str):
    terms = {}
    for k, a in enumerate(w.atoms):
        ra = a.with_derivative("t")
        ats = w.atoms[:k] + (ra,) + w.atoms[k + 1:]
        rw = cyclic_canonical(Word(ats)) if mode == "trace" else make_word(ats, mode)
        terms[rw] = terms.get(rw, 0) + 1
    return terms


def is_total_t_derivative(p: NCPolynomial | TracePolynomial):
    """Euler-operator test; on success also returns an explicit antiderivative.

    The witness is found by a degree-bounded ansatz: candidate words are the
    t-lowerings of p's words (closure iterated a few times), and the exact
    linear system ``d/dt(sum x_w w) = p`` is solved over the coefficients.
    Returns ``(True, witness)`` or ``(False, None)``.
    """
    trace = isinstance(p, TracePolynomial)
    if isinstance(p, NCPolynomial) and p.mode == "matrix":
        raise ValueError("matrix mode requires a formal trace wrapper")
    if not trace and EMPTY_WORD in p.terms:
        return False, None  # nonzero constants have no polynomial antiderivative
    if p.is_zero:
        return True, TracePolynomial() if trace else NCPolynomial("scalar", ("1", "1"))
    for base in FIELD_BASES:
        e = euler_derivative(p, base)
        if e is not None and not e.is_zero:
            return False, None
    mode = "trace" if trace else "scalar"
    candidates = _lowered_words(p, mode)
    for _ in range(6):
        witness = _solve_antiderivative(p, candidates, mode)
        if witness is not None:
            return True, witness
        grown = set(candidates)
        for w in candidates:
            for rw in _raised_terms(w, mode):
                fake = TracePolynomial({rw: GR_ONE}) if trace else \
                    NCPolynomial("scalar", ("1", "1"), {rw: GR_ONE})
                grown |= _lowered_words(fake, mode)
        if grown == candidates:
            break
        candidates = grown
    raise RuntimeError("Euler test passed but no antiderivative found in the ansatz closure")


def _solve_antiderivative(p, candidates, mode: str):
    """Exact least-structure solve of d/dt(ansatz) = p over the candidate words."""
    cand = sorted(candidates, key=lambda w: w.sort_key)
    if not cand:
        return None
    rows: dict[Word, dict[int, GaussianRational]] = {}
    for j, w in enumerate(cand):
        for rw, mult in _raised_terms(w, mode).items():
            rows.setdefault(rw, {})[j] = rows.get(rw, {}).get(j, GR_ZERO) + GaussianRational.of(mult)
    targets = dict(p.terms)
    all_rows = sorted(set(rows) | set(targets), key=lambda w: w.sort_key)
    # dense exact Gaussian elimination (systems here are tiny)
    A = [[rows.get(w, {}).get(j, GR_ZERO) for j in range(len(cand))] for w in all_rows]
    b = [GaussianRational.of(0) + targets.get(w, GR_ZERO) for w in all_rows]
    m, n = len(A), len(cand)
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((k for k in range(r, m) if A[k][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        b[r], b[piv] = b[piv], b[r]
        inv = A[r][col]
        A[r] = [x / inv for x in A[r]]
        b[r] = b[r] / inv
        for k in range(m):
            if k != r and A[k][col]:
                f = A[k][col]
                A[k] = [x - f * y for x, y in zip(A[k], A[r])]
                b[k] = b[k] - f * b[r]
        piv_cols.append(col)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if b[k]:
            return None  # inconsistent: p is not in the span
    x = [GR_ZERO] * n
    for row, col in enumerate(piv_cols):
        x[col] = b[row]
    terms = {w: x[j] for j, w in enumerate(cand) if x[j]}
    if mode == "trace":
        return TracePolynomial(terms)
    return NCPolynomial("scalar", ("1", "1"), terms)
