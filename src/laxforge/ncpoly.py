"""Noncommutative differential polynomials with exact coefficients.

An NCPolynomial is a finite Q(i)-linear combination of words in one of three
word modes, each canonicalised by ``atoms.make_word``: matrix mode keeps
factor order and chains block shapes; scalar mode is the commutative image
(shape (1,1), words sorted); trace mode is the cyclic image, the formal trace
of a square matrix polynomial (shape (1,1), words rotated).  A coefficient is
a Gaussian rational or a ``ratfunc.MPoly``, and one polynomial may hold both:
MPoly treats a Gaussian rational as its constant (``+ - * ==`` and ``hash``
agree), so a mixed sum or product lands in MPoly.  Every sum of terms goes
through ``coeff.collect``, which needs ``+`` and a value truthy iff nonzero.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable

from .atoms import EMPTY_WORD, FieldAtom, ShapeError, Word, chain_shape, make_word
from .coeff import GaussianRational, ONE as GR_ONE, collect


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
        if mode not in ("scalar", "matrix", "trace"):
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
        return NCPolynomial.from_word((a,), mode, coeff)

    @staticmethod
    def from_word(atoms: Iterable[FieldAtom], mode: str, coeff=GR_ONE) -> "NCPolynomial":
        """One word times ``coeff``; a trace (a closed chain) has shape (1, 1)."""
        w = make_word(atoms, mode)
        if not w.atoms:
            raise ValueError("use unit() for the empty word")
        shape = ("1", "1") if mode == "trace" else chain_shape(w.atoms)
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
        return _poly(self.mode, self.shape, collect(other.terms.items(), dict(self.terms)))

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
        if self.mode == "trace":
            return "tr(" + (" + ".join((f"{c}*{w}" if str(c) != "1" else str(w))
                                       for w, c in self.sorted_terms()) or "0") + ")"
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
        """Leibniz derivative; factor order is preserved in matrix mode.

        A derivative keeps each atom's shape, so a matrix-mode word still
        chains and is built as it stands, as in ``nc_mul``.
        """
        mode = self.mode
        word = Word if mode == "matrix" else lambda atoms: make_word(atoms, mode)
        return _poly(mode, self.shape, collect(
            (word(w.atoms[:k] + (a.with_derivative(var, flow),) + w.atoms[k + 1:]), c)
            for w, c in self.terms.items() for k, a in enumerate(w.atoms)))

    def differentiate_t(self) -> "NCPolynomial":
        return self.differentiate("t")

    def differentiate_x(self, flow: int = 2) -> "NCPolynomial":
        return self.differentiate("x", flow)

    def partial(self, a: FieldAtom) -> "NCPolynomial":
        """Gradient along one atom: commutative in scalar mode, cyclic in trace mode.

        The cyclic derivative rotates each occurrence of ``a`` to the front of
        its trace word and drops it, leaving a matrix-mode polynomial of shape
        (a.cols, a.rows).  Matrix mode has no gradient and raises ValueError.
        """
        if self.mode == "trace":
            return _poly("matrix", (a.cols, a.rows), collect(
                (Word(w.atoms[k + 1:] + w.atoms[:k]), c)
                for w, c in self.terms.items() for k, x in enumerate(w.atoms) if x == a))
        if self.mode != "scalar":
            raise ValueError("partial derivatives are defined in scalar and trace mode")
        pairs = []
        for w, c in self.terms.items():
            n = sum(1 for x in w.atoms if x == a)
            if not n:
                continue
            rest = list(w.atoms)
            rest.remove(a)
            pairs.append((make_word(rest, "scalar"), c * n))
        return _poly(self.mode, self.shape, collect(pairs))

    # -- substitution --------------------------------------------------------
    def substitute(self, rules, max_steps: int = 10000) -> "NCPolynomial":
        """Replace subword patterns until no rule applies.

        ``rules`` is a list of ``(pattern, replacement)`` where pattern is a
        FieldAtom or a tuple of FieldAtoms and replacement an NCPolynomial of
        the matching shape.  Non-termination within ``max_steps`` rewriting
        passes signals a non-confluent rule set.  Trace mode raises
        ValueError: subword matching would miss matches that wrap around a
        cyclic word.
        """
        if self.mode == "trace":
            raise ValueError("substitution is not defined on trace words")
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


def sole_word(p: NCPolynomial, hit: Callable[[FieldAtom], bool]) -> Word | None:
    """The only word of p holding an atom that ``hit`` marks; None if none or several."""
    words = [w for w in p.terms if any(hit(a) for a in w)]
    return words[0] if len(words) == 1 else None


def eliminate(entries, choose, rules=()):
    """Solve vanishing polynomials one word at a time.

    The entries are first rewritten by the seed ``rules``.  Then, while some
    entry has a word ``w = choose(entry)`` (coefficient c), the first such
    entry becomes the rule ``w -> -(entry - c*w)/c``, which is substituted
    into every entry.  Returns the rules (seed first, then in solving order)
    and the nonzero entries left unsolved.
    """
    rules = list(rules)
    left = [e.substitute(rules) for e in entries]
    while True:
        left = [e for e in left if e]
        pick = next(((e, w) for e in left if (w := choose(e)) is not None), None)
        if pick is None:
            return rules, left
        e, w = pick
        rest = _poly(e.mode, e.shape, {v: x for v, x in e.terms.items() if v != w})
        rules.append((w.atoms, rest.scale(-(GR_ONE / e.terms[w]))))
        left = [x.substitute(rules) for x in left]


def _poly(mode: str, shape, terms: dict) -> NCPolynomial:
    """An NCPolynomial over a collected dict, stored as is (it holds no zero)."""
    p = NCPolynomial(mode, shape)
    p.terms = terms
    return p


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
    pairs = []
    for w, c in p.terms.items():
        hit = None
        if p.mode == "scalar":
            for pat, rep in rules:
                rest = _match_scalar(w, pat)
                if rest is not None:
                    hit = (rep, tuple(rest), ())
                    break
        else:
            for pat, rep in rules:
                npat = len(pat)
                for k in range(len(w) - npat + 1):
                    if w.atoms[k:k + npat] == pat:
                        hit = (rep, w.atoms[:k], w.atoms[k + npat:])
                        break
                if hit:
                    break
        if hit is None:
            pairs.append((w, c))
            continue
        changed = True
        rep, left, right = hit
        for rw, rc in rep.terms.items():
            try:
                word = make_word(left + rw.atoms + right, p.mode)
            except ShapeError as e:
                raise ShapeError(f"replacement breaks shape chain: {e}") from e
            pairs.append((word, rc * c))
    return _poly(p.mode, p.shape, collect(pairs)) if changed else None


def nc_mul(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Bilinear product; concatenation in matrix mode, canonical sort in scalar.

    Trace mode raises ValueError: tr(a)tr(b) is not the trace of a word.  In
    matrix mode each factor's words already chain and the shapes were
    checked to meet, so a product word is the concatenation as it stands.
    In scalar mode both factors' atoms are already scalar, so a product word
    is the concatenation sorted as ``make_word`` sorts it, without its shape
    check.
    """
    if p.mode != q.mode:
        raise ValueError("mode mismatch")
    if p.mode == "trace":
        raise ValueError("traces do not multiply as words")
    if p.shape[1] != q.shape[0]:
        raise ShapeError(f"cannot multiply shapes {p.shape} and {q.shape}")
    mode, left, right = p.mode, p.terms.items(), q.terms.items()
    if mode == "matrix":
        products = ((Word(w1.atoms + w2.atoms), c1 * c2)
                    for w1, c1 in left for w2, c2 in right)
    else:
        key = attrgetter("sort_key")
        products = ((Word(tuple(sorted(w1.atoms + w2.atoms, key=key))), c1 * c2)
                    for w1, c1 in left for w2, c2 in right)
    return _poly(mode, (p.shape[0], q.shape[1]), collect(products))


def scalarize(p: NCPolynomial) -> NCPolynomial:
    """Homomorphic image of a matrix-mode polynomial under N = M = 1."""
    if p.mode == "scalar":
        return p
    return _poly("scalar", ("1", "1"), collect(
        (make_word([FieldAtom(a.base, a.dt, a.dx, a.flow, ("1", "1")) for a in w.atoms],
                   "scalar"), c)
        for w, c in p.terms.items()))


def trace(p: NCPolynomial) -> NCPolynomial:
    """Cyclic image of a square matrix-mode polynomial: its formal trace."""
    if p.mode != "matrix":
        raise ValueError("trace takes a matrix-mode polynomial")
    if p.shape[0] != p.shape[1]:
        raise ShapeError("trace requires a square shape")
    return _poly("trace", ("1", "1"), collect(
        (make_word(w.atoms, "trace"), c) for w, c in p.terms.items()))


def set_fields_zero(p: NCPolynomial) -> NCPolynomial:
    """Keep only the field-independent (empty-word) part."""
    kept = {w: c for w, c in p.terms.items() if len(w) == 0}
    return NCPolynomial(p.mode, p.shape, kept)


# ---------------------------------------------------------------------------
# total-t-derivative test (Euler operator) and antiderivative witness
# ---------------------------------------------------------------------------

def euler_derivative(p: NCPolynomial, base: str):
    """Variational derivative of p with respect to the field ``base``.

    Built from ``partial``: commutative in scalar mode, cyclic in trace mode.
    Returns a polynomial that vanishes identically iff p has no genuine
    dependence on the field modulo total t-derivatives.
    """
    if p.mode == "matrix":
        raise ValueError("matrix mode requires a formal trace wrapper")
    atoms = {a for w in p.terms for a in w if a.base == base}
    if any(a.dx > 0 for a in atoms):
        raise ValueError("eliminate x-derivative atoms before the Euler test")
    max_j = max((a.dt for a in atoms), default=-1)
    total = None
    for j in range(max_j + 1):
        proto = next((a for a in atoms if a.dt == j), None)
        if proto is None:
            continue
        part = p.partial(proto)
        for _ in range(j):
            part = part.differentiate_t()
        if j % 2 == 1:
            part = -part
        total = part if total is None else total + part
    return total


def is_total_t_derivative(p: NCPolynomial):
    """Euler-operator test; on success also returns the antiderivative.

    Behind the Euler gate the witness is built by integrating by parts.
    With f_N the atom of highest t-order (ties broken by sort key) and A
    the gradient of p along it, each word v of A holding k copies of
    f_(N-1) gives v*f_(N-1)/(k+1), an antiderivative Phi whose f_(N-1)
    gradient is A (Euler's theorem for homogeneous, or cyclic, words);
    then p <- p - dPhi/dt.  What remains has an antiderivative free of
    f_(N-1), so its top atom is lower than f_N and the loop ends; a top that
    fails to fall (p not linear in f_N, or f_N back) raises RuntimeError
    naming it, which the Euler gate rules out.  The antiderivative without a
    constant term is unique, so no linear solve is needed.  The same steps
    serve scalar and trace mode: ``partial`` is the commutative or the
    cyclic gradient, and ``make_word`` sorts or rotates each word of Phi.
    Returns ``(True, witness)`` or ``(False, None)``; matrix mode raises
    ValueError.
    """
    if p.mode == "matrix":
        raise ValueError("matrix mode requires a formal trace wrapper")
    if EMPTY_WORD in p.terms:
        return False, None  # nonzero constants have no polynomial antiderivative
    for base in {a.base for w in p.terms for a in w}:
        e = euler_derivative(p, base)
        if e is not None and not e.is_zero:
            return False, None
    witness = NCPolynomial(p.mode, ("1", "1"))
    bound = (float("inf"),)
    while not p.is_zero:
        top = max((a for w in p.terms for a in w), key=lambda a: (a.dt, a.sort_key))
        if top.dt == 0 or (top.dt, top.sort_key) >= bound:
            raise RuntimeError(f"Euler test passed but {top} does not integrate by parts")
        bound = (top.dt, top.sort_key)
        low = FieldAtom(top.base, top.dt - 1, top.dx, top.flow, top.shape)
        phi = _poly(p.mode, ("1", "1"), collect(
            (make_word(w.atoms + (low,), p.mode), c / (w.atoms.count(low) + 1))
            for w, c in p.partial(top).terms.items()))
        witness = witness + phi
        p = p - phi.differentiate_t()
    return True, witness
