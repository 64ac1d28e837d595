"""Field atoms and ordered words.

An atom is one differentiated field symbol: the model fields u, uh ("u-hat"),
pi, pih ("pi-hat"), or an opaque dressing-kernel diagonal block K11/K22.
Block shapes use the symbolic dimensions 'N', 'M' and the scalar dimension
'1'; scalar mode forces every shape to (1, 1).

Atoms are interned (hash-consed), so they compare and hash by identity.
Words are products of atoms, interned the same way: equal atom tuples give
the same word, so a dict of words matches a hit by identity and ``Word``
defines no ``__eq__``.  A word still defines ``__hash__``, which returns the
hash of its atom tuple taken once when built: the benchmark counts word
hashes through that method (``atoms.hash_calls``).  A word builds its sort
key only when read.

Each word mode is a rule for a word's canonical form, applied by
``make_word`` alone.  In matrix mode the factor order is meaningful and
adjacent shapes must chain; in scalar mode words are stored in a fixed
canonical total order (sort key: base, dt, dx, flow); in trace mode a word is
a closed chain stored as its minimal rotation.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable

Dim = str  # 'N' | 'M' | '1'

FIELD_BASES = ("u", "uh", "pi", "pih")
KERNEL_BASES = ("K11", "K22")
BASES = FIELD_BASES + KERNEL_BASES
_BASE_INDEX = {b: k for k, b in enumerate(BASES)}
_INTERNED: dict[tuple, "FieldAtom"] = {}   # (base, dt, dx, flow, shape) -> its atom
_WORDS: dict[tuple, "Word"] = {}           # atom tuple -> its word

# matrix-mode shapes: u, pih are M x N; uh, pi are N x M; K11/K22 diagonal
MATRIX_SHAPES: dict[str, tuple[Dim, Dim]] = {
    "u": ("M", "N"),
    "pih": ("M", "N"),
    "uh": ("N", "M"),
    "pi": ("N", "M"),
    "K11": ("N", "N"),
    "K22": ("M", "M"),
}


class ShapeError(ValueError):
    """Raised when block shapes fail to chain or match."""


class FieldAtom:
    """One differentiated field symbol with t/x derivative orders.

    ``dx`` counts derivatives in the flow variable ``x_flow``; atoms with
    different flow indices are distinct symbols.  ``dx > 0`` atoms exist only
    transiently before equation-of-motion substitution.  The constructor
    builds each distinct atom once and returns it for equal arguments ever
    after (pickling and copying too), so equality and hash are identity and
    an atom, shared by all its holders, must never be mutated.
    """

    __slots__ = ("base", "dt", "dx", "flow", "shape", "sort_key")

    def __new__(cls, base: str, dt: int = 0, dx: int = 0, flow: int = 2,
                shape: tuple[Dim, Dim] = ("1", "1")):
        key = (base, dt, dx, flow, shape)
        a = _INTERNED.get(key)
        if a is not None:
            return a
        if base not in _BASE_INDEX:
            raise ValueError(f"unknown atom base {base!r}")
        if dt < 0 or dx < 0:
            raise ValueError("derivative orders must be non-negative")
        a = object.__new__(cls)
        a.base, a.dt, a.dx, a.flow, a.shape = key
        a.sort_key = (_BASE_INDEX[base], dt, dx, flow)
        return _INTERNED.setdefault(key, a)

    def __reduce__(self):
        return FieldAtom, (self.base, self.dt, self.dx, self.flow, self.shape)

    def __repr__(self):
        return f"FieldAtom{(self.base, self.dt, self.dx, self.flow, self.shape)!r}"

    @property
    def rows(self) -> Dim:
        return self.shape[0]

    @property
    def cols(self) -> Dim:
        return self.shape[1]

    def with_derivative(self, var: str, flow: int | None = None) -> "FieldAtom":
        if var == "t":
            return FieldAtom(self.base, self.dt + 1, self.dx, self.flow, self.shape)
        if var == "x":
            f = self.flow if self.dx > 0 else (flow if flow is not None else self.flow)
            if self.dx > 0 and flow is not None and flow != self.flow:
                raise ValueError(
                    f"atom already carries x_{self.flow} derivatives; cannot mix with x_{flow}")
            return FieldAtom(self.base, self.dt, self.dx + 1, f, self.shape)
        raise ValueError(f"unknown derivative variable {var!r}")

    def __str__(self):
        s = self.base
        if self.dt or self.dx:
            s += "_" + "t" * self.dt
            if self.dx:
                s += ("x" if self.flow == 2 else f"x{self.flow}") * self.dx
        return s


def atom(base: str, dt: int = 0, dx: int = 0, mode: str = "matrix",
         flow: int = 2) -> FieldAtom:
    """Build an atom with the shape implied by its base and mode (scalar or matrix)."""
    if mode == "scalar":
        return FieldAtom(base, dt, dx, flow)
    if mode != "matrix":
        raise ValueError(f"unknown atom mode {mode!r}")
    if base not in MATRIX_SHAPES:
        raise ValueError(f"unknown atom base {base!r}")
    return FieldAtom(base, dt, dx, flow, MATRIX_SHAPES[base])


class Word:
    """Ordered product of atoms; the empty word is the multiplicative unit.

    The constructor builds each distinct word once and returns it for an
    equal atom tuple ever after (pickling and copying too), so equality is
    identity and a word, shared by all its holders, must never be mutated.
    An element that is not a ``FieldAtom`` is refused when the word is first
    built; a word already in the table is returned without a check.
    """

    __slots__ = ("atoms", "_h")

    def __new__(cls, atoms: Iterable[FieldAtom] = ()):
        atoms = tuple(atoms)
        w = _WORDS.get(atoms)
        if w is not None:
            return w
        for a in atoms:
            if not isinstance(a, FieldAtom):
                raise TypeError(f"a word holds FieldAtom elements, not {type(a).__name__}")
        w = object.__new__(cls)
        w.atoms, w._h = atoms, hash(atoms)
        return _WORDS.setdefault(atoms, w)

    def __reduce__(self):
        return Word, (self.atoms,)

    @property
    def sort_key(self):
        return (len(self.atoms), tuple([a.sort_key for a in self.atoms]))

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Word({self.atoms!r})"

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __str__(self):
        return "*".join(str(a) for a in self.atoms) if self.atoms else "1"


EMPTY_WORD = Word()


def chain_shape(atoms: Iterable[FieldAtom]) -> tuple[Dim, Dim] | None:
    """Shape of an atom chain, or None for the empty chain; raises on mismatch."""
    atoms = tuple(atoms)
    if not atoms:
        return None
    for a, b in zip(atoms, atoms[1:]):
        if a.cols != b.rows:
            raise ShapeError(f"shape mismatch in word: {a} is {a.shape}, {b} is {b.shape}")
    return (atoms[0].rows, atoms[-1].cols)


def make_word(atoms: Iterable[FieldAtom], mode: str) -> Word:
    """Canonical word of ``atoms`` in ``mode``.

    Matrix mode keeps the order given (the shapes must chain); scalar mode
    sorts the atoms (the commutative quotient); trace mode takes the minimal
    rotation of a closed chain (the cyclic quotient), raising ShapeError when
    the chain does not close.
    """
    atoms = tuple(atoms)
    if mode == "scalar":
        for a in atoms:
            if a.shape != ("1", "1"):
                raise ShapeError(f"scalar-mode word contains non-scalar atom {a}")
        return Word(tuple(sorted(atoms, key=attrgetter("sort_key"))))
    shape = chain_shape(atoms)
    if mode == "trace" and atoms:
        if shape[0] != shape[1]:
            raise ShapeError(f"trace word {Word(atoms)} is an open chain of shape {shape}")
        keys = [a.sort_key for a in atoms]
        k = min(range(len(atoms)), key=lambda k: keys[k:] + keys[:k])
        atoms = atoms[k:] + atoms[:k]
    return Word(atoms)
