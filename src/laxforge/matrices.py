"""Block matrices of noncommutative polynomials.

A PolyMatrix declares symbolic row/column block sizes (drawn from N, M, 1)
and stores one NCPolynomial per block; entry (i, j) must have shape
(row_dims[i], col_dims[j]).  ``PolyMatrix.from_rows`` builds a square one from
a table of entries, a polynomial or a coefficient standing for that multiple
of its block's identity, on the mode's 2x2 (N, M) split (``block_dims``) or
as n x n scalar blocks; ``diagonal_part`` splits one into its diagonal and
off-diagonal blocks.  ``MatrixSum`` sums matrices and products in place; a
product is one, so a zero block is never multiplied.
"""
from __future__ import annotations

from typing import Callable

from .atoms import ShapeError
from .coeff import collect
from .ncpoly import NCPolynomial, _poly, nc_mul, scalarize

BLOCK_DIMS = {"scalar": ("1", "1"), "matrix": ("N", "M")}


def block_dims(mode: str) -> tuple[str, str]:
    """The (N, M) block sizes of a mode's 2x2 layout; any other mode is refused."""
    if mode not in BLOCK_DIMS:
        raise ValueError(f"unknown mode {mode!r}")
    return BLOCK_DIMS[mode]


class PolyMatrix:
    __slots__ = ("mode", "row_dims", "col_dims", "entries")

    def __init__(self, mode, row_dims, col_dims, entries):
        self.mode = mode
        self.row_dims = tuple(row_dims)
        self.col_dims = tuple(col_dims)
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != len(self.row_dims):
            raise ShapeError("row count does not match row_dims")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_dims):
                raise ShapeError("column count does not match col_dims")
            for j, e in enumerate(row):
                want = (self.row_dims[i], self.col_dims[j])
                if e.shape != want:
                    raise ShapeError(f"entry ({i},{j}) has shape {e.shape}, expected {want}")
                if e.mode != mode:
                    raise ValueError("entry mode mismatch")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero(mode, row_dims, col_dims) -> "PolyMatrix":
        ent = [[NCPolynomial.zero(mode, (r, c)) for c in col_dims] for r in row_dims]
        return PolyMatrix(mode, row_dims, col_dims, ent)

    @staticmethod
    def identity(mode, dims) -> "PolyMatrix":
        ent = [[NCPolynomial.unit(mode, r) if i == j else NCPolynomial.zero(mode, (r, c))
                for j, c in enumerate(dims)] for i, r in enumerate(dims)]
        return PolyMatrix(mode, dims, dims, ent)

    @staticmethod
    def from_rows(mode, rows) -> "PolyMatrix":
        """The square block matrix of a table of entries.

        Two rows lay out on the mode's (N, M) split, any other count as 1x1
        blocks.  An entry is an NCPolynomial or a coefficient c, which stands
        for c times its block's identity: a zero is a zero block of any
        shape, and a nonzero c in a non-square block raises ShapeError.
        """
        dims = block_dims(mode) if len(rows) == 2 else ("1",) * len(rows)

        def entry(e, r, c):
            if isinstance(e, NCPolynomial):
                return e
            if not e:
                return NCPolynomial.zero(mode, (r, c))
            if r != c:
                raise ShapeError(f"a nonzero constant cannot fill a {r}x{c} block")
            return NCPolynomial.unit(mode, r, e)
        return PolyMatrix(mode, dims, dims,
                          [[entry(e, r, c) for e, c in zip(row, dims, strict=True)]
                           for row, r in zip(rows, dims, strict=True)])

    # -- algebra ---------------------------------------------------------------
    def _compat(self, other: "PolyMatrix"):
        if (self.mode, self.row_dims, self.col_dims) != (other.mode, other.row_dims, other.col_dims):
            raise ShapeError("block layout mismatch")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._compat(other)
        ent = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        return PolyMatrix(self.mode, self.row_dims, self.col_dims, ent)

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            acc = MatrixSum(self.mode, self.row_dims, other.col_dims)
            acc.add_product(self, other)
            return acc.matrix()
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "PolyMatrix":
        return self.map_entries(lambda e: e.scale(c))

    def commutator(self, other: "PolyMatrix") -> "PolyMatrix":
        return self * other - other * self

    def _require_scalar_blocks(self, what: str):
        if any(d != "1" for d in self.row_dims + self.col_dims):
            raise ShapeError(f"{what} is only supported for all-scalar block layouts")

    def transpose(self) -> "PolyMatrix":
        """Entry transpose; only valid when every block is scalar (1x1)."""
        self._require_scalar_blocks("transpose")
        ent = [[self.entries[j][i] for j in range(len(self.row_dims))]
               for i in range(len(self.col_dims))]
        return PolyMatrix(self.mode, self.col_dims, self.row_dims, ent)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; only valid when every block of both is scalar (1x1).

        Entry (i p + k, j q + l) is ``self[i][j] * other[k][l]`` for ``other``
        of p x q entries.
        """
        self._require_scalar_blocks("kron")
        other._require_scalar_blocks("kron")
        p, q = len(other.row_dims), len(other.col_dims)
        rows, cols = len(self.row_dims) * p, len(self.col_dims) * q
        ent = [[nc_mul(self.entries[i // p][j // q], other.entries[i % p][j % q])
                for j in range(cols)] for i in range(rows)]
        return PolyMatrix(self.mode, ("1",) * rows, ("1",) * cols, ent)

    # -- maps ------------------------------------------------------------------
    def map_entries(self, fn: Callable[[NCPolynomial], NCPolynomial]) -> "PolyMatrix":
        ent = [[fn(e) for e in row] for row in self.entries]
        return PolyMatrix(self.mode, self.row_dims, self.col_dims, ent)

    def differentiate_t(self):
        return self.map_entries(lambda e: e.differentiate_t())

    def differentiate_x(self, flow=2):
        return self.map_entries(lambda e: e.differentiate_x(flow))

    def substitute(self, rules):
        return self.map_entries(lambda e: e.substitute(rules))

    def diagonal_part(self) -> "PolyMatrix":
        """The diagonal blocks, every off-diagonal block zero; self minus it is the rest."""
        ent = [[e if i == j else NCPolynomial.zero(self.mode, e.shape) for j, e in enumerate(row)]
               for i, row in enumerate(self.entries)]
        return PolyMatrix(self.mode, self.row_dims, self.col_dims, ent)

    def scalarized(self) -> "PolyMatrix":
        ones = tuple("1" for _ in self.row_dims), tuple("1" for _ in self.col_dims)
        ent = [[scalarize(e) for e in row] for row in self.entries]
        return PolyMatrix("scalar", ones[0], ones[1], ent)

    # -- predicates --------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.mode == other.mode and self.row_dims == other.row_dims
                and self.col_dims == other.col_dims and self.entries == other.entries)

    def __hash__(self):
        return hash((self.mode, self.row_dims, self.col_dims, self.entries))

    def is_diagonal(self) -> bool:
        return all(self.entries[i][j].is_zero
                   for i in range(len(self.row_dims))
                   for j in range(len(self.col_dims)) if i != j)

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    __repr__ = __str__


class MatrixSum:
    """A sum of block matrices of one layout, built in place.

    Every entry is a term dict that this sum owns, built by it or by
    ``nc_mul`` for it; the matrices it adds are only read (``coeff.collect`` says why a polynomial's own dict
    may be shared).  Adding the summands of ``a + b + c`` one after another
    gives the value and the term order of the left-to-right sum of immutable
    matrices.  ``matrix()`` hands the dicts over to its result, so the sum
    takes nothing more after it.
    """
    __slots__ = ("mode", "row_dims", "col_dims", "_rows")

    def __init__(self, mode, row_dims, col_dims):
        self.mode = mode
        self.row_dims = tuple(row_dims)
        self.col_dims = tuple(col_dims)
        self._rows = [[{} for _ in self.col_dims] for _ in self.row_dims]

    def __bool__(self):
        return any(any(row) for row in self._rows)

    def add(self, m: PolyMatrix) -> None:
        """Add m, entry by entry."""
        if (m.mode, m.row_dims, m.col_dims) != (self.mode, self.row_dims, self.col_dims):
            raise ShapeError("block layout mismatch")
        for out_row, row in zip(self._rows, m.entries):
            for out, e in zip(out_row, row):
                if e.terms:
                    collect(e.terms.items(), out)

    def add_product(self, a: PolyMatrix, b: PolyMatrix) -> None:
        """Add a * b.  Only pairs of nonzero blocks are multiplied, and each
        entry of a * b is summed, left to right, before it is added, as the
        immutable ``acc + a * b`` would do."""
        if a.mode != self.mode or b.mode != self.mode:
            raise ValueError("mode mismatch")
        if a.col_dims != b.row_dims:
            raise ShapeError("block layouts do not chain")
        if (a.row_dims, b.col_dims) != (self.row_dims, self.col_dims):
            raise ShapeError("block layout mismatch")
        cols = list(zip(*b.entries))
        for out_row, row in zip(self._rows, a.entries):
            for j, col in enumerate(cols):
                entry = None
                for x, y in zip(row, col):
                    if x.terms and y.terms:
                        terms = nc_mul(x, y).terms   # a dict nc_mul built for this call
                        if entry is None:
                            entry = terms
                        else:
                            collect(terms.items(), entry)
                if not entry:
                    continue
                if out_row[j]:
                    collect(entry.items(), out_row[j])
                else:
                    out_row[j] = entry

    def matrix(self) -> PolyMatrix:
        """The sum, which takes the entry dicts over; this sum is then spent."""
        rows, self._rows = self._rows, None
        return PolyMatrix(self.mode, self.row_dims, self.col_dims,
                          [[_poly(self.mode, (r, c), t) for c, t in zip(self.col_dims, row)]
                           for r, row in zip(self.row_dims, rows)])
