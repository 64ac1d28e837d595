"""Block matrices of noncommutative polynomials.

A PolyMatrix declares symbolic row/column block sizes (drawn from N, M, 1)
and stores one NCPolynomial per block; entry (i, j) must have shape
(row_dims[i], col_dims[j]).
"""
from __future__ import annotations

from typing import Callable

from .atoms import ShapeError
from .ncpoly import NCPolynomial, TracePolynomial, nc_mul, scalarize


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
    def diag(mode, dims, blocks) -> "PolyMatrix":
        ent = [[blocks[i] if i == j else NCPolynomial.zero(mode, (r, c))
                for j, c in enumerate(dims)] for i, r in enumerate(dims)]
        return PolyMatrix(mode, dims, dims, ent)

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
            if self.col_dims != other.row_dims:
                raise ShapeError("block layouts do not chain")
            ent = []
            for i in range(len(self.row_dims)):
                row = []
                for j in range(len(other.col_dims)):
                    acc = NCPolynomial.zero(self.mode, (self.row_dims[i], other.col_dims[j]))
                    for k in range(len(self.col_dims)):
                        acc = acc + nc_mul(self.entries[i][k], other.entries[k][j])
                    row.append(acc)
                ent.append(row)
            return PolyMatrix(self.mode, self.row_dims, other.col_dims, ent)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "PolyMatrix":
        return self.map_entries(lambda e: e.scale(c))

    def commutator(self, other: "PolyMatrix") -> "PolyMatrix":
        return self * other - other * self

    def transpose(self) -> "PolyMatrix":
        """Entry transpose; only valid when every block is scalar (1x1)."""
        if any(d != "1" for d in self.row_dims + self.col_dims):
            raise ShapeError("transpose is only supported for all-scalar block layouts")
        ent = [[self.entries[j][i] for j in range(len(self.row_dims))]
               for i in range(len(self.col_dims))]
        return PolyMatrix(self.mode, self.col_dims, self.row_dims, ent)

    def trace(self):
        """Formal trace: plain polynomial in scalar mode, cyclic classes otherwise."""
        if self.row_dims != self.col_dims:
            raise ShapeError("trace requires a square block layout")
        if self.mode == "scalar":
            acc = NCPolynomial.zero("scalar", ("1", "1"))
            for i in range(len(self.row_dims)):
                acc = acc + self.entries[i][i]
            return acc
        acc = TracePolynomial()
        for i in range(len(self.row_dims)):
            acc = acc + TracePolynomial.from_nc(self.entries[i][i])
        return acc

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

    def is_anti_diagonal(self) -> bool:
        return all(self.entries[i][j].is_zero
                   for i in range(len(self.row_dims))
                   for j in range(len(self.col_dims)) if i == j)

    def is_diagonal(self) -> bool:
        return all(self.entries[i][j].is_zero
                   for i in range(len(self.row_dims))
                   for j in range(len(self.col_dims)) if i != j)

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    __repr__ = __str__
