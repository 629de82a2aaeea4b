"""Exact matrices and nullspace computation.

ExactMatrix holds entries that are either plain Fractions or ExactScalars;
elimination works over either since both support exact +, -, * and /.
Nullspace bases come from the reduced row echelon form with a fixed
left-to-right pivot scan, so the result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .ring import ExactScalar


class ExactMatrix:
    """Immutable dense matrix over Fraction or ExactScalar entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[object]]):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return ExactMatrix(
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(1, self.ncols)),
                        self.rows[i][0] * other.rows[0][j],
                    )
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def mul_vector(self, vec: Sequence[object]) -> List[object]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = row[0] * vec[0]
            for a, x in zip(row[1:], vec[1:]):
                acc = acc + a * x
            out.append(acc)
        return out

    def rank(self) -> int:
        _, pivots = rref([list(r) for r in self.rows])
        return len(pivots)

    def nullspace(self) -> List[List[object]]:
        """Basis of the right nullspace; empty when full column rank."""
        return nullspace_basis([list(r) for r in self.rows])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


def _invert(x):
    if isinstance(x, ExactScalar):
        return x.inverse()
    return Fraction(1) / x


def rref(rows: List[List[object]]):
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # the rows are mostly zero: touch only the pivot row's nonzero columns
        pivot = rows[r] = list(rows[r])
        support = [j for j, x in enumerate(pivot) if x]
        inv = _invert(pivot[col])
        for j in support:
            pivot[j] = pivot[j] * inv
        for i in range(nrows):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                row = rows[i] = list(rows[i])
                for j in support:
                    row[j] = row[j] - factor * pivot[j]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace_basis(rows: List[List[object]]) -> List[List[object]]:
    """Right nullspace basis of a matrix given as a list of rows.

    Each basis vector has entry 1 in its free column and the pivot entries
    solved from the reduced echelon form; vectors are ordered by free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    one = Fraction(1)
    zero = Fraction(0)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row_index, col in enumerate(pivots):
            vec[col] = -reduced[row_index][free]
        basis.append(vec)
    return basis


def in_span(span_rows: List[List[object]], vector: List[object]) -> bool:
    """Whether vector lies in the row span of span_rows (all exact)."""
    work = [list(r) for r in span_rows]
    reduced, pivots = rref(work) if work else ([], [])
    residue = list(vector)
    for row, col in zip(reduced, pivots):
        if residue[col]:
            factor = residue[col]
            residue = [x - factor * y if y else x for x, y in zip(residue, row)]
    return not any(residue)
