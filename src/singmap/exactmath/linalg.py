"""Exact matrices and one sparse exact elimination.

Entries are Fractions or ExactScalars; both support exact +, -, * and /.
A row is a dict {column: coefficient} with no zero entries, and a
semi-echelon form is a dict {pivot column: row} whose rows are monic at
their pivot and zero left of it.  reduce_row subtracts rows of a form,
visiting pivots in ascending order, until the row is zero at every pivot;
insert_row reduces a row and stores what is left, made monic, under its
leading column.  rref, nullspace_basis and in_span keep their dense
list-of-rows signatures and run on these two.

No result depends on the order of the rows.  For a fixed column order the
pivots of any semi-echelon basis of a span S are the leading columns of the
nonzero vectors of S.  Two vectors congruent modulo S and zero at every
pivot differ by a vector of S with no entry at a pivot, which is zero; so
the reduction of a vector is unique, and so are the reduced row echelon
form and the nullspace basis read from it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence

from .ring import ExactScalar

Row = Dict[int, object]


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

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _invert(x):
    if isinstance(x, ExactScalar):
        return x.inverse()
    return _ONE / x


def reduce_row(form: Dict[int, Row], row: Row) -> Row:
    """row modulo the span of form: a new row that is zero at every pivot.

    Subtracting the row stored at pivot c changes only columns c and to its
    right, so visiting pivots in ascending order clears each one for good.
    """
    row = dict(row)
    pending = [col for col in row if col in form]
    heapify(pending)
    while pending:
        col = heappop(pending)
        factor = row.get(col)
        if factor is None:  # a column queued twice, already cleared
            continue
        for j, y in form[col].items():
            x = row.get(j)
            if x is None:
                row[j] = -(factor * y)
                if j in form:
                    heappush(pending, j)
            else:
                x = x - factor * y
                if x:
                    row[j] = x
                else:
                    del row[j]
    return row


def insert_row(form: Dict[int, Row], row: Row) -> None:
    """Add row to the span of form: what is left of it after reduce_row,
    made monic, is stored under its leading column."""
    row = reduce_row(form, row)
    if row:
        col = min(row)
        inv = _invert(row[col])
        form[col] = {j: x * inv for j, x in row.items()}


def _sparse(row: Sequence[object]) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def _reduced_form(rows: List[List[object]]) -> Dict[int, Row]:
    """The reduced row echelon form of rows as {pivot column: row}: insert
    every row, then clear the entries above each pivot, last pivot first, so
    the rows at later pivots are already reduced (earlier ones are never met)."""
    form: Dict[int, Row] = {}
    for row in rows:
        insert_row(form, _sparse(row))
    for col in sorted(form, reverse=True):
        row = form.pop(col)
        form[col] = reduce_row(form, row)
    return form


def rref(rows: List[List[object]]):
    """Reduced row echelon form of a dense matrix: (its nonzero rows, their
    pivot columns in ascending order).  The input is not modified."""
    ncols = len(rows[0]) if rows else 0
    form = _reduced_form(rows)
    pivots = sorted(form)
    return [[form[col].get(j, _ZERO) for j in range(ncols)] for col in pivots], pivots


def nullspace_basis(rows: List[List[object]]) -> List[List[object]]:
    """Right nullspace basis of a matrix given as a list of rows.

    Each basis vector has entry 1 in its free column and the pivot entries
    solved from the reduced echelon form; vectors are ordered by free column.
    """
    ncols = len(rows[0]) if rows else 0
    form = _reduced_form(rows)
    basis = []
    for free in range(ncols):
        if free in form:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for col, row in form.items():
            if free in row:
                vec[col] = -row[free]
        basis.append(vec)
    return basis


def in_span(span_rows: List[List[object]], vector: List[object]) -> bool:
    """Whether vector lies in the row span of span_rows (all exact)."""
    form: Dict[int, Row] = {}
    for row in span_rows:
        insert_row(form, _sparse(row))
    return not reduce_row(form, _sparse(vector))
