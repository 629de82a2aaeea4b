"""One sparse exact elimination, which is all the library's linear algebra.

A row is a dict {column: ExactScalar} with no zero entries.  Its columns may
be any mutually comparable keys (integers, Klein-monomial tuples), and its
pivot is its least column, min(row).  A semi-echelon form is a dict {pivot
column: row} whose rows are monic at their pivot and zero left of it.
reduce_row subtracts rows of a form, visiting pivots in ascending order,
until the row is zero at every pivot; insert_row reduces a row and stores
what is left, made monic, under its pivot.  rref, nullspace_basis and
in_span take such rows and run on these two; rref returns the reduced
form itself, {pivot: row} in ascending pivot order.

No result depends on the order of the rows.  For a fixed column order the
pivots of any semi-echelon basis of a span S are the leading columns of the
nonzero vectors of S.  Two vectors congruent modulo S and zero at every
pivot differ by a vector of S with no entry at a pivot, which is zero; so
the reduction of a vector is unique, and so are the reduced row echelon
form and the nullspace basis read from it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .ring import ONE, ExactScalar

Row = Dict[object, ExactScalar]


def reduce_row(form: Dict[object, Row], row: Row) -> Row:
    """row modulo the span of form: a new row that is zero at every pivot.

    Subtracting the row stored at pivot c changes only columns c and to its
    right, so visiting pivots in ascending order clears each one for good.
    """
    row = dict(row)
    for col in sorted(form):
        factor = row.get(col)
        if factor is None:
            continue
        for j, y in form[col].items():
            x = row.get(j)
            if x is None:
                row[j] = -(factor * y)
            else:
                x = x - factor * y
                if x:
                    row[j] = x
                else:
                    del row[j]
    return row


def insert_row(form: Dict[object, Row], row: Row) -> None:
    """Add row to the span of form: what is left of it after reduce_row,
    made monic, is stored under its leading column."""
    row = reduce_row(form, row)
    if row:
        col = min(row)
        inv = row[col].inverse()
        form[col] = {j: x * inv for j, x in row.items()}


def rref(rows: Iterable[Row]) -> Dict[object, Row]:
    """The reduced row echelon form of rows as {pivot column: row}, in
    ascending pivot order: insert every row, then clear the entries above
    each pivot, last pivot first, so the rows at later pivots are already
    reduced (earlier ones are never met).  The input is not modified."""
    form: Dict[object, Row] = {}
    for row in rows:
        insert_row(form, row)
    for col in sorted(form, reverse=True):
        row = form.pop(col)
        form[col] = reduce_row(form, row)
    return {col: form[col] for col in sorted(form)}


def nullspace_basis(rows: Iterable[Row], ncols: int) -> List[Row]:
    """Right nullspace basis of rows over the columns 0..ncols-1.

    Each basis vector has entry 1 in its free column and the pivot entries
    solved from the reduced echelon form; vectors are ordered by free column.
    """
    form = rref(rows)
    basis = []
    for free in range(ncols):
        if free in form:
            continue
        vec = {col: -row[free] for col, row in form.items() if free in row}
        vec[free] = ONE
        basis.append(vec)
    return basis


def in_span(span_rows: Iterable[Row], vector: Row) -> bool:
    """Whether vector lies in the span of span_rows."""
    form: Dict[object, Row] = {}
    for row in span_rows:
        insert_row(form, row)
    return not reduce_row(form, vector)
