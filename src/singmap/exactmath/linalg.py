"""One sparse fraction-free elimination over the integers, which is all the
library's linear algebra.

A row is a dict {column: int} with no zero entries.  Its columns may be any
mutually comparable keys (integers, Klein-monomial tuples), and its pivot is
its least column, min(row).  A row is primitive when its entries have gcd 1
and its pivot entry is positive.  A semi-echelon form is a dict {pivot
column: row} of primitive rows, each zero left of its pivot.  reduce_row
clears a row at each pivot c of a form in ascending order: with a the
row's entry at c and p the pivot entry, and a', p' the two divided by their
gcd, row = p' row - a' form[c] (Bareiss, Math. Comp. 22, 1968, without the
determinant bookkeeping).  That scales the row by p' != 0 modulo the span
and divides by nothing; what is left is made primitive.  insert_row stores
the reduction of a row under its pivot, if anything is left; rref and
in_span run on these two, and rref returns the reduced form itself,
{pivot: row} in ascending pivot order.  kernel_vector reads off a reduced
form its kernel vector on one column that is not a pivot and the pivots;
nullspace_basis is one such vector per free column, and the relation scan
reads each relation as one, at the columns that its reduced form names.

No result depends on the order of the rows.  For a fixed column order the
pivots of any semi-echelon basis of a span S are the leading columns of the
nonzero vectors of S.  Two vectors zero at every pivot and congruent modulo
S up to a rational factor are proportional, since the difference of the
right multiples lies in S with no entry at a pivot; so the primitive
reduction of a vector is unique, and so are the reduced row echelon form
and the nullspace basis read from it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List

Row = Dict[object, int]


def reduce_row(form: Dict[object, Row], row: Row) -> Row:
    """row modulo the span of form, up to a nonzero rational factor: a new
    row that is zero at every pivot, primitive unless it is empty.

    Subtracting a multiple of the row stored at pivot c changes only
    columns c and to its right, so visiting pivots in ascending order
    clears each one for good.
    """
    row = dict(row)
    for col in sorted(form):
        a = row.get(col)
        if a is None:
            continue
        pivot_row = form[col]
        p = pivot_row[col]
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            for j in row:
                row[j] *= p
        for j, y in pivot_row.items():
            x = row.get(j, 0) - a * y  # nonzero where row had no entry
            if x:
                row[j] = x
            else:
                del row[j]
    if not row:
        return row
    g = gcd(*row.values())
    g = -g if row[min(row)] < 0 else g
    return {j: x // g for j, x in row.items()} if g != 1 else row


def insert_row(form: Dict[object, Row], row: Row) -> None:
    """Add row to the span of form: what is left of it after reduce_row, if
    anything, is stored under its leading column.  Once every row of a
    matrix is in, the pivots are its columns that are not combinations of
    the columns left of them."""
    row = reduce_row(form, row)
    if row:
        form[min(row)] = row


def rref(rows: Iterable[Row]) -> Dict[object, Row]:
    """The reduced row echelon form of rows as {pivot column: row}, in
    ascending pivot order, each row primitive and zero at every other
    pivot: insert every row, then clear the entries above each pivot, last
    pivot first, so the rows at later pivots are already reduced (earlier
    ones are never met).  The input is not modified."""
    form: Dict[object, Row] = {}
    for row in rows:
        insert_row(form, row)
    for col in sorted(form, reverse=True):
        row = form.pop(col)
        form[col] = reduce_row(form, row)
    return {col: form[col] for col in sorted(form)}


def kernel_vector(form: Dict[object, Row], free) -> Row:
    """The kernel vector of the reduced echelon form at a column free that
    is not a pivot: the integer vector with content 1, positive at free,
    zero at every other column that is not a pivot, and with its pivot
    entries solved from form.  Every pivot it meets lies left of free, so
    free is its last column; the pivot entries come first, in form's order."""
    solved = [(col, row[free], row[col]) for col, row in form.items() if free in row]
    scale = lcm(*(p for _, _, p in solved))
    vec = {col: -a * (scale // p) for col, a, p in solved}
    vec[free] = scale
    g = gcd(*vec.values())
    return {j: x // g for j, x in vec.items()}


def nullspace_basis(rows: Iterable[Row], ncols: int) -> List[Row]:
    """Right nullspace basis of rows over the columns 0..ncols-1: one
    kernel_vector per free column, ordered by that column."""
    form = rref(rows)
    return [kernel_vector(form, free) for free in range(ncols) if free not in form]


def in_span(span_rows: Iterable[Row], vector: Row) -> bool:
    """Whether vector lies in the span of span_rows."""
    form: Dict[object, Row] = {}
    for row in span_rows:
        insert_row(form, row)
    return not reduce_row(form, vector)
