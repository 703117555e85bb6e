"""Exact sparse Gaussian elimination over a cyclotomic field.

A row is a {column: nonzero CyclotomicNumber} dict, so elimination touches
only the nonzero entries (Markowitz, 1957); the matrices of the Galois map
have a few entries per column out of thousands.  rank and kernel_basis also
take dense rows (lists), through sparse_row.  Arithmetic stays exact.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicNumber

__all__ = ["sparse_row", "row_reduce", "rank", "kernel_basis"]


def sparse_row(row) -> dict:
    """A dense row (list) or a dict row as {column: entry}, zeros dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in items if not v.is_zero()}


def row_reduce(rows):
    """Reduced row echelon form of sparse rows in place; returns the pivot
    columns in increasing order.  The form is unique, whatever the row order,
    so each column pivots on its shortest row (Markowitz, 1957): a row with
    one entry clears its column from the others with no arithmetic."""
    pivots = []
    r = 0
    for col in sorted({c for row in rows for c in row}):
        below = [i for i in range(r, len(rows)) if col in rows[i]]
        if not below:
            continue
        pivot = min(below, key=lambda i: len(rows[i]))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r].pop(col)
        inv = lead.inverse() if rows[r] else None
        rest = {c: v * inv for c, v in rows[r].items()}  # the pivot row past its leading one
        rows[r] = {col: CyclotomicNumber.one(lead.order), **rest}
        for i, row in enumerate(rows):
            if i == r or col not in row:
                continue
            f = row.pop(col)
            for c, b in rest.items():
                v = row[c] - f * b if c in row else -(f * b)
                if v.is_zero():
                    del row[c]
                else:
                    row[c] = v
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows) -> int:
    return len(row_reduce([sparse_row(row) for row in rows]))


def kernel_basis(rows, ncols, order):
    """A basis of the right kernel of the matrix, one dense vector per free
    column."""
    work = [sparse_row(row) for row in rows]
    pivots = row_reduce(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero = CyclotomicNumber.zero(order)
    one = CyclotomicNumber.one(order)
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            if fc in work[r]:
                vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis
