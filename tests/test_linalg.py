"""Sparse exact elimination against the dense elimination it replaced.

The dense row_reduce below is the former implementation, kept as the oracle:
the reduced row echelon form in column order is unique, so both must give
the same rank, pivots, reduced rows and kernel vectors.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfid
from hopfid.cyclotomic import CyclotomicNumber, field_degree
from hopfid.linalg import kernel_basis, rank, row_reduce, sparse_row

ORDERS = (2, 3, 4, 5)


def dense_row_reduce(rows):
    """Reduced row echelon form of dense rows in place; the pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_kernel_basis(rows, ncols, order):
    work = [list(row) for row in rows]
    pivots = dense_row_reduce(work)
    zero = CyclotomicNumber.zero(order)
    one = CyclotomicNumber.one(order)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def scalar(rng, order, density):
    """A random field element, zero with probability 1 - density."""
    if rng.random() >= density:
        return CyclotomicNumber.zero(order)
    coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
              for _ in range(field_degree(order))]
    return CyclotomicNumber(order, coeffs)


def combination(rng, order, rows):
    """alpha * rows[0] + beta * rows[1], a row that adds no rank."""
    alpha, beta = scalar(rng, order, 1.0), scalar(rng, order, 1.0)
    return [alpha * a + beta * b for a, b in zip(rows[0], rows[1])]


def matrices(order, seed):
    """Seeded dense matrices: full, sparse, rank-deficient, zero rows and
    columns, non-square."""
    rng = random.Random(seed)
    out = []
    for nrows, ncols in ((4, 4), (5, 5), (3, 6), (6, 3), (1, 4), (4, 1)):
        for density in (0.3, 0.7, 1.0):
            m = [[scalar(rng, order, density) for _ in range(ncols)]
                 for _ in range(nrows)]
            out.append(m)
            if nrows >= 3:
                deficient = [list(row) for row in m]
                deficient[-1] = combination(rng, order, m)
                out.append(deficient)
    zero = CyclotomicNumber.zero(order)
    m = [[scalar(rng, order, 0.6) for _ in range(5)] for _ in range(4)]
    for row in m:
        row[2] = zero
    m[1] = [zero] * 5
    out.append(m)
    return out


def kernel_vanishes(rows, vec):
    for row in rows:
        acc = CyclotomicNumber.zero(vec[0].order)
        for a, v in zip(row, vec):
            acc = acc + a * v
        if not acc.is_zero():
            return False
    return True


@pytest.mark.parametrize("order", ORDERS)
def test_sparse_elimination_matches_dense_oracle(order):
    for m in matrices(order, 1000 + order):
        ncols = len(m[0])
        dense = [list(row) for row in m]
        expected_pivots = dense_row_reduce(dense)
        sparse = [sparse_row(row) for row in m]
        assert row_reduce(sparse) == expected_pivots
        # the reduced rows themselves agree, zero rows aside
        assert [row for row in sparse if row] == [
            sparse_row(row) for row in dense[: len(expected_pivots)]
        ]
        assert rank(m) == len(expected_pivots)
        kernel = kernel_basis(m, ncols, order)
        assert kernel == dense_kernel_basis(m, ncols, order)
        assert len(kernel) == ncols - len(expected_pivots)
        assert all(kernel_vanishes(m, vec) for vec in kernel)


@pytest.mark.parametrize("order", ORDERS)
def test_dense_and_dict_rows_agree(order):
    for m in matrices(order, order):
        ncols = len(m[0])
        # dict rows that still hold some explicit zeros, as coinvariants builds
        dicts = [{c: v for c, v in enumerate(row) if not v.is_zero() or c % 2}
                 for row in m]
        assert rank(dicts) == rank(m)
        assert kernel_basis(dicts, ncols, order) == kernel_basis(m, ncols, order)
        assert all(not v.is_zero() for row in dicts for v in sparse_row(row).values())
        assert sparse_row(m[0]) == sparse_row(dict(enumerate(m[0])))


def test_rank_deficient_matrix_loses_rank():
    rng = random.Random(7)
    for order in ORDERS:
        m = [[scalar(rng, order, 1.0) for _ in range(5)] for _ in range(4)]
        m.append(combination(rng, order, m))
        assert rank(m) == 4
        assert len(kernel_basis(m, 5, order)) == 1


def test_empty_and_zero_input():
    one = CyclotomicNumber.one(3)
    zero = CyclotomicNumber.zero(3)
    assert rank([]) == 0
    assert row_reduce([]) == []
    assert kernel_basis([], 2, 3) == [[one, zero], [zero, one]]
    assert rank([[zero, zero], [zero, zero]]) == 0
    assert rank([{}, {0: zero}]) == 0
    assert kernel_basis([{1: zero}], 2, 3) == dense_kernel_basis([[zero, zero]], 2, 3)


def test_the_package_import_binds_linalg():
    # a fresh interpreter: in this one the imports above already bind hopfid.linalg
    src = os.path.dirname(os.path.dirname(hopfid.__file__))
    code = ("import hopfid; one = hopfid.CyclotomicNumber.one(3); "
            "print(hopfid.linalg.rank([[one, one], [one, one]]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
