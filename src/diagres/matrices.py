"""Small helpers for matrices of polynomials.

A matrix is a list of rows, each a list of Polynomial, all over one ring.
Shapes are explicit everywhere: a 0 x c or r x 0 matrix is its shape plus no
entries, and degreewise chain-complex data uses such matrices freely.

Products and scans skip zero entries: sparse_mul works on the nonzero
entries of each row and returns row dicts {column: terms} holding only the
nonzero entries of the product, and mat_mul is its dense wrapper.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from ._terms import axpy_p, axpy_q
from .polyring import Polynomial, QuotientRing
from .scalars import PrimeField

Matrix = list


def zero_matrix(rng: QuotientRing, rows: int, cols: int) -> Matrix:
    z = rng.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity_matrix(rng: QuotientRing, n: int) -> Matrix:
    one, zero = rng.one(), rng.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_shape(mat: Matrix) -> tuple:
    return (len(mat), len(mat[0]) if mat else 0)


def mat_neg(mat: Matrix) -> Matrix:
    """Entrywise negation; zero entries are shared, not rebuilt."""
    return [[e if e.is_zero() else -e for e in row] for row in mat]


def nonzero_rows(mat: Matrix) -> list:
    """Each row as a {column: entry} dict of its nonzero entries."""
    return [{c: e for c, e in enumerate(row) if e.terms} for row in mat]


def sparse_mul(a: Matrix, b: Matrix, rng: QuotientRing) -> list:
    """The nonzero entries of a*b, one {column: terms} dict per row of a.

    Each term dict accumulates in place over the nonzero (column, entry)
    pairs of the rows of b; an entry that cancels to zero is dropped.
    """
    if mat_shape(a)[1] != len(b):
        raise ValueError(f"shape mismatch: {mat_shape(a)} * {mat_shape(b)}")
    fld = rng.field
    axpy = partial(axpy_p, p=fld.p) if isinstance(fld, PrimeField) else axpy_q
    brows = nonzero_rows(b)
    out = []
    for arow in a:
        acc = {}
        for k, e in enumerate(arow):
            if not e.terms:
                continue
            for j, f in brows[k].items():
                t = acc.setdefault(j, {})
                for m, c in e.terms.items():
                    axpy(t, c, m, f.terms)
        out.append({j: t for j, t in acc.items() if t})
    return out


def mat_mul(a: Matrix, b: Matrix, rng: QuotientRing) -> Matrix:
    """The dense product a*b: sparse_mul's rows, with one shared zero."""
    z = rng.zero()
    cols = mat_shape(b)[1]
    return [[Polynomial(rng, row[j]) if j in row else z for j in range(cols)]
            for row in sparse_mul(a, b, rng)]


def mat_cols(mat: Matrix, cols: int) -> list:
    """Columns as tuples of polynomials."""
    rows = len(mat)
    return [tuple(mat[i][j] for i in range(rows)) for j in range(cols)]


def block_matrix(rng: QuotientRing, row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: dict) -> Matrix:
    """Assemble a block matrix; blocks maps (block_row, block_col) -> Matrix.

    Missing blocks are zero.  Block shapes are checked against the declared
    row/column sizes.
    """
    out = zero_matrix(rng, sum(row_sizes), sum(col_sizes))
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    for (bi, bj), blk in blocks.items():
        want = (row_sizes[bi], col_sizes[bj])
        if want[0] == 0 or want[1] == 0:
            continue
        if mat_shape(blk) != want:
            raise ValueError(f"block ({bi},{bj}) has shape {mat_shape(blk)}, want {want}")
        c0, c1 = col_off[bj], col_off[bj + 1]
        for i, row in enumerate(blk):
            out[row_off[bi] + i][c0:c1] = row
    return out


def mat_map(mat: Matrix, f: Callable[[Polynomial], Polynomial]) -> Matrix:
    return [[f(e) for e in row] for row in mat]


def mat_to_strings(mat: Matrix) -> list:
    return [[str(e) for e in row] for row in mat]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality of two matrices over one ring (the caller checks it)."""
    return mat_shape(a) == mat_shape(b) and all(
        x is y or x.terms == y.terms for ra, rb in zip(a, b) for x, y in zip(ra, rb))
