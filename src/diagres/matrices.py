"""Small helpers for matrices of polynomials.

A matrix is a list of rows, each a list of Polynomial, all over one ring.
Shapes are explicit everywhere: a 0 x c or r x 0 matrix is its shape plus no
entries, and degreewise chain-complex data uses such matrices freely.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .polyring import Polynomial, QuotientRing

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


def mat_mul(a: Matrix, b: Matrix, rng: QuotientRing) -> Matrix:
    rows, inner = mat_shape(a)
    inner2, cols = mat_shape(b)
    if inner != inner2:
        raise ValueError(f"shape mismatch: {mat_shape(a)} * {mat_shape(b)}")
    out = zero_matrix(rng, rows, cols)
    for i in range(rows):
        arow = a[i]
        for k in range(inner):
            e = arow[k]
            if e.is_zero():
                continue
            brow = b[k]
            for j in range(cols):
                if not brow[j].is_zero():
                    out[i][j] = out[i][j] + e * brow[j]
    return out


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
        for i, row in enumerate(blk):
            for j, e in enumerate(row):
                out[row_off[bi] + i][col_off[bj] + j] = e
    return out


def mat_map(mat: Matrix, f: Callable[[Polynomial], Polynomial]) -> Matrix:
    return [[f(e) for e in row] for row in mat]


def mat_to_strings(mat: Matrix) -> list:
    return [[str(e) for e in row] for row in mat]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
