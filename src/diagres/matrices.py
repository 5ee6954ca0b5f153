"""Sparse matrices of polynomials.

A Matrix is an nrows x ncols matrix over one ring, stored as one
{column: nonzero Polynomial} dict per row; the shape is explicit, so a
0 x c or r x 0 matrix is its shape plus no entries.  Every operation here
costs in proportion to the nonzero entries.  Matrices are immutable by
convention (a row dict may be shared between matrices), so a matrix
keeps its own ImageSolver once groebner.solver_of has built one.

Dense lists of rows exist only at the boundary: as_matrix converts one once
(a Matrix passes through as the same object), and a Matrix has a read-only
dense row view (len, m[r], iteration) for export and outside callers.
Nothing in the package builds or verifies through that view.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Sequence

from ._terms import check_degree
from .polyring import Polynomial, QuotientRing, max_degree


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows", "_solver")

    def __init__(self, rng: QuotientRing, nrows: int, ncols: int, rows: list = None):
        self.ring, self.nrows, self.ncols = rng, nrows, ncols
        self.rows = [{} for _ in range(nrows)] if rows is None else rows
        self._solver = None  # see groebner.solver_of

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    # the read-only dense row view: fresh lists, zeros are rng.zero(), and
    # iteration runs through __getitem__

    def __len__(self) -> int:
        return self.nrows

    def __getitem__(self, r: int) -> list:
        row, z = self.rows[r], self.ring.zero()
        return [row.get(c, z) for c in range(self.ncols)]

    def __eq__(self, other):
        return mat_eq(self, other) if isinstance(other, Matrix) else NotImplemented

    __hash__ = None


def as_matrix(rng: QuotientRing, m, ncols: int = 0) -> Matrix:
    """m itself if it is a Matrix, else the dense list of rows m as a Matrix
    (ncols is the width of a list with no rows)."""
    if isinstance(m, Matrix):
        return m
    if m:
        ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    return Matrix(rng, len(m), ncols, [{c: e for c, e in enumerate(row) if e.terms} for row in m])


def zero_matrix(rng: QuotientRing, rows: int, cols: int) -> Matrix:
    return Matrix(rng, rows, cols)


def identity_matrix(rng: QuotientRing, n: int) -> Matrix:
    one = rng.one()
    return Matrix(rng, n, n, [{i: one} for i in range(n)])


def from_columns(rng: QuotientRing, nrows: int, cols: Sequence[dict]) -> Matrix:
    """The matrix whose column j is the {row: nonzero Polynomial} dict cols[j]."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, e in col.items():
            rows[i][j] = e
    return Matrix(rng, nrows, len(cols), rows)


def mat_cols(mat: Matrix) -> list:
    """The columns, each a {row: nonzero Polynomial} dict."""
    cols = [{} for _ in range(mat.ncols)]
    for i, row in enumerate(mat.rows):
        for j, e in row.items():
            cols[j][i] = e
    return cols


def mat_neg(mat: Matrix) -> Matrix:
    return Matrix(mat.ring, mat.nrows, mat.ncols,
                  [{c: -e for c, e in row.items()} for row in mat.rows])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """a - b; entries that cancel are dropped."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} - {b.shape}")
    rows = [dict(ra) for ra in a.rows]
    for row, rb in zip(rows, b.rows):
        for c, e in rb.items():
            if (v := row.pop(c) - e if c in row else -e).terms:
                row[c] = v
    return Matrix(a.ring, a.nrows, a.ncols, rows)


def mat_degree(mat: Matrix) -> int:
    """The largest total degree of a term of an entry, 0 with no entries."""
    return max_degree(mat.ring, chain.from_iterable(map(dict.values, mat.rows)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a*b over the nonzero entries: each entry's term dict accumulates in
    place, and an entry that cancels to zero is dropped.  Raises
    InputDataError if a term of the product would not fit a packed term."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.shape} * {b.shape}")
    rng = a.ring
    check_degree(mat_degree(a) + mat_degree(b))
    axpy, one = rng.field.axpy, rng.one_key
    brows = b.rows
    out = []
    for arow in a.rows:
        acc = {}
        for k, e in arow.items():
            for j, f in brows[k].items():
                t = acc.get(j)
                if t is None:
                    t = acc[j] = {}
                ft = f.terms
                for m, c in e.terms.items():
                    axpy(t, c, m - one, ft)
        out.append({j: Polynomial(rng, t) for j, t in acc.items() if t})
    return Matrix(rng, a.nrows, b.ncols, out)


def block_matrix(rng: QuotientRing, row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: dict) -> Matrix:
    """The block matrix of {(block_row, block_col): Matrix}, with missing
    blocks zero and block shapes checked against the declared sizes."""
    row_off = list(accumulate(row_sizes, initial=0))
    col_off = list(accumulate(col_sizes, initial=0))
    rows = [{} for _ in range(row_off[-1])]
    for (bi, bj), blk in blocks.items():
        want = (row_sizes[bi], col_sizes[bj])
        if want[0] == 0 or want[1] == 0:
            continue
        if blk.shape != want:
            raise ValueError(f"block ({bi},{bj}) has shape {blk.shape}, want {want}")
        r0, c0 = row_off[bi], col_off[bj]
        for i, row in enumerate(blk.rows):
            out = rows[r0 + i]
            for c, e in row.items():
                out[c0 + c] = e
    return Matrix(rng, row_off[-1], col_off[-1], rows)


def mat_to_strings(mat: Matrix) -> list:
    return [[str(row[c]) if c in row else "0" for c in range(mat.ncols)] for row in mat.rows]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality of two matrices over one ring (the caller checks it)."""
    return a.shape == b.shape and all(
        ra.keys() == rb.keys() and all(x is rb[c] or x.terms == rb[c].terms
                                       for c, x in ra.items())
        for ra, rb in zip(a.rows, b.rows))
