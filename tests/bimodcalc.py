"""Graded-vector-space calculus for weakly-product certificates.

The convolution of a product bimodule against a test object is a graded
vector space tensored with a fixed object; the cone of a map of product
bimodules therefore decomposes, after row reduction of the induced graded
map, into three label families.  This module implements exactly that
bookkeeping: object labels are opaque strings and no module-level
computation happens here.

decompose returns basis changes P (source) and Q (target) with

    Q . phi . P^{-1} = [[Id_V, 0], [0, 0]]   degreewise,

where dim V is the rank.  Row reduction is rank-revealing Gaussian
elimination over the exact field, pivot chosen as the first nonzero entry
in row-major scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from diagres.scalars import QQ, Field


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-support dimension function degree -> dim."""

    dims: tuple  # tuple of (degree, dim), sorted

    @staticmethod
    def make(dims: dict) -> "GradedVectorSpace":
        return GradedVectorSpace(tuple(sorted((d, n) for d, n in dims.items() if n > 0)))

    def dim(self, degree: int) -> int:
        for d, n in self.dims:
            if d == degree:
                return n
        return 0

    def degrees(self):
        return [d for d, _ in self.dims]

    def total(self) -> int:
        return sum(n for _, n in self.dims)


class GradedLinearMap:
    """Degreewise scalar matrices between graded vector spaces."""

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 mats: dict, field: Field = QQ):
        self.source = source
        self.target = target
        self.field = field
        self.mats = {}
        for d, m in mats.items():
            want = (target.dim(d), source.dim(d))
            got = (len(m), len(m[0]) if m else 0)
            if want[0] and got != want:
                raise ValueError(f"matrix at degree {d} has shape {got}, want {want}")
            if want[0] and want[1]:
                self.mats[d] = [list(row) for row in m]

    def mat(self, d: int):
        if d in self.mats:
            return self.mats[d]
        return [[self.field.zero] * self.source.dim(d) for _ in range(self.target.dim(d))]

    def degrees(self):
        return sorted(set(self.source.degrees()) | set(self.target.degrees()))


@dataclass
class ConeDecomposition:
    """Degreewise (dim U, dim V, dim W) plus the basis changes realizing them."""

    u_dims: dict
    v_dims: dict
    w_dims: dict
    p_mats: dict  # source basis change P, per degree
    q_mats: dict  # target basis change Q, per degree


def _identity(field: Field, n: int):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul_scalar(field: Field, a, b):
    rows, inner = len(a), len(a[0]) if a else 0
    cols = len(b[0]) if b else 0
    out = [[field.zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if field.is_zero(aik):
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                orow[j] = field.add(orow[j], field.mul(aik, brow[j]))
    return out


def invert_matrix(field: Field, m):
    """Gauss-Jordan inverse of a square scalar matrix."""
    n = len(m)
    a = [list(row) + list(ident_row) for row, ident_row in zip(m, _identity(field, n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if not field.is_zero(a[r][col])), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = field.inv(a[col][col])
        a[col] = [field.mul(x, inv) for x in a[col]]
        for r in range(n):
            if r != col and not field.is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _decompose_matrix(field: Field, mat, rows: int, cols: int):
    """Return (rank, P, Q) with Q*mat*P^{-1} = [[Id,0],[0,0]]."""
    m = [list(row) for row in mat] if rows and cols else [[field.zero] * cols
                                                          for _ in range(rows)]
    q = _identity(field, rows)
    p = _identity(field, cols)
    r = 0
    while True:
        pivot = None
        for i in range(r, rows):
            for j in range(r, cols):
                if not field.is_zero(m[i][j]):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            m[r], m[pi] = m[pi], m[r]
            q[r], q[pi] = q[pi], q[r]
        if pj != r:
            for row in m:
                row[r], row[pj] = row[pj], row[r]
            p[r], p[pj] = p[pj], p[r]
        inv = field.inv(m[r][r])
        m[r] = [field.mul(x, inv) for x in m[r]]
        q[r] = [field.mul(x, inv) for x in q[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][r]):
                f = m[i][r]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
                q[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(q[i], q[r])]
        for j in range(cols):
            if j != r and not field.is_zero(m[r][j]):
                f = m[r][j]
                for row in m:
                    row[j] = field.sub(row[j], field.mul(f, row[r]))
                # P accumulates the inverse column operation as a row operation
                p[r] = [field.add(x, field.mul(f, y)) for x, y in zip(p[r], p[j])]
        r += 1
    return r, p, q


def decompose(phi: GradedLinearMap) -> ConeDecomposition:
    """Row-reduce a graded map to [[Id,0],[0,0]] degreewise."""
    field = phi.field
    u, v, w, pm, qm = {}, {}, {}, {}, {}
    for d in phi.degrees():
        rows, cols = phi.target.dim(d), phi.source.dim(d)
        rank, p, q = _decompose_matrix(field, phi.mat(d), rows, cols)
        v[d] = rank
        u[d] = cols - rank
        w[d] = rows - rank
        pm[d] = p
        qm[d] = q
    return ConeDecomposition(u, v, w, pm, qm)


@dataclass(frozen=True)
class FormalSummand:
    degree: int
    multiplicity: int
    label: str


def convolve_product(pairing: GradedVectorSpace, label: str) -> tuple:
    """Formal sum of shifted copies of the label, one per graded dimension."""
    return tuple(FormalSummand(d, n, label) for d, n in pairing.dims)


def cone_image_decomposition(phi: GradedLinearMap, labels: Sequence[str]) -> tuple:
    """Certificate that the cone's convolution image lies in three labels.

    labels = (source_label, cone_label, target_label); the formal sum gets
    dim U copies of the source label, dim V of the cone label and dim W of
    the target label per degree.
    """
    src_label, cone_label, tgt_label = labels
    dec = decompose(phi)
    out = []
    for d in sorted(set(dec.u_dims) | set(dec.v_dims) | set(dec.w_dims)):
        for n, lab in ((dec.u_dims.get(d, 0), src_label),
                       (dec.v_dims.get(d, 0), cone_label),
                       (dec.w_dims.get(d, 0), tgt_label)):
            if n > 0:
                out.append(FormalSummand(d, n, lab))
    return tuple(out)
