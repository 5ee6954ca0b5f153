"""Sparse matrix kernels against a plain dense reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagres.complexes import ChainComplex, ChainMap, cone, direct_sum, shift
from diagres.matrices import (Matrix, as_matrix, block_matrix, mat_eq, mat_mul, mat_neg,
                              zero_matrix)
from diagres.polyring import ring
from diagres.scalars import field_from_spec

# Products of these entries cancel often: x*y - x*y, 1*x - x*1, 2*y + (-2)*y.
POOL = ["0", "0", "0", "0", "1", "-1", "2", "-2", "x", "-x", "y", "x*y", "-x*y"]


def naive_mul(a, b, rng):
    """Dense triple loop, the reference for mat_mul."""
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), rng.zero())
             for j in range(cols)] for i in range(len(a))]


def random_matrix(rng, rand, rows, cols):
    return [[rng.parse(rand.choice(POOL)) for _ in range(cols)] for _ in range(rows)]


def stored(m):
    """The stored entries as {(row, column): terms}; every one must be nonzero."""
    out = {(r, c): e.terms for r, row in enumerate(m.rows) for c, e in row.items()}
    assert all(out.values())
    return out


def dense_stored(rows):
    return {(r, c): e.terms for r, row in enumerate(rows) for c, e in enumerate(row)
            if not e.is_zero()}


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_sparse_mul_matches_dense_triple_loop(spec):
    rng = ring(["x", "y"], field=field_from_spec(spec))
    rand = random.Random(7)
    cancelled = 0
    for _ in range(60):
        r, n, c = rand.randint(1, 5), rand.randint(1, 5), rand.randint(1, 5)
        a, b = random_matrix(rng, rand, r, n), random_matrix(rng, rand, n, c)
        want = naive_mul(a, b, rng)
        got = mat_mul(as_matrix(rng, a), as_matrix(rng, b))
        assert got.shape == (r, c)
        assert stored(got) == dense_stored(want)
        assert list(got) == want
        cancelled += sum(1 for i in range(r) for j in range(c) if want[i][j].is_zero()
                         and any(not a[i][k].is_zero() and not b[k][j].is_zero()
                                 for k in range(n)))
    assert cancelled > 0


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_sparse_mul_drops_cancelled_entries(spec):
    rng = ring(["x", "y"], field=field_from_spec(spec))
    p = rng.parse
    a = as_matrix(rng, [[p("x"), p("1"), p("y")], [p("1"), p("1"), p("0")]])
    b = as_matrix(rng, [[p("y"), p("1")], [p("-x*y"), p("2")], [p("0"), p("-2")]])
    # row 0: column 0 is x*y - x*y; row 1: column 1 is 1 + 2 = 3
    assert mat_mul(a, b).rows == [{1: p("x + 2 - 2*y")}, {0: p("y - x*y"), 1: p("3")}]
    one = as_matrix(rng, [[p("1"), p("1")]])
    assert mat_mul(one, as_matrix(rng, [[p("x + 1")], [p("-x - 1")]])).rows == [{}]


def test_sparse_mul_empty_shapes_and_mismatch():
    rng = ring(["x"])
    x = rng.parse("x")
    assert mat_mul(zero_matrix(rng, 3, 0), zero_matrix(rng, 0, 0)).rows == [{}, {}, {}]
    assert mat_mul(as_matrix(rng, [[x, x]]), zero_matrix(rng, 2, 0)).shape == (1, 0)
    assert mat_mul(zero_matrix(rng, 0, 0), zero_matrix(rng, 0, 0)).rows == []
    assert list(mat_mul(as_matrix(rng, [[x, x]]), as_matrix(rng, [[], []]))) == [[]]
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(zero_matrix(rng, 2, 3), zero_matrix(rng, 2, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(as_matrix(rng, [[x]]), as_matrix(rng, [[x], [x]]))


def test_block_matrix_places_blocks_and_checks_shapes():
    rng = ring(["x"])
    x, one, z = rng.parse("x"), rng.one(), rng.zero()
    out = block_matrix(rng, [1, 2], [2, 1], {(0, 0): as_matrix(rng, [[x, one]]),
                                            (1, 1): as_matrix(rng, [[x], [one]])})
    assert list(out) == [[x, one, z], [z, z, x], [z, z, one]]
    with pytest.raises(ValueError, match="block"):
        block_matrix(rng, [1, 2], [2, 1], {(1, 1): as_matrix(rng, [[x, x], [one, one]])})


# ---------------------------------------------------------------------------
# every sparse operation against plain dense lists


RINGS = {spec: ring(["x", "y"], field=field_from_spec(spec)) for spec in ("q", "fp:32003")}


def dense(draw, rng, rows, cols):
    return [[rng.parse(draw(st.sampled_from(POOL))) for _ in range(cols)] for _ in range(rows)]


def dense_blocks(rng, row_sizes, col_sizes, blocks):
    """Reference block assembly on dense lists."""
    out = [[rng.zero()] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for (bi, bj), blk in blocks.items():
        r0, c0 = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for i, row in enumerate(blk):
            out[r0 + i][c0:c0 + len(row)] = row
    return out


def dense_complex(draw, rng):
    """A random complex 0 -> C_1 -> C_0 -> 0 (d*d = 0 trivially), ranks 0-3."""
    r0, r1 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return {0: r0, 1: r1}, {1: dense(draw, rng, r0, r1)} if r0 and r1 else {}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), spec=st.sampled_from(sorted(RINGS)))
def test_sparse_operations_match_dense_reference(data, spec):
    draw, rng = data.draw, RINGS[spec]
    r, n, c = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = dense(draw, rng, r, n), dense(draw, rng, n, c)
    sa, sb = as_matrix(rng, a, n), as_matrix(rng, b, c)
    # dense -> sparse -> dense, and only nonzero entries stored
    assert sa.shape == (r, n) and list(sa) == a and len(sa) == r
    assert stored(sa) == dense_stored(a)
    assert as_matrix(rng, sa) is sa
    prod = mat_mul(sa, sb)
    assert prod.shape == (r, c)
    assert list(prod) == [[sum((a[i][k] * b[k][j] for k in range(n)), rng.zero())
                           for j in range(c)] for i in range(r)]
    assert list(mat_neg(sa)) == [[-e for e in row] for row in a]
    other = dense(draw, rng, r, n)
    assert mat_eq(sa, as_matrix(rng, other, n)) == (a == other)
    assert (sa == as_matrix(rng, other, n)) == (a == other)
    # blocks, including 0-sized ones
    row_sizes = [draw(st.integers(0, 2)) for _ in range(2)]
    col_sizes = [draw(st.integers(0, 2)) for _ in range(2)]
    blocks = {(i, j): dense(draw, rng, row_sizes[i], col_sizes[j])
              for i in range(2) for j in range(2) if draw(st.booleans())}
    got = block_matrix(rng, row_sizes, col_sizes,
                       {k: as_matrix(rng, m, col_sizes[k[1]]) for k, m in blocks.items()})
    assert got.shape == (sum(row_sizes), sum(col_sizes))
    assert list(got) == dense_blocks(rng, row_sizes, col_sizes, blocks)
    stored(got)
    # cone, shift and direct sum against dense assembly
    ranks1, d1 = dense_complex(draw, rng)
    ranks2, d2 = dense_complex(draw, rng)
    c1, c2 = ChainComplex(rng, ranks1, d1), ChainComplex(rng, ranks2, d2)
    s = direct_sum(c1, c2)
    for i in (0, 1):
        want = dense_blocks(rng, [c1.rank(i - 1), c2.rank(i - 1)], [c1.rank(i), c2.rank(i)],
                            {(0, 0): list(c1.diff(i)), (1, 1): list(c2.diff(i))})
        assert list(s.diff(i)) == want
    sh = shift(c1, 1)
    assert list(sh.diff(2)) == [[-e for e in row] for row in list(c1.diff(1))]
    fm = {i: dense(draw, rng, c1.rank(i), c1.rank(i)) for i in (0, 1)}
    f = ChainMap(c1, c1, fm)
    cn = cone(f)
    for i in (0, 1, 2):
        want = dense_blocks(rng, [c1.rank(i - 2), c1.rank(i - 1)], [c1.rank(i - 1), c1.rank(i)],
                            {(0, 0): [[-e for e in row] for row in list(c1.diff(i - 1))],
                             (1, 0): list(f.mat(i - 1)), (1, 1): list(c1.diff(i))})
        assert list(cn.diff(i)) == want


def test_dense_input_is_converted_once_and_sparse_input_kept():
    rng = RINGS["q"]
    x = rng.parse("x")
    m = as_matrix(rng, [[x, rng.zero()]])
    assert isinstance(m, Matrix) and m.rows == [{0: x}]
    cx = ChainComplex(rng, {0: 1, 1: 2}, {1: m})
    assert cx.diffs[1] is m
    with pytest.raises(ValueError, match="ragged"):
        as_matrix(rng, [[x, x], [x]])
