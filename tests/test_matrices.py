"""Matrix kernels: the sparse product against a dense reference."""

import random

import pytest

from diagres.matrices import block_matrix, mat_mul, sparse_mul, zero_matrix
from diagres.polyring import ring
from diagres.scalars import field_from_spec

# Products of these entries cancel often: x*y - x*y, 1*x - x*1, 2*y + (-2)*y.
POOL = ["0", "0", "0", "0", "1", "-1", "2", "-2", "x", "-x", "y", "x*y", "-x*y"]


def naive_mul(a, b, rng):
    """Dense triple loop, the reference for sparse_mul."""
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), rng.zero())
             for j in range(cols)] for i in range(len(a))]


def random_matrix(rng, rand, rows, cols):
    return [[rng.parse(rand.choice(POOL)) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_sparse_mul_matches_dense_triple_loop(spec):
    rng = ring(["x", "y"], field=field_from_spec(spec))
    rand = random.Random(7)
    cancelled = 0
    for _ in range(60):
        r, n, c = rand.randint(1, 5), rand.randint(1, 5), rand.randint(1, 5)
        a, b = random_matrix(rng, rand, r, n), random_matrix(rng, rand, n, c)
        want = naive_mul(a, b, rng)
        got = sparse_mul(a, b, rng)
        assert len(got) == r
        for row, wrow in zip(got, want):
            assert all(t for t in row.values())
            assert row == {j: w.terms for j, w in enumerate(wrow) if not w.is_zero()}
        assert mat_mul(a, b, rng) == want
        cancelled += sum(1 for i in range(r) for j in range(c) if want[i][j].is_zero()
                         and any(not a[i][k].is_zero() and not b[k][j].is_zero()
                                 for k in range(n)))
    assert cancelled > 0


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_sparse_mul_drops_cancelled_entries(spec):
    rng = ring(["x", "y"], field=field_from_spec(spec))
    p = rng.parse
    a = [[p("x"), p("1"), p("y")], [p("1"), p("1"), p("0")]]
    b = [[p("y"), p("1")], [p("-x*y"), p("2")], [p("0"), p("-2")]]
    # row 0: column 0 is x*y - x*y; row 1: column 1 is 1 + 2 = 3
    assert sparse_mul(a, b, rng) == [{1: p("x + 2 - 2*y").terms},
                                     {0: p("y - x*y").terms, 1: p("3").terms}]
    assert sparse_mul([[p("1"), p("1")]], [[p("x + 1")], [p("-x - 1")]], rng) == [{}]


def test_sparse_mul_empty_shapes_and_mismatch():
    rng = ring(["x"])
    x = rng.parse("x")
    assert sparse_mul([[], [], []], [], rng) == [{}, {}, {}]        # 3x0 * 0x0
    assert sparse_mul([[x, x]], [[], []], rng) == [{}]               # 1x2 * 2x0
    assert sparse_mul([], [], rng) == []                             # 0x0 * 0x0
    assert mat_mul([[x, x]], [[], []], rng) == [[]]
    with pytest.raises(ValueError, match="shape mismatch"):
        sparse_mul(zero_matrix(rng, 2, 3), zero_matrix(rng, 2, 2), rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul([[x]], [[x], [x]], rng)


def test_block_matrix_places_blocks_and_checks_shapes():
    rng = ring(["x"])
    x, one, z = rng.parse("x"), rng.one(), rng.zero()
    out = block_matrix(rng, [1, 2], [2, 1], {(0, 0): [[x, one]], (1, 1): [[x], [one]]})
    assert out == [[x, one, z], [z, z, x], [z, z, one]]
    with pytest.raises(ValueError, match="block"):
        block_matrix(rng, [1, 2], [2, 1], {(1, 1): [[x, x], [one, one]]})
