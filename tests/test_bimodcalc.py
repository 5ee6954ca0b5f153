"""Graded decomposition calculus: row reduction and label bookkeeping."""

import random
from fractions import Fraction

from bimodcalc import (FormalSummand, GradedLinearMap, GradedVectorSpace,
                       cone_image_decomposition, convolve_product,
                       decompose, invert_matrix, mat_mul_scalar)
from diagres.scalars import QQ


def gvs(dims):
    return GradedVectorSpace.make(dims)


def gmap(src, tgt, mats):
    return GradedLinearMap(gvs(src), gvs(tgt),
                           {d: [[Fraction(x) for x in row] for row in m]
                            for d, m in mats.items()})


def test_decompose_identity():
    phi = gmap({0: 1}, {0: 1}, {0: [[1]]})
    dec = decompose(phi)
    assert (dec.u_dims[0], dec.v_dims[0], dec.w_dims[0]) == (0, 1, 0)


def test_decompose_zero_map():
    phi = gmap({0: 2}, {0: 3}, {0: [[0, 0], [0, 0], [0, 0]]})
    dec = decompose(phi)
    assert (dec.u_dims[0], dec.v_dims[0], dec.w_dims[0]) == (2, 0, 3)


def test_decompose_rank_one():
    phi = gmap({0: 2}, {0: 2}, {0: [[1, 0], [0, 0]]})
    dec = decompose(phi)
    assert (dec.u_dims[0], dec.v_dims[0], dec.w_dims[0]) == (1, 1, 1)


def test_convolve_product():
    assert convolve_product(gvs({0: 1}), "G2") == (FormalSummand(0, 1, "G2"),)
    assert convolve_product(gvs({1: 2}), "G2") == (FormalSummand(1, 2, "G2"),)
    assert convolve_product(gvs({}), "G2") == ()


def test_cone_image_decomposition_cases():
    ident = gmap({0: 2}, {0: 2}, {0: [[1, 0], [0, 1]]})
    out = cone_image_decomposition(ident, ("G2", "cone", "G2p"))
    assert {s.label for s in out} == {"cone"}
    zero = gmap({0: 2}, {1: 1}, {})
    out = cone_image_decomposition(zero, ("G2", "cone", "G2p"))
    assert {s.label for s in out} == {"G2", "G2p"}
    mixed = gmap({0: 2}, {0: 2}, {0: [[1, 0], [0, 0]]})
    out = cone_image_decomposition(mixed, ("G2", "cone", "G2p"))
    assert sorted((s.degree, s.multiplicity, s.label) for s in out) == [
        (0, 1, "G2"), (0, 1, "G2p"), (0, 1, "cone")]


def _random_map(rand, max_dim=5, degrees=(-3, 3)):
    src, tgt, mats = {}, {}, {}
    for d in range(degrees[0], degrees[1] + 1):
        if rand.random() < 0.4:
            continue
        s, t = rand.randint(0, max_dim), rand.randint(0, max_dim)
        if s:
            src[d] = s
        if t:
            tgt[d] = t
        if s and t:
            mats[d] = [[Fraction(rand.randint(-4, 4)) for _ in range(s)]
                       for _ in range(t)]
    return gmap(src, tgt, mats)


def _reassembles(phi, dec):
    """Q^{-1} . [[Id,0],[0,0]] . P == phi degreewise."""
    f = QQ
    for d in phi.degrees():
        rows, cols = phi.target.dim(d), phi.source.dim(d)
        if rows == 0 or cols == 0:
            continue
        v = dec.v_dims.get(d, 0)
        canon = [[f.one if (i == j and i < v) else f.zero for j in range(cols)]
                 for i in range(rows)]
        qinv = invert_matrix(f, dec.q_mats[d])
        got = mat_mul_scalar(f, mat_mul_scalar(f, qinv, canon), dec.p_mats[d])
        if got != phi.mat(d):
            return False
    return True


def test_reassembly_and_dimension_bookkeeping():
    rand = random.Random(5)
    for _ in range(200):
        phi = _random_map(rand)
        dec = decompose(phi)
        for d in phi.degrees():
            assert dec.u_dims.get(d, 0) + dec.v_dims.get(d, 0) == phi.source.dim(d)
            assert dec.v_dims.get(d, 0) + dec.w_dims.get(d, 0) == phi.target.dim(d)
        assert _reassembles(phi, dec)


def test_rank_invariance_under_invertible_factors():
    rand = random.Random(9)
    f = QQ

    def random_invertible(n):
        while True:
            m = [[Fraction(rand.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            try:
                invert_matrix(f, m)
                return m
            except ValueError:
                continue

    for _ in range(25):
        phi = _random_map(rand, max_dim=4, degrees=(0, 1))
        dec = decompose(phi)
        mats2 = {}
        for d in phi.degrees():
            rows, cols = phi.target.dim(d), phi.source.dim(d)
            if rows and cols:
                a = random_invertible(rows)
                b = random_invertible(cols)
                mats2[d] = mat_mul_scalar(f, mat_mul_scalar(f, a, phi.mat(d)), b)
        phi2 = GradedLinearMap(phi.source, phi.target, mats2)
        dec2 = decompose(phi2)
        assert dec.v_dims == dec2.v_dims


def test_iterated_cone_label_closure():
    """A commuting square of product maps emits only declared labels."""
    rand = random.Random(3)
    closure = {"G2", "cone(g2)", "G2p", "H2", "cone(h2)", "H2p",
               "cone(phi2)", "cone(cone)"}
    for _ in range(20):
        top = _random_map(rand, max_dim=3, degrees=(0, 2))
        out_top = cone_image_decomposition(top, ("G2", "cone(g2)", "G2p"))
        bottom = _random_map(rand, max_dim=3, degrees=(0, 2))
        out_bottom = cone_image_decomposition(bottom, ("H2", "cone(h2)", "H2p"))
        induced = _random_map(rand, max_dim=3, degrees=(0, 2))
        out_cone = cone_image_decomposition(induced, ("cone(g2)", "cone(cone)",
                                                      "cone(h2)"))
        for out in (out_top, out_bottom, out_cone):
            assert {s.label for s in out} <= closure
