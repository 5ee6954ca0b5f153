"""Gröbner engine: bases, normal forms, membership, syzygies.

Hand-derivable expected values are frozen; ideal-level results are also
cross-checked against sympy's groebner (an independent implementation).
Property tests enforce the S-polynomial criterion on computed bases, the
equivalence of the two membership routes, and exact annihilation of syzygy
generators.
"""

import random

import pytest

from diagres.groebner import (GroebnerBasis, ImageSolver, Submodule, buchberger,
                              member, normal_form, quotient_augment, submodule_equal,
                              syzygies, vec_is_zero)
from diagres.polyring import MonomialOrder, ring

RLEX = ring(["x", "y"], order=MonomialOrder("lex"))
R2 = ring(["x1", "x2"])
RQ = ring(["x1", "y1", "x2", "y2"], relations=["x1*y1", "x2*y2"])


def ideal(rng, *gens):
    return Submodule(rng, 1, [(rng.parse(g),) for g in gens])


def basis_strs(gb):
    return [tuple(str(p) for p in v) for v in gb.vectors]


def test_buchberger_lex_example():
    gb = buchberger(ideal(RLEX, "x*y", "x-y"))
    assert basis_strs(gb) == [("x - y",), ("y^2",)]


def test_buchberger_lex_example_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expected = sympy.groebner([x * y, x - y], x, y, order="lex")
    ours = {str(v[0]).replace(" ", "") for v in buchberger(ideal(RLEX, "x*y", "x-y")).vectors}
    theirs = {str(e).replace(" ", "").replace("**", "^") for e in expected.exprs}
    assert ours == theirs


def test_monomial_ideal_is_its_own_basis():
    gb = buchberger(ideal(RQ, "x1*y1", "x2*y2"))
    assert basis_strs(gb) == [("x1*y1",), ("x2*y2",)]


def test_containment_collapses():
    gb = buchberger(ideal(RLEX, "x^2", "x^3"))
    assert basis_strs(gb) == [("x^2",)]


def test_normal_form_examples():
    gb = buchberger(ideal(RLEX, "x*y", "x-y"))
    assert vec_is_zero(normal_form((RLEX.parse("x^2"),), gb))
    v = (RLEX.parse("y + 1"),)
    assert normal_form(v, gb) == v  # already reduced
    assert vec_is_zero(normal_form((RLEX.zero(),), gb))


def test_member_examples():
    assert member((RQ.parse("x1-x2"),), ideal(RQ, "x1-x2", "y1-y2"))
    assert not member((R2.one(),), ideal(R2, "x1-x2"))
    # the relation ideal kills x1*y1 even in the zero submodule
    assert member((RQ.parse("x1*y1"),), Submodule(RQ, 1, []))


def test_quotient_augment():
    s = quotient_augment(ideal(RQ, "x1-x2"))
    got = {tuple(str(p) for p in g) for g in s.generators}
    assert got == {("x1 - x2",), ("x1*y1",), ("x2*y2",)}
    # polynomial ring: unchanged
    s2 = quotient_augment(ideal(R2, "x1-x2"))
    assert len(s2.generators) == 1
    # zero submodule in rank 2 over k[x,y]/(xy)
    rxy = ring(["x", "y"], relations=["x*y"])
    s3 = quotient_augment(Submodule(rxy, 2, []))
    got3 = {tuple(str(p) for p in g) for g in s3.generators}
    assert got3 == {("x*y", "0"), ("0", "x*y")}


def test_submodule_equal_examples():
    assert submodule_equal(ideal(RLEX, "x", "y"), ideal(RLEX, "y", "x"))
    assert not submodule_equal(ideal(RLEX, "x"), ideal(RLEX, "x^2"))
    assert submodule_equal(ideal(RLEX, "x-y", "y^2"), ideal(RLEX, "x*y", "x-y"))


def test_syzygies_examples():
    syz = syzygies([[R2.parse("x1"), R2.parse("x2")]], R2)
    assert [tuple(str(p) for p in g) for g in syz.generators] == [("x2", "-x1")]
    rxy = ring(["x", "y"], relations=["x*y"])
    syz2 = syzygies([[rxy.parse("x")]], rxy)
    assert [tuple(str(p) for p in g) for g in syz2.generators] == [("y",)]
    syz3 = syzygies([[R2.one()]], R2)
    assert syz3.generators == []
    with pytest.raises(ValueError):
        syzygies([[R2.one()], [R2.one(), R2.one()]], R2)


def test_product_criterion_module_counterexample():
    """Coprime leading terms do NOT excuse module pairs in general."""
    rng = ring(["x", "y"])
    u = (rng.parse("x"), rng.parse("y"))
    v = (rng.parse("y"), rng.parse("x"))
    gb = buchberger(Submodule(rng, 2, [u, v]))
    extra = (rng.zero(), rng.parse("x^2 - y^2"))
    assert any(g == extra for g in gb.vectors)
    assert member(extra, Submodule(rng, 2, [u, v]))


def test_image_solver():
    mat = [[R2.parse("x1"), R2.parse("x2")]]
    solver = ImageSolver(mat, R2)
    q = solver.solve({0: R2.parse("x1^2 + x1*x2")})
    assert q is not None
    combo = mat[0][0] * q.get(0, R2.zero()) + mat[0][1] * q.get(1, R2.zero())
    assert combo == R2.parse("x1^2 + x1*x2")
    assert solver.solve({0: R2.one()}) is None


# ---------------------------------------------------------------------------
# randomized properties


def random_ideal(rng, rand, max_gens=4, max_deg=3, nterms=3):
    gens = []
    for _ in range(rand.randint(1, max_gens)):
        p = rng.zero()
        for _ in range(rand.randint(1, nterms)):
            exps = tuple(rand.randint(0, max_deg) for _ in range(rng.nvars))
            if sum(exps) > max_deg:
                exps = tuple(0 for _ in exps)
            p = p + rng.const(rand.randint(-3, 3)).shift(exps)
        if not p.is_zero():
            gens.append((p,))
    return Submodule(rng, 1, gens if gens else [(rng.one(),)])


def spoly_reduces_to_zero(gb: GroebnerBasis) -> bool:
    eng = gb._engine
    from diagres._terms import tup_lcm, tup_sub
    dicts = gb._dicts
    for i in range(len(dicts)):
        for j in range(i + 1, len(dicts)):
            lti, ltj = eng.lead(dicts[i]), eng.lead(dicts[j])
            if lti[0] != ltj[0]:
                continue
            lcm = tup_lcm(lti[1:], ltj[1:])
            s = {}
            eng.axpy(s, eng.field.one, (0,) + tup_sub(lcm, lti[1:]), dicts[i])
            eng.axpy(s, eng.field.neg(eng.field.one), (0,) + tup_sub(lcm, ltj[1:]),
                     dicts[j])
            vec = s and normal_form(
                tuple(p for p in _dict_vec(s, gb)), gb)
            if s and not vec_is_zero(vec):
                return False
    return True


def _dict_vec(d, gb):
    from diagres.groebner import dict_to_vec
    return dict_to_vec(d, gb.base.ring, gb.base.rank)


def test_spoly_criterion_randomized():
    rng3 = ring(["x", "y", "z"])
    rand = random.Random(7)
    for _ in range(20):
        sub = random_ideal(rng3, rand)
        gb = buchberger(sub)
        if len(gb.vectors) <= 6:
            assert spoly_reduces_to_zero(gb)


def test_member_consistency_randomized():
    rand = random.Random(11)
    for _ in range(15):
        sub = random_ideal(RQ, rand, max_gens=3, max_deg=2)
        gb = sub.groebner()
        for _ in range(3):
            probe = random_ideal(RQ, rand, max_gens=1).generators[0]
            assert member(probe, sub) == vec_is_zero(normal_form(probe, gb))


def test_syzygy_annihilation_randomized():
    rand = random.Random(13)
    for _ in range(10):
        rows = 2
        cols = rand.randint(1, 3)
        mat = [[random_ideal(RQ, rand, max_gens=1, max_deg=2).generators[0][0]
                for _ in range(cols)] for _ in range(rows)]
        syz = syzygies(mat, RQ)
        zero_sub = Submodule(RQ, rows, [])
        for g in syz.generators:
            image = tuple(sum((mat[i][j] * g[j] for j in range(cols)),
                              RQ.zero()) for i in range(rows))
            assert member(image, zero_sub)


def test_submodule_equal_is_equivalence():
    rand = random.Random(17)
    subs = [random_ideal(R2, rand, max_gens=2, max_deg=2) for _ in range(6)]
    for a in subs:
        assert submodule_equal(a, a)
    for a in subs:
        for b in subs:
            assert submodule_equal(a, b) == submodule_equal(b, a)
            scrambled = Submodule(R2, 1, list(reversed(b.generators)))
            if submodule_equal(a, b):
                assert submodule_equal(a, scrambled)


def test_determinism():
    sub1 = ideal(RQ, "x1-x2+y1", "x1*x2-y2", "y1*y2")
    sub2 = ideal(RQ, "x1-x2+y1", "x1*x2-y2", "y1*y2")
    b1 = [[str(p) for p in v] for v in buchberger(sub1).vectors]
    b2 = [[str(p) for p in v] for v in buchberger(sub2).vectors]
    assert b1 == b2


def random_poly(rng, rand):
    """Nonzero polynomial of one or two terms of degree 1..2, no constant."""
    p = rng.zero()
    while p.is_zero():
        for _ in range(rand.randint(1, 2)):
            exps = [0] * rng.nvars
            for _ in range(rand.randint(1, 2)):
                exps[rand.randrange(rng.nvars)] += 1
            p = p + rng.const(rand.randint(-3, 3)).shift(tuple(exps))
    return p


def random_module(rng, rand, rank, max_gens=4):
    gens = []
    for _ in range(rand.randint(2, max_gens)):
        gens.append(tuple(random_poly(rng, rand) if rand.random() < 0.6 else rng.zero()
                          for _ in range(rank)))
    return Submodule(rng, rank, gens)


def assert_reduced(gb: GroebnerBasis):
    """Monic, and no tail term divisible by a leading term of its component."""
    from diagres._terms import tup_sub
    eng = gb._engine
    lts = [eng.lead(d) for d in gb._dicts]
    for d, lt in zip(gb._dicts, lts):
        assert d[lt] == eng.field.one
        for t in d:
            for other in lts:
                if t == lt and other == lt:
                    continue
                assert not (t[0] == other[0]
                            and tup_sub(t[1:], other[1:]) is not None), (t, other)


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_basis_is_reduced_randomized(spec):
    from diagres.scalars import field_from_spec
    fld = field_from_spec(spec)
    rand = random.Random(29)
    rings = [ring(["x", "y", "z"], field=fld),
             ring(["x1", "y1", "x2", "y2"], field=fld, relations=["x1*y1", "x2*y2"])]
    for rng in rings:
        for _ in range(6):
            assert_reduced(buchberger(random_module(rng, rand, rank=1)))
        for _ in range(4):
            assert_reduced(buchberger(random_module(rng, rand, rank=2)))
