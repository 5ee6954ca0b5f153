"""Gröbner engine: bases, normal forms, membership, syzygies.

Hand-derivable expected values are frozen; ideal-level results are also
cross-checked against sympy's groebner (an independent implementation).
Property tests enforce the S-polynomial criterion on computed bases, the
equivalence of the two membership routes, and exact annihilation of syzygy
generators.
"""

import math
import random
from fractions import Fraction
from operator import add, mul

import pytest

from diagres._terms import FIELD_MAX, InputDataError
from diagres.groebner import (GroebnerBasis, ImageSolver, Submodule, buchberger,
                              col_to_dict, dict_to_col, member, normal_form, syzygies)
from diagres.matrices import mat_cols
from diagres.polyring import MonomialOrder, ring
from diagres.scalars import PrimeField
from helpers import exponent_terms, leading

RLEX = ring(["x", "y"], order=MonomialOrder("lex"))
R2 = ring(["x1", "x2"])
RQ = ring(["x1", "y1", "x2", "y2"], relations=["x1*y1", "x2*y2"])


def ideal(rng, *gens):
    return Submodule(rng, 1, [(rng.parse(g),) for g in gens])


def basis_strs(gb):
    return [tuple(str(p) for p in v) for v in gb.vectors]


def vec_is_zero(vec):
    return all(p.is_zero() for p in vec)


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


@pytest.mark.parametrize("kind, priority", [("grevlex", None), ("grevlex", (2, 0, 1)),
                                             ("lex", (1, 2, 0))])
def test_reduced_ideal_bases_match_sympy_randomized(kind, priority):
    """Reduced bases of random ideals equal sympy's, whose generators are
    listed most significant first."""
    sympy = pytest.importorskip("sympy")
    rng = ring(["x", "y", "z"], order=MonomialOrder(kind, priority=priority))
    prio = priority or (0, 1, 2)
    gens = sympy.symbols(" ".join(rng.names[i] for i in prio))
    rand = random.Random(37)
    for _ in range(12):
        sub = Submodule(rng, 1, [(random_poly(rng, rand) + random_poly(rng, rand),)
                                 for _ in range(rand.randint(2, 3))])
        exprs = [sympy.sympify(str(g[0]).replace("^", "**")) for g in sub.generators]
        theirs = set()
        for e in sympy.groebner(exprs, *gens, order=kind, domain="QQ").exprs:
            terms = {}
            for monom, c in sympy.Poly(e, *gens).terms():
                exps = [0] * 3
                for i, k in zip(prio, monom):
                    exps[i] = k
                terms[tuple(exps)] = Fraction(int(c.p), int(c.q))
            p = rng.from_exponent_terms(terms)
            theirs.add(rng.const(rng.field.inv(leading(p)[1])) * p)
        assert {v[0] for v in buchberger(sub).vectors} == theirs


def test_monic_basis_over_q_keeps_integral_coefficients_ints():
    """The basis is made monic where it leaves the engine: leading
    coefficients 2 and 3 are divided out there, and 4/2 comes out as the int
    2, not an integral Fraction.  Inside, the engine holds the basis as
    primitive integer vectors."""
    from diagres.scalars import _integral
    rng = ring(["x", "y", "z"])
    gb = buchberger(ideal(rng, "2*x^2 + 4*y*z - 6", "3*x*y - 9*z^2 + 3", "2*y^2 - 4*x"))
    coeffs = [c for v in gb.vectors for p in v for c in p.terms.values()]
    assert any(isinstance(c, Fraction) for c in coeffs)
    assert all(type(_integral(c)) is type(c) for c in coeffs)
    assert [d[max(d)] for d in gb._dicts] == [9, 3, 3, 1, 1, 1]
    for d in gb._dicts:
        assert all(type(c) is int for c in d.values()) and math.gcd(*d.values()) == 1


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


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    if a.rank != b.rank or a.ring != b.ring:
        raise ValueError("submodules of different ambient modules")
    return (all(member(g, b) for g in a.generators)
            and all(member(g, a) for g in b.generators))


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


# The helpers below read a basis through its public vectors, as plain term
# dicts {(component,) + exponents: coefficient}, and order terms with the
# ring's MonomialOrder key, independently of the engine's own term encoding.


def tup_sub(a: tuple, b: tuple):
    """a - b slot by slot, or None if b does not divide a."""
    out = tuple(x - y for x, y in zip(a, b))
    return None if min(out, default=0) < 0 else out


def tup_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def plain_dict(vec) -> dict:
    return {(comp,) + e: c for comp, p in enumerate(vec)
            for e, c in exponent_terms(p).items()}


def plain_vec(d: dict, rng, rank: int) -> tuple:
    polys = [{} for _ in range(rank)]
    for t, c in d.items():
        polys[t[0]][t[1:]] = c
    return tuple(rng.from_exponent_terms(p) for p in polys)


def ring_key(rng):
    """The ring's monomial order as a sort key on exponent tuples, written
    from its definition: lex compares exponents in priority order; grevlex
    compares total degree, then prefers the smaller last exponent."""
    prio = rng.order.priority or tuple(range(rng.nvars))
    if rng.order.kind == "lex":
        return lambda e: tuple(e[i] for i in prio)
    return lambda e: (sum(e),) + tuple(-e[i] for i in reversed(prio))


def plain_order(rng):
    """Sort key of plain terms: lowest component first, then the ring order."""
    key = ring_key(rng)
    return lambda t: (-t[0], key(t[1:]))


def plain_lead(d: dict, rng) -> tuple:
    return max(d, key=plain_order(rng))


def plain_axpy(dst: dict, c, m: tuple, src: dict, fld) -> None:
    """dst += c * x^m * src on plain terms, where m's slot 0 (the component) is 0."""
    for k, v in src.items():
        kk = tuple(map(add, k, m))
        w = fld.add(dst.get(kk, fld.zero), fld.mul(c, v))
        if fld.is_zero(w):
            dst.pop(kk, None)
        else:
            dst[kk] = w


def plain_spoly(d1: dict, d2: dict, l1: tuple, l2: tuple, fld) -> dict:
    """S-vector of two monic plain dicts with leading terms l1, l2 (same component)."""
    lcm = tup_lcm(l1[1:], l2[1:])
    s: dict = {}
    plain_axpy(s, fld.one, (0,) + tup_sub(lcm, l1[1:]), d1, fld)
    plain_axpy(s, fld.neg(fld.one), (0,) + tup_sub(lcm, l2[1:]), d2, fld)
    return s


def spoly_reduces_to_zero(gb: GroebnerBasis) -> bool:
    rng, rank = gb.ring, gb.m
    dicts = [plain_dict(v) for v in gb.vectors]
    leads = [plain_lead(d, rng) for d in dicts]
    for i in range(len(dicts)):
        for j in range(i + 1, len(dicts)):
            if leads[i][0] != leads[j][0]:
                continue
            s = plain_spoly(dicts[i], dicts[j], leads[i], leads[j], rng.field)
            if s and not vec_is_zero(normal_form(plain_vec(s, rng, rank), gb)):
                return False
    return True


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
    rng = gb.ring
    dicts = [plain_dict(v) for v in gb.vectors]
    lts = [plain_lead(d, rng) for d in dicts]
    for d, lt in zip(dicts, lts):
        assert d[lt] == rng.field.one
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


# ---------------------------------------------------------------------------
# pair criteria and sugar selection against a criteria-free reference


def plain_nf(d: dict, basis: list, leads: list, rng) -> dict:
    """Normal form of a plain dict against monic plain dicts with the given
    leading terms: a linear scan for the first divisor, field arithmetic."""
    fld = rng.field
    work, out = dict(d), {}
    while work:
        t = plain_lead(work, rng)
        for g, lg in zip(basis, leads):
            m = tup_sub(t[1:], lg[1:]) if lg[0] == t[0] else None
            if m is not None:
                plain_axpy(work, fld.neg(work[t]), (0,) + m, g, fld)
                break
        else:
            out[t] = work.pop(t)
    return out


def reference_buchberger(gens: list, rng) -> list:
    """Buchberger with no criteria on plain term dicts: every pair within a
    component is reduced, first in first out, by plain_nf.  Returns the
    reduced monic basis sorted by descending leading term, like
    GroebnerBasis.vectors."""
    from collections import deque

    fld = rng.field

    def monic(d):
        inv = fld.inv(d[plain_lead(d, rng)])
        return {t: fld.mul(c, inv) for t, c in d.items()}

    def nf(d, basis, leads):
        return plain_nf(d, basis, leads, rng)

    basis = [monic(d) for d in gens if d]
    leads = [plain_lead(d, rng) for d in basis]
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j)
                  if leads[i][0] == leads[j][0])
    while pairs:
        i, j = pairs.popleft()
        r = nf(plain_spoly(basis[i], basis[j], leads[i], leads[j], fld), basis, leads)
        if r:
            basis.append(monic(r))
            leads.append(plain_lead(basis[-1], rng))
            k = len(basis) - 1
            pairs.extend((i, k) for i in range(k) if leads[i][0] == leads[k][0])

    def redundant(k):  # a proper divisor of its leading term, or an earlier equal one
        lt = leads[k]
        return any(other[0] == lt[0] and tup_sub(lt[1:], other[1:]) is not None
                   and (other != lt or m < k) for m, other in enumerate(leads) if m != k)

    keep = [k for k in range(len(basis)) if not redundant(k)]
    minimal, min_leads = [basis[k] for k in keep], [leads[k] for k in keep]
    reduced = []
    for d, lt in zip(minimal, min_leads):
        r = nf({t: c for t, c in d.items() if t != lt}, minimal, min_leads)
        r[lt] = fld.one
        reduced.append(r)
    reduced.sort(key=lambda d: plain_order(rng)(plain_lead(d, rng)), reverse=True)
    return reduced


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_criteria_and_sugar_match_criteria_free_reference(spec, kind):
    from diagres.scalars import field_from_spec
    fld, order = field_from_spec(spec), MonomialOrder(kind)
    rand = random.Random(31)
    rings = [ring(["x", "y", "z"], field=fld, order=order),
             ring(["x1", "y1", "x2", "y2"], field=fld, order=order,
                  relations=["x1*y1", "x2*y2"]),
             ring(["x", "y", "z"], field=fld, order=MonomialOrder(kind, priority=(2, 0, 1)))]
    for rng in rings:
        for rank in (1, 2, 3):
            for _ in range(8):
                sub = random_module(rng, rand, rank)
                gb = buchberger(sub)
                gens = [plain_dict(g) for g in sub.generators] + [
                    {(i,) + m: c for m, c in exponent_terms(rel).items()}
                    for rel in rng.relations for i in range(rank)]
                assert [plain_dict(v) for v in gb.vectors] == reference_buchberger(gens, rng)



def widen(vec, scale):
    """vec with every x_v^e replaced by x_v^(e * scale[v])."""
    return tuple(p.ring.from_exponent_terms({tuple(map(mul, e, scale)): c
                                             for e, c in exponent_terms(p).items()})
                 for p in vec)


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
@pytest.mark.parametrize("kind, priority", [("lex", (1, 2, 0)), ("grevlex", (2, 0, 1))])
def test_modules_with_wide_exponents_match_criteria_free_reference(spec, kind, priority):
    """Rank 2-3 modules whose exponents reach 2^17, so the engine's packed
    fields carry values across byte and word boundaries, give the
    reference's basis."""
    from diagres.scalars import field_from_spec
    rng = ring(["x", "y", "z"], field=field_from_spec(spec),
               order=MonomialOrder(kind, priority=priority))
    rand = random.Random(43)
    for rank in (2, 3):
        for _ in range(6):
            scale = tuple(rand.choice((1, 255, 256, 4097, 65535)) for _ in range(3))
            sub = random_module(rng, rand, rank, max_gens=3)
            sub = Submodule(rng, rank, [widen(g, scale) for g in sub.generators])
            assert ([plain_dict(v) for v in buchberger(sub).vectors]
                    == reference_buchberger([plain_dict(g) for g in sub.generators], rng))


def test_terms_past_the_packed_field_are_input_errors():
    """The reduced lex basis of (x - y^32768, x^32768) holds y^(2^30), past
    the degree 2^23 - 1 a packed term holds: the engine raises, it never
    wraps.  So does an S-vector whose multiple of a tail is past it, here
    x^(k-1) * y^k * e_1 from ((x, y^k), (x^k, 0)), built through the API
    (the grammar caps exponents far lower)."""
    rng = ring(["x", "y"], order=MonomialOrder("lex"))
    with pytest.raises(InputDataError, match="above the largest degree"):
        buchberger(ideal(rng, "x - y^32768", "x^32768"))
    rng = ring(["x", "y"])
    k = FIELD_MAX - 9
    x, yk, xk = rng.var("x"), rng.one().shift((0, k)), rng.one().shift((k, 0))
    with pytest.raises(InputDataError, match="above the largest degree"):
        buchberger(Submodule(rng, 2, [(x, yk), (xk, rng.zero())]))


LEX_RANK2_BASIS = [
    ("x + 12801*z^2 + 19201*z + 30403",
     "11201*x^2*y + 11201*x*y + 21202*y^9*z^5 + 9701*y^8*z^4 + 22002*y^7*z^5 + "
     "31603*y^7*z^4 + 18602*y^7*z^3 + 4900*y^6*z^4 + 29803*y^6*z^3 + 7201*y^6*z^2 + "
     "2667*y^5*z^5 + 22802*y^5*z^4 + 3599*y^5*z^3 + 7201*y^5*z^2 + 30403*y^5*z + "
     "18135*y^4*z^5 + 29670*y^4*z^4 + 21201*y^4*z^3 + 19200*y^4*z^2 + 30403*y^4*z + "
     "20535*y^3*z^4 + 23737*y^3*z^3 + 19200*y^3*z^2 + 9600*y^3*z + 28536*y^2*z^4 + "
     "18668*y^2*z^3 + 15470*y^2*z^2 + 9600*y^2*z + 6934*y*z^4 + 24269*y*z^3 + "
     "5867*y*z^2 + 4268*y*z"),
    ("y + 25602*z^2 + 6399*z + 28803",
     "21335*x^2*y^2 + 22402*x^2*y + 21335*x*y^2 + 22402*x*y + 7334*y^10*z^5 + "
     "3067*y^9*z^5 + 5167*y^9*z^4 + 20002*y^8*z^5 + 4234*y^8*z^4 + 22335*y^8*z^3 + "
     "24002*y^7*z^5 + 6535*y^7*z^4 + 7868*y^7*z^3 + 30669*y^7*z^2 + 20446*y^6*z^5 + "
     "5799*y^6*z^4 + 27606*y^6*z^3 + 14402*y^6*z^2 + 24002*y^6*z + 16891*y^5*z^5 + "
     "10042*y^5*z^4 + 17865*y^5*z^3 + 17073*y^5*z^2 + 28803*y^5*z + 4267*y^4*z^5 + "
     "16227*y^4*z^4 + 8610*y^4*z^3 + 6397*y^4*z^2 + 28805*y^4*z + 19290*y^3*z^4 + "
     "27920*y^3*z^3 + 24158*y^3*z^2 + 19200*y^3*z + 3289*y^2*z^4 + 28446*y^2*z^3 + "
     "27385*y^2*z^2 + 26300*y^2*z + 13868*y*z^4 + 19202*y*z^3 + 17068*y*z^2 + "
     "29870*y*z"),
    ("z^3 + 5*z^2 + 24003*z + 3",
     "32002*x^2*y + 32002*x*y + 22002*y^9*z^5 + 9001*y^8*z^5 + 15501*y^8*z^4 + "
     "29003*y^7*z^5 + 11252*y^7*z^4 + 2999*y^7*z^3 + 16001*y^6*z^5 + 26255*y^6*z^4 + "
     "19504*y^6*z^3 + 28001*y^6*z^2 + 25335*y^5*z^5 + 22499*y^5*z^4 + 4009*y^5*z^3 + "
     "6003*y^5*z^2 + 8000*y^5*z + 26670*y^4*z^5 + 23829*y^4*z^4 + 26996*y^4*z^3 + "
     "8013*y^4*z^2 + 20003*y^4*z + 10673*y^3*z^4 + 22642*y^3*z^3 + 31996*y^3*z^2 + "
     "6*y^3*z + 8667*y^2*z^4 + 7345*y^2*z^3 + 5285*y^2*z^2 + 7997*y^2*z + "
     "18668*y*z^4 + 27335*y*z^3 + 1344*y*z^2 + 21303*y*z + 4*z"),
    ("0",
     "x^3*y + x^2*y + 21002*y^10*z^5 + 11001*y^9*z^5 + 8251*y^9*z^4 + 2000*y^8*z^5 + "
     "22752*y^8*z^4 + 14502*y^8*z^3 + 30003*y^7*z^5 + 4999*y^7*z^4 + 12001*y^7*z^3 + "
     "2001*y^7*z^2 + 28003*y^6*z^5 + 22003*y^6*z^4 + 15997*y^6*z^3 + 28003*y^6*z + "
     "4000*y^5*z^5 + 20005*y^5*z^4 + y^5*z^3 + 11995*y^5*z^2 + 1998*y^4*z^4 + "
     "24013*y^4*z^3 + 32000*y^4*z + 30003*y^3*z^4 + 32000*y^3*z^3 + 16018*y^3*z^2 + "
     "30003*y^2*z^4 + 8001*y^2*z^3 + 9*y^2*z + 12001*y*z^3 + 24002*y*z^2"),
    ("0",
     "x*z + 24002*y^6*z^5 + 8001*y^5*z^5 + 30001*y^5*z^4 + 10002*y^4*z^4 + "
     "11996*y^4*z^3 + 12001*y^3*z^4 + y^3*z^3 + 15995*y^3*z^2 + 12001*y^2*z^4 + "
     "32000*y^2*z + 8001*y*z^3 + 16001*z^2"),
    ("0",
     "y^5*z^6 + 32002*y^4*z^6 + 8010*y^4*z^5 + 23996*y^3*z^5 + 35*y^3*z^4 + "
     "16002*y^2*z^5 + 15989*y^2*z^4 + 67*y^2*z^3 + 16002*y*z^5 + y*z^4 + "
     "31995*y*z^3 + 64*y*z^2 + 24*z"),
]


def test_lex_rank2_module_is_fast_and_unchanged():
    """Under lex, selecting pairs by lcm degree lets the criteria detour for
    minutes on this module; sugar selection does not."""
    import time

    from diagres.scalars import PrimeField
    rng = ring(["x", "y", "z"], field=PrimeField(32003), order=MonomialOrder("lex"))
    p = rng.parse
    gens = [(p("-2*x^2*z + x*y*z"), p("-2*z")), (p("x*y*z + 2*x - z"), rng.zero()),
            (p("-3 + 2*x*y*z - 2*y*z"), p("x^2*y + x*y"))]
    t0 = time.perf_counter()
    gb = buchberger(Submodule(rng, 2, gens))
    assert time.perf_counter() - t0 < 2.0
    assert basis_strs(gb) == LEX_RANK2_BASIS


def test_chain_criterion_skips_staircase_pairs(monkeypatch):
    """x^3, x^2*y, x*y^2, y^3: only the three adjacent pairs are reduced (the
    other three are chained through a middle generator; before the criteria
    five were).  Each of the four basis elements adds one tail reduction."""
    from diagres import groebner
    calls = []
    nf = groebner._Engine.nf
    monkeypatch.setattr(groebner._Engine, "nf",
                        lambda self, *a, **k: calls.append(1) or nf(self, *a, **k))
    gb = buchberger(ideal(RLEX, "x^3", "x^2*y", "x*y^2", "y^3"))
    assert basis_strs(gb) == [("x^3",), ("x^2*y",), ("x*y^2",), ("y^3",)]
    assert len(calls) - len(gb._dicts) == 3


# ---------------------------------------------------------------------------
# fraction-free arithmetic over Q: true fractions and wide integers in, the
# same bases and true (unscaled) answers out

FRACTIONS = (Fraction(1, 3), Fraction(-5, 7), 2 ** 64 + 13, -(2 ** 70) - 1, Fraction(2 ** 65, 3))


def random_q_poly(rng, rand):
    """random_poly with some coefficients replaced by FRACTIONS (over F_p by
    their images, which are nonzero for these)."""
    p = random_poly(rng, rand)
    fld = rng.field
    return rng.from_exponent_terms({
        e: fld.from_fraction(*Fraction(c).as_integer_ratio())
        for e, c in ((e, rand.choice(FRACTIONS) if rand.random() < 0.5 else c)
                     for e, c in exponent_terms(p).items())})


def random_q_module(rng, rand, rank, max_gens=4):
    return Submodule(rng, rank, [
        tuple(random_q_poly(rng, rand) if rand.random() < 0.6 else rng.zero()
              for _ in range(rank))
        for _ in range(rand.randint(2, max_gens))])


Q_RINGS = [ring(["x", "y", "z"]),
           ring(["x", "y", "z"], order=MonomialOrder("lex", priority=(2, 0, 1))),
           ring(["x1", "y1", "x2", "y2"], relations=["x1*y1", "3*x2*y2 - 1/2*x1"])]
FP_RINGS = [ring(rng.names, field=PrimeField(32003), order=rng.order,
                 relations=[str(r) for r in rng.relations]) for rng in Q_RINGS]


def test_fractional_and_wide_q_modules_match_criteria_free_reference():
    rand = random.Random(47)
    for rng in Q_RINGS:
        for rank in (1, 2, 3):
            for _ in range(5):
                sub = random_q_module(rng, rand, rank, max_gens=3)
                gens = [plain_dict(g) for g in sub.generators] + [
                    {(i,) + m: c for m, c in exponent_terms(rel).items()}
                    for rel in rng.relations for i in range(rank)]
                gb = buchberger(sub)
                assert [plain_dict(v) for v in gb.vectors] == reference_buchberger(gens, rng)
                assert_reduced(gb)


def test_normal_form_and_solve_give_true_unscaled_answers():
    """normal_form(v) is the reference remainder, and v minus it is in the
    submodule; a solve coefficient vector q has M*q - v in J*R^m, and every
    v built as M*q0 is solved.  Over Q and over F_32003, which share one
    reduce path; the dense answers (vectors, normal_form) are the sparse
    ones (columns, the reduction of v's nonzero entries) padded with zeros."""
    rand = random.Random(53)
    solved = 0
    for rng in Q_RINGS + FP_RINGS:
        for rank in (1, 2, 3):
            for _ in range(4):
                sub = random_q_module(rng, rand, rank, max_gens=3)
                gb = buchberger(sub)
                zero = rng.zero()
                assert gb.vectors == [tuple(col.get(i, zero) for i in range(rank))
                                      for col in gb.columns()]
                basis = [plain_dict(v) for v in gb.vectors]
                leads = [plain_lead(d, rng) for d in basis]
                for _ in range(3):
                    v = tuple(random_q_poly(rng, rand) for _ in range(rank))
                    r = normal_form(v, gb)
                    assert plain_dict(r) == plain_nf(plain_dict(v), basis, leads, rng)
                    for w in (v, v[:1] + (zero,) * (rank - 1)):
                        sparse = {i: p for i, p in enumerate(w) if p.terms}
                        col = dict_to_col(gb._reduce(col_to_dict(sparse.items(), rng)), rng)
                        assert normal_form(w, gb) == tuple(col.get(i, zero) for i in range(rank))
                    assert member(tuple(a - b for a, b in zip(v, r)), sub)
                gens = sub.generators
                mat = [[g[i] for g in gens] for i in range(rank)]
                solver = ImageSolver(mat, rng)
                relations = Submodule(rng, rank, [])
                for _ in range(4):
                    q0 = [random_q_poly(rng, rand) if rand.random() < 0.7 else rng.zero()
                          for _ in gens]
                    v = [sum((mat[i][j] * q0[j] for j in range(len(gens))), rng.zero())
                         for i in range(rank)]
                    perturbed = rand.random() < 0.3
                    if perturbed:
                        v[rand.randrange(rank)] += random_q_poly(rng, rand)
                    q = solver.solve({i: p for i, p in enumerate(v) if not p.is_zero()})
                    if q is None:
                        assert perturbed and not member(tuple(v), Submodule(rng, rank, list(gens)))
                        continue
                    solved += 1
                    image = tuple(sum((mat[i][j] * q.get(j, rng.zero())
                                       for j in range(len(gens))), rng.zero()) - v[i]
                                  for i in range(rank))
                    assert member(image, relations)
    assert solved > 100


def test_kernel_columns_are_monic_syzygies():
    rand = random.Random(59)
    checked = 0
    for rng in Q_RINGS:
        for rank in (1, 2):
            for _ in range(4):
                gens = random_q_module(rng, rand, rank, max_gens=4).generators
                mat = [[g[i] for g in gens] for i in range(rank)]
                relations = Submodule(rng, rank, [])
                for col in mat_cols(ImageSolver(mat, rng).kernel()):
                    assert leading(col[min(col)])[1] == 1  # position over term
                    image = tuple(sum((mat[i][j] * p for j, p in col.items()), rng.zero())
                                  for i in range(rank))
                    assert member(image, relations)
                    checked += 1
    assert checked > 20


def test_engine_makes_no_fraction_arithmetic(monkeypatch):
    """Over Q the engine works on integer vectors: inside _buchberger_dicts
    and _Engine.nf no Fraction is added, subtracted, multiplied or divided.
    Fractions are cleared where vectors enter and built where they leave."""
    from diagres import groebner
    rand = random.Random(61)
    rng = Q_RINGS[2]
    forbidden = {}

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the engine")

    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            forbidden[name] = getattr(Fraction, name)

    def guarded(f):
        def run(*args, **kwargs):
            for name in forbidden:
                setattr(Fraction, name, refuse)
            try:
                return f(*args, **kwargs)
            finally:
                for name, op in forbidden.items():
                    setattr(Fraction, name, op)
        return run

    monkeypatch.setattr(groebner, "_buchberger_dicts", guarded(groebner._buchberger_dicts))
    monkeypatch.setattr(groebner._Engine, "nf", guarded(groebner._Engine.nf))
    for _ in range(4):
        sub = random_q_module(rng, rand, 2, max_gens=3)
        probe = tuple(random_q_poly(rng, rand) for _ in range(2))
        gb = buchberger(sub)
        assert any(isinstance(c, Fraction) for v in gb.vectors for p in v
                   for c in p.terms.values())
        normal_form(probe, gb), member(probe, sub)
        solver = ImageSolver([[g[i] for g in sub.generators] for i in range(2)], rng)
        solver.kernel(), solver.solve({0: probe[0], 1: probe[1]})


def test_q_and_fp_take_the_same_path(monkeypatch):
    """The same integer modules over Q and over F_32003 insert the same
    vectors, up to a scalar, in the same order, with the same nf calls: over
    Q each S-vector and remainder is a fixed multiple of the monic one, so
    it cancels the same terms (for these modules no coefficient vanishes
    mod p)."""
    from diagres import groebner
    from diagres.scalars import QQ, PrimeField
    p = 32003
    trail = []
    entry, nf = groebner._Engine.entry, groebner._Engine.nf

    def monic_mod_p(d):
        inv = pow(d[max(d)], -1, p)
        return {t: v * inv % p for t, v in d.items() if v % p}

    monkeypatch.setattr(groebner._Engine, "entry",
                        lambda self, d, top: trail.append(monic_mod_p(d)) or entry(self, d, top))
    monkeypatch.setattr(groebner._Engine, "nf",
                        lambda self, *a, **k: trail.append("nf") or nf(self, *a, **k))
    paths = {}
    for fld in (QQ, PrimeField(p)):
        rand = random.Random(67)
        rings = [ring(["x", "y", "z"], field=fld),
                 ring(["x", "y", "z"], field=fld, order=MonomialOrder("lex")),
                 ring(["x1", "y1", "x2", "y2"], field=fld, relations=["x1*y1", "x2*y2"])]
        paths[fld.kind] = []
        for rng in rings:
            for rank in (1, 2, 3):
                for _ in range(8):
                    trail.clear()
                    buchberger(random_module(rng, rand, rank))
                    paths[fld.kind].append(list(trail))
    assert paths["rationals"] == paths["prime_field"]
    assert sum(map(len, paths["rationals"])) > 800
