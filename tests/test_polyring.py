"""Polynomials, monomial orders, the text grammar, ring maps."""

import pytest
from hypothesis import given, settings, strategies as st

from diagres.polyring import (MonomialOrder, ParseError, RingMap,
                              RingMismatchError, monomial_cmp, parse_poly,
                              poly_str, ring)
from diagres.scalars import PrimeField

R4 = ring(["x1", "y1", "x2", "y2"], relations=["x1*y1", "x2*y2"])
R2 = ring(["x", "y"])


def test_parse_examples():
    p = R4.parse("x1*y1 - x2*y2")
    assert len(p.terms) == 2
    q = R4.parse("x1^2 + 2*x1 + 1")
    assert len(q.terms) == 3
    with pytest.raises(ParseError) as err:
        R4.parse("x1 + z9")
    assert "z9" in str(err.value) and "position 5" in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError):
        R2.parse("")
    with pytest.raises(ParseError):
        R2.parse("x + ")
    with pytest.raises(ParseError):
        R2.parse("x^")
    with pytest.raises(ParseError):
        R2.parse("2*")
    with pytest.raises(ParseError):
        R2.parse("1/0")
    with pytest.raises(ParseError):
        R2.parse("x*2")


def test_grammar_forms():
    assert R2.parse("-x + 1/2*y") == R2.parse("1/2 y - x")
    assert R2.parse("3x") == R2.parse("3*x")
    assert R2.parse("x y") == R2.parse("x*y")
    with pytest.raises(ParseError):
        R2.parse("x^2^3")  # a variable takes at most one exponent


def test_mul_examples():
    a, b = R4.parse("x1-x2"), R4.parse("x1+x2")
    assert a * b == R4.parse("x1^2 - x2^2")
    assert (R4.parse("x1")* R4.zero()).is_zero()
    # no reduction by the relations at this layer
    assert R4.var("x1") * R4.var("y1") == R4.parse("x1*y1")


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        R4.parse("x1") + R2.parse("x")


def test_monomial_cmp():
    lex = MonomialOrder("lex")
    grevlex = MonomialOrder("grevlex")
    # lex with x > y: x^2 > xy
    assert monomial_cmp((2, 0), (1, 1), lex) == 1
    # grevlex, equal degree: last differing exponent smaller wins (derived
    # by hand from the definition): x^2 vs xy -> (2,0)-(1,1) = (1,-1)
    assert monomial_cmp((2, 0), (1, 1), grevlex) == 1
    assert monomial_cmp((1, 1), (1, 1), grevlex) == 0
    assert monomial_cmp((0, 3), (2, 0), grevlex) == 1  # degree decides first
    with pytest.raises(ValueError):
        monomial_cmp((1,), (1, 2), lex)


def test_order_priority_permutation():
    yx = ring(["x", "y"], order=MonomialOrder("lex", priority=(1, 0)))
    p = yx.parse("x^2 + y")
    assert str(p) == "y + x^2"  # y dominates under the permuted priority


mono2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(mono2, mono2, mono2)
def test_order_axioms(a, b, c):
    for order in (MonomialOrder("lex"), MonomialOrder("grevlex")):
        cmp_ab = monomial_cmp(a, b, order)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert monomial_cmp(ac, bc, order) == cmp_ab  # multiplicative
        assert monomial_cmp(a, (0, 0), order) >= 0    # 1 is minimal


CODEC_ORDERS = [MonomialOrder(kind, priority=prio) for kind in ("lex", "grevlex")
                for prio in (None, (2, 0, 3, 1))]
mono4 = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CODEC_ORDERS), mono4, mono4)
def test_order_key_is_an_additive_codec(order, a, b):
    """The Gröbner engine stores a monomial as its order key and uses the
    quotient, lcm and degree kernels it picks for the order on those keys."""
    from diagres._terms import tup_add, tup_lcm, tup_sub
    from diagres.groebner import _Engine
    rng = ring(["a", "b", "c", "d"], order=order)
    eng = _Engine(rng, 1)
    ka, kb = rng.key(a), rng.key(b)
    assert rng.decode(ka) == a
    assert rng.key(tup_add(a, b)) == tup_add(ka, kb)
    assert (ka > kb) - (ka < kb) == monomial_cmp(a, b, order)
    assert eng.deg(ka) == sum(a)
    q = tup_sub(a, b)
    assert eng.sub(ka, kb) == (None if q is None else rng.key(q))
    assert eng.sub(rng.key(tup_add(a, b)), kb) == ka
    assert rng.decode(eng.lcm(ka, kb)) == tup_lcm(a, b)


def _random_poly(rng, data):
    terms = data.draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * rng.nvars),
                  st.integers(-9, 9)),
        min_size=0, max_size=6))
    p = rng.zero()
    for exps, c in terms:
        p = p + rng.const(c).shift(exps)
    return p


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    p, q, r = (_random_poly(R4, data) for _ in range(3))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == R4.zero()
    assert p * R4.one() == p


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    p = _random_poly(R4, data)
    s = poly_str(p)
    assert parse_poly(s, R4) == p
    assert poly_str(parse_poly(s, R4)) == s


def test_prime_field_ring_parse():
    f = PrimeField(5)
    rp = ring(["x"], field=f)
    assert rp.parse("7*x") == rp.parse("2*x")
    assert rp.parse("1/2*x") == rp.parse("3*x")  # 2^{-1} = 3 mod 5
    # canonical print over F_p uses residues in [0, p); round trip holds
    p = rp.parse("-x + 2")
    assert str(p) == "4*x + 2"
    assert rp.parse(str(p)) == p


def test_ring_map_apply():
    source = R4
    target = ring(["x1", "x2"])
    m = RingMap(source, target, [target.var("x1"), target.zero(),
                                 target.var("x2"), target.zero()])
    assert m.apply(source.parse("x1 - x2")) == target.parse("x1 - x2")
    assert m.apply(source.parse("x1*y1 + 3")) == target.parse("3")
    with pytest.raises(RingMismatchError):
        m.apply(target.parse("x1"))
