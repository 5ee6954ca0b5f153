"""Polynomials, monomial orders, the text grammar, and ring maps (tests' helpers)."""

import sys
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from diagres._terms import FIELD_MAX, InputDataError
from diagres.polyring import (MAX_EXPONENT, MonomialOrder, ParseError, Polynomial,
                              RingMismatchError, parse_poly, poly_str, ring)
from diagres.scalars import QQ, PrimeField
from helpers import RingMap, exponent_terms, leading

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


def monomial_cmp(m1, m2, order):
    """-1, 0 or 1 comparing m1 against m2, from the textbook definitions,
    with exponents read in priority order: lex compares the first differing
    exponent; grevlex compares degrees, then the last differing exponent,
    where the smaller one wins."""
    prio = order.priority if order.priority is not None else range(len(m1))
    e1, e2 = [m1[i] for i in prio], [m2[i] for i in prio]
    if order.kind == "grevlex" and sum(e1) != sum(e2):
        return 1 if sum(e1) > sum(e2) else -1
    differ = [i for i in range(len(e1)) if e1[i] != e2[i]]
    if not differ:
        return 0
    if order.kind == "lex":
        return 1 if e1[differ[0]] > e2[differ[0]] else -1
    return 1 if e1[differ[-1]] < e2[differ[-1]] else -1


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
# small exponents, and large ones whose sums still fit a field (4 * 2 * FIELD_MAX // 8)
exponent = st.one_of(st.integers(0, 3), st.integers(0, FIELD_MAX // 8))
mono4 = st.tuples(*[exponent] * 4)
component = st.integers(0, 5)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CODEC_ORDERS), component, component, mono4, mono4)
def test_order_key_is_an_additive_codec(order, ca, cb, a, b):
    """The Gröbner engine stores a module term as one packed int: decode
    inverts encode, a product is an int addition, int order is the module
    order, and the SWAR divisibility test, lcm and degree are exact."""
    pk = ring(["a", "b", "c", "d"], order=order).packing
    one = (0,) * 4
    ta, tb = pk.encode(ca, a), pk.encode(cb, b)
    assert pk.decode(ta) == (ca, a)
    assert pk.degree(ta) == sum(a)
    # x^a * (c, b) is (c, b) plus the multiplier x^a, whatever the component
    assert pk.encode(cb, tuple(map(add, a, b))) == tb + pk.encode(0, a) - pk.encode(0, one)
    assert pk.multiplier(a) == pk.encode(0, a) - pk.encode(0, one)
    expected = (cb > ca) - (cb < ca) or monomial_cmp(a, b, order)
    assert (ta > tb) - (ta < tb) == expected
    ua = pk.encode(cb, a)  # a in b's component
    q = tuple(map(sub, a, b))
    assert pk.divides(tb, ua) == (min(q) >= 0)
    if min(q) >= 0:
        assert ua - tb == pk.encode(0, q) - pk.encode(0, one)
    lcm = tuple(map(max, a, b))
    assert pk.lcm(ua, tb) == (sum(lcm), pk.encode(cb, lcm))


def test_packed_terms_reject_a_degree_past_the_field():
    pk = ring(["x", "y"], order=MonomialOrder("lex")).packing
    assert pk.decode(pk.encode(0, (FIELD_MAX, 0))) == (0, (FIELD_MAX, 0))
    with pytest.raises(InputDataError):
        pk.encode(0, (FIELD_MAX, 1))
    with pytest.raises(InputDataError):
        pk.lcm(pk.encode(0, (FIELD_MAX, 0)), pk.encode(0, (0, 1)))


def test_exponent_bound_in_the_grammar():
    assert exponent_terms(R2.parse(f"x^{MAX_EXPONENT}*y")) == {(MAX_EXPONENT, 1): 1}
    for text in (f"x^{MAX_EXPONENT + 1}", f"x^{MAX_EXPONENT}*x", "y*x^99999999999999999999"):
        with pytest.raises(ParseError, match="above the maximum"):
            R2.parse(text)


def test_integer_literal_past_the_int_digit_limit_is_a_parse_error():
    """int() of a digit string longer than the interpreter's limit raises a
    bare ValueError; the grammar rejects a literal with more significant
    digits first, numerator or denominator, at its position.  Leading zeros
    do not count, in an exponent either."""
    limit = sys.get_int_max_str_digits()
    long = "9" * (limit + 1)
    assert exponent_terms(R2.parse("9" * limit + "*x")) == {(1, 0): int("9" * limit)}
    assert (exponent_terms(R2.parse("0" * limit + "7/0" + "0" * limit + "2"))
            == {(0, 0): Fraction(7, 2)})
    assert exponent_terms(R2.parse("x^" + "0" * limit + "3")) == {(3, 0): 1}
    for text, pos in ((long + "*x", 0), ("x + 1/" + long, 6), ("x - " + long + "/7", 4)):
        with pytest.raises(ParseError, match=f"{limit + 1} digits") as err:
            R2.parse(text)
        assert err.value.pos == pos


# Text over the grammar's alphabet: digit runs (some past the int-digit
# limit), known and unknown names, the operators and spaces.
GRAMMAR_TOKENS = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.integers(4000, 6000).map(lambda n: "9" * n),
    st.sampled_from(["x", "y", "z", "x_1"]),
    st.sampled_from(list("+-*/^")),
    st.just(" "),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(GRAMMAR_TOKENS, max_size=12).map("".join))
@example("9" * 5000 + "*x")
@example("x^" + "0" * 5000 + "1")
def test_parse_gives_a_polynomial_or_a_parse_error(text):
    try:
        p = R2.parse(text)
    except ParseError:
        return
    assert isinstance(p, Polynomial)


def _random_poly(rng, data):
    terms = data.draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * rng.nvars),
                  st.one_of(st.integers(-9, 9), st.fractions())),
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


# ---------------------------------------------------------------------------
# the packed term layer against a plain exponent-tuple reference

TERM_RINGS = [ring(["x", "y", "z"], field=fld, order=MonomialOrder(kind, priority=prio))
              for fld in (QQ, PrimeField(32003)) for kind in ("lex", "grevlex")
              for prio in (None, (2, 0, 1))]


def ref_key(rng):
    """The ring's order as a sort key on exponent tuples, from its definition:
    lex compares exponents in priority order; grevlex compares total degree,
    then prefers the smaller exponent in the last differing priority slot."""
    prio = rng.order.priority or tuple(range(rng.nvars))
    if rng.order.kind == "lex":
        return lambda e: tuple(e[i] for i in prio)
    return lambda e: (sum(e),) + tuple(-e[i] for i in reversed(prio))


def ref_add(a: dict, b: dict, fld) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = fld.add(out.get(e, fld.zero), c)
    return {e: c for e, c in out.items() if not fld.is_zero(c)}


def ref_mul(a: dict, b: dict, fld) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out = ref_add(out, {tuple(map(add, ea, eb)): fld.mul(ca, cb)}, fld)
    return out


def ref_pow(a: dict, n: int, fld) -> dict:
    out = {(0,) * 3: fld.one}
    for _ in range(n):
        out = ref_mul(out, a, fld)
    return out


def ref_str(a: dict, rng) -> str:
    """The canonical print: terms in descending order, coefficient 1 left
    out before a monomial, signs between the terms over Q."""
    if not a:
        return "0"
    fld, chunks = rng.field, []
    for e in sorted(a, key=ref_key(rng), reverse=True):
        c = a[e]
        neg = fld == QQ and c < 0
        mag = str(abs(c) if fld == QQ else c)
        mono = "*".join(nm if k == 1 else f"{nm}^{k}"
                        for nm, k in zip(rng.names, e) if k)
        body = mono if mono and mag == "1" else f"{mag}*{mono}" if mono else mag
        chunks.append(("-" if neg else "") + body if not chunks
                      else ("- " if neg else "+ ") + body)
    return " ".join(chunks)


def _ref_poly(data, rng, max_exp=3, max_terms=4) -> dict:
    """A plain {exponents: nonzero field value} dict."""
    fld = rng.field
    raw = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * rng.nvars),
        st.one_of(st.integers(-40000, 40000), st.fractions(max_denominator=7)),
        max_size=max_terms))
    vals = {e: fld.from_fraction(c.numerator, c.denominator) for e, c in
            ((e, Fraction(c)) for e, c in raw.items())}
    return {e: c for e, c in vals.items() if not fld.is_zero(c)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TERM_RINGS), st.data())
def test_packed_terms_match_the_exponent_tuple_reference(rng, data):
    fld = rng.field
    a, b = _ref_poly(data, rng), _ref_poly(data, rng)
    p, q = rng.from_exponent_terms(a), rng.from_exponent_terms(b)
    assert exponent_terms(p) == a
    neg_b = {e: fld.neg(c) for e, c in b.items()}
    assert exponent_terms(p + q) == ref_add(a, b, fld)
    assert exponent_terms(-q) == neg_b
    assert exponent_terms(p - q) == ref_add(a, neg_b, fld)
    assert exponent_terms(p * q) == ref_mul(a, b, fld)
    m = data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    assert exponent_terms(p.shift(m)) == {tuple(map(add, e, m)): c for e, c in a.items()}
    lead = max(a, key=ref_key(rng)) if a else None
    assert leading(p) == (None if lead is None else (lead, a[lead]))
    assert p.is_constant() == (set(a) <= {(0, 0, 0)})
    assert p.constant_value() == a.get((0, 0, 0), fld.zero)
    assert str(p) == ref_str(a, rng)
    assert rng.parse(str(p)) == p
    images = [_ref_poly(data, rng, max_exp=1, max_terms=2) for _ in range(3)]
    want: dict = {}
    for e, c in a.items():
        term = {(0, 0, 0): c}
        for im, k in zip(images, e):
            term = ref_mul(term, ref_pow(im, k, fld), fld)
        want = ref_add(want, term, fld)
    rmap = RingMap(rng, rng, [rng.from_exponent_terms(im) for im in images])
    assert exponent_terms(rmap.apply(p)) == want


def test_constant_monomial_packs_to_zero_under_lex_only():
    for rng in TERM_RINGS:
        assert (rng.one_key == 0) == (rng.order.kind == "lex")
        assert exponent_terms(rng.one()) == {(0, 0, 0): 1}
        assert rng.one().is_constant() and not rng.var("x").is_constant()


def test_a_product_past_the_packed_field_raises_instead_of_wrapping():
    """Every product site checks its degree against FIELD_MAX: products,
    shifts, matrix products, minimize's Schur update and ring maps (built
    from products) raise InputDataError; a product of degree exactly
    FIELD_MAX is exact."""
    from diagres.complexes import ChainComplex, minimize
    from diagres.matrices import Matrix, mat_mul

    half = (FIELD_MAX + 1) // 2
    for order in (MonomialOrder("lex"), MonomialOrder("grevlex", priority=(1, 0))):
        R = ring(["x", "y"], order=order)
        a = R.one().shift((half, 0))
        b = R.one().shift((half - 1, 0))
        assert exponent_terms(a * b) == {(FIELD_MAX, 0): 1}
        assert a.shift((half - 1, 0)) == a * b
        with pytest.raises(InputDataError, match="above the largest degree"):
            a * a
        with pytest.raises(InputDataError):
            a.shift((0, half))
        with pytest.raises(InputDataError):
            mat_mul(Matrix(R, 1, 1, [{0: a}]), Matrix(R, 1, 1, [{0: R.var("y") * a}]))
        with pytest.raises(InputDataError):
            RingMap(R, R, [a, R.var("y")]).apply(R.parse("x^2"))
        one = R.one()
        cx = ChainComplex(R, {0: 2, 1: 2}, {1: [[one, a], [a, R.zero()]]})
        with pytest.raises(InputDataError):
            minimize(cx)
