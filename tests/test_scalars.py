"""Field arithmetic: exactness, canonical forms, axioms."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagres._terms import axpy_p, mul_p
from diagres.polyring import ring
from diagres.scalars import CHECK_PRIME, QQ, PrimeField, field_from_spec, field_spec_str

F5 = PrimeField(5)
FBIG = PrimeField(CHECK_PRIME)


def test_rational_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.div(QQ.one, Fraction(4)) == Fraction(1, 4)


def test_prime_field_examples():
    assert F5.mul(3, 4) == 2
    assert F5.add(4, 4) == 3
    with pytest.raises(ZeroDivisionError):
        F5.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1), Fraction(0))


def test_inverse_axiom_small():
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1
    assert QQ.mul(Fraction(-7, 3), QQ.inv(Fraction(-7, 3))) == 1


def test_not_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_large_prime_accepted_quickly():
    import time
    p = 2**64 - 59  # the largest prime below 2^64
    t0 = time.perf_counter()
    f = PrimeField(p)
    assert time.perf_counter() - t0 < 0.1
    assert f.mul(p - 1, p - 2) == 2


def test_pseudoprimes_rejected():
    with pytest.raises(ValueError):
        PrimeField(561)  # Carmichael number 3*11*17
    with pytest.raises(ValueError):
        PrimeField(3825123056546413051)  # strong pseudoprime to bases 2..23


def test_prime_beyond_decided_range_rejected():
    with pytest.raises(ValueError):
        PrimeField(10**400 + 1)
    with pytest.raises(ValueError):
        field_from_spec("fp:" + str(10**400 + 1))


def test_field_spec_round_trip():
    assert field_from_spec("q") == QQ
    assert field_from_spec("fp:32003") == FBIG
    assert field_spec_str(FBIG) == "fp:32003"
    with pytest.raises(ValueError):
        field_from_spec("float")


# Q values as the field stores them: plain ints and Fractions, mixed.
rationals = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                      st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
residues = st.integers(min_value=0, max_value=CHECK_PRIME - 1)


@settings(max_examples=1000, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    f = QQ
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if b != 0:
        assert f.mul(f.div(a, b), b) == a
    # canonical form: lowest terms, positive denominator
    s = f.add(a, b)
    assert math.gcd(s.numerator, s.denominator) == 1 and s.denominator > 0


def _check_rational_value(got, want: Fraction, integral_as_int: bool):
    assert isinstance(got, (int, Fraction))  # never a float
    assert got == want
    if integral_as_int and want.denominator == 1:
        assert type(got) is int


@settings(max_examples=1000, deadline=None)
@given(rationals, rationals, st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_representation_matches_fraction_reference(a, b, num, den):
    f = QQ
    fa, fb = Fraction(a), Fraction(b)
    _check_rational_value(f.add(a, b), fa + fb, False)
    _check_rational_value(f.sub(a, b), fa - fb, False)
    _check_rational_value(f.mul(a, b), fa * fb, False)
    _check_rational_value(f.neg(a), -fa, False)
    _check_rational_value(f.from_int(num), Fraction(num), True)
    _check_rational_value(f.from_fraction(num, den), Fraction(num, den), True)
    _check_rational_value(f.from_fraction(num, -den), Fraction(num, -den), True)
    if b != 0:
        _check_rational_value(f.div(a, b), fa / fb, True)
        _check_rational_value(f.inv(b), 1 / fb, True)
    assert f.is_zero(a) == (fa == 0)


def test_rational_integral_values_are_ints():
    assert type(QQ.from_int(3)) is int and type(QQ.one) is int and type(QQ.zero) is int
    assert type(QQ.from_fraction(6, 3)) is int
    assert type(QQ.div(6, 3)) is int and QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int
    assert type(QQ.inv(-1)) is int and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(1, 3))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_const_accepts_exact_scalars_only(spec):
    rng = ring(["x"], field=field_from_spec(spec))
    half = rng.const(Fraction(1, 2))
    assert half * rng.const(2) == rng.one()
    assert rng.const(Fraction(4, 2)) == rng.const(2)
    assert rng.const(Fraction(0)).is_zero()
    if spec == "q":
        assert type(rng.const(Fraction(4, 2)).constant_value()) is int
        assert half.constant_value() == Fraction(1, 2)
    else:
        assert half.constant_value() == 4
        assert rng.const(-1).constant_value() == 6
    for bad in (0.5, 2.0, Decimal("0.5"), "1", None):
        with pytest.raises(TypeError):
            rng.const(bad)


@settings(max_examples=1000, deadline=None)
@given(residues, residues, residues)
def test_prime_field_axioms(a, b, c):
    f = FBIG
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert 0 <= f.mul(a, b) < CHECK_PRIME
    if b % CHECK_PRIME:
        assert f.mul(f.div(a, b), b) == a % CHECK_PRIME


# Primes above 2^61, where a fixed-width product of two residues overflows.
BIG_PRIMES = [8589934609, 2**64 - 59]


def test_axpy_p_exact_above_word_size():
    p = 8589934609
    d = {(0,): p - 2}
    axpy_p(d, p - 1, (0,), {(0,): p - 1}, p)
    assert d == {(0,): 8589934608}


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_term_arithmetic_matches_integers_mod_p(p):
    rnd = random.Random(p)

    def rand_poly():
        return {(rnd.randrange(3), rnd.randrange(3)): rnd.randrange(1, p)
                for _ in range(rnd.randrange(1, 6))}

    for _ in range(50):
        a, b, dst = rand_poly(), rand_poly(), rand_poly()
        c, m = rnd.randrange(1, p), (rnd.randrange(2), rnd.randrange(2))
        want = dict(dst)
        for k, v in b.items():
            kk = (k[0] + m[0], k[1] + m[1])
            want[kk] = (want.get(kk, 0) + c * v) % p
        axpy_p(dst, c, m, b, p)
        assert dst == {k: v for k, v in want.items() if v}
        prod = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                prod[k] = (prod.get(k, 0) + va * vb) % p
        assert mul_p(a, b, p) == {k: v for k, v in prod.items() if v}
    assert mul_p({(0,): p - 1}, {(0,): p - 1}, p) == {(0,): 1}
