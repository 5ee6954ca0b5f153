"""Sparse term arithmetic.

Sparse polynomials and free-module vectors are dicts mapping integer tuples
to nonzero coefficients.  For a polynomial the key is the exponent vector;
for a module vector the key is (component,) + exponents and multiplication
shifts use a tuple with 0 in the component slot.  Everything here is the
inner loop of Gröbner reduction, so the functions avoid any abstraction.
Over F_p coefficients are ints in [0, p), and Python's unbounded ints keep
the arithmetic exact for every prime the fields accept.  Over Q a coefficient
is an int while it is an integer and a Fraction only when it is not (see
scalars); the kernels here use only +, - and *, never /, so two int operands
stay ints.  A mixed product may leave an integral Fraction (1/2 * 2), which
compares and hashes equal to the int, so nothing here depends on the type.
The Gröbner engine's terms are order keys (see groebner), on which a
product is still slotwise addition; grevlex_sub and grevlex_lcm are the
quotient and lcm on grevlex keys.
"""

from __future__ import annotations


def tup_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def tup_sub(a: tuple, b: tuple):
    """a - b elementwise, or None if any slot would go negative."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def tup_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def grevlex_sub(a: tuple, b: tuple):
    """a / b on grevlex keys, or None if b does not divide a."""
    pairs = zip(a, b)
    x, y = next(pairs)
    if x < y:  # lower degree: a quick reject
        return None
    out = [x - y]
    for x, y in pairs:
        if x > y:
            return None
        out.append(x - y)
    return tuple(out)


def grevlex_lcm(a: tuple, b: tuple) -> tuple:
    """lcm(a, b) on grevlex keys."""
    rest = tuple(x if x <= y else y for x, y in zip(a[1:], b[1:]))
    return (-sum(rest),) + rest


def axpy_q(dst: dict, c, m: tuple, src: dict) -> None:
    """dst += c * t^m * src over the rationals (in place)."""
    for k, v in src.items():
        kk = tuple(x + y for x, y in zip(k, m))
        w = dst.get(kk)
        if w is None:
            dst[kk] = c * v
        else:
            w = w + c * v
            if w:
                dst[kk] = w
            else:
                del dst[kk]


def axpy_p(dst: dict, c: int, m: tuple, src: dict, p: int) -> None:
    """dst += c * t^m * src over F_p (in place)."""
    for k, v in src.items():
        kk = tuple(x + y for x, y in zip(k, m))
        w = dst.get(kk)
        if w is None:
            w = (c * v) % p
            if w:
                dst[kk] = w
        else:
            w = (w + c * v) % p
            if w:
                dst[kk] = w
            else:
                del dst[kk]


def mul_q(a: dict, b: dict) -> dict:
    out: dict = {}
    if len(a) > len(b):
        a, b = b, a
    for k, v in a.items():
        axpy_q(out, v, k, b)
    return out


def mul_p(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    if len(a) > len(b):
        a, b = b, a
    for k, v in a.items():
        axpy_p(out, v, k, b, p)
    return out
