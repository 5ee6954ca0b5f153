"""Sparse term arithmetic.

Sparse polynomials and free-module vectors are dicts mapping integer tuples
to nonzero coefficients.  For a polynomial the key is the exponent vector;
for a module vector the key is (component,) + exponents and multiplication
shifts use a tuple with 0 in the component slot.  Everything here is the
inner loop of Gröbner reduction, so the functions avoid any abstraction.
Coefficients are Python ints or Fractions, so arithmetic over F_p is exact
for every prime the fields accept.
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
