"""Sparse term arithmetic on packed monomials.

A sparse polynomial, and a Gröbner engine vector, is a dict mapping packed
terms (ints, below) to nonzero coefficients, and multiplying by a monomial
adds one int to every key.  Over F_p coefficients are ints in [0, p), and
Python's unbounded ints keep the arithmetic exact for every prime the fields
accept.  Over Q a coefficient is an int while it is an integer and a
Fraction only when it is not (see scalars); the kernels here use only +, -
and *, never /, so two int operands stay ints.  A mixed product may leave
an integral Fraction (1/2 * 2), which compares and hashes equal to the int,
so nothing here depends on the type.  The Gröbner engine's vectors over Q
are integral (primitive, see groebner), so there packed_axpy_q only ever
sees ints.

Packed terms.  A module term, component c and exponents e, is one int
(Monagan-Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  The int is a row of FIELD_BITS-wide
fields, most significant first:

- grevlex: -c | deg | D - e[prio[n-1]] | ... | D - e[prio[0]]
- lex:     -c | e[prio[0]] | ... | e[prio[n-1]] | deg

where deg is the total degree and D = FIELD_MAX.  The component field is the
top one, so it is unbounded and holds -c for any rank.  Every other field
holds a value in [0, FIELD_MAX], so its top bit (the guard) is clear.  Int
comparison is then the module order: lower component first, then the ring
order (the lex degree field, the lowest, never decides: equal exponents have
equal degrees).  The packing is an affine map, so a monomial product is one int
addition: t * x^m is t + (u - v) for any packed u, v with u / v = x^m, and
the engine's multipliers are plain differences t - lt.  A polynomial's terms
are the component-0 ones.  The constant monomial packs to flip (0 under lex;
polyring calls it one_key), so the product of monomials a and b is
a + b - flip, and the term of component c with the exponents of a is
a - (c << shift).

SWAR tests (several fields per int operation).  Flipping the grevlex
exponent fields with ^ FLIP (D ^ e == D - e, since D is all ones) puts
every field in exponent form; then b divides a iff
((a ^ FLIP | GUARDS) - (b ^ FLIP)) & GUARDS == GUARDS: the guards stop
every borrow at its field, and a guard survives iff that field of a is at
least the one of b.  The lcm is the slotwise max of the exponent fields
built from the same test, and its degree a horizontal sum of them done with
one multiplication.

Overflow rule.  Every exponent is at most the degree, so a term fits iff its
degree is at most FIELD_MAX.  encode checks the degree of each term it
packs, lcm the degree it sums, and every product site checks the sum of its
factors' top degrees first (check_degree): polynomial products and
shifts, mat_mul, minimize's Schur update, and the engine against
the largest degree of the vector it multiplies.  So every term formed fits,
and one that would not raises InputDataError instead of wrapping.
"""

from __future__ import annotations

from operator import mul

# Each packed field is FIELD_BITS wide and holds 0..FIELD_MAX; its top bit is
# the guard.  Not settable: polyring.MAX_EXPONENT keeps parsed input far inside.
FIELD_BITS = 24
FIELD_MAX = (1 << (FIELD_BITS - 1)) - 1


class InputDataError(ValueError):
    """Malformed verification input (not a failed verification)."""


class JobFileError(ValueError):
    """Structurally invalid job file, or CLI arguments that name no valid run.
    It lives here, not in jobio, so that the CLI can catch it without
    loading the job reader."""


def term_overflow(deg: int) -> InputDataError:
    """The error for a term of degree deg > FIELD_MAX."""
    return InputDataError(f"a term of degree {deg} arises, above the largest "
                          f"degree {FIELD_MAX} a packed term holds")


def check_degree(deg: int) -> None:
    """Raise term_overflow unless a term of degree deg fits."""
    if deg > FIELD_MAX:
        raise term_overflow(deg)


class Packing:
    """The packed-int layout of module terms for one monomial order (see the
    module docstring): encode, decode, degree, divisibility and lcm."""

    def __init__(self, kind: str, prio: tuple, nvars: int):
        w, n = FIELD_BITS, nvars
        self.mask = (1 << w) - 1
        self.shift = (n + 1) * w  # bits below the component field
        if kind == "lex":
            field = {v: n - k for k, v in enumerate(prio)}
            deg_field, first, sign = 0, 1, 1
        else:
            field = {v: k for k, v in enumerate(prio)}
            deg_field, first, sign = n, 0, -1
        self.deg_shift = deg_field * w
        self.deg_field = self.mask << self.deg_shift
        self.shifts = tuple(field[v] * w for v in range(n))
        self.flip = 0 if kind == "lex" else sum(FIELD_MAX << s for s in self.shifts)
        self.weights = tuple((1 << self.deg_shift) + sign * (1 << s) for s in self.shifts)
        self.exp_mask = sum(self.mask << s for s in self.shifts)
        self.exp_guards = sum(1 << (s + w - 1) for s in self.shifts)
        self.guards = self.exp_guards | 1 << (self.deg_shift + w - 1)
        self.hsum = sum(1 << (k * w) for k in range(n))
        self.hsum_shift = max(first + n - 1, 0) * w

    def encode(self, comp: int, exps: tuple) -> int:
        deg = sum(exps)
        if deg > FIELD_MAX:
            raise term_overflow(deg)
        return (-comp << self.shift) + self.flip + sum(map(mul, exps, self.weights))

    def multiplier(self, exps: tuple) -> int:
        """The int whose addition multiplies a packed term by x^exps:
        encode(c, e + exps) - encode(c, e), the same for every c and e (the
        packing is affine).  The caller checks the degree of the product."""
        return sum(map(mul, exps, self.weights))

    def decode(self, t: int) -> tuple:
        """(component, exponents) of a packed term."""
        x, mask = t ^ self.flip, self.mask
        return -(t >> self.shift), tuple((x >> s) & mask for s in self.shifts)

    def degree(self, t: int) -> int:
        return (t >> self.deg_shift) & self.mask

    def top_degree(self, d) -> int:
        """The largest degree of the terms in the collection d, 0 if it is
        empty."""
        return max(map(self.deg_field.__and__, d)) >> self.deg_shift if d else 0

    def divides(self, b: int, a: int) -> bool:
        """b divides a (both in one component)."""
        g, f = self.guards, self.flip
        return ((a ^ f | g) - (b ^ f)) & g == g

    def lcm(self, a: int, b: int) -> tuple:
        """(degree, lcm) of two terms in one component; raises if the degree
        does not fit."""
        x = (a ^ self.flip) & self.exp_mask
        y = (b ^ self.flip) & self.exp_mask
        ge = ((x | self.exp_guards) - y) & self.exp_guards  # guards where x >= y
        pick = ge - (ge >> (FIELD_BITS - 1))
        top = (x & pick) | (y & ~pick)
        # each partial sum is at most deg a + deg b <= 2 * FIELD_MAX: no carry
        deg = (top * self.hsum >> self.hsum_shift) & self.mask
        check_degree(deg)
        return deg, (a >> self.shift << self.shift) + (deg << self.deg_shift) + (top ^ self.flip)


def packed_axpy_q(dst: dict, c, m: int, src: dict) -> None:
    """dst += c * t^m * src over the rationals, on packed terms (in place)."""
    for k, v in src.items():
        kk = k + m
        w = dst.get(kk)
        if w is None:
            dst[kk] = c * v
        else:
            w = w + c * v
            if w:
                dst[kk] = w
            else:
                del dst[kk]


def packed_axpy_p(dst: dict, c: int, m: int, src: dict, p: int) -> None:
    """dst += c * t^m * src over F_p, on packed terms (in place).  c may be
    any int (the engine passes -a): every value stored is reduced mod p."""
    for k, v in src.items():
        kk = k + m
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
