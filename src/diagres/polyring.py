"""Sparse multivariate polynomials over a declared quotient ring.

Conventions
-----------
* A monomial is stored packed: the int ring.packing.encode(0, exps) of its
  exponent tuple (one slot per ring variable; see _terms).  Int comparison
  is the ring order, and the product of monomials a and b is
  a + b - ring.one_key, where one_key is the packed constant monomial.
* A polynomial's terms are a dict {packed monomial: coefficient} with no
  zero entries; the zero polynomial is the empty dict, and
  ring.packing.decode gives a monomial's exponents back.  Polynomials are
  immutable by convention: arithmetic always builds fresh dicts.  A product
  whose degree would not fit a packed term raises InputDataError.
* A QuotientRing records variable names, coefficient field, monomial order
  and the relation ideal.  Nothing at this layer reduces modulo the
  relations; that is the Gröbner engine's job (via augmentation).
* Polynomials are ring-tagged and cross-ring arithmetic raises; the chart
  computations juggle several rings and silent coercion would be the most
  likely source of silent nonsense.

Text grammar (bit-exact, whitespace insignificant)::

    poly  := term (('+'|'-') term)*        (unary leading '-' allowed)
    term  := [coeff] ('*'? var ('^' uint)?)*
    coeff := int | int '/' uint
    var   := identifier

An exponent is at most MAX_EXPONENT, and so is the sum of the exponents a
term gives one variable (x^3*x^5 is x^8); a larger one is a ParseError.  So
is a term of degree above _terms.FIELD_MAX, a denominator that is zero in
the field (a multiple of p over F_p), and an integer literal longer than
the interpreter's int-conversion limit (sys.get_int_max_str_digits, 4300
digits by default).

print() emits the canonical form (terms strictly descending in the ring
order), every digit of every coefficient included, and parse(print(p)) == p
for coefficients within the literal limit above.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ._terms import InputDataError, Packing, check_degree
from .scalars import QQ, Field, PrimeField


# The largest exponent the grammar accepts: far inside the packed fields
# (_terms.FIELD_MAX, 2^23 - 1), so the products a verification forms (d*d,
# compositions, cones) fit unless a term has dozens of variables at the
# bound; a product that does not fit raises InputDataError.  Not settable.
MAX_EXPONENT = 2 ** 16


class RingMismatchError(ValueError):
    """Operands live in different rings."""


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total order on exponent tuples, compatible with multiplication.

    kind is 'lex' or 'grevlex'; priority is a permutation of variable
    indices, most significant first (defaults to declared order).  The order
    is exposed through the packing: m1 > m2 iff encode(m1) > encode(m2), so
    1 (the empty-degree monomial) is minimal for both kinds.
    """

    def __init__(self, kind: str = "grevlex", priority: Optional[Sequence[int]] = None):
        if kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None

    def _priority(self, nvars: int) -> tuple:
        prio = self.priority if self.priority is not None else tuple(range(nvars))
        if sorted(prio) != list(range(nvars)):
            raise ValueError("order priority must be a permutation of variable indices")
        return prio

    def packing(self, nvars: int) -> Packing:
        """The packed-int terms for this order (see _terms)."""
        return Packing(self.kind, self._priority(nvars), nvars)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        if self.priority is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, priority={self.priority})"


# ---------------------------------------------------------------------------
# rings and polynomials


class QuotientRing:
    """Ambient polynomial ring plus relation ideal.

    Create through the ring() helper, which parses relation strings after
    the ring shell exists.
    """

    def __init__(self, names: Sequence[str], field: Field = QQ,
                 order: Optional[MonomialOrder] = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise ValueError(f"bad variable name {nm!r}")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self.order = order if order is not None else MonomialOrder("grevlex")
        self.packing = self.order.packing(self.nvars)
        self.one_key = self.packing.encode(0, (0,) * self.nvars)
        self.index = {nm: i for i, nm in enumerate(names)}
        self.relations: tuple[Polynomial, ...] = ()

    def _set_relations(self, rels: Iterable["Polynomial"]):
        rels = tuple(rels)
        for r in rels:
            if r.ring is not self and r.ring != self:
                raise RingMismatchError("relation parsed in a different ring")
            if r.is_zero():
                raise ValueError("relation polynomials must be nonzero")
        self.relations = rels

    # --- constructors ---

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        """The constant c, which must be exact: an int or a Fraction."""
        if isinstance(c, int):
            c = self.field.from_int(c)
        elif isinstance(c, Fraction):
            c = self.field.from_fraction(c.numerator, c.denominator)
        else:
            raise TypeError(f"constant {c!r} is not an int or a Fraction")
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {self.one_key: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index[name]
        return self.from_exponent_terms({tuple(int(j == i) for j in range(self.nvars)):
                                         self.field.one})

    def from_exponent_terms(self, terms: dict) -> "Polynomial":
        """The polynomial with terms {exponent tuple: nonzero coefficient}."""
        encode = self.packing.encode
        return Polynomial(self, {encode(0, e): c for e, c in terms.items()})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(text, self)

    # --- identity ---

    def _signature(self):
        rel_terms = tuple(tuple(sorted(r.terms.items())) for r in self.relations)
        return (self.names, self.field, self.order, rel_terms)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, QuotientRing) and self._signature() == other._signature()

    def __hash__(self):
        return hash((self.names, self.field, self.order, len(self.relations)))

    def __repr__(self):
        base = f"{self.field!r}[{', '.join(self.names)}]"
        if self.relations:
            return f"{base}/({', '.join(str(r) for r in self.relations)})"
        return base


_terms = attrgetter("terms")


def max_degree(rng: QuotientRing, polys: Iterable["Polynomial"]) -> int:
    """The largest total degree of a term of the polynomials, 0 if none."""
    return rng.packing.top_degree(list(chain.from_iterable(map(_terms, polys))))


def ring(names: Sequence[str], field: Field = QQ, order: Optional[MonomialOrder] = None,
         relations: Sequence[str] = ()) -> QuotientRing:
    """Build a QuotientRing, parsing relation strings in the new ring."""
    rng = QuotientRing(names, field=field, order=order)
    rng._set_relations(rng.parse(s) for s in relations)
    return rng


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, rng: QuotientRing, terms: dict):
        self.ring = rng
        self.terms = terms

    # --- basics ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and self.ring.one_key in t)

    def constant_value(self):
        return self.terms.get(self.ring.one_key, self.ring.field.zero)

    def degree(self) -> int:
        """The largest total degree of a term; 0 for zero."""
        return self.ring.packing.top_degree(self.terms)

    # --- arithmetic ---

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials from {self.ring!r} and {other.ring!r}")

    def _axpy(self, c: int, other: "Polynomial") -> "Polynomial":
        """self + c * other, for c = 1 or -1."""
        self._check(other)
        out = dict(self.terms)
        self.ring.field.axpy(out, c, 0, other.terms)
        return Polynomial(self.ring, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._axpy(1, other)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {k: fld.neg(v) for k, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._axpy(-1, other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        check_degree(self.degree() + other.degree())
        rng, a, b = self.ring, self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        axpy, one = rng.field.axpy, rng.one_key
        out: dict = {}
        for k, v in a.items():
            axpy(out, v, k - one, b)
        return Polynomial(rng, out)

    def shift(self, exps: tuple) -> "Polynomial":
        """Multiply by the monomial with the given exponents."""
        check_degree(self.degree() + sum(exps))
        m = self.ring.packing.multiplier(exps)
        return Polynomial(self.ring, {k + m: v for k, v in self.terms.items()})

    # --- comparison / text ---

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<{poly_str(self)}>"


# ---------------------------------------------------------------------------
# printing


def _coeff_str(field: Field, c) -> str:
    # Through Decimal, which prints every digit: str(int) raises past the
    # interpreter's int-conversion limit, and a computed coefficient may be
    # longer than that.
    if isinstance(field, PrimeField):
        return str(Decimal(c))
    if c.denominator == 1:
        return str(Decimal(c.numerator))
    return f"{Decimal(c.numerator)}/{Decimal(c.denominator)}"


def _mono_str(ring_: QuotientRing, exps: tuple) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(ring_.names[i])
        elif e > 1:
            parts.append(f"{ring_.names[i]}^{e}")
    return "*".join(parts)


def poly_str(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    fld, decode = p.ring.field, p.ring.packing.decode
    chunks = []
    for k in sorted(p.terms, reverse=True):  # descending ring order
        c = p.terms[k]
        mono = _mono_str(p.ring, decode(k)[1])
        if isinstance(fld, PrimeField):
            neg, mag = False, c
        else:
            neg, mag = c < 0, abs(c)
        mag_s = _coeff_str(fld, mag)
        if mono and mag_s == "1":
            body = mono
        elif mono:
            body = f"{mag_s}*{mono}"
        else:
            body = mag_s
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*/^]))")


def _tokenize(text: str):
    pos, out = 0, []
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# Python before 3.10.7 has no limit on int() of a digit string
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _int_literal(val: str, pos: int) -> int:
    """The int a digit string spells.  One with more significant digits than
    the interpreter's int-conversion limit (sys.get_int_max_str_digits, 0
    for none) is a ParseError, where int() would raise a bare ValueError."""
    digits = val.lstrip("0")
    limit = _int_max_str_digits()
    if limit and len(digits) > limit:
        raise ParseError(f"integer literal of {len(digits)} digits, above the "
                         f"limit of {limit}", pos)
    return int(digits or "0")


def parse_poly(text: str, rng: QuotientRing) -> Polynomial:
    """Parse the grammar in the module docstring; canonical result."""
    if text.strip() == "":
        raise ParseError("empty polynomial", 0)
    toks = _tokenize(text)
    fld = rng.field
    i = 0

    def tok():
        return toks[i]

    def parse_term(sign: int) -> Polynomial:
        nonlocal i
        coeff = None
        exps = [0] * rng.nvars
        saw_factor = False
        need_factor = False
        kind, val, pos = tok()
        start = pos
        if kind == "int":
            num = _int_literal(val, pos)
            i += 1
            if tok()[0] == "op" and tok()[1] == "/":
                i += 1
                k2, v2, p2 = tok()
                if k2 != "int":
                    raise ParseError("expected denominator after '/'", p2)
                den = _int_literal(v2, p2)
                if fld.is_zero(fld.from_int(den)):
                    raise ParseError("zero denominator", p2)
                coeff = fld.from_fraction(num, den)
                i += 1
            else:
                coeff = fld.from_int(num)
            saw_factor = True
            if tok()[0] == "op" and tok()[1] == "*":
                i += 1
                need_factor = True
        while True:
            kind, val, pos = tok()
            if kind != "name":
                if need_factor:
                    raise ParseError("expected a variable after '*'", pos)
                break
            if val not in rng.index:
                raise ParseError(f"unknown variable {val!r}", pos)
            i += 1
            e = 1
            if tok()[0] == "op" and tok()[1] == "^":
                i += 1
                k2, v2, p2 = tok()
                if k2 != "int":
                    raise ParseError("expected exponent after '^'", p2)
                digits = v2.lstrip("0")  # no int() of a literal past the digit limit
                e = int(digits or "0") if len(digits) <= 9 else MAX_EXPONENT + 1
                i += 1
            exps[rng.index[val]] += e
            if exps[rng.index[val]] > MAX_EXPONENT:
                raise ParseError(f"exponent of {val} above the maximum {MAX_EXPONENT}", pos)
            saw_factor = True
            need_factor = False
            if tok()[0] == "op" and tok()[1] == "*":
                i += 1
                need_factor = True
        if not saw_factor:
            raise ParseError("expected a term", tok()[2])
        c = coeff if coeff is not None else fld.one
        if sign < 0:
            c = fld.neg(c)
        if fld.is_zero(c):
            return rng.zero()
        try:
            return Polynomial(rng, {rng.packing.encode(0, exps): c})
        except InputDataError as exc:
            raise ParseError(str(exc), start) from exc

    result = rng.zero()
    sign = 1
    kind, val, pos = tok()
    if kind == "op" and val == "-":
        sign = -1
        i += 1
    elif kind == "op" and val == "+":
        i += 1
    result = result + parse_term(sign)
    while True:
        kind, val, pos = tok()
        if kind == "end":
            break
        if kind != "op" or val not in "+-":
            raise ParseError(f"expected '+' or '-', got {val!r}", pos)
        i += 1
        result = result + parse_term(-1 if val == "-" else 1)
    return result
