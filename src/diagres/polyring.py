"""Sparse multivariate polynomials over a declared quotient ring.

Conventions
-----------
* A monomial is an exponent tuple, one slot per ring variable.
* A polynomial is a dict {exponents: coefficient} with no zero entries; the
  zero polynomial is the empty dict.  Polynomials are immutable by
  convention: arithmetic always builds fresh dicts.
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

print() emits the canonical form (terms strictly descending in the ring
order) and parse(print(p)) == p.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._terms import mul_p, mul_q, tup_add
from .scalars import QQ, Field, FieldMismatchError, PrimeField


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
    is exposed through sort keys: m1 > m2 iff key(m1) > key(m2), so 1 (the
    empty-degree monomial) is minimal for both kinds.
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

    def key_func(self, nvars: int):
        """The sort key on exponent tuples of length nvars.  It is additive and
        one to one, so the Gröbner engine stores monomials as their keys."""
        prio = self._priority(nvars)
        if self.kind == "lex":
            def key(exps: tuple):
                return tuple(exps[i] for i in prio)
        else:
            # grevlex: higher total degree wins; ties go to the monomial whose
            # last (least significant) differing exponent is smaller.
            rev = tuple(reversed(prio))

            def key(exps: tuple):
                return (sum(exps),) + tuple(-exps[i] for i in rev)
        return key

    def decode_func(self, nvars: int):
        """The inverse of key_func(nvars): exponents from a key."""
        prio = self._priority(nvars)
        if self.kind == "lex":
            slots = tuple(prio.index(v) for v in range(nvars))
            return lambda key: tuple(key[s] for s in slots)
        rev = prio[::-1]
        slots = tuple(1 + rev.index(v) for v in range(nvars))
        return lambda key: tuple(-key[s] for s in slots)

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


def monomial_cmp(m1: tuple, m2: tuple, order: MonomialOrder) -> int:
    """-1, 0 or 1 comparing m1 against m2 under the order."""
    if len(m1) != len(m2):
        raise ValueError("exponent tuples of different lengths")
    key = order.key_func(len(m1))
    k1, k2 = key(m1), key(m2)
    return (k1 > k2) - (k1 < k2)


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
        self.key = self.order.key_func(self.nvars)
        self.decode = self.order.decode_func(self.nvars)
        self.index = {nm: i for i, nm in enumerate(names)}
        self.relations: tuple[Polynomial, ...] = ()
        self._zero_exps = (0,) * self.nvars

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
        return Polynomial(self, {self._zero_exps: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(nm) for nm in self.names)

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
        return not self.terms or self.terms.keys() == {self.ring._zero_exps}

    def constant_value(self):
        return self.terms.get(self.ring._zero_exps, self.ring.field.zero)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: self.ring.key(kv[0]), reverse=True)

    def leading(self):
        """(exponents, coefficient) of the leading term; None for zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=self.ring.key)
        return exps, self.terms[exps]

    # --- arithmetic ---

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials from {self.ring!r} and {other.ring!r}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w = fld.add(w, v)
                if fld.is_zero(w):
                    del out[k]
                else:
                    out[k] = w
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {k: fld.neg(v) for k, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field
        if isinstance(fld, PrimeField):
            out = mul_p(self.terms, other.terms, fld.p)
        else:
            out = mul_q(self.terms, other.terms)
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {k: fld.mul(v, c) for k, v in self.terms.items()})

    def shift(self, exps: tuple) -> "Polynomial":
        """Multiply by the monomial with the given exponents."""
        return Polynomial(self.ring, {tup_add(k, exps): v for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

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
    if isinstance(field, PrimeField):
        return str(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


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
    fld = p.ring.field
    chunks = []
    for exps, c in p.sorted_terms():
        mono = _mono_str(p.ring, exps)
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
        exps = list(rng._zero_exps)
        saw_factor = False
        need_factor = False
        kind, val, pos = tok()
        if kind == "int":
            num = int(val)
            i += 1
            if tok()[0] == "op" and tok()[1] == "/":
                i += 1
                k2, v2, p2 = tok()
                if k2 != "int":
                    raise ParseError("expected denominator after '/'", p2)
                if int(v2) == 0:
                    raise ParseError("zero denominator", p2)
                coeff = fld.from_fraction(num, int(v2))
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
                e = int(v2)
                i += 1
            exps[rng.index[val]] += e
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
        return Polynomial(rng, {tuple(exps): c})

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


# ---------------------------------------------------------------------------
# ring maps (chart restrictions)


class RingMap:
    """Ring homomorphism determined by variable images.

    images[i] is the image of source variable i in the target ring.  The map
    is applied literally; whether it carries the source relations into the
    target relation ideal is checked where it matters (catalog restriction)
    with the Gröbner engine.
    """

    def __init__(self, source: QuotientRing, target: QuotientRing,
                 images: Sequence[Polynomial]):
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        for im in images:
            if im.ring != target:
                raise RingMismatchError("image not in target ring")
        if source.field != target.field:
            raise FieldMismatchError("ring map must preserve the field")
        self.source = source
        self.target = target
        self.images = tuple(images)

    def apply(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source:
            raise RingMismatchError("polynomial not in the map's source ring")
        out = self.target.zero()
        for exps, c in sorted(p.terms.items()):
            term = self.target.const(1).scale(c)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * self.images[i]
            out = out + term
        return out
