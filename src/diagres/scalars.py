"""Exact coefficient fields.

Two fields are supported: the rationals (arbitrary precision) and prime
fields F_p (residues stored as ints in [0, p)).  Every verification in this
package is exact; there is deliberately no floating-point path.

A rational is stored as a Python int while it is an integer, and as a
fractions.Fraction in lowest terms with positive denominator only when it is
not.  Most certificate coefficients are small integers, and int arithmetic
skips Fraction's gcd work.  The constructors (from_int, from_fraction) and
the operations that can leave the integers (div, inv) return an int whenever
the value is integral; add, sub and mul return what Python gives, which is
an int for two ints and may be an integral Fraction otherwise.  Ints and
Fractions compare and hash equal, so no check may depend on the type.  A
quotient is always formed through Fraction: int / int gives a float, and no
code here may divide two ints with /.

A Field instance supplies the operations; rings tag their polynomials with
the field, and cross-field operations are rejected at the ring layer.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class Field:
    """Common interface of the two coefficient fields."""

    kind: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, num: int, den: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_zero(self, a) -> bool:
        return not a


def _integral(x: Fraction):
    """x as an int if it is an integer, else x itself."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    kind = "rationals"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in the rational field")
        return _integral(Fraction(a) / b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(1 / Fraction(a))

    def from_int(self, n: int):
        return n

    def from_fraction(self, num: int, den: int):
        return _integral(Fraction(num, den))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


#: Miller-Rabin with these bases decides primality for every P below
#: MAX_PRIME (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test; exact for every n < MAX_PRIME."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    kind = "prime_field"

    def __init__(self, p: int):
        if p >= MAX_PRIME:
            raise ValueError(f"prime fields are supported only for P < {MAX_PRIME}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, num: int, den: int):
        return self.div(num % self.p, den % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

#: Cross-check prime: large enough that random catalog coefficients never
#: collide with the characteristic.
CHECK_PRIME = 32003


def field_from_spec(spec: str) -> Field:
    """Parse a field descriptor: 'q' for the rationals, 'fp:P' for F_P."""
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:P')")


def field_spec_str(field: Field) -> str:
    if isinstance(field, RationalField):
        return "q"
    if isinstance(field, PrimeField):
        return f"fp:{field.p}"
    raise TypeError(f"not a field: {field!r}")
