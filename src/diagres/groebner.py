"""Buchberger's algorithm for submodules of free modules over a QuotientRing.

Everything is computed over the ambient polynomial ring: a computation over
R = k[x..]/J is realized by augmenting the generating set with the vectors
j*e_i for every relation j and every free-module slot i (GroebnerBasis adds
them).  One engine, one correctness argument.

One basis type: GroebnerBasis holds a submodule's basis (buchberger) and,
as its subclass ImageSolver, the basis of a matrix's tagged columns, which
solver_of keeps on the matrix.  Every answer read against a basis
(normal_form, member, reduces_to_zero, ImageSolver.solve) takes one path,
GroebnerBasis._reduce.

Module order: position-over-term, lower component index dominant, ties by
the ring's monomial order.  Internally a vector is a dict {term: coefficient}
whose term is the packed int of its component and exponents (_terms.Packing,
the ring's packing): int comparison is the module order, the leading term is
max(d), a monomial product is one int addition and divisibility is one
guard-bit test.  A polynomial's terms are already packed, in component 0,
so a vector enters the engine by a component offset per polynomial (the
term of component c is t - (c << shift); col_to_dict) and leaves by the
inverse (c = -(t >> shift), t + (c << shift); dict_to_col, a sparse column
that vectors and normal_form pad with the ring's zero): no term is encoded
or decoded, and a rank-1 vector's dict is its polynomial's terms.  A term
that does not fit its packed fields raises InputDataError at every product
(see _terms for the rule).

Coefficients: primitive inside, monic where they leave.  Over Q the engine holds
every vector (input generator, basis element, remainder) as a primitive
integer vector: denominators cleared where vectors enter (_Engine.cleared),
content divided out and leading coefficient positive (_Engine.primitive).
nf reduces fraction-free (Geddes, Czapor, Labahn, "Algorithms for Computer
Algebra", 1992): a working maximum a*t is cancelled by a divisor with
leading coefficient b as (b/h)*work - (a/h)*t*g, h = gcd(a, b), and an
S-vector is (b_j/h)*m_i*g_i - (b_i/h)*m_j*g_j.  Each working vector is then
a fixed nonzero multiple of the one monic arithmetic would hold, so divisor
choice, pairs, sugar and criteria are those of monic arithmetic, and so is
every answer.  Fractions are built only where vectors leave: basis vectors
(vectors, columns, kernel) are divided by their leading coefficient, and a
remainder or solution (_reduce) by the scale nf multiplied in.  Over F_p
a primitive vector is the monic one, every divisor's leading coefficient
is 1 and the scaling never happens: one nf loop serves both fields.

Determinism: bases are auto-reduced (the reduced Gröbner basis is unique
for a given order), primitive inside and monic where they leave (above),
and sorted by descending leading term, so identical inputs produce
byte-identical bases, whatever order the pairs are reduced in.

Auto-reduction builds one divisor index over the minimal basis.  Each
element's tail (its terms below the leading term) is reduced against the
whole index, and the leading term is put back.  A tail term is smaller than
the element's own leading term, so it is never divisible by it, and
reduction only introduces smaller terms: the element's own index entry is
never used and no leading term changes.

Pairs and criteria.  S-pairs are formed only between vectors whose leading
terms share a component: the syzygies of the leading terms are generated by
those pairs, since terms in different components have no common multiple.
Within one component the leading terms x^a e_c behave like monomials, so the
Gebauer-Moller update (Gebauer-Moller, "On an installation of Buchberger's
algorithm", J. Symbolic Comput. 6, 1988) applies there unchanged.  On
inserting h with leading term t in component c:

- B_k: a pending pair (a, b) of component c is dropped if t divides
  lcm(a, b) and lcm(a, h), lcm(b, h) both differ from it (the chain
  criterion: its S-vector is a combination of those of (a, h) and (b, h),
  whose lcms strictly divide its own);
- M: a new pair (i, h) is dropped if another new pair's lcm strictly
  divides its lcm;
- F: of the new pairs with equal lcm one is kept, and the whole group is
  dropped if one of them passes the product criterion.

The classical coprimality (product) criterion is only valid for module pairs
when both vectors are concentrated in their common leading component; see
test_groebner for the standard rank-2 counterexample.  It is applied exactly
in that regime, and only here, in the update.

Selection is the sugar strategy (Giovini, Mora, Niesi, Robbiano, Traverso,
"One sugar cube, please", ISSAC 1991): an input vector's sugar is its
largest term degree, a pair's is max(sugar_i + deg m_i, sugar_j + deg m_j)
for the multipliers m_i, m_j taking the leading terms to the lcm, and a
remainder keeps the larger of its pair's sugar and its own degree.  The
pair of least sugar is reduced first, first in first out among equals.
For homogeneous input this is the normal (least lcm degree) strategy; for
non-homogeneous input under lex the lcm degree can be far below the degree
the reduction really works in, and selecting by it lets the criteria send
the computation through long detours.  Pending pairs are kept per component
as {(i, j): lcm}; pairs the update drops stay in the heap and are skipped
when popped.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Optional

from ._terms import FIELD_MAX, term_overflow
from .matrices import Matrix, as_matrix, from_columns, identity_matrix, mat_cols
from .polyring import Polynomial, QuotientRing, RingMismatchError
from .scalars import PrimeField, _integral

FreeVector = tuple  # tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# conversions between vector-of-polynomials and term dicts


def col_to_dict(pairs: Iterable, rng: QuotientRing) -> dict:
    """A vector's term dict from its (component, Polynomial) pairs:
    enumerate(vec) of a dense vector, col.items() of a sparse column."""
    shift = rng.packing.shift
    return {t - (comp << shift): c for comp, p in pairs for t, c in p.terms.items()}


def dict_to_col(d: dict, rng: QuotientRing) -> dict:
    """A vector's term dict as a sparse column {component: nonzero Polynomial},
    the one form a vector leaves the engine in."""
    shift = rng.packing.shift
    col: dict = {}
    for t, c in d.items():
        comp = -(t >> shift)
        col.setdefault(comp, {})[t + (comp << shift)] = c
    for comp, terms in col.items():
        col[comp] = Polynomial(rng, terms)
    return col


def _divided(d: dict, k: int) -> dict:
    """d / k over Q, an int wherever the quotient is integral."""
    return {t: _integral(Fraction(v, k)) for t, v in d.items()}


def _monic(d: dict) -> dict:
    """A basis vector as it leaves the engine: divided by its leading
    coefficient, which is 1 already over F_p."""
    c = d[max(d)]
    return d if c == 1 else _divided(d, c)


def _check_vector(vec: FreeVector, rng: QuotientRing, rank: int, what: str = "vector"):
    if len(vec) != rank:
        raise ValueError(f"{what} length differs from ambient rank")
    for p in vec:
        if p.ring != rng:
            raise RingMismatchError(f"{what} in a different ring")


class Submodule:
    """Submodule of a free module R^rank, given by generators."""

    def __init__(self, ring: QuotientRing, rank: int, generators: list):
        self.ring = ring
        self.rank = rank
        self.generators = generators  # list[FreeVector]
        self._gb = None  # the GroebnerBasis groebner() builds on first call
        if rank < 1:
            raise ValueError("ambient free module must have rank >= 1")
        for g in generators:
            _check_vector(g, ring, rank, "generator")

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb


# ---------------------------------------------------------------------------
# the engine


_denominator = attrgetter("denominator")


class _Engine:
    def __init__(self, rng: QuotientRing):
        self.packing = rng.packing
        fld = rng.field
        self.p = fld.p if isinstance(fld, PrimeField) else None
        self.axpy = fld.axpy

    def cleared(self, d: dict) -> tuple:
        """(k * d, k) with every coefficient an int, for k the lcm of the
        denominators in d: the integral vector nf takes over Q (over F_p
        every coefficient is an int already).  A sum of ints is an int and a
        sum with a Fraction in it a Fraction, so an all-int d costs one sum."""
        if self.p is not None or type(sum(d.values())) is int:
            return d, 1
        k = lcm(*map(_denominator, d.values()))
        return {t: v.numerator * (k // v.denominator) for t, v in d.items()}, k

    def primitive(self, d: dict) -> dict:
        """The multiple of d the engine stores: over Q the primitive integer
        vector (content 1, positive leading coefficient), over F_p the monic
        one.  Over Q d must be integral."""
        c = d[max(d)]
        if c == 1:
            return d
        if self.p is not None:
            inv = pow(c, -1, self.p)
            return {t: v * inv % self.p for t, v in d.items()}
        g = gcd(*d.values())
        if c < 0:
            g = -g
        return d if g == 1 else {t: v // g for t, v in d.items()}

    def entry(self, d: dict, top: int) -> tuple:
        """d's divisor-index entry (lt in exponent form, lt, reach, d), where lt
        is d's leading term and reach the largest degree of a term that
        lt may divide: a larger one would give d's multiple a term of degree
        above FIELD_MAX."""
        lt = max(d)
        pk = self.packing
        return lt ^ pk.flip, lt, FIELD_MAX - top + pk.degree(lt), d

    def index(self, basis: list) -> dict:
        """The divisor index of basis: component field -> [entry]."""
        buckets: dict = {}
        shift = self.packing.shift
        for d in basis:
            e = self.entry(d, self.packing.top_degree(d))
            buckets.setdefault(e[1] >> shift, []).append(e)
        return buckets

    def nf(self, d: dict, buckets: dict, stop_comp: Optional[int] = None) -> tuple:
        """(r, s): the full normal form of s * d is r, against a divisor index of
        vectors as primitive() stores them.

        Reduction is fraction-free: a working maximum a * t is cancelled by a
        divisor g with leading coefficient b as (b/h) * work - (a/h) * t * g,
        h = gcd(a, b), and s is the product of the factors b/h.  Over F_p
        every b is 1, so s is 1; over Q d must be integral, and so is r.

        If stop_comp is given, reduction stops as soon as the working maximum
        falls into components >= stop_comp, and r is what is left; an
        irreducible maximum in components < stop_comp gives r = None.
        """
        work = dict(d)
        out: dict = {}
        scale = 1
        axpy, pk = self.axpy, self.packing
        shift, flip, guards = pk.shift, pk.flip, pk.guards
        deg_shift, mask = pk.deg_shift, pk.mask
        stop = None if stop_comp is None else (1 - stop_comp) << shift
        while work:
            t = max(work)
            if stop is not None and t < stop:
                return work, scale
            te = t ^ flip | guards
            for le, lt, reach, g in buckets.get(t >> shift, ()):
                if (te - le) & guards == guards:  # lt divides t
                    dt = (t >> deg_shift) & mask
                    if dt > reach:
                        raise term_overflow(dt - reach + FIELD_MAX)
                    a, b = work[t], g[lt]
                    if b != 1:  # over Q only
                        h = gcd(a, b)
                        a, b = a // h, b // h
                        if b != 1:
                            scale *= b
                            work = {k: v * b for k, v in work.items()}
                            out = {k: v * b for k, v in out.items()}
                    axpy(work, -a, t - lt, g)
                    break
            else:
                if stop is not None:
                    return None, scale
                out[t] = work.pop(t)
        return out, scale


def _buchberger_dicts(gen_dicts: list, engine: _Engine) -> list:
    """Core loop on (over Q integral) term dicts; returns the reduced basis as
    primitive() stores it, sorted by descending leading term."""
    axpy = engine.axpy
    pk = engine.packing
    shift, deg, divides, lcm_of = pk.shift, pk.degree, pk.divides, pk.lcm
    deg_shift, mask = pk.deg_shift, pk.mask
    basis: list = []
    entries: list = []  # divisor-index entry of each basis vector (_Engine.entry)
    lts: list = []
    ldeg: list = []    # total degree of each leading term
    sugar: list = []
    single: list = []  # support concentrated in the leading component?
    buckets: dict = {}  # component field -> entries, the index nf reduces by
    members: dict = {}  # component field -> indices of the vectors led there
    pending: dict = {}  # component field -> {(i, j): lcm} of the pairs still to reduce
    heap: list = []     # (sugar, counter, i, j); entries dropped from pending are stale
    counter = 0

    def insert(d: dict, top: int, sug: int):
        """Add d, whose terms have degree at most top, to the basis and update
        the pairs of its component (Gebauer-Moller; see the module docstring)."""
        nonlocal counter
        entry = engine.entry(d, top)
        lt = entry[1]
        comp = lt >> shift
        k, dk = len(basis), deg(lt)
        basis.append(d)
        entries.append(entry)
        lts.append(lt)
        ldeg.append(dk)
        sugar.append(sug)
        sk = min(d) >> shift == comp
        single.append(sk)
        buckets.setdefault(comp, []).append(entry)
        led = members.setdefault(comp, [])
        new = []
        for i in led:
            dl, lcm = lcm_of(lts[i], lt)
            new.append((dl, lcm, i))
        led.append(k)
        if not new:
            return
        pend = pending.setdefault(comp, {})
        if pend:  # B_k
            lcm_with = {i: lcm for _, lcm, i in new}
            dead = [ab for ab, lcm in pend.items()
                    if divides(lt, lcm) and lcm_with[ab[0]] != lcm
                    and lcm_with[ab[1]] != lcm]
            for ab in dead:
                del pend[ab]
        # M and F: in ascending lcm degree a strict divisor comes first, and
        # one that was dropped is strictly divided by one that was kept
        new.sort()
        groups: dict = {}  # lcm -> (its degree, the new pairs' partners with that lcm)
        for dl, lcm, i in new:
            if lcm in groups:
                groups[lcm][1].append(i)
            elif not any(divides(g, lcm) for g in groups):
                groups[lcm] = (dl, [i])
        for lcm, (dl, same) in groups.items():
            # product criterion: coprime iff deg lcm = deg lt_i + deg lt_h
            if sk and any(single[i] and dl == ldeg[i] + dk for i in same):
                continue
            i = same[0]
            pend[(i, k)] = lcm
            heapq.heappush(heap, (max(sugar[i] - ldeg[i], sug - dk) + dl, counter, i, k))
            counter += 1

    start = [engine.primitive(d) for d in gen_dicts if d]
    start.sort(key=max, reverse=True)
    for d in start:
        top = pk.top_degree(d)
        insert(d, top, top)

    while heap:
        sug, _, i, j = heapq.heappop(heap)
        lcm = pending[lts[j] >> shift].pop((i, j), None)
        if lcm is None:
            continue
        dl, reach = (lcm >> deg_shift) & mask, min(entries[i][2], entries[j][2])
        if dl > reach:
            raise term_overflow(dl - reach + FIELD_MAX)
        # fraction-free S-vector (b_j/h) m_i g_i - (b_i/h) m_j g_j, h = gcd(b_i, b_j)
        bi, bj = basis[i][lts[i]], basis[j][lts[j]]
        if bi != bj:
            h = gcd(bi, bj)
            bi, bj = bi // h, bj // h
        else:
            bi = bj = 1
        s: dict = {}
        axpy(s, bj, lcm - lts[i], basis[i])
        axpy(s, -bi, lcm - lts[j], basis[j])
        r = engine.nf(s, buckets)[0]
        if r:
            top = pk.top_degree(r)
            insert(engine.primitive(r), top, max(sug, top))

    # minimal: drop vectors whose leading term is divisible by another's
    order_idx = sorted(range(len(basis)), key=lts.__getitem__)
    keep: list = []
    kept: dict = {}  # component field -> leading terms kept there
    for i in order_idx:
        lt = lts[i]
        same = kept.setdefault(lt >> shift, [])
        if not any(divides(e, lt) for e in same):
            keep.append(i)
            same.append(lt)

    # reduced: tail-reduce each against one shared index (module docstring)
    index: dict = {}
    for i in keep:
        index.setdefault(lts[i] >> shift, []).append(entries[i])
    reduced = []
    for i in keep:
        d, lt = basis[i], lts[i]
        tail, s = engine.nf({t: c for t, c in d.items() if t != lt}, index)
        r = {lt: d[lt] * s}
        r.update(tail)
        reduced.append(engine.primitive(r))

    reduced.reverse()  # keep ascends by leading term; tail reduction keeps those
    return reduced


def _relation_dicts(rng: QuotientRing, rank: int) -> list:
    """The relation generators j*e_i, i < rank, as term dicts."""
    shift = rng.packing.shift
    return [{t - (i << shift): c for t, c in rel.terms.items()}
            for rel in rng.relations for i in range(rank)]


# ---------------------------------------------------------------------------
# the basis type, and every question read against it


class GroebnerBasis:
    """The reduced Gröbner basis of a submodule of R^(m + c), J-augmented in
    its first m components; the c components from m on are tags (c = 0 for
    a submodule's own basis, c = the matrix's columns for an ImageSolver).

    Built by one constructor from the generators' term dicts (the relation
    generators j*e_i, i < m, are added here).  It holds the engine, the basis
    as the engine stores it (_dicts: primitive over Q, descending leading
    terms) and its divisor index; every answer read against the basis goes
    through _reduce.  The basis leaves the engine monic, as the sparse
    columns of columns(), which vectors pads to dense tuples.
    """

    c = 0

    def __init__(self, rng: QuotientRing, m: int, gens: list):
        self.ring, self.m = rng, m
        self._engine = engine = _Engine(rng)
        self._dicts = _buchberger_dicts(
            [engine.cleared(d)[0] for d in gens + _relation_dicts(rng, m)], engine)
        self._index = engine.index(self._dicts)

    @property
    def vectors(self) -> list:
        """The basis as FreeVectors: columns() padded with one shared zero."""
        zero, rank = self.ring.zero(), self.m + self.c
        return [tuple(col.get(i, zero) for i in range(rank)) for col in self.columns()]

    def columns(self) -> list:
        """The basis as sparse columns {component: nonzero Polynomial}."""
        return [dict_to_col(_monic(d), self.ring) for d in self._dicts]

    def _reduce(self, d: dict, stop: bool = False) -> Optional[dict]:
        """The normal form of the vector with term dict d.  With stop, the
        part of it left once reduction reaches the tag components, or None
        if a term in a component below m is irreducible (nf's stop_comp).
        Denominators are cleared on the way in (_Engine.cleared) and the
        answer is divided by the scale on the way out, so it is the true one."""
        engine = self._engine
        d, k = engine.cleared(d)
        r, s = engine.nf(d, self._index, self.m if stop else None)
        k *= s
        return r if k == 1 or not r else _divided(r, k)


def buchberger(sub: Submodule) -> GroebnerBasis:
    """Reduced Gröbner basis of the J-augmented submodule."""
    return GroebnerBasis(sub.ring, sub.rank,
                         [col_to_dict(enumerate(g), sub.ring) for g in sub.generators])


def normal_form(vec: FreeVector, gb: GroebnerBasis) -> FreeVector:
    """Canonical remainder of vec against the basis."""
    _check_vector(vec, gb.ring, gb.m)
    col = dict_to_col(gb._reduce(col_to_dict(enumerate(vec), gb.ring)), gb.ring)
    zero = gb.ring.zero()
    return tuple(col.get(i, zero) for i in range(gb.m))


def reduces_to_zero(terms: dict, gb: GroebnerBasis) -> bool:
    """True iff the vector with this term dict (a polynomial's terms, for a
    rank-1 basis) reduces to zero against gb.  Every component is below
    gb.m, so reduction stops at the first irreducible leading term, which
    every nonzero remainder has."""
    return gb._reduce(terms, stop=True) is not None


def member(vec: FreeVector, sub: Submodule) -> bool:
    """Membership as an R/J-module element (J-augmented span)."""
    _check_vector(vec, sub.ring, sub.rank)
    return reduces_to_zero(col_to_dict(enumerate(vec), sub.ring), sub.groebner())


# ---------------------------------------------------------------------------
# syzygies and solving in images (elimination in rank m + c)


def syzygies(matrix, rng: QuotientRing) -> Submodule:
    """Kernel of the map R^c -> (R/J)^m given by an m x c matrix.

    matrix is a Matrix or a dense list of m rows of c polynomials; a Matrix
    may have m = 0 (then the kernel is everything).  Output generators
    satisfy M*s = 0 modulo J*R^m.
    """
    matrix = as_matrix(rng, matrix)
    m, c = matrix.shape
    if c == 0:
        return Submodule(rng, 1, [])
    kernel = ImageSolver(matrix, rng).kernel() if m else identity_matrix(rng, c)
    zero = rng.zero()
    return Submodule(rng, c, [tuple(col.get(r, zero) for r in range(c))
                              for col in mat_cols(kernel)])


class ImageSolver(GroebnerBasis):
    """The Gröbner basis of an m x c matrix M's tagged columns (col_j ; e_j)
    in R^(m + c), top block dominant: standard elimination (Eisenbud,
    Commutative Algebra, GTM 150, ch. 15).

    solve(v) returns coefficients q with  M*q = v  modulo J*R^m, or None if
    v is not in the column span plus J-augmentation, so a vector is a
    boundary of a differential d exactly when the solver of d solves it;
    kernel() returns the syzygies of the columns as the columns of a sparse
    matrix.  This is the workhorse behind resolutions, chain-map lifting,
    nullhomotopies and every homology question of the verdict; solver_of
    keeps one per matrix.
    """

    def __init__(self, matrix, rng: QuotientRing):
        matrix = as_matrix(rng, matrix)
        m, c = matrix.shape
        if m == 0:
            raise ValueError("target rank must be positive")
        shift = rng.packing.shift
        gens = [col_to_dict(col.items(), rng) for col in mat_cols(matrix)]
        for j, g in enumerate(gens):
            g[rng.one_key - ((m + j) << shift)] = rng.field.one
        self.c = c
        super().__init__(rng, m, gens)

    def solve(self, col: dict):
        """col is a sparse column {row: Polynomial}; q comes back as a sparse
        column {index: nonzero Polynomial}."""
        r = self._reduce(col_to_dict(col.items(), self.ring), stop=True)
        if r is None:
            return None
        neg, up = self.ring.field.neg, self.m << self.ring.packing.shift  # m + j -> j
        return dict_to_col({t + up: neg(v) for t, v in r.items()}, self.ring)

    def kernel(self) -> Matrix:
        """The c x k matrix whose columns generate {q : M*q = 0 modulo J*R^m}:
        the basis vectors that live entirely in the tag block, which are
        those whose leading term lives there."""
        shift = self.ring.packing.shift
        up, stop = self.m << shift, (1 - self.m) << shift
        return from_columns(self.ring, self.c, [
            dict_to_col({t + up: v for t, v in _monic(d).items()}, self.ring)
            for d in self._dicts if max(d) < stop])


def solver_of(matrix: Matrix) -> ImageSolver:
    """matrix's ImageSolver, built on first use and kept in the matrix's own
    slot: matrices are immutable, so the solver stays valid while the
    matrix lives, and it is freed with the matrix."""
    solver = matrix._solver
    if solver is None:
        solver = matrix._solver = ImageSolver(matrix, matrix.ring)
    return solver
