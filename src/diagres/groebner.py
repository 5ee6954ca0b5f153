"""Buchberger's algorithm for submodules of free modules over a QuotientRing.

Everything is computed over the ambient polynomial ring: a computation over
R = k[x..]/J is realized by augmenting the generating set with the vectors
j*e_i for every relation j and every free-module slot i (quotient_augment).
One engine, one correctness argument.

Module order: position-over-term, lower component index dominant, ties by
the ring's monomial order.  Internally a module term of a rank-n free module
over an m-variable ring is the tuple (component, e_1, ..., e_m) and vectors
are dicts {term: coefficient}, which lets the shared term kernels treat
polynomials and vectors identically.

Determinism: bases are auto-reduced (the reduced Gröbner basis is unique
for a given order), made monic, and sorted by descending leading term, so
identical inputs produce byte-identical bases.  Pair selection is the normal
strategy (smallest lcm total degree first) with FIFO tie-break.

Auto-reduction builds one divisor index over the minimal basis.  Each
element's tail (its terms below the leading term) is reduced against the
whole index, and the leading term is put back.  A tail term is smaller than
the element's own leading term, so it is never divisible by it, and
reduction only introduces smaller terms: the element's own index entry is
never used and no leading term changes.

The classical coprimality (product) criterion is only valid for module pairs
when both vectors are concentrated in their common leading component; see
test_groebner for the standard rank-2 counterexample.  The criterion is
applied exactly in that sound regime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._terms import axpy_p, axpy_q, tup_lcm, tup_sub
from .polyring import Polynomial, QuotientRing, RingMismatchError
from .scalars import PrimeField

FreeVector = tuple  # tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# conversions between vector-of-polynomials and term dicts


def vec_to_dict(vec: Sequence[Polynomial]) -> dict:
    out = {}
    for comp, p in enumerate(vec):
        for exps, c in p.terms.items():
            out[(comp,) + exps] = c
    return out


def dict_to_vec(d: dict, rng: QuotientRing, rank: int) -> FreeVector:
    polys = [dict() for _ in range(rank)]
    for term, c in d.items():
        polys[term[0]][term[1:]] = c
    return tuple(Polynomial(rng, t) for t in polys)


def vec_is_zero(vec: Sequence[Polynomial]) -> bool:
    return all(p.is_zero() for p in vec)


@dataclass
class Submodule:
    """Submodule of a free module R^rank, given by generators."""

    ring: QuotientRing
    rank: int
    generators: list  # list[FreeVector]
    _gb: Optional["GroebnerBasis"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("ambient free module must have rank >= 1")
        for g in self.generators:
            if len(g) != self.rank:
                raise ValueError("generator length differs from ambient rank")
            for p in g:
                if p.ring != self.ring:
                    raise RingMismatchError("generator in a different ring")

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb


@dataclass
class GroebnerBasis:
    """Reduced, monic, deterministically sorted basis of an augmented submodule."""

    base: Submodule
    vectors: list  # list[FreeVector], descending leading terms
    order: str = "position-over-term/ring-order"
    _engine: object = field(default=None, repr=False, compare=False)
    _dicts: list = field(default=None, repr=False, compare=False)
    _buckets: dict = field(default=None, repr=False, compare=False)

    def buckets(self) -> dict:
        if self._buckets is None:
            self._buckets = _make_buckets(self._dicts, self._engine)
        return self._buckets


def quotient_augment(sub: Submodule) -> Submodule:
    """Append j*e_i for every relation j; realizes computation over R/J."""
    rng = sub.ring
    gens = list(sub.generators)
    zero = rng.zero()
    for rel in rng.relations:
        for i in range(sub.rank):
            vec = tuple(rel if j == i else zero for j in range(sub.rank))
            gens.append(vec)
    return Submodule(rng, sub.rank, gens)


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    def __init__(self, rng: QuotientRing, rank: int):
        self.ring = rng
        self.rank = rank
        rkey = rng.key
        self.tkey = lambda t: (-t[0], rkey(t[1:]))
        fld = rng.field
        self.field = fld
        if isinstance(fld, PrimeField):
            p = fld.p
            self.axpy = lambda dst, c, m, src: axpy_p(dst, c, m, src, p)
        else:
            self.axpy = axpy_q
        self.zero_shift = (0,) * (rng.nvars + 1)

    def lead(self, d: dict):
        """Largest term of a nonzero vector dict."""
        return max(d, key=self.tkey)

    def monic(self, d: dict) -> dict:
        lt = self.lead(d)
        c = d[lt]
        if c == self.field.one:
            return d
        inv = self.field.inv(c)
        return {t: self.field.mul(v, inv) for t, v in d.items()}

    def nf(self, d: dict, basis: list, buckets: dict, stop_comp: Optional[int] = None):
        """Full normal form of d against monic basis dicts.

        basis[i] is a dict with leading term basis_lt[i]; buckets maps a
        component to [(lead exponents, index)].  If stop_comp is given,
        reduction stops as soon as the working maximum falls into components
        >= stop_comp, and the function returns (remainder, True); an
        irreducible maximum in components < stop_comp returns (remainder,
        False).  Without stop_comp it returns the canonical remainder.
        """
        work = dict(d)
        out: dict = {}
        fld = self.field
        while work:
            t = self.lead(work)
            if stop_comp is not None and t[0] >= stop_comp:
                out.update(work)
                return out, True
            c = work[t]
            comp, exps = t[0], t[1:]
            hit = None
            for lexps, idx in buckets.get(comp, ()):
                m = tup_sub(exps, lexps)
                if m is not None:
                    hit = (m, idx)
                    break
            if hit is None:
                if stop_comp is not None:
                    out.update(work)
                    return out, False
                del work[t]
                out[t] = c
            else:
                m, idx = hit
                self.axpy(work, fld.neg(c), (0,) + m, basis[idx])
        if stop_comp is not None:
            return out, True
        return out


def _make_buckets(basis: list, engine: _Engine) -> dict:
    buckets: dict = {}
    for idx, d in enumerate(basis):
        lt = engine.lead(d)
        buckets.setdefault(lt[0], []).append((lt[1:], idx))
    return buckets


def _buchberger_dicts(gen_dicts: list, engine: _Engine) -> list:
    """Core loop on term dicts; returns the reduced monic sorted basis."""
    fld = engine.field
    basis: list = []
    lts: list = []
    single: list = []  # support concentrated in the leading component?
    buckets: dict = {}

    def support_single(d: dict, comp: int) -> bool:
        return all(t[0] == comp for t in d)

    start = [engine.monic(d) for d in gen_dicts if d]
    start.sort(key=lambda d: engine.tkey(engine.lead(d)), reverse=True)

    pairs: list = []
    counter = 0

    def push_pairs(j: int):
        nonlocal counter
        ltj = lts[j]
        for i in range(j):
            if lts[i][0] != ltj[0]:
                continue
            lcm = tup_lcm(lts[i][1:], ltj[1:])
            heapq.heappush(pairs, (sum(lcm), counter, i, j))
            counter += 1

    def insert(d: dict):
        lt = engine.lead(d)
        basis.append(d)
        lts.append(lt)
        single.append(support_single(d, lt[0]))
        buckets.setdefault(lt[0], []).append((lt[1:], len(basis) - 1))
        push_pairs(len(basis) - 1)

    for d in start:
        insert(d)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lti, ltj = lts[i], lts[j]
        lcm = tup_lcm(lti[1:], ltj[1:])
        # product criterion, in its module-sound form only
        if single[i] and single[j] and all(a + b == c for a, b, c in
                                           zip(lti[1:], ltj[1:], lcm)):
            continue
        mi = tup_sub(lcm, lti[1:])
        mj = tup_sub(lcm, ltj[1:])
        s: dict = {}
        engine.axpy(s, fld.one, (0,) + mi, basis[i])
        engine.axpy(s, fld.neg(fld.one), (0,) + mj, basis[j])
        r = engine.nf(s, basis, buckets)
        if r:
            insert(engine.monic(r))

    # minimal: drop vectors whose leading term is divisible by another's
    order_idx = sorted(range(len(basis)), key=lambda i: engine.tkey(lts[i]))
    keep: list = []
    for i in order_idx:
        lt = lts[i]
        redundant = False
        for j in keep:
            if lts[j][0] == lt[0] and tup_sub(lt[1:], lts[j][1:]) is not None:
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [basis[i] for i in keep]

    # reduced: tail-reduce each against one shared index (module docstring)
    index = _make_buckets(minimal, engine)
    reduced = []
    for i, d in zip(keep, minimal):
        lt = lts[i]
        tail = {t: c for t, c in d.items() if t != lt}
        r = {lt: d[lt]}
        r.update(engine.nf(tail, minimal, index))
        reduced.append(r)

    reduced.sort(key=lambda d: engine.tkey(engine.lead(d)), reverse=True)
    return reduced


def buchberger(sub: Submodule, augment: bool = True) -> GroebnerBasis:
    """Reduced Gröbner basis of the (by default J-augmented) submodule."""
    work = quotient_augment(sub) if augment else sub
    engine = _Engine(sub.ring, sub.rank)
    dicts = _buchberger_dicts([vec_to_dict(g) for g in work.generators], engine)
    vectors = [dict_to_vec(d, sub.ring, sub.rank) for d in dicts]
    return GroebnerBasis(base=sub, vectors=vectors, _engine=engine, _dicts=dicts)


def normal_form(vec: FreeVector, gb: GroebnerBasis) -> FreeVector:
    """Canonical remainder of vec against the basis."""
    engine: _Engine = gb._engine
    if len(vec) != gb.base.rank:
        raise ValueError("vector rank differs from basis rank")
    for p in vec:
        if p.ring != gb.base.ring:
            raise RingMismatchError("vector in a different ring")
    r = engine.nf(vec_to_dict(vec), gb._dicts, gb.buckets())
    return dict_to_vec(r, gb.base.ring, gb.base.rank)


def member(vec: FreeVector, sub: Submodule) -> bool:
    """Membership as an R/J-module element (J-augmented span)."""
    if len(vec) != sub.rank:
        raise ValueError("vector rank differs from ambient rank")
    return vec_is_zero(normal_form(vec, sub.groebner()))


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    if a.rank != b.rank or a.ring != b.ring:
        raise ValueError("submodules of different ambient modules")
    return (all(member(g, b) for g in a.generators)
            and all(member(g, a) for g in b.generators))


# ---------------------------------------------------------------------------
# syzygies and solving in images (elimination in rank m + c)


def _elimination_gb(rng: QuotientRing, matrix: list, m: int, c: int):
    """GB of {(col_j ; e_j)} + {j*e_i ; 0} in R^(m+c), top block dominant."""
    engine = _Engine(rng, m + c)
    zero = rng.zero()
    gens = []
    for j in range(c):
        col = [matrix[i][j] for i in range(m)]
        tag = [zero] * c
        tag[j] = rng.one()
        gens.append(tuple(col + tag))
    for rel in rng.relations:
        for i in range(m):
            vec = [zero] * (m + c)
            vec[i] = rel
            gens.append(tuple(vec))
    dicts = _buchberger_dicts([vec_to_dict(g) for g in gens], engine)
    return engine, dicts


def syzygies(matrix: list, rng: QuotientRing, rank: Optional[int] = None) -> Submodule:
    """Kernel of the map R^c -> (R/J)^m given by an m x c matrix.

    matrix is a list of m rows of c polynomials; m = 0 is allowed (then the
    kernel is everything).  Output generators satisfy M*s = 0 modulo J*R^m.
    """
    m = len(matrix)
    if m == 0:
        if rank is None:
            raise ValueError("need the column count for an empty matrix")
        c = rank
    else:
        c = len(matrix[0])
        if any(len(row) != c for row in matrix):
            raise ValueError("ragged matrix")
    if c == 0:
        return Submodule(rng, 1, [])
    if m == 0:
        gens = []
        one, zero = rng.one(), rng.zero()
        for j in range(c):
            gens.append(tuple(one if i == j else zero for i in range(c)))
        return Submodule(rng, c, gens)
    return ImageSolver(matrix, rng).kernel()


class ImageSolver:
    """Expresses vectors as combinations of the columns of a fixed matrix.

    solve(v) returns coefficients q with  M*q = v  modulo J*R^m, or None if
    v is not in the column span plus J-augmentation; kernel() returns the
    syzygies of the columns.  Both read the one elimination basis computed
    here; this is the workhorse behind resolutions, chain-map lifting and
    nullhomotopies.
    """

    def __init__(self, matrix: list, rng: QuotientRing):
        self.ring = rng
        self.matrix = matrix
        self.m = len(matrix)
        if self.m == 0:
            raise ValueError("target rank must be positive")
        self.c = len(matrix[0])
        self.engine, self.dicts = _elimination_gb(rng, matrix, self.m, self.c)
        self.buckets = _make_buckets(self.dicts, self.engine)

    def solve(self, vec: FreeVector):
        if len(vec) != self.m:
            raise ValueError("vector rank differs from matrix row count")
        d = vec_to_dict(vec)
        r, ok = self.engine.nf(d, self.dicts, self.buckets, stop_comp=self.m)
        if not ok:
            return None
        fld = self.ring.field
        shifted = {(t[0] - self.m,) + t[1:]: fld.neg(v) for t, v in r.items()}
        return dict_to_vec(shifted, self.ring, self.c) if self.c else ()

    def kernel(self) -> Submodule:
        """Generators of {q : M*q = 0 modulo J*R^m}: the basis vectors that
        live entirely in the tag block."""
        m, gens = self.m, []
        for d in self.dicts:
            if all(t[0] >= m for t in d):
                shifted = {(t[0] - m,) + t[1:]: v for t, v in d.items()}
                gens.append(dict_to_vec(shifted, self.ring, self.c))
        return Submodule(self.ring, self.c, gens)
