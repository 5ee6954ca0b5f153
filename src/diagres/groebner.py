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

from ._terms import tup_lcm, tup_sub
from .matrices import Matrix, as_matrix
from .polyring import Polynomial, QuotientRing, RingMismatchError

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


def dict_to_col(d: dict, rng: QuotientRing) -> dict:
    """A vector's term dict as a sparse column {component: nonzero Polynomial}."""
    polys: dict = {}
    for term, c in d.items():
        polys.setdefault(term[0], {})[term[1:]] = c
    return {i: Polynomial(rng, t) for i, t in polys.items()}


def unit_vectors(rng: QuotientRing, n: int) -> list:
    """The standard basis e_0, ..., e_{n-1} of R^n."""
    one, zero = rng.one(), rng.zero()
    out = []
    for j in range(n):
        v = [zero] * n
        v[j] = one
        out.append(tuple(v))
    return out


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


@dataclass(eq=False)
class GroebnerBasis:
    """Reduced, monic, deterministically sorted basis of an augmented submodule.

    The engine works on the term dicts; the basis as FreeVectors (dense
    tuples, descending leading terms) is built on first use of vectors.
    """

    base: Submodule
    order: str = "position-over-term/ring-order"
    _engine: object = field(default=None, repr=False)
    _dicts: list = field(default=None, repr=False)
    _buckets: dict = field(default=None, repr=False)
    _vectors: list = field(default=None, repr=False)

    @property
    def vectors(self) -> list:
        if self._vectors is None:
            self._vectors = [dict_to_vec(d, self.base.ring, self.base.rank) for d in self._dicts]
        return self._vectors

    def buckets(self) -> dict:
        if self._buckets is None:
            self._buckets = _make_buckets(self._dicts, self._engine)
        return self._buckets


def quotient_augment(sub: Submodule) -> Submodule:
    """Append j*e_i for every relation j; realizes computation over R/J."""
    rng, rank = sub.ring, sub.rank
    extra = [dict_to_vec(d, rng, rank) for d in _relation_dicts(rng, rank)]
    return Submodule(rng, rank, list(sub.generators) + extra)


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
        self.axpy = fld.axpy
        self.zero_shift = (0,) * (rng.nvars + 1)

    def lead(self, d: dict):
        """Largest term of a nonzero vector dict."""
        if len(d) == 1:
            return next(iter(d))
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
        # pairs only within a component: the bucket holds j's predecessors there
        for lexps, i in buckets[ltj[0]][:-1]:
            lcm = tup_lcm(lexps, ltj[1:])
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
    kept: dict = {}  # component -> leading exponents kept there
    for i in order_idx:
        lt = lts[i]
        same = kept.setdefault(lt[0], [])
        if all(tup_sub(lt[1:], e) is None for e in same):
            keep.append(i)
            same.append(lt[1:])
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


def _relation_dicts(rng: QuotientRing, rank: int) -> list:
    """quotient_augment's extra generators j*e_i, in its order, as term dicts."""
    return [{(i,) + m: c for m, c in rel.terms.items()}
            for rel in rng.relations for i in range(rank)]


def buchberger(sub: Submodule, augment: bool = True) -> GroebnerBasis:
    """Reduced Gröbner basis of the (by default J-augmented) submodule."""
    engine = _Engine(sub.ring, sub.rank)
    gens = [vec_to_dict(g) for g in sub.generators]
    if augment:
        gens += _relation_dicts(sub.ring, sub.rank)
    return GroebnerBasis(base=sub, _engine=engine, _dicts=_buchberger_dicts(gens, engine))


def _checked_terms(vec: FreeVector, gb: GroebnerBasis) -> dict:
    if len(vec) != gb.base.rank:
        raise ValueError("vector rank differs from basis rank")
    for p in vec:
        if p.ring != gb.base.ring:
            raise RingMismatchError("vector in a different ring")
    return vec_to_dict(vec)


def normal_form(vec: FreeVector, gb: GroebnerBasis) -> FreeVector:
    """Canonical remainder of vec against the basis."""
    r = gb._engine.nf(_checked_terms(vec, gb), gb._dicts, gb.buckets())
    return dict_to_vec(r, gb.base.ring, gb.base.rank)


def _reduces_to_zero(d: dict, gb: GroebnerBasis) -> bool:
    """True iff the vector with term dict d reduces to zero against gb.  Every
    component is below stop_comp, so nf stops at the first irreducible
    leading term, which every nonzero remainder has."""
    return gb._engine.nf(d, gb._dicts, gb.buckets(), stop_comp=gb.base.rank)[1]


def reduces_to_zero(terms: dict, gb: GroebnerBasis) -> bool:
    """True iff the polynomial with these terms reduces to zero against the
    rank-1 basis gb."""
    return _reduces_to_zero({(0,) + m: c for m, c in terms.items()}, gb)


def member(vec: FreeVector, sub: Submodule) -> bool:
    """Membership as an R/J-module element (J-augmented span)."""
    if len(vec) != sub.rank:
        raise ValueError("vector rank differs from ambient rank")
    gb = sub.groebner()
    return _reduces_to_zero(_checked_terms(vec, gb), gb)


def submodule_equal(a: Submodule, b: Submodule) -> bool:
    if a.rank != b.rank or a.ring != b.ring:
        raise ValueError("submodules of different ambient modules")
    return (all(member(g, b) for g in a.generators)
            and all(member(g, a) for g in b.generators))


# ---------------------------------------------------------------------------
# syzygies and solving in images (elimination in rank m + c)


def _elimination_gb(rng: QuotientRing, matrix: Matrix, m: int, c: int):
    """GB of {(col_j ; e_j)} + {j*e_i ; 0} in R^(m+c), top block dominant."""
    engine = _Engine(rng, m + c)
    gens = [{} for _ in range(c)]
    for i, row in enumerate(matrix.rows):
        for j, e in row.items():
            gens[j].update(((i,) + exps, v) for exps, v in e.terms.items())
    for j, g in enumerate(gens):
        g[(m + j,) + rng._zero_exps] = rng.field.one
    dicts = _buchberger_dicts(gens + _relation_dicts(rng, m), engine)
    return engine, dicts


def syzygies(matrix, rng: QuotientRing, rank: Optional[int] = None) -> Submodule:
    """Kernel of the map R^c -> (R/J)^m given by an m x c matrix.

    matrix is a Matrix or a dense list of m rows of c polynomials; m = 0 is
    allowed (then the kernel is everything, and a list needs rank = c).
    Output generators satisfy M*s = 0 modulo J*R^m.
    """
    if not isinstance(matrix, Matrix):
        if not matrix and rank is None:
            raise ValueError("need the column count for an empty matrix")
        matrix = as_matrix(rng, matrix, rank or 0)
    m, c = matrix.shape
    if c == 0:
        return Submodule(rng, 1, [])
    if m == 0:
        return Submodule(rng, c, unit_vectors(rng, c))
    return ImageSolver(matrix, rng).kernel()


class ImageSolver:
    """Expresses vectors as combinations of the columns of a fixed matrix.

    solve(v) returns coefficients q with  M*q = v  modulo J*R^m, or None if
    v is not in the column span plus J-augmentation; kernel() returns the
    syzygies of the columns.  Both read the one elimination basis computed
    here; this is the workhorse behind resolutions, chain-map lifting and
    nullhomotopies.
    """

    def __init__(self, matrix, rng: QuotientRing):
        self.ring = rng
        self.matrix = matrix = as_matrix(rng, matrix)
        self.m, self.c = matrix.shape
        if self.m == 0:
            raise ValueError("target rank must be positive")
        self.engine, self.dicts = _elimination_gb(rng, matrix, self.m, self.c)
        self.buckets = _make_buckets(self.dicts, self.engine)

    def solve(self, col: dict):
        """col is a sparse column {row: Polynomial}; q comes back as a sparse
        column {index: nonzero Polynomial}."""
        terms = {(i,) + e: c for i, p in col.items() for e, c in p.terms.items()}
        r, ok = self.engine.nf(terms, self.dicts, self.buckets, stop_comp=self.m)
        if not ok:
            return None
        fld = self.ring.field
        return dict_to_col({(t[0] - self.m,) + t[1:]: fld.neg(v) for t, v in r.items()},
                           self.ring)

    def kernel(self) -> Submodule:
        """Generators of {q : M*q = 0 modulo J*R^m}: the basis vectors that
        live entirely in the tag block."""
        m, gens = self.m, []
        for d in self.dicts:
            if all(t[0] >= m for t in d):
                shifted = {(t[0] - m,) + t[1:]: v for t, v in d.items()}
                gens.append(dict_to_vec(shifted, self.ring, self.c))
        return Submodule(self.ring, self.c, gens)
