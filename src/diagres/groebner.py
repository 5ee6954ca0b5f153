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
identical inputs produce byte-identical bases, whatever order the pairs are
reduced in.

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
from dataclasses import dataclass, field
from operator import ge
from typing import Optional, Sequence

from ._terms import tup_lcm, tup_sub
from .matrices import Matrix, as_matrix, from_columns, identity_matrix, mat_cols
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

    def columns(self) -> list:
        """The basis as sparse columns {component: nonzero Polynomial}, in the
        order of vectors, without building the dense tuples."""
        return [dict_to_col(d, self.base.ring) for d in self._dicts]

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
    ldeg: list = []    # total degree of each leading term
    sugar: list = []
    single: list = []  # support concentrated in the leading component?
    buckets: dict = {}
    pending: dict = {}  # component -> {(i, j): lcm} of the pairs still to reduce
    heap: list = []     # (sugar, counter, i, j); entries dropped from pending are stale
    counter = 0

    def degree(d: dict) -> int:
        return max(sum(t) - t[0] for t in d)

    def insert(d: dict, sug: int):
        """Add d to the basis and update the pairs of its component
        (Gebauer-Moller; see the module docstring)."""
        nonlocal counter
        lt = engine.lead(d)
        comp, e = lt[0], lt[1:]
        k, dk = len(basis), sum(e)
        basis.append(d)
        lts.append(lt)
        ldeg.append(dk)
        sugar.append(sug)
        sk = all(t[0] == comp for t in d)
        single.append(sk)
        bucket = buckets.setdefault(comp, [])
        new = []
        for le, i in bucket:
            lcm = tup_lcm(le, e)
            new.append((sum(lcm), lcm, i))
        bucket.append((e, k))
        if not new:
            return
        pend = pending.setdefault(comp, {})
        if pend:  # B_k
            lcm_with = {i: lcm for _, lcm, i in new}
            dead = [ab for ab, lcm in pend.items()
                    if all(map(ge, lcm, e)) and lcm_with[ab[0]] != lcm
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
            elif not any(all(map(ge, lcm, g)) for g in groups):
                groups[lcm] = (dl, [i])
        for lcm, (dl, same) in groups.items():
            # product criterion: coprime iff deg lcm = deg lt_i + deg lt_h
            if sk and any(single[i] and dl == ldeg[i] + dk for i in same):
                continue
            i = same[0]
            pend[(i, k)] = lcm
            heapq.heappush(heap, (max(sugar[i] - ldeg[i], sug - dk) + dl, counter, i, k))
            counter += 1

    start = [engine.monic(d) for d in gen_dicts if d]
    start.sort(key=lambda d: engine.tkey(engine.lead(d)), reverse=True)
    for d in start:
        insert(d, degree(d))

    while heap:
        sug, _, i, j = heapq.heappop(heap)
        lcm = pending[lts[j][0]].pop((i, j), None)
        if lcm is None:
            continue
        s: dict = {}
        engine.axpy(s, fld.one, (0,) + tup_sub(lcm, lts[i][1:]), basis[i])
        engine.axpy(s, fld.neg(fld.one), (0,) + tup_sub(lcm, lts[j][1:]), basis[j])
        r = engine.nf(s, basis, buckets)
        if r:
            insert(engine.monic(r), max(sug, degree(r)))

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


def buchberger(sub: Submodule) -> GroebnerBasis:
    """Reduced Gröbner basis of the J-augmented submodule."""
    engine = _Engine(sub.ring, sub.rank)
    gens = [vec_to_dict(g) for g in sub.generators] + _relation_dicts(sub.ring, sub.rank)
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


class ImageSolver:
    """Expresses vectors as combinations of the columns of a fixed matrix.

    solve(v) returns coefficients q with  M*q = v  modulo J*R^m, or None if
    v is not in the column span plus J-augmentation, so a vector is a
    boundary of a differential d exactly when the solver of d solves it;
    kernel() returns the syzygies of the columns as the columns of a sparse
    matrix.  Both read the one elimination basis computed here; this is the
    workhorse behind resolutions, chain-map lifting, nullhomotopies and every
    homology question of the verdict.
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

    def kernel(self) -> Matrix:
        """The c x k matrix whose columns generate {q : M*q = 0 modulo J*R^m}:
        the basis vectors that live entirely in the tag block."""
        m = self.m
        return from_columns(self.ring, self.c, [
            dict_to_col({(t[0] - m,) + t[1:]: v for t, v in d.items()}, self.ring)
            for d in self.dicts if all(t[0] >= m for t in d)])
