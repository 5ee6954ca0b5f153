"""Bounded chain complexes of free modules over a QuotientRing.

Homological indexing throughout: the differential d_i maps C_i to C_{i-1}.
A complex stores ranks and differentials for a degree window [lo, hi]; all
identities (d*d = 0, chain-map commutation) hold modulo the relation ideal J
of the ring, i.e. they are identities of complexes of free R/J-modules
written out over the ambient polynomial ring.

Conventions fixed once:
  * cone(f)_i = source_{i-1} (+) target_i with differential
    [[-d_src, 0], [f, d_tgt]]  (source block first);
  * shift C[s]_i = C_{i-s}, differentials multiplied by (-1)^s.

verify_diagonal_qiso is the central verdict: a complex is quasi-isomorphic
to the cyclic module R/I through a supplied augmentation row.  Truncated
models of infinite periodic resolutions are handled by an explicit degree
window inside which the verdict is claimed.

For speed, homology questions are answered after cancelling scalar-unit
entries of the differentials (Gaussian cancellation); this produces a
homotopy-equivalent complex together with an explicit degreewise inclusion,
through which the augmentation row is transported, so every verdict is
unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .groebner import Submodule, buchberger, member, normal_form, syzygies, vec_is_zero
from .matrices import (block_matrix, identity_matrix, mat_cols, mat_eq, mat_mul,
                       mat_neg, mat_shape, nonzero_rows, sparse_mul, zero_matrix)
from .polyring import Polynomial, QuotientRing, RingMismatchError


class InputDataError(ValueError):
    """Malformed verification input (not a failed verification)."""


# ---------------------------------------------------------------------------
# complexes


_UNCHECKED = object()


class ChainComplex:
    """ring, degree window [lo, hi], ranks, and differentials d_i: C_i -> C_{i-1}.

    Instances are immutable after construction: every operation (shift,
    cone, truncate, minimize, mutation controls, ...) builds a new complex
    and never edits ranks or matrices in place.  The d*d = 0 verdict is
    therefore computed at most once per instance and memoized, and so is
    each diagonal verdict (see verify_diagonal_qiso).
    """

    def __init__(self, rng: QuotientRing, ranks: dict, diffs: dict, check: bool = True):
        self.ring = rng
        ranks = {i: r for i, r in ranks.items() if r > 0}
        if ranks:
            self.lo = min(ranks)
            self.hi = max(ranks)
        else:
            self.lo, self.hi = 0, -1
        self.ranks = ranks
        self.diffs = {}
        for i, mat in diffs.items():
            want = (self.rank(i - 1), self.rank(i))
            if mat_shape(mat) != want:
                raise InputDataError(
                    f"differential at degree {i} has shape {mat_shape(mat)}, want {want}")
            if want[0] and want[1]:
                self.diffs[i] = mat
        self._d2_failure = _UNCHECKED
        self._qiso = {}  # (id(spec), pre_minimize) -> (spec, QisoResult)
        if check:
            err = self._square_zero_failure()
            if err is not None:
                raise InputDataError(f"d*d != 0 (mod relations) entering degree {err}")

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def diff(self, i: int):
        if i in self.diffs:
            return self.diffs[i]
        return zero_matrix(self.ring, self.rank(i - 1), self.rank(i))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return not self.ranks

    def _square_zero_failure(self) -> Optional[int]:
        """First degree entered by a nonzero d*d (mod relations), or None."""
        if self._d2_failure is _UNCHECKED:
            self._d2_failure = self._scan_square_zero()
        return self._d2_failure

    def _scan_square_zero(self) -> Optional[int]:
        gb = _relations_gb(self.ring)
        for i in self.degrees():
            # A missing block is zero, and so is any product through it.
            if i in self.diffs and i - 1 in self.diffs:
                # Most products vanish before reduction and are never stored.
                for row in sparse_mul(self.diffs[i - 1], self.diffs[i], self.ring):
                    for t in row.values():
                        if not vec_is_zero(normal_form((Polynomial(self.ring, t),), gb)):
                            return i - 1
        return None

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.ring != other.ring or self.ranks != other.ranks:
            return False
        degs = set(self.diffs) | set(other.diffs)
        return all(mat_eq(self.diff(i), other.diff(i)) for i in degs)

    __hash__ = None

    def __repr__(self):
        ranks = ", ".join(f"{i}:{self.rank(i)}" for i in self.degrees())
        return f"ChainComplex([{self.lo},{self.hi}] ranks {{{ranks}}})"


def _relations_gb(rng: QuotientRing):
    gb = getattr(rng, "_relations_gb", None)
    if gb is None:
        gb = buchberger(Submodule(rng, 1, [(r,) for r in rng.relations]), augment=False)
        rng._relations_gb = gb
    return gb


def check_differential(cx: ChainComplex) -> bool:
    """True iff every composite d.d reduces to zero modulo the relations."""
    return cx._square_zero_failure() is None


def zero_complex(rng: QuotientRing) -> ChainComplex:
    return ChainComplex(rng, {}, {}, check=False)


class ChainMap:
    """Degreewise matrices f_i: src_i -> tgt_i commuting with d modulo J."""

    def __init__(self, src: ChainComplex, tgt: ChainComplex, mats: dict, check: bool = True):
        if src.ring != tgt.ring:
            raise RingMismatchError("chain map between complexes over different rings")
        self.src = src
        self.tgt = tgt
        self.ring = src.ring
        self.mats = {}
        for i, m in mats.items():
            want = (tgt.rank(i), src.rank(i))
            if mat_shape(m) != want:
                raise InputDataError(
                    f"chain map at degree {i} has shape {mat_shape(m)}, want {want}")
            if want[0] and want[1]:
                self.mats[i] = m
        if check and not self.commutes():
            raise InputDataError("not a chain map: f.d != d.f modulo relations")

    def mat(self, i: int):
        if i in self.mats:
            return self.mats[i]
        return zero_matrix(self.ring, self.tgt.rank(i), self.src.rank(i))

    def commutes(self) -> bool:
        rng = self.ring
        gb = _relations_gb(rng)
        lo = min(self.src.lo, self.tgt.lo)
        hi = max(self.src.hi, self.tgt.hi)
        for i in range(lo, hi + 2):
            rows, cols = self.tgt.rank(i - 1), self.src.rank(i)
            if rows == 0 or cols == 0:
                continue
            lhs = sparse_mul(self.tgt.diff(i), self.mat(i), rng)
            rhs = sparse_mul(self.mat(i - 1), self.src.diff(i), rng)
            for ra, rb in zip(lhs, rhs):
                for j in ra.keys() | rb.keys():
                    e = Polynomial(rng, ra.get(j, {})) - Polynomial(rng, rb.get(j, {}))
                    if not e.is_zero() and not vec_is_zero(normal_form((e,), gb)):
                        return False
        return True


def map_sub(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.src is not g.src or f.tgt is not g.tgt:
        if f.src != g.src or f.tgt != g.tgt:
            raise InputDataError("chain map difference needs equal source and target")
    mats = {}
    for i in set(f.mats) | set(g.mats):
        fm, gm = f.mat(i), g.mat(i)
        mats[i] = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(fm, gm)]
    return ChainMap(f.src, f.tgt, mats, check=False)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.tgt is not g.src and f.tgt != g.src:
        raise InputDataError("composition mismatch")
    mats = {}
    for i in set(f.mats):
        mats[i] = mat_mul(g.mat(i), f.mat(i), f.ring)
    return ChainMap(f.src, g.tgt, mats, check=False)


# ---------------------------------------------------------------------------
# cone / shift / direct sum


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_i = src_{i-1} (+) tgt_i, d = [[-d_src, 0], [f, d_tgt]]."""
    src, tgt, rng = f.src, f.tgt, f.ring
    ranks = {}
    lo = min(src.lo + 1, tgt.lo)
    hi = max(src.hi + 1, tgt.hi)
    for i in range(lo, hi + 1):
        r = src.rank(i - 1) + tgt.rank(i)
        if r:
            ranks[i] = r
    diffs = {}
    for i in range(lo, hi + 1):
        rows = [src.rank(i - 2), tgt.rank(i - 1)]
        cols = [src.rank(i - 1), tgt.rank(i)]
        if sum(rows) == 0 or sum(cols) == 0:
            continue
        diffs[i] = block_matrix(rng, rows, cols, {
            (0, 0): mat_neg(src.diff(i - 1)),
            (1, 0): f.mat(i - 1),
            (1, 1): tgt.diff(i),
        })
    return ChainComplex(rng, ranks, diffs, check=False)


def shift(cx: ChainComplex, s: int) -> ChainComplex:
    """C[s]_i = C_{i-s}; differentials pick up (-1)^s."""
    rng = cx.ring
    ranks = {i + s: r for i, r in cx.ranks.items()}
    sign = 1 if s % 2 == 0 else -1
    diffs = {}
    for i, m in cx.diffs.items():
        diffs[i + s] = m if sign == 1 else mat_neg(m)
    return ChainComplex(rng, ranks, diffs, check=False)


def shift_map(f: ChainMap, s: int) -> ChainMap:
    return ChainMap(shift(f.src, s), shift(f.tgt, s),
                    {i + s: m for i, m in f.mats.items()}, check=False)


def direct_sum(*summands: ChainComplex) -> ChainComplex:
    if not summands:
        raise ValueError("need at least one summand")
    rng = summands[0].ring
    for c in summands:
        if c.ring != rng:
            raise RingMismatchError("direct sum over different rings")
    ranks: dict = {}
    lo = min(c.lo for c in summands)
    hi = max(c.hi for c in summands)
    for i in range(lo, hi + 1):
        r = sum(c.rank(i) for c in summands)
        if r:
            ranks[i] = r
    diffs = {}
    for i in range(lo, hi + 1):
        rows = [c.rank(i - 1) for c in summands]
        cols = [c.rank(i) for c in summands]
        if sum(rows) == 0 or sum(cols) == 0:
            continue
        blocks = {(k, k): c.diff(i) for k, c in enumerate(summands)
                  if rows[k] and cols[k]}
        diffs[i] = block_matrix(rng, rows, cols, blocks)
    return ChainComplex(rng, ranks, diffs, check=False)


def block_map(srcs: Sequence[ChainComplex], tgts: Sequence[ChainComplex],
              blocks: dict) -> ChainMap:
    """Chain map between direct sums from a {(tgt_idx, src_idx): ChainMap} dict.

    Not checked to commute: a block matrix of chain maps is one.
    """
    src = direct_sum(*srcs)
    tgt = direct_sum(*tgts)
    rng = src.ring
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    mats = {}
    for i in range(lo, hi + 1):
        rows = [t.rank(i) for t in tgts]
        cols = [s.rank(i) for s in srcs]
        if sum(rows) == 0 or sum(cols) == 0:
            continue
        bl = {}
        for (ti, si), f in blocks.items():
            if f is None:
                continue
            if rows[ti] and cols[si]:
                bl[(ti, si)] = f.mat(i)
        mats[i] = block_matrix(rng, rows, cols, bl)
    return ChainMap(src, tgt, mats, check=False)


# ---------------------------------------------------------------------------
# Gaussian cancellation (minimization) with inclusion transport


def minimize(cx: ChainComplex, transport_degrees: Sequence[int] = ()):
    """Cancel scalar-unit entries of the differentials.

    Returns (reduced complex, incl) where incl maps each requested degree to
    a matrix original_rank x reduced_rank whose columns express the reduced
    basis inside the original one; the inclusion is a chain map and a
    quasi-isomorphism, so homology questions transfer verbatim.

    The elimination is sparse and keeps the original basis indices: d[k][r]
    maps the columns of row r of d_k to their nonzero entries, and incl[k][t]
    is reduced basis vector t of C_k over the original basis.  Cancelling the
    unit at (r, c) of d_k deletes basis vector c of C_k and r of C_{k-1} in
    place; nothing is renumbered, and the survivors are packed into dense
    matrices once, at the end.  Degrees are cleared in ascending order, each
    at its lexicographically first unit (row, column): a pivot at degree k
    only removes a row above and a column below it, so it never creates a
    unit outside d_k, and the pivots are those of a scan restarted from the
    lowest degree after every cancellation.
    """
    rng = cx.ring
    zero = rng.zero()
    keep = {k: dict.fromkeys(range(n)) for k, n in cx.ranks.items()}
    d = {k: dict(enumerate(nonzero_rows(mat))) for k, mat in cx.diffs.items()}
    incl = {k: {t: {t: rng.one()} for t in range(cx.rank(k))} for k in transport_degrees}
    for k in sorted(d):
        dk = d[k]
        # Candidate unit positions, checked when popped; the Schur update
        # pushes every position it makes a nonzero constant.
        heap = [(r, c) for r, row in dk.items() for c, e in row.items() if e.is_constant()]
        heapq.heapify(heap)
        while heap:
            r, c = heapq.heappop(heap)
            prow = dk.get(r)
            if prow is None or c not in prow or not prow[c].is_constant():
                continue
            inv = rng.field.inv(prow.pop(c).constant_value())
            del dk[r]
            for s, row in dk.items():
                x = row.pop(c, None)
                if x is None:
                    continue
                corr = x.scale(inv)
                for t, e in prow.items():
                    v = row.get(t, zero) - corr * e
                    if v.is_zero():
                        row.pop(t, None)
                    else:
                        row[t] = v
                        if v.is_constant():
                            heapq.heappush(heap, (s, t))
            if k in incl:
                ccol = incl[k].pop(c)
                for t, e in prow.items():
                    tcol = incl[k][t]
                    for s, x in ccol.items():
                        tcol[s] = tcol.get(s, zero) - x * e.scale(inv)
            if k - 1 in incl:
                del incl[k - 1][r]
            # d_{k+1} loses row c, d_{k-1} loses column r
            d.get(k + 1, {}).pop(c, None)
            for row in d.get(k - 1, {}).values():
                row.pop(r, None)
            del keep[k][c], keep[k - 1][r]
    diffs = {k: [[d[k][r].get(c, zero) for c in keep[k]] for r in keep[k - 1]]
             for k in d if keep[k] and keep[k - 1]}
    out = ChainComplex(rng, {k: len(b) for k, b in keep.items()}, diffs, check=False)
    return out, {k: [[col.get(s, zero) for col in cols.values()] for s in range(cx.rank(k))]
                 for k, cols in incl.items()}


# ---------------------------------------------------------------------------
# homology


def homology_is_zero_at(cx: ChainComplex, i: int, pre_minimize: bool = True) -> bool:
    """True iff ker(d_i) is contained in im(d_{i+1}) + J*C_i."""
    if pre_minimize:
        cx, _ = minimize(cx)
    return _homology_zero_raw(cx, i)


def _homology_zero_raw(cx: ChainComplex, i: int) -> bool:
    if cx.rank(i) == 0:
        return True
    kernel = _kernel_generators(cx, i)
    if not kernel:
        return True
    image = _image_submodule(cx, i)
    return all(member(g, image) for g in kernel)


def _kernel_generators(cx: ChainComplex, i: int) -> list:
    # A missing d_i is zero (or maps to rank 0): the kernel is all of C_i.
    if i not in cx.diffs:
        return [tuple(row) for row in identity_matrix(cx.ring, cx.rank(i))]
    return syzygies(cx.diffs[i], cx.ring, rank=cx.rank(i)).generators


def _image_submodule(cx: ChainComplex, i: int) -> Submodule:
    gens = []
    if i + 1 in cx.diffs:
        gens = mat_cols(cx.diffs[i + 1], cx.rank(i + 1))
    return Submodule(cx.ring, cx.rank(i), gens)


# ---------------------------------------------------------------------------
# the diagonal verdict


@dataclass
class DiagonalSpec:
    """Cyclic target R/I plus the augmentation row identifying it in homology.

    ideal: generators of I as rank-1 vectors' polynomials; degree: where the
    homology is claimed; augmentation: 1 x rank(degree) row; window: degree
    range (inclusive) in which exactness is claimed -- mandatory whenever the
    complex truncates an infinite resolution, defaulting to one past the
    complex's own span otherwise.

    Instances are immutable after construction, like ChainComplex: the
    lists are never edited in place (mutation controls build a new spec),
    so a verdict memoized against a spec object stays valid.
    """

    ideal: list
    degree: int
    augmentation: list
    window: Optional[tuple] = None


@dataclass
class ConditionResult:
    condition: str
    degree: Optional[int]
    passed: bool
    detail: str = ""


@dataclass
class QisoResult:
    passed: bool
    i0: int
    window: tuple
    conditions: list
    truncated: bool = False

    def first_failure(self) -> Optional[ConditionResult]:
        for c in self.conditions:
            if not c.passed:
                return c
        return None


def verify_diagonal_qiso(cx: ChainComplex, dspec: DiagonalSpec,
                         pre_minimize: bool = True) -> QisoResult:
    """Check that cx is quasi-isomorphic to R/I in degree i0 via the row.

    Conditions, in report order:
      exact@i          homology vanishes at every window degree i != i0
      well_defined     aug . d_{i0+1} has all columns in I
      surjective       1 lies in (aug . ker-generators) + I
      injective        kernel elements sent into I are boundaries mod J
    Precondition violations raise InputDataError.

    The result is memoized on the complex per (spec object, pre_minimize);
    the memo holds the spec, so its identity cannot be reused while the
    complex lives, and both are immutable.  A witness whose final complex
    and spec are a catalog entry's own thus reuses the entry's result.
    Precondition violations are not memoized.
    """
    key = (id(dspec), pre_minimize)
    hit = cx._qiso.get(key)
    if hit is None:
        hit = cx._qiso[key] = (dspec, _qiso_verdict(cx, dspec, pre_minimize))
    return hit[1]


def _qiso_verdict(cx: ChainComplex, dspec: DiagonalSpec,
                  pre_minimize: bool) -> QisoResult:
    """The body of verify_diagonal_qiso, run once per memo key."""
    rng = cx.ring
    i0 = dspec.degree
    if cx.is_zero():
        raise InputDataError("cannot match a cyclic module with the zero complex")
    if not (cx.lo - 1 <= i0 <= cx.hi + 1):
        raise InputDataError(f"designated degree {i0} outside [{cx.lo - 1}, {cx.hi + 1}]")
    if len(dspec.augmentation) != cx.rank(i0):
        raise InputDataError("augmentation row length differs from rank at the degree")
    if all(p.is_zero() for p in dspec.augmentation):
        raise InputDataError("augmentation row must be nonzero")
    for p in dspec.ideal + dspec.augmentation:
        if p.ring != rng:
            raise InputDataError("diagonal data in a different ring")
    err = cx._square_zero_failure()
    if err is not None:
        raise InputDataError(f"d*d != 0 (mod relations) entering degree {err}")
    ideal_sub = Submodule(rng, 1, [(g,) for g in dspec.ideal])
    if member((rng.one(),), ideal_sub):
        raise InputDataError("diagonal ideal is not proper")

    window = dspec.window if dspec.window is not None else (cx.lo - 1, cx.hi + 1)
    truncated = window != (cx.lo - 1, cx.hi + 1)
    if not (window[0] <= i0 <= window[1]):
        raise InputDataError("designated degree outside the claimed window")

    work, incl = (minimize(cx, transport_degrees=(i0,)) if pre_minimize
                  else (cx, {i0: identity_matrix(rng, cx.rank(i0))}))
    aug = _transport_row(dspec.augmentation, incl[i0], rng)

    conditions = []
    for i in range(window[0], window[1] + 1):
        if i == i0:
            continue
        ok = _homology_zero_raw(work, i)
        conditions.append(ConditionResult("exact", i, ok))

    # (b) well-definedness on boundaries, checked against the complex as
    # given: the reduced model only sees reduced boundaries, so checking
    # there would be strictly weaker.
    ok_b = True
    detail_b = ""
    if cx.rank(i0 + 1):
        raw_aug = dspec.augmentation
        for j, col in enumerate(mat_cols(_aug_matrix(raw_aug, cx, i0), cx.rank(i0 + 1))):
            if not member(col, ideal_sub):
                ok_b = False
                detail_b = f"column {j} of aug.d_{i0 + 1} escapes the ideal"
                break
    conditions.append(ConditionResult("well_defined", i0, ok_b, detail_b))

    kernel = _kernel_generators(work, i0) if work.rank(i0) else []

    # (c) surjectivity: 1 in (aug values on the kernel) + I
    vals = [_row_dot(aug, g, rng) for g in kernel]
    surj_sub = Submodule(rng, 1, [(v,) for v in vals] + [(g,) for g in dspec.ideal])
    ok_c = member((rng.one(),), surj_sub)
    conditions.append(ConditionResult("surjective", i0, ok_c))

    # (d) injectivity: kernel vectors with augmentation in I are boundaries
    ok_d = True
    detail_d = ""
    if kernel:
        combo_rows = [vals + [g for g in dspec.ideal]]
        combos = syzygies(combo_rows, rng, rank=len(vals) + len(dspec.ideal))
        image = _image_submodule(work, i0)
        for s in combos.generators:
            vec = tuple(rng.zero() for _ in range(work.rank(i0)))
            for coeff, g in zip(s[:len(kernel)], kernel):
                if coeff.is_zero():
                    continue
                vec = tuple(a + coeff * b for a, b in zip(vec, g))
            if not vec_is_zero(vec) and not member(vec, image):
                ok_d = False
                detail_d = "kernel class with augmentation in the ideal is not a boundary"
                break
    conditions.append(ConditionResult("injective", i0, ok_d))

    passed = all(c.passed for c in conditions)
    return QisoResult(passed, i0, window, conditions, truncated)


def _aug_matrix(aug: list, cx: ChainComplex, i0: int):
    return mat_mul([aug], cx.diff(i0 + 1), cx.ring)


def _row_dot(row: list, vec, rng: QuotientRing) -> Polynomial:
    out = rng.zero()
    for a, b in zip(row, vec):
        if not a.is_zero() and not b.is_zero():
            out = out + a * b
    return out


def _transport_row(row: list, incl, rng: QuotientRing) -> list:
    return [_row_dot(row, tuple(incl[s][j] for s in range(len(incl))), rng)
            for j in range(len(incl[0]) if incl else 0)]


def exact_everywhere(cx: ChainComplex, window: Optional[tuple] = None) -> QisoResult:
    """All homology vanishes in the window (distant-chart expectation)."""
    if cx.is_zero():
        return QisoResult(True, 0, window or (0, 0), [ConditionResult("exact", None, True)])
    if window is None:
        window = (cx.lo - 1, cx.hi + 1)
    work, _ = minimize(cx)
    conditions = [ConditionResult("exact", i, _homology_zero_raw(work, i))
                  for i in range(window[0], window[1] + 1)]
    return QisoResult(all(c.passed for c in conditions), 0, window, conditions)
