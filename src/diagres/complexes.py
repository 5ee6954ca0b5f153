"""Bounded chain complexes of free modules over a QuotientRing.

Homological indexing throughout: the differential d_i maps C_i to C_{i-1}.
A complex stores ranks and differentials for a degree window [lo, hi]; all
identities hold modulo the relation ideal J of the ring, i.e. they are
identities of complexes of free R/J-modules written out over the ambient
polynomial ring.  The one identity ever checked is d*d = 0: a chain map f
commutes with d modulo J iff cone(f) is a complex, so a map is checked
through its cone.

Conventions fixed once:
  * cone(f)_i = source_{i-1} (+) target_i with differential
    [[-d_src, 0], [f, d_tgt]]  (source block first);
  * shift C[s]_i = C_{i-s}, differentials multiplied by (-1)^s.

verify_diagonal_qiso is the central verdict: a complex is quasi-isomorphic
to the cyclic module R/I through a supplied augmentation row.  Truncated
models of infinite resolutions are handled by an explicit degree window
inside which the verdict is claimed.

Differentials and chain-map components are stored as sparse matrices (see
matrices); the constructors convert dense lists of rows once, at the boundary.

For speed, homology questions are answered after cancelling scalar-unit
entries of the differentials (Gaussian cancellation); this produces a
homotopy-equivalent complex.  The augmentation row rides through the
cancellation as one more row of d_{i0}, never a pivot, so it comes out
expressed on the reduced basis and every verdict is unchanged.  Each
differential then has one elimination basis, its solver
(groebner.solver_of, built on first use and kept on the matrix): kernel
generators of d_i are read off the solver of d_i, and a column of C_i is a
boundary iff the solver of d_{i+1} solves it, or, with no d_{i+1}, iff its
entries lie in J.  Every homology question on a complex that is not a
complex (d*d != 0 mod J) raises InputDataError instead of answering.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Optional, Sequence

from ._terms import InputDataError, check_degree
from .groebner import (ImageSolver, Submodule, buchberger, member, reduces_to_zero,
                       solver_of)
from .matrices import (Matrix, as_matrix, block_matrix, identity_matrix, mat_cols, mat_eq,
                       mat_mul, mat_neg, mat_sub, zero_matrix)
from .polyring import Polynomial, QuotientRing, RingMismatchError, max_degree
from .scalars import _integral


# ---------------------------------------------------------------------------
# complexes


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
        self.ranks = ranks = {i: r for i, r in ranks.items() if r > 0}
        self.lo, self.hi = (min(ranks), max(ranks)) if ranks else (0, -1)
        self.diffs = _stored(rng, diffs, lambda i: (self.rank(i - 1), self.rank(i)),
                             "differential")
        self._qiso = {}  # (id(spec), pre_minimize) -> (spec, QisoResult)
        if check:
            self._require_square_zero()

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def diff(self, i: int) -> Matrix:
        return self.diffs[i] if i in self.diffs else zero_matrix(self.ring, self.rank(i - 1),
                                                                 self.rank(i))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return not self.ranks

    def _require_square_zero(self):
        """Raise InputDataError unless d*d = 0 (mod relations)."""
        if self._d2_failure is not None:
            raise InputDataError(f"d*d != 0 (mod relations) entering degree {self._d2_failure}")

    @cached_property
    def _d2_failure(self) -> Optional[int]:
        """First degree entered by a nonzero d*d (mod relations), or None."""
        for i in self.degrees():
            # A missing block is zero, and so is any product through it.
            if i in self.diffs and i - 1 in self.diffs:
                # Most products vanish before reduction and are never stored.
                for row in mat_mul(self.diffs[i - 1], self.diffs[i]).rows:
                    if not _vanishes(self.ring, row.values()):
                        return i - 1
        return None

    def __eq__(self, other):
        if self is other:
            return True
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


def _stored(rng: QuotientRing, mats: dict, shape, what: str) -> dict:
    """mats shape-checked, dense rows converted once, empty shapes dropped."""
    out = {}
    for i, m in mats.items():
        m = as_matrix(rng, m)
        if m.shape != shape(i):
            raise InputDataError(f"{what} at degree {i} has shape {m.shape}, want {shape(i)}")
        if all(m.shape):
            out[i] = m
    return out


def _relations_gb(rng: QuotientRing):
    gb = getattr(rng, "_relations_gb", None)
    if gb is None:
        gb = rng._relations_gb = buchberger(Submodule(rng, 1, []))
    return gb


def _vanishes(rng: QuotientRing, entries) -> bool:
    """True iff every polynomial in entries lies in the relation ideal J."""
    gb = _relations_gb(rng)
    return all(reduces_to_zero(e.terms, gb) for e in entries)


def zero_complex(rng: QuotientRing) -> ChainComplex:
    return ChainComplex(rng, {}, {}, check=False)


class ChainMap:
    """Degreewise matrices f_i: src_i -> tgt_i, meant to commute with d modulo J.

    A record: only the ring and the matrix shapes are checked here.  f
    commutes with d modulo J iff cone(f) is a complex, and that is how a map
    is checked: every verdict on a cone runs its d*d check, and a witness's
    last target, whose d holds every earlier cone's d as a block, must pass
    it.  So a wrong entry fails the verdict or the witness, not the build.
    """

    def __init__(self, src: ChainComplex, tgt: ChainComplex, mats: dict):
        if src.ring != tgt.ring:
            raise RingMismatchError("chain map between complexes over different rings")
        self.src = src
        self.tgt = tgt
        self.ring = src.ring
        self.mats = _stored(self.ring, mats, lambda i: (tgt.rank(i), src.rank(i)), "chain map")

    def mat(self, i: int) -> Matrix:
        return self.mats[i] if i in self.mats else zero_matrix(self.ring, self.tgt.rank(i),
                                                               self.src.rank(i))


def map_sub(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.src is not g.src or f.tgt is not g.tgt:
        if f.src != g.src or f.tgt != g.tgt:
            raise InputDataError("chain map difference needs equal source and target")
    mats = {i: mat_sub(f.mat(i), g.mat(i)) for i in set(f.mats) | set(g.mats)}
    return ChainMap(f.src, f.tgt, mats)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.tgt is not g.src and f.tgt != g.src:
        raise InputDataError("composition mismatch")
    mats = {i: mat_mul(g.mat(i), f.mat(i)) for i in f.mats}
    return ChainMap(f.src, g.tgt, mats)


# ---------------------------------------------------------------------------
# cone / shift / direct sum


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_i = src_{i-1} (+) tgt_i, d = [[-d_src, 0], [f, d_tgt]]."""
    src, tgt, rng = f.src, f.tgt, f.ring
    degs = range(min(src.lo + 1, tgt.lo), max(src.hi + 1, tgt.hi) + 1)
    diffs = {i: block_matrix(rng, [src.rank(i - 2), tgt.rank(i - 1)],
                             [src.rank(i - 1), tgt.rank(i)],
                             {(0, 0): mat_neg(src.diff(i - 1)), (1, 0): f.mat(i - 1),
                              (1, 1): tgt.diff(i)}) for i in degs}
    return ChainComplex(rng, {i: src.rank(i - 1) + tgt.rank(i) for i in degs}, diffs,
                        check=False)


def shift(cx: ChainComplex, s: int) -> ChainComplex:
    """C[s]_i = C_{i-s}; differentials pick up (-1)^s."""
    diffs = {i + s: mat_neg(m) if s % 2 else m for i, m in cx.diffs.items()}
    return ChainComplex(cx.ring, {i + s: r for i, r in cx.ranks.items()}, diffs, check=False)


def direct_sum(*summands: ChainComplex) -> ChainComplex:
    """The direct sum; of one summand, that summand itself (complexes are
    immutable), so a map into it reuses the solvers on its matrices."""
    if not summands:
        raise ValueError("need at least one summand")
    if len(summands) == 1:
        return summands[0]
    rng = summands[0].ring
    for c in summands:
        if c.ring != rng:
            raise RingMismatchError("direct sum over different rings")
    degs = range(min(c.lo for c in summands), max(c.hi for c in summands) + 1)
    diffs = {i: block_matrix(rng, [c.rank(i - 1) for c in summands],
                             [c.rank(i) for c in summands],
                             {(k, k): c.diffs[i] for k, c in enumerate(summands)
                              if i in c.diffs}) for i in degs}
    return ChainComplex(rng, {i: sum(c.rank(i) for c in summands) for i in degs}, diffs,
                        check=False)


def block_map(srcs: Sequence[ChainComplex], tgts: Sequence[ChainComplex],
              blocks: dict) -> ChainMap:
    """Chain map between direct sums from a {(tgt_idx, src_idx): ChainMap} dict."""
    src = direct_sum(*srcs)
    tgt = direct_sum(*tgts)
    mats = {i: block_matrix(src.ring, [t.rank(i) for t in tgts], [s.rank(i) for s in srcs],
                            {k: f.mat(i) for k, f in blocks.items() if f is not None})
            for i in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1)}
    return ChainMap(src, tgt, mats)


# ---------------------------------------------------------------------------
# Gaussian cancellation (minimization), carrying the augmentation row


_AUG = -1  # the key of the augmentation row in d[i0]; no basis index is negative


def minimize(cx: ChainComplex, aug: Optional[tuple] = None):
    """Cancel scalar-unit entries of the differentials.

    Returns (reduced complex, reduced row).  The reduced complex is a
    deformation retract of cx, so homology questions transfer verbatim.
    aug, if given, is a row (i0, {column: entry}) on C_{i0}; the reduced row
    is that row on the reduced basis (the row times the retract's
    inclusion), or None without aug.

    The elimination is sparse and keeps the original basis indices: d[k][r]
    maps the columns of row r of d_k to their nonzero entries.  Cancelling
    the unit at (r, c) of d_k deletes basis vector c of C_k and r of C_{k-1}
    in place, and the survivors are renumbered once, at the end.  The
    augmentation is one more row of d[i0], under the key _AUG, and never a
    pivot: the Schur update and the column deletions rewrite it by the same
    exact linear steps as the inclusion's columns.  An updated entry is
    built by axpy on a fresh copy of its terms, so no stored Polynomial is
    edited; each updated row is degree-checked against the pivot row first,
    so no term wraps.  Degrees are cleared in ascending order, each at its
    lexicographically first unit (row, column): a pivot at degree k only
    removes a row above and a column below it, so it never creates a unit
    outside d_k, and the pivots are those of a scan restarted from the
    lowest degree after every cancellation.
    """
    rng = cx.ring
    fld = rng.field
    axpy, one_key, top = fld.axpy, rng.one_key, rng.packing.top_degree

    def factor(x: Polynomial, inv, pdeg: int) -> list:
        """-x*inv as (coefficient, shift) pairs for axpy, after checking that
        its products with entries of degree at most pdeg fit.  An integral
        coefficient is an int, which keeps int entries ints."""
        check_degree(top(x.terms) + pdeg)
        return [(_integral(fld.neg(fld.mul(a, inv))), m - one_key) for m, a in x.terms.items()]

    def update(vec: dict, t, xs: list, e: Polynomial):
        """vec[t] += (the factor xs) * e in a fresh Polynomial; a zero result
        is removed."""
        old = vec.pop(t, None)
        terms = dict(old.terms) if old is not None else {}
        et = e.terms
        for a, m in xs:
            axpy(terms, a, m, et)
        if terms:
            vec[t] = p = Polynomial(rng, terms)
            return p

    keep = {k: dict.fromkeys(range(n)) for k, n in cx.ranks.items()}
    d = {k: dict(enumerate(map(dict, mat.rows))) for k, mat in cx.diffs.items()}
    if aug is not None:
        d.setdefault(aug[0], {})[_AUG] = dict(aug[1])
    for k in sorted(d):
        dk = d[k]
        # Candidate unit positions, checked when popped; the Schur update
        # pushes every position it makes a nonzero constant.
        heap = [(r, c) for r, row in dk.items() if r != _AUG
                for c, e in row.items() if e.is_constant()]
        heapq.heapify(heap)
        while heap:
            r, c = heapq.heappop(heap)
            prow = dk.get(r)
            if prow is None or c not in prow or not prow[c].is_constant():
                continue
            inv = fld.inv(prow.pop(c).constant_value())
            del dk[r]
            pdeg = max_degree(rng, prow.values())
            for s, row in dk.items():
                x = row.pop(c, None)
                if x is None:
                    continue
                xs = factor(x, inv, pdeg)
                for t, e in prow.items():
                    v = update(row, t, xs, e)
                    if v is not None and s != _AUG and v.is_constant():
                        heapq.heappush(heap, (s, t))
            # d_{k+1} loses row c, d_{k-1} loses column r
            d.get(k + 1, {}).pop(c, None)
            for row in d.get(k - 1, {}).values():
                row.pop(r, None)
            del keep[k][c], keep[k - 1][r]
    pos = {k: {b: n for n, b in enumerate(kb)} for k, kb in keep.items()}
    if aug is not None:
        aug = {pos[aug[0]][c]: e for c, e in d[aug[0]].pop(_AUG).items()}
    # The rows of d[k] are the survivors of C_{k-1}; a d[k] that held only
    # the augmentation is empty now and is not a differential.
    diffs = {k: Matrix(rng, len(keep[k - 1]), len(keep[k]),
                       [{pos[k][c]: e for c, e in d[k][r].items()} for r in keep[k - 1]])
             for k in d if d[k] and keep[k]}
    out = ChainComplex(rng, {k: len(b) for k, b in keep.items()}, diffs, check=False)
    return out, aug


# ---------------------------------------------------------------------------
# homology, answered from the solver of each differential (groebner.solver_of),
# kept on the matrix: a minimized complex's solvers are freed with it, and a
# given complex's are shared by every verdict on its matrices.


def _cycles(cx: ChainComplex, i: int) -> Matrix:
    """Generators of ker d_i, as the columns of a matrix; with no d_i (it is
    zero or maps to rank 0) the identity columns."""
    if i in cx.diffs:
        return solver_of(cx.diffs[i]).kernel()
    return identity_matrix(cx.ring, cx.rank(i))


def _is_boundary(cx: ChainComplex, i: int, col: dict) -> bool:
    """Whether the sparse column col of C_i lies in im(d_{i+1}) + J*C_i."""
    if i + 1 in cx.diffs:
        return solver_of(cx.diffs[i + 1]).solve(col) is not None
    return _vanishes(cx.ring, col.values())


def _zero_at(cx: ChainComplex, i: int) -> bool:
    if i not in cx.diffs and i + 1 not in cx.diffs:
        # The identity columns are boundaries iff 1 lies in J: one test, not n.
        return cx.rank(i) == 0 or _vanishes(cx.ring, [cx.ring.one()])
    return all(_is_boundary(cx, i, col) for col in mat_cols(_cycles(cx, i)))


def _exact(cx: ChainComplex, window: tuple, skip: Optional[int] = None) -> list:
    """One exact@i condition per degree i of the window other than skip."""
    return [ConditionResult("exact", i, _zero_at(cx, i))
            for i in range(window[0], window[1] + 1) if i != skip]


# ---------------------------------------------------------------------------
# the diagonal verdict


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

    def __init__(self, ideal: list, degree: int, augmentation: list,
                 window: Optional[tuple] = None):
        self.ideal = ideal
        self.degree = degree
        self.augmentation = augmentation
        self.window = window


class ConditionResult:
    def __init__(self, condition: str, degree: Optional[int], passed: bool, detail: str = ""):
        self.condition = condition
        self.degree = degree
        self.passed = passed
        self.detail = detail


class QisoResult:
    def __init__(self, passed: bool, i0: int, window: tuple, conditions: list,
                 truncated: bool = False):
        self.passed = passed
        self.i0 = i0
        self.window = window
        self.conditions = conditions
        self.truncated = truncated

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
    Precondition violations raise InputDataError, whose message ends with
    the DiagonalSpec field at fault, "at diagonal.<field>": a job file's
    diagonal block has the same keys, so the text is its JSON path too.

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
        raise InputDataError(f"designated degree {i0} outside [{cx.lo - 1}, {cx.hi + 1}] "
                             "at diagonal.degree")
    if len(dspec.augmentation) != cx.rank(i0):
        raise InputDataError(f"augmentation row of length {len(dspec.augmentation)}, want rank "
                             f"{cx.rank(i0)} at diagonal.augmentation")
    if all(p.is_zero() for p in dspec.augmentation):
        raise InputDataError("augmentation row must be nonzero at diagonal.augmentation")
    for p in dspec.ideal + dspec.augmentation:
        if p.ring != rng:
            raise InputDataError("diagonal data in a different ring")
    cx._require_square_zero()
    ideal_sub = Submodule(rng, 1, [(g,) for g in dspec.ideal])
    if member((rng.one(),), ideal_sub):
        raise InputDataError("diagonal ideal is not proper at diagonal.ideal")

    window = dspec.window if dspec.window is not None else (cx.lo - 1, cx.hi + 1)
    truncated = window != (cx.lo - 1, cx.hi + 1)
    if not (window[0] <= i0 <= window[1]):
        raise InputDataError(f"designated degree {i0} outside the claimed window "
                             f"{tuple(window)} at diagonal.window")

    eps = as_matrix(rng, [dspec.augmentation])
    work, aug = minimize(cx, (i0, eps.rows[0])) if pre_minimize else (cx, eps.rows[0])
    conditions = _exact(work, window, i0)

    # (b) well-definedness on boundaries, checked against the complex as
    # given: the reduced model only sees reduced boundaries, so checking
    # there would be strictly weaker.
    ok_b = True
    detail_b = ""
    row = mat_mul(eps, cx.diff(i0 + 1)).rows[0]
    for j in sorted(row):
        if not member((row[j],), ideal_sub):
            ok_b = False
            detail_b = f"column {j} of aug.d_{i0 + 1} escapes the ideal"
            break
    conditions.append(ConditionResult("well_defined", i0, ok_b, detail_b))

    # (c) and (d) read one elimination basis of the row (aug on the kernel
    # generators | I), with the augmentation carried to the reduced basis.
    cycles = _cycles(work, i0)
    k = cycles.ncols
    vals = mat_mul(Matrix(rng, 1, work.rank(i0), [aug]), cycles).rows[0]
    vals.update((k + j, g) for j, g in enumerate(dspec.ideal) if g.terms)
    combo = ImageSolver(Matrix(rng, 1, k + len(dspec.ideal), [vals]), rng)

    # (c) surjectivity: 1 in (aug values on the kernel) + I
    ok_c = combo.solve({0: rng.one()}) is not None
    conditions.append(ConditionResult(
        "surjective", i0, ok_c, "" if ok_c else f"1 is not in aug(ker d_{i0}) + I"))

    # (d) injectivity: kernel vectors with augmentation in I are boundaries;
    # they are the columns of cycles * (the kernel rows of the combinations)
    syz = combo.kernel()
    vecs = mat_mul(cycles, Matrix(rng, k, syz.ncols, syz.rows[:k]))
    bad = next((j for j, col in enumerate(mat_cols(vecs)) if not _is_boundary(work, i0, col)),
               None)
    conditions.append(ConditionResult(
        "injective", i0, bad is None,
        "" if bad is None else f"column {bad} of ker(aug mod I) on ker d_{i0} is not a boundary"))

    passed = all(c.passed for c in conditions)
    return QisoResult(passed, i0, window, conditions, truncated)


def exact_everywhere(cx: ChainComplex, window: Optional[tuple] = None) -> QisoResult:
    """All homology vanishes in the window (distant-chart expectation);
    InputDataError if cx is not a complex or the window is empty."""
    if window is not None and window[0] > window[1]:
        raise InputDataError(f"empty window {tuple(window)}: lo > hi")
    cx._require_square_zero()
    if cx.is_zero():
        return QisoResult(True, 0, window or (0, 0), [ConditionResult("exact", None, True)])
    if window is None:
        window = (cx.lo - 1, cx.hi + 1)
    conditions = _exact(minimize(cx)[0], window)
    return QisoResult(all(c.passed for c in conditions), 0, window, conditions)
