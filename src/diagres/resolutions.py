"""Free resolutions and the chain-level constructions built from them.

tate writes down the resolution of R/(g_1,...,g_k) over R = S/(f) in
closed form, with no Gröbner work, when g is a regular sequence of S whose
span contains the relations f: the Koszul complex K(g) with one
divided-power variable per relation (Tate, "Homology of Noetherian rings
and local rings", Illinois J. Math. 1, 1957, Thm. 4).  The catalog builds
every model this way.  resolve_cyclic computes a resolution of any such
module by iterated syzygies instead; tests use it as the oracle for tate.
Either is exact away from degree 0, which is what makes truncation honest:
the truncated complex is exact at internal degrees 1..N-1 and resolves the
module at 0.  Over the singular chart rings these resolutions are infinite
(of linearly growing rank, since the rings have codimension 2), so every
consumer states the window in which it uses them.

lift_module_map and nullhomotopy implement the comparison theorem
mechanically by solving d*X = Y with the Gröbner engine (solutions are
taken modulo the relation ideal, which is exactly chain-map equality over
R/J).  Each differential gets one elimination basis, its solver, kept on
the matrix itself (groebner.solver_of): resolve_cyclic reads its syzygies
from it, and a later lift or nullhomotopy into that resolution (or a
truncation of it, which holds the same matrix objects) solves against it
(_solve_columns).  maps_to_shifted_cone packages the standard fact that a
map into cone(f)[-1] is a map into the source plus a nullhomotopy of the
composite; it computes the nullhomotopies itself and builds cone(f)[-1]
once, as the one target of every map it returns.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .complexes import ChainComplex, ChainMap, InputDataError, compose, cone, shift
from .groebner import solver_of
from .matrices import (Matrix, as_matrix, block_matrix, from_columns, mat_cols, mat_mul,
                       mat_neg, mat_sub)
from .polyring import Polynomial, QuotientRing


def _solve_columns(d: Matrix, rhs: Matrix, error: str) -> Matrix:
    """X with d*X = rhs modulo J, one column at a time against d's solver,
    else InputDataError(error)."""
    solver = solver_of(d)
    cols = []
    for col in mat_cols(rhs):
        q = solver.solve(col)
        if q is None:
            raise InputDataError(error)
        cols.append(q)
    return from_columns(d.ring, d.ncols, cols)


def resolve_cyclic(rng: QuotientRing, gens: Sequence[Polynomial], length: int) -> ChainComplex:
    """Free resolution of R/(gens) over rng, in degrees 0..length.

    gens may be empty (the free module itself).  Stops early when a syzygy
    module vanishes; otherwise truncates at the requested length.
    """
    ranks = {0: 1}
    diffs: dict = {}
    if not gens:
        return ChainComplex(rng, ranks, diffs, check=False)
    current = as_matrix(rng, [list(gens)])  # 1 x k
    for deg in range(1, length + 1):
        ranks[deg] = current.ncols
        diffs[deg] = current
        current = solver_of(current).kernel()  # the next differential
        if not current.ncols:
            break
    return ChainComplex(rng, ranks, diffs, check=False)


def tate(rng: QuotientRing, gens: Sequence[Polynomial],
         lifts: Sequence[Sequence[Polynomial]], top: int) -> ChainComplex:
    """The Tate model K(gens)<T_1, ..., T_c> of R/(gens) over rng, in degrees 0..top.

    There is one divided-power variable T_j, of degree 2, per relation f_j
    of rng, and lifts[j] writes f_j = sum_l lifts[j][l] * gens[l] exactly in
    the ambient ring S (InputDataError otherwise).  It resolves R/(gens) when
    gens is a regular sequence of S (Tate 1957, Thm. 4), which is not
    checked here.  Degree n has
    the basis e_I T^(a) with |I| + 2|a| = n: I a set of indices of gens, a
    a multiset of relation indices, ordered by |a|, then a, then I, each in
    itertools order.  The differential is

      d(e_I T^(a)) = sum_p (-1)^(|I|-1-p) g_{I_p} e_{I - I_p} T^(a)
                   + sum_{j in a} sum_{l not in I} (-1)^#{i in I: i > l}
                     lifts[j][l] e_{I + l} T^(a - j),

    so d_1 is the row gens.  No Gröbner work is done.
    """
    rels = rng.relations
    if len(lifts) != len(rels) or any(
            len(row) != len(gens)
            or sum((h * g for h, g in zip(row, gens)), rng.zero()).terms != f.terms
            for row, f in zip(lifts, rels)):
        raise InputDataError("Tate lifts do not write each relation in terms of the "
                             "generators")
    m = len(gens)
    signed = [(g, -g) for g in gens]
    signed_lifts = [[(h, -h) for h in row] for row in lifts]

    def basis(n: int) -> list:
        return [(I, a) for k in range(n // 2 + 1)
                for a in combinations_with_replacement(range(len(rels)), k)
                for I in combinations(range(m), n - 2 * k)]

    ranks, diffs = {0: 1}, {}
    prev = {((), ()): 0}
    for n in range(1, top + 1):
        cur = basis(n)
        if not cur:
            break
        rows = [{} for _ in prev]
        for col, (I, a) in enumerate(cur):
            for p, i in enumerate(I):
                rows[prev[I[:p] + I[p + 1:], a]][col] = signed[i][(len(I) - 1 - p) % 2]
            for j in set(a):
                q = a.index(j)
                rest = a[:q] + a[q + 1:]
                for l, hs in enumerate(signed_lifts[j]):
                    if l not in I and hs[0].terms:
                        above = sum(i > l for i in I)
                        rows[prev[tuple(sorted(I + (l,))), rest]][col] = hs[above % 2]
        ranks[n] = len(cur)
        diffs[n] = Matrix(rng, len(prev), len(cur), rows)
        prev = {b: k for k, b in enumerate(cur)}
    return ChainComplex(rng, ranks, diffs, check=False)


def truncate(cx: ChainComplex, hi: int) -> ChainComplex:
    """Drop all degrees above hi."""
    return ChainComplex(cx.ring, {i: r for i, r in cx.ranks.items() if i <= hi},
                        {i: m for i, m in cx.diffs.items() if i <= hi}, check=False)


def lift_module_map(src: ChainComplex, tgt: ChainComplex, phi0) -> ChainMap:
    """Lift a map of presented modules to a chain map of resolutions.

    phi0 is the rank(tgt_0) x rank(src_0) matrix (a Matrix or dense rows)
    describing the map on the degree-0 covers.  Requires (and verifies by
    solving) that the map carries relations into relations modulo J.  src
    must not extend beyond tgt in degree.
    """
    if src.hi > tgt.hi:
        raise InputDataError("cannot lift: source resolution longer than target")
    rng = src.ring
    prev = as_matrix(rng, phi0)
    mats = {src.lo: prev}
    for i in range(src.lo + 1, src.hi + 1):
        if src.rank(i) == 0:
            break
        if tgt.rank(i) == 0:
            raise InputDataError(f"cannot lift at degree {i}: target has rank 0")
        mats[i] = prev = _solve_columns(tgt.diff(i), mat_mul(prev, src.diff(i)),
                                        f"map does not lift at degree {i}")
    return ChainMap(src, tgt, mats, check=False)


def nullhomotopy(f: ChainMap) -> dict:
    """Matrices h_i: src_i -> tgt_{i+1} with f = d.h + h.d, else InputDataError."""
    src, tgt = f.src, f.tgt
    h: dict = {}
    prev = None  # h_{i-1}
    for i in range(src.lo, src.hi + 1):
        if src.rank(i) == 0:
            prev = None
            continue
        residual = f.mat(i)
        if prev is not None:
            residual = mat_sub(residual, mat_mul(prev, src.diff(i)))
        if tgt.rank(i + 1) == 0:
            if any(residual.rows):
                raise InputDataError(f"no nullhomotopy: nonzero residual at degree {i} "
                                     "with no room above")
            prev = None
            continue
        h[i] = prev = _solve_columns(tgt.diff(i + 1), residual,
                                     f"no nullhomotopy at degree {i}")
    return h


def maps_to_shifted_cone(mults: Sequence[ChainMap], f: ChainMap) -> list:
    """For each mult: Y -> src(f), the chain map Y -> cone(f)[-1] from mult and
    h, a nullhomotopy of f . mult (InputDataError if there is none).

    cone(f)[-1]_i = src_i (+) tgt_{i+1}, the components are (mult_i, -h_i),
    and every map ends at one cone(f)[-1], built once.
    """
    target = shift(cone(f), -1)
    out = []
    for mult in mults:
        h = nullhomotopy(compose(f, mult))
        mats = {}
        for i in mult.src.ranks:
            # block_matrix skips empty blocks; h has i only if f.tgt has i + 1
            blk = {(0, 0): mult.mat(i)}
            if i in h:
                blk[(1, 0)] = mat_neg(h[i])
            mats[i] = block_matrix(mult.ring, [f.src.rank(i), f.tgt.rank(i + 1)],
                                   [mult.src.rank(i)], blk)
        out.append(ChainMap(mult.src, target, mats, check=False))
    return out
