"""Free resolutions and the chain-level constructions built from them.

resolve_cyclic produces a free resolution of R/(g_1,...,g_k) over the
quotient ring by iterated syzygy computation; exactness away from degree 0
holds by construction, which is what makes truncation honest: the truncated
complex is exact at internal degrees 1..N-1 and resolves the module at 0.
Over the singular chart rings these resolutions are infinite and periodic,
so every consumer states the window in which it uses them.

lift_module_map and nullhomotopy implement the comparison theorem
mechanically by solving d*X = Y with the Gröbner engine (solutions are
taken modulo the relation ideal, which is exactly chain-map equality over
R/J).  Each differential gets one elimination basis per build:
resolve_cyclic reads its syzygies from it, and a later lift or nullhomotopy
into that resolution (or a truncation of it, which holds the same matrix
objects) solves against it (see _solver).  map_to_shifted_cone packages the
standard fact that a map into cone(f)[-1] is a map into the source plus a
nullhomotopy of the composite.

totalize_chain converts a short complex of modules-with-free-models into a
single twisted total complex: internal differentials are signed by object
degree, adjacent maps enter unsigned, and length-2 compositions are
corrected by engine-computed homotopies.  With objects at degrees 1 and 0 it
reproduces the cone convention [[-d, 0], [f, d]] exactly.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import ChainComplex, ChainMap, InputDataError, cone, shift
from .groebner import ImageSolver
from .matrices import block_matrix, mat_cols, mat_mul, mat_neg
from .polyring import Polynomial, QuotientRing


def _solver(matrix: list, rng: QuotientRing) -> ImageSolver:
    """The ImageSolver of a differential, computed once per matrix object.

    The memo lives on the ring and is keyed by the matrix's identity.  That
    is sound because complexes are immutable (see ChainComplex), and the
    solver holds a reference to its matrix, so the identity cannot be
    reused while the entry lives.  Only the build layer calls this;
    verify-time matrices are never retained.
    """
    memo = rng.__dict__.setdefault("_solvers", {})
    solver = memo.get(id(matrix))
    if solver is None:
        solver = memo[id(matrix)] = ImageSolver(matrix, rng)
    return solver


def resolve_cyclic(rng: QuotientRing, gens: Sequence[Polynomial], length: int) -> ChainComplex:
    """Free resolution of R/(gens) over rng, in degrees 0..length.

    gens may be empty (the free module itself).  Stops early when a syzygy
    module vanishes; otherwise truncates at the requested length.
    """
    ranks = {0: 1}
    diffs: dict = {}
    if not gens:
        return ChainComplex(rng, ranks, diffs, check=False)
    current = [list(gens)]  # 1 x k matrix
    deg = 1
    while deg <= length:
        cols = len(current[0])
        if cols == 0:
            break
        ranks[deg] = cols
        diffs[deg] = current
        syz = _solver(current, rng).kernel()
        if not syz.generators:
            break
        deg += 1
        if deg > length:
            break
        current = [[g[i] for g in syz.generators] for i in range(cols)]
    return ChainComplex(rng, ranks, diffs, check=False)


def truncate(cx: ChainComplex, hi: int) -> ChainComplex:
    """Drop all degrees above hi."""
    ranks = {i: r for i, r in cx.ranks.items() if i <= hi}
    diffs = {i: cx.diffs[i] for i in cx.diffs if i <= hi}
    return ChainComplex(cx.ring, ranks, diffs, check=False)


def lift_module_map(src: ChainComplex, tgt: ChainComplex, phi0) -> ChainMap:
    """Lift a map of presented modules to a chain map of resolutions.

    phi0 is the rank(tgt_0) x rank(src_0) matrix describing the map on the
    degree-0 covers.  Requires (and verifies by solving) that the map
    carries relations into relations modulo J.  src must not extend beyond
    tgt in degree.
    """
    if src.hi > tgt.hi:
        raise InputDataError("cannot lift: source resolution longer than target")
    rng = src.ring
    mats = {src.lo: phi0}
    prev = phi0
    for i in range(src.lo + 1, src.hi + 1):
        if src.rank(i) == 0:
            break
        if tgt.rank(i) == 0:
            raise InputDataError(f"cannot lift at degree {i}: target has rank 0")
        solver = _solver(tgt.diff(i), rng)
        need = mat_mul(prev, src.diff(i), rng)
        cols = []
        for col in mat_cols(need, src.rank(i)):
            q = solver.solve(col)
            if q is None:
                raise InputDataError(f"map does not lift at degree {i}")
            cols.append(q)
        mats[i] = [[cols[j][t] for j in range(len(cols))] for t in range(tgt.rank(i))]
        prev = mats[i]
    return ChainMap(src, tgt, mats, check=False)


def nullhomotopy(f: ChainMap) -> dict:
    """Matrices h_i: src_i -> tgt_{i+1} with f = d.h + h.d, else InputDataError."""
    src, tgt, rng = f.src, f.tgt, f.ring
    h: dict = {}
    prev = None  # h_{i-1}
    for i in range(src.lo, src.hi + 1):
        if src.rank(i) == 0:
            prev = None
            continue
        residual = f.mat(i)
        if prev is not None:
            corr = mat_mul(prev, src.diff(i), rng)
            residual = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(residual, corr)]
        if tgt.rank(i + 1) == 0:
            if any(not e.is_zero() for row in residual for e in row):
                raise InputDataError(f"no nullhomotopy: nonzero residual at degree {i} "
                                     "with no room above")
            prev = None
            continue
        solver = _solver(tgt.diff(i + 1), rng)
        cols = []
        for col in mat_cols(residual, src.rank(i)):
            q = solver.solve(col)
            if q is None:
                raise InputDataError(f"no nullhomotopy at degree {i}")
            cols.append(q)
        h[i] = [[cols[j][t] for j in range(len(cols))] for t in range(tgt.rank(i + 1))]
        prev = h[i]
    return h


def map_to_shifted_cone(mult: ChainMap, f: ChainMap, h: dict) -> ChainMap:
    """Chain map Y -> cone(f)[-1] from mult: Y -> src(f) and a nullhomotopy.

    h must satisfy d.h + h.d = f . mult.  cone(f)[-1]_i = src_i (+) tgt_{i+1}
    and the components are (mult_i, -h_i).
    """
    target = shift(cone(f), -1)
    rng = mult.ring
    src_f, tgt_f = f.src, f.tgt
    mats = {}
    lo, hi = mult.src.lo, mult.src.hi
    for i in range(lo, hi + 1):
        if mult.src.rank(i) == 0:
            continue
        rows = [src_f.rank(i), tgt_f.rank(i + 1)]
        blk = {}
        m = mult.mat(i)
        if rows[0]:
            blk[(0, 0)] = m
        if rows[1] and i in h:
            blk[(1, 0)] = mat_neg(h[i])
        mats[i] = block_matrix(rng, rows, [mult.src.rank(i)], blk)
    return ChainMap(mult.src, target, mats, check=False)


def totalize_chain(models: dict, lifts: dict) -> ChainComplex:
    """Total complex of a short complex of modules with free models.

    models: object degree -> ChainComplex (the free model of that object);
    lifts: object degree a -> matrix dict of the lifted map F_a -> F_{a-1}
    (a ChainMap between the models, entered unsigned).  Internal
    differentials are signed by (-1)^a.  For each pair of adjacent lifts the
    composite is cancelled by an engine-computed homotopy H with
    d.H + H.d = (-1)^(a+1) * (f_{a-1} . f_a), which makes d*d = 0 exactly.
    """
    degs = sorted(models, reverse=True)
    rng = models[degs[0]].ring
    homotopies: dict = {}
    for a in degs:
        if a - 1 in models and a in lifts and (a - 1) in lifts:
            comp = compose_mats(lifts[a - 1], lifts[a], models[a], models[a - 2], rng)
            if any(any(not e.is_zero() for e in row) for m in comp.values() for row in m):
                sign = 1 if (a + 1) % 2 == 0 else -1
                gmap = ChainMap(models[a], models[a - 2],
                                {i: (m if sign == 1 else mat_neg(m))
                                 for i, m in comp.items()}, check=False)
                homotopies[a] = nullhomotopy(gmap)

    # assemble
    ranks: dict = {}
    pieces: dict = {}
    for a in degs:
        cxa = models[a]
        for k in cxa.degrees():
            n = k + a
            ranks[n] = ranks.get(n, 0) + cxa.rank(k)
            pieces.setdefault(n, []).append((a, k))
    diffs: dict = {}
    lo, hi = min(ranks), max(ranks)
    for n in range(lo + 1, hi + 1):
        srcs = pieces.get(n, [])
        tgts = pieces.get(n - 1, [])
        rows = [models[a].rank(k) for a, k in tgts]
        cols = [models[a].rank(k) for a, k in srcs]
        if not rows or not cols or sum(rows) == 0 or sum(cols) == 0:
            continue
        blocks = {}
        for sj, (a, k) in enumerate(srcs):
            for ti, (b, l) in enumerate(tgts):
                if b == a and l == k - 1:
                    m = models[a].diff(k)
                    blocks[(ti, sj)] = m if a % 2 == 0 else mat_neg(m)
                elif b == a - 1 and l == k and a in lifts:
                    m = lifts[a].get(k)
                    if m is not None:
                        blocks[(ti, sj)] = m
                elif b == a - 2 and l == k + 1 and a in homotopies:
                    m = homotopies[a].get(k)
                    if m is not None:
                        blocks[(ti, sj)] = m
        diffs[n] = block_matrix(rng, rows, cols, blocks)
    return ChainComplex(rng, ranks, diffs, check=False)


def compose_mats(f: dict, g: dict, src: ChainComplex, tgt: ChainComplex,
                 rng: QuotientRing) -> dict:
    """Degreewise product f.g of two matrix dicts (g applied first)."""
    out = {}
    for i, gm in g.items():
        fm = f.get(i)
        if fm is None:
            continue
        out[i] = mat_mul(fm, gm, rng)
    return out
