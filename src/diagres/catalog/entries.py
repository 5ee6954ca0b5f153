"""Catalog entries: affine line, nodal conic, cycle of projective lines.

Every complex is generated by the fixed conventions (Tate models, whose
relation lifts are stated here; cone = [[-d,0],[f,d]], shift sign (-1)^s),
so the matrices are reproducible byte for byte.  An ideal sheaf is
cone(O -> k)[-1] of a lifted skyscraper projection, and every map into it
(sections_into_ideal_sheaf) ends at that one object.  Augmentation rows are
frozen data: they were derived once by solving the well-definedness
constraints over the exact field and are locked in the test suite.

Truncation: over the singular rings all resolutions are infinite, with
ranks growing linearly (Tate, Illinois J. Math. 1, 1957, Thm. 4).
Target models carry TARGET_LEN degrees and source models one less (a source
map's nullhomotopy needs one more target degree), which confines truncation
junk to degrees above WINDOW_HI; every verdict over these rings is claimed
only inside the window [-1, WINDOW_HI].  Each model is truncated once, and
the maps from it share that truncation.

Sharing: the nodal conic, its product resolution and the cycle's diagonal
chart are all built from the same conic pieces (resolutions, skyscraper
projections, ideal sheaves, sections, connecting maps).  These are built
once per field and shared, like the chart complexes; complexes are
immutable, and the cache holds one entry per field and kind.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Sequence

from ..complexes import (ChainComplex, ChainMap, DiagonalSpec, InputDataError, block_map,
                         cone, direct_sum, map_sub, shift, zero_complex)
from ..matrices import block_matrix, identity_matrix, mat_neg
from ..polyring import Polynomial, QuotientRing, ring
from ..report import VerificationEntry, VerificationReport, verdict_report
from ..resolutions import lift_module_map, maps_to_shifted_cone, tate, truncate
from ..scalars import QQ, Field, field_spec_str
from ..witness import (ConeCertificate, DeclaredSummand, GenerationWitness,
                       GeneratorDecl, WitnessStep)

TARGET_LEN = 5
SOURCE_LEN = 4
WINDOW_HI = 3

# Frozen augmentation rows (derived over the rationals; coefficients are
# field-independent integers, so the same strings serve every field).
AFFINE_AUG = ("0", "1", "0", "0")
CONIC_AUG = ("0", "0", "-x1", "0", "-x1", "0", "1", "x1", "0", "x1", "0")
PRODUCT_AUG = ("0", "-1", "x1", "0", "x1", "0")
ADJACENT_AUG = ("y", "1")
DIAG_CHART_AUG = ("0", "0", "-x1", "0", "-x1", "0", "x1", "y1", "1", "x1", "0", "x1", "0")

SINGULAR_WINDOW = (-1, WINDOW_HI)

# The cycle builds n^2 chart jobs, so time and memory grow as n^2.
MAX_CYCLE_N = 256


class CycleCatalog:
    def __init__(self, n: int, chart_jobs: list, witness: GenerationWitness,
                 notes: Optional[list] = None):
        self.n = n
        self.chart_jobs = chart_jobs  # VerificationEntry per chart, in (i, j) order
        self.witness = witness
        self.notes = [] if notes is None else notes


def classify_chart(i: int, j: int, n: int) -> str:
    if i == j:
        return "diagonal"
    if (i - j) % n in (1, n - 1):
        return "adjacent"
    return "distant"


def conic_ring(field: Field = QQ) -> QuotientRing:
    return ring(("x1", "y1", "x2", "y2"), field=field,
                relations=("x1*y1", "x2*y2"))


def skyscraper_projection(kstruct: ChainComplex, kpoint: ChainComplex) -> ChainMap:
    """Lift of the canonical surjection structure-sheaf -> skyscraper."""
    return lift_module_map(kstruct, kpoint, [[kstruct.ring.one()]])


def sections_into_ideal_sheaf(kstruct: ChainComplex, proj: ChainMap,
                              values: Sequence[Polynomial]) -> list:
    """Maps structure-sheaf -> ideal sheaf cone(proj)[-1] lifting multiplication
    by each section in values (each must vanish on the skyscraper point), from
    one source, kstruct truncated to SOURCE_LEN, into one ideal sheaf."""
    src = truncate(kstruct, SOURCE_LEN)
    return maps_to_shifted_cone([lift_module_map(src, proj.src, [[v]]) for v in values],
                                proj)


def skyscraper_connecting_map(proj: ChainMap, ideal: ChainComplex,
                              source: ChainComplex) -> ChainMap:
    """Shifted skyscraper -> ideal sheaf (the triangle's connecting map).

    The identity onto the skyscraper block of ideal = cone(proj)[-1], in
    the degrees of source (the shifted skyscraper, possibly truncated).
    """
    rng = proj.ring
    mats = {i: block_matrix(rng, [proj.src.rank(i), source.rank(i)], [source.rank(i)],
                            {(1, 0): identity_matrix(rng, source.rank(i))})
            for i in source.degrees() if source.rank(i)}
    return ChainMap(source, ideal, mats)


def inclusion_of_truncation(ks: ChainComplex, kfull: ChainComplex) -> ChainMap:
    """Identity components from a truncation ks of kfull into kfull."""
    mats = {i: identity_matrix(kfull.ring, ks.rank(i)) for i in ks.degrees()}
    return ChainMap(ks, kfull, mats)


def negate_map(f: ChainMap) -> ChainMap:
    return ChainMap(f.src, f.tgt, {i: mat_neg(m) for i, m in f.mats.items()})


# ---------------------------------------------------------------------------
# affine line


def build_affine_line(field: Field = QQ) -> VerificationEntry:
    """Two-object generation of the affine diagonal; everything is finite."""
    rng = ring(("x1", "x2"), field=field)
    x1, x2 = rng.var("x1"), rng.var("x2")
    plane = tate(rng, [], [], TARGET_LEN)
    origin = tate(rng, [x1, x2], [], TARGET_LEN)
    proj = skyscraper_projection(plane, origin)
    sec1, sec2 = sections_into_ideal_sheaf(plane, proj, [x1, x2])
    ideal_sheaf = sec1.tgt
    origin_shifted = shift(origin, -1)
    connecting = skyscraper_connecting_map(proj, ideal_sheaf, origin_shifted)
    psi = block_map([plane, origin_shifted], [ideal_sheaf],
                    {(0, 0): map_sub(sec1, sec2), (0, 1): connecting})
    total = cone(psi)
    dspec = DiagonalSpec(
        ideal=[rng.parse("x1-x2")], degree=0,
        augmentation=[rng.parse(s) for s in AFFINE_AUG])
    witness = GenerationWitness(
        generators=[
            GeneratorDecl("O_plane", "product"),
            GeneratorDecl("O_origin", "product"),
            GeneratorDecl("ideal_origin", "weakly_product",
                          ConeCertificate("O_plane", "O_origin")),
        ],
        steps=[
            WitnessStep(None, ideal_sheaf,
                        [DeclaredSummand("ideal_origin", 0, 1, ideal_sheaf)]),
            WitnessStep(psi, total,
                        [DeclaredSummand("O_plane", 1, 1, plane),
                         DeclaredSummand("O_origin", 0, 1, origin)]),
        ],
        claimed_time=1,
        final_diagonal=dspec,
        conclusion="Rouquier dimension of the affine line category <= 1",
    )
    notes = [
        "matrices generated from the Koszul model and the fixed cone/shift "
        "conventions; two differentials carry the opposite global sign from "
        "the hand-drawn presentation (the shifted cone negates its source), "
        "namely d_0 = (1,-1,-x1,-x2) and the column (0,-x2,x1)",
        "augmentation row projects onto the structure-sheaf slot of the "
        "ideal-sheaf model",
    ]
    return VerificationEntry("affine-line", rng, total, dspec, witness, notes)


# ---------------------------------------------------------------------------
# nodal conic


# (field spec, kind) -> conic pieces or a chart's (ring, complex, spec).
# Bounded by the fields in use; entries of different fields never share.
_CACHE: dict = {}


def _cached(field: Field, kind: str, build):
    key = (field_spec_str(field), kind)
    if key not in _CACHE:
        _CACHE[key] = build(field)
    return _CACHE[key]


class ConicPieces(NamedTuple):
    """The nodal conic's building blocks over one field."""

    ring: QuotientRing
    kx: ChainComplex           # structure sheaf of the x-plane, R/(y1, y2)
    ky: ChainComplex           # structure sheaf of the y-plane, R/(x1, x2)
    k0: ChainComplex           # the skyscraper at the node
    px: ChainMap               # skyscraper projections kx -> k0, ky -> k0
    py: ChainMap
    ix: ChainComplex           # ideal sheaves of the node on each plane
    iy: ChainComplex
    sx1: ChainMap              # sections x1, x2 into ix and y1, y2 into iy,
    sx2: ChainMap              # from the truncations of kx and ky
    sy1: ChainMap
    sy2: ChainMap
    k0s: ChainComplex          # truncated skyscraper
    k0m: ChainComplex          # k0s shifted by -1
    dx: ChainMap               # connecting maps k0m -> ix, k0m -> iy
    dy: ChainMap


def _build_conic_pieces(field: Field) -> ConicPieces:
    rng = conic_ring(field)
    x1, y1, x2, y2 = (rng.var(v) for v in rng.names)
    z = rng.zero()
    # relations x1*y1 and x2*y2, written in terms of each module's generators
    kx = tate(rng, [y1, y2], [[x1, z], [z, x2]], TARGET_LEN)
    ky = tate(rng, [x1, x2], [[y1, z], [z, y2]], TARGET_LEN)
    k0 = tate(rng, [x1, y1, x2, y2], [[z, x1, z, z], [z, z, z, x2]], TARGET_LEN)
    px = skyscraper_projection(kx, k0)
    py = skyscraper_projection(ky, k0)
    sx1, sx2 = sections_into_ideal_sheaf(kx, px, [x1, x2])
    sy1, sy2 = sections_into_ideal_sheaf(ky, py, [y1, y2])
    k0s = truncate(k0, SOURCE_LEN)
    k0m = shift(k0s, -1)
    ix, iy = sx1.tgt, sy1.tgt
    return ConicPieces(rng, kx, ky, k0, px, py, ix, iy, sx1, sx2, sy1, sy2, k0s, k0m,
                       skyscraper_connecting_map(px, ix, k0m),
                       skyscraper_connecting_map(py, iy, k0m))


def _conic_pieces(field: Field) -> ConicPieces:
    """The conic pieces over field, built once per field and shared."""
    return _cached(field, "conic", _build_conic_pieces)


def build_nodal_conic(field: Field = QQ) -> VerificationEntry:
    """Length-1 generation of the conic diagonal by weakly product objects."""
    p = _conic_pieces(field)
    rng, ix, iy, sx1, sy1 = p.ring, p.ix, p.iy, p.sx1, p.sy1
    psi = block_map([sx1.src, p.k0m, sy1.src], [ix, iy], {
        (0, 0): map_sub(sx1, p.sx2), (0, 1): p.dx,
        (1, 1): p.dy, (1, 2): map_sub(sy1, p.sy2),
    })
    total = cone(psi)
    dspec = DiagonalSpec(
        ideal=[rng.parse("x1-x2"), rng.parse("y1-y2")], degree=0,
        augmentation=[rng.parse(s) for s in CONIC_AUG], window=SINGULAR_WINDOW)
    kxs, k0s, kys = sx1.src, p.k0s, sy1.src
    witness = GenerationWitness(
        generators=[
            GeneratorDecl("O_xplane", "product"),
            GeneratorDecl("O_yplane", "product"),
            GeneratorDecl("O_origin", "product"),
            GeneratorDecl("ideal_origin_x", "weakly_product",
                          ConeCertificate("O_xplane", "O_origin")),
            GeneratorDecl("ideal_origin_y", "weakly_product",
                          ConeCertificate("O_yplane", "O_origin")),
        ],
        steps=[
            WitnessStep(None, psi.tgt,
                        [DeclaredSummand("ideal_origin_x", 0, 1, ix),
                         DeclaredSummand("ideal_origin_y", 0, 1, iy)]),
            WitnessStep(psi, total,
                        [DeclaredSummand("O_xplane", 1, 1, kxs),
                         DeclaredSummand("O_origin", 0, 1, k0s),
                         DeclaredSummand("O_yplane", 1, 1, kys)]),
        ],
        claimed_time=1,
        final_diagonal=dspec,
        conclusion="Rouquier dimension of the nodal conic category <= 1",
    )
    notes = [
        f"truncated periodic models: targets to degree {TARGET_LEN}, sources "
        f"to degree {SOURCE_LEN}; verdict claimed in window {SINGULAR_WINDOW}",
        "augmentation row frozen from the exact-linear-algebra derivation",
    ]
    return VerificationEntry("nodal-conic", rng, total, dspec, witness, notes)


def build_nodal_conic_product(field: Field = QQ) -> VerificationEntry:
    """The longer resolution by honest product objects (no witness)."""
    p = _conic_pieces(field)
    rng, kx, ky, k0, px, py = p.ring, p.kx, p.ky, p.k0, p.px, p.py
    x1, y1, x2, y2 = (rng.var(v) for v in rng.names)
    kxs, kys = p.sx1.src, p.sy1.src
    gx = lift_module_map(kxs, kx, [[x1 - x2]])
    gy = lift_module_map(kys, ky, [[y1 - y2]])
    separate = block_map([kxs, kys], [kx, ky],
                         {(0, 0): gx, (1, 1): gy})
    # From separate's target itself, so compose never compares two equal
    # sums.  Negated because shifting by -1 negates it back: the total
    # complex carries px and py themselves.
    collapse = ChainMap(separate.tgt, k0, {
        i: block_matrix(rng, [k0.rank(i)], [kx.rank(i), ky.rank(i)],
                        {(0, 0): mat_neg(px.mat(i)), (0, 1): mat_neg(py.mat(i))})
        for i in k0.degrees()})
    # kxs + kys -> kx + ky -> k0 as a cone into a cone
    total = cone(maps_to_shifted_cone([separate], collapse)[0])
    dspec = DiagonalSpec(
        ideal=[rng.parse("x1-x2"), rng.parse("y1-y2")], degree=0,
        augmentation=[rng.parse(s) for s in PRODUCT_AUG], window=SINGULAR_WINDOW)
    notes = [
        "three-object totalization with engine-computed correction homotopy",
        f"verdict claimed in window {SINGULAR_WINDOW}",
    ]
    return VerificationEntry("nodal-conic-product", rng, total, dspec, None, notes)


# ---------------------------------------------------------------------------
# cycle of projective lines


def _build_diagonal_chart_complex(field: Field):
    """Restriction of the global resolution to a chart around one node.

    Surviving blocks: the two ideal-sheaf objects through the node, the two
    plain plane objects (their partner points fall outside the chart), four
    twisted-line-bundle columns entering through chart trivializations
    (sections restrict to multiplication by the matching affine coordinate,
    or by 1 when their vanishing point is off-chart), and one skyscraper
    column.  Returns (ring, cone(psi), spec, psi, models in block order).
    """
    p = _conic_pieces(field)
    rng, kx, ky, kxs, kys = p.ring, p.kx, p.ky, p.sx1.src, p.sy1.src
    inc_x, inc_y = inclusion_of_truncation(kxs, kx), inclusion_of_truncation(kys, ky)
    psi = block_map(
        [kxs, kxs, kys, kys, p.k0m],
        [p.ix, kx, ky, p.iy],
        {
            (0, 0): p.sx1, (0, 1): negate_map(p.sx2), (0, 4): p.dx,
            (1, 0): negate_map(inc_x), (1, 1): inc_x,
            (2, 2): inc_y, (2, 3): negate_map(inc_y),
            (3, 2): negate_map(p.sy1), (3, 3): p.sy2, (3, 4): p.dy,
        })
    total = cone(psi)
    dspec = DiagonalSpec(
        ideal=[rng.parse("x1-x2"), rng.parse("y1-y2")], degree=0,
        augmentation=[rng.parse(s) for s in DIAG_CHART_AUG], window=SINGULAR_WINDOW)
    models = {"ideal_x": p.ix, "plane_x": kx, "plane_y": ky, "ideal_y": p.iy,
              "trunc_x": kxs, "trunc_y": kys, "point": p.k0s}
    return rng, total, dspec, psi, models


def _build_adjacent_chart_complex(field: Field):
    """Torus chart: two line-bundle columns against two surviving objects.

    In chart coordinates the four sections restrict to (1, u; y, 1) with the
    displayed signs, and the diagonal becomes the graph of inversion
    (x, v, yu-1).  Returns (ring, cone(psi), spec, psi, models).
    """
    rng = ring(("x", "y", "u", "v"), field=field, relations=("x*y", "u*v"))
    x, y, u, v = (rng.var(n) for n in rng.names)
    z = rng.zero()
    plane = tate(rng, [x, v], [[y, z], [z, u]], TARGET_LEN)  # x*y and u*v
    planes = direct_sum(plane, plane)
    plane_s = truncate(plane, SOURCE_LEN)
    sources = direct_sum(plane_s, plane_s)
    one = rng.one()
    psi = lift_module_map(sources, planes, [[one, -u], [-y, one]])
    total = cone(psi)
    dspec = DiagonalSpec(
        ideal=[rng.parse("x"), rng.parse("v"), rng.parse("y*u-1")], degree=0,
        augmentation=[rng.parse(s) for s in ADJACENT_AUG], window=SINGULAR_WINDOW)
    return rng, total, dspec, psi, {"plane": plane, "trunc": plane_s}


def _cycle_witness(n: int) -> GenerationWitness:
    """The declared generators and steps; build_cycle restricts them to charts."""
    generators = []
    steps0 = []
    steps1 = []
    for j in range(1, n + 1):
        jm = ((j - 2) % n) + 1
        generators.extend([
            GeneratorDecl(f"O_square_{j}", "product"),
            GeneratorDecl(f"O_square_{j}(-1,-1)", "product"),
            GeneratorDecl(f"O_node_{j}", "product"),
            GeneratorDecl(f"F_{j}", "weakly_product",
                          ConeCertificate(f"O_square_{j}", f"O_node_{j}")),
            GeneratorDecl(f"G_{j}", "weakly_product",
                          ConeCertificate(f"O_square_{j}", f"O_node_{jm}")),
        ])
        steps0.extend([DeclaredSummand(f"F_{j}", 0, 1),
                       DeclaredSummand(f"G_{j}", 0, 1)])
        steps1.extend([DeclaredSummand(f"O_square_{j}(-1,-1)", 1, 2),
                       DeclaredSummand(f"O_node_{j}", 0, 1)])
    return GenerationWitness(
        generators=generators,
        steps=[WitnessStep(None, None, steps0), WitnessStep(None, None, steps1)],
        claimed_time=1,
        conclusion=f"Rdim(D^bCoh(I_{n})) <= 1",
    )


def _restrictions(g: GeneratorDecl, n: int) -> list:
    """(chart, model key) for each chart of the n-cycle that generator g meets.

    Square m joins node m-1 and node m, and chart (i, j) covers parts of
    squares i and i+1 in each factor, so square m meets (i, j) iff m is in
    {i, i+1} and in {j, j+1}: a diagonal or an adjacent chart, never a
    distant one.  On (j, j) square j is the x-plane and square j+1 the
    y-plane.  Node k lies only on chart (k, k).  O_square_m -> O_node_k
    restricts to the node's ideal sheaf on that plane where node k lies on
    the chart, and to the plane elsewhere; O_square_m(-1,-1) restricts to
    the truncated plane and O_node_k to the truncated skyscraper.  Labels
    are the ones _cycle_witness writes; only their numbers are read.
    """
    def num(label: str) -> int:
        return int(label.split("_")[2].split("(")[0])

    def on_square(m: int, form: str, node: int = 0) -> list:
        b = (m - 2) % n + 1
        return [((m, m), "ideal_x" if node == m else f"{form}_x"),
                ((b, b), "ideal_y" if node == b else f"{form}_y"),
                ((b, m), form), ((m, b), form)]

    if g.kind == "weakly_product":
        return on_square(num(g.certificate.source_label), "plane",
                         num(g.certificate.target_label))
    if g.label.startswith("O_node_"):
        return [((num(g.label),) * 2, "point")]
    return on_square(num(g.label), "trunc")


def _chart_witnesses(w: GenerationWitness, n: int, field: Field) -> tuple:
    """Restrict w's declared steps to the diagonal and adjacent charts.

    Restricted summands are compared as multisets: each distinct (chart
    kind, restricted pattern) gives one local witness, its summands sorted
    into the kind's block order and checked against that kind's attaching
    map, models and spec.  The label work visits 3n charts; the algebra runs
    once per kind.  Distant charts receive nothing: their chart complex is the
    zero complex, which is exact everywhere.
    """
    decls = {g.label: g for g in w.generators}
    patterns = {c: [Counter() for _ in w.steps] for i in range(1, n + 1)
                for c in ((i, i), (i, i % n + 1), (i % n + 1, i))}
    for idx, step in enumerate(w.steps):
        for s in step.summands:
            for chart, key in _restrictions(decls[s.label], n) if s.label in decls else ():
                patterns[chart][idx][key, s.shift] += s.multiplicity
    local: dict = {}
    for (i, j), counts in sorted(patterns.items()):
        kind = classify_chart(i, j, n)
        pattern = (kind, tuple(frozenset(c.items()) for c in counts))
        if pattern in local:
            continue
        _, total, spec, psi, models = _chart_complex_cached(field, kind)
        order = list(models)
        steps = [WitnessStep(step_map, target, [
            DeclaredSummand(k, sh, mult, models[k])
            for (k, sh), mult in sorted(c.items(), key=lambda e: (order.index(e[0][0]), e[0]))])
            for c, (step_map, target) in zip(counts, ((None, psi.tgt), (psi, total)))]
        local[pattern] = GenerationWitness([], steps, w.claimed_time, spec,
                                           conclusion=f"chart ({i},{j}) ({kind})")
    return tuple(local.values())


def build_cycle(n: int, field: Field = QQ) -> CycleCatalog:
    """n^2 chart jobs plus the generation witness for the n-cycle.

    Chart complexes are identical across charts of the same kind under the
    chart-coordinate convention, so the three representatives are built once
    and shared; the runner may reuse verdicts across identical jobs.  The
    witness carries one local witness per distinct restricted chart pattern.
    """
    if n < 3:
        raise InputDataError("cycle catalog supports n >= 3 "
                             "(smaller cycles have self-glued charts)")
    if n > MAX_CYCLE_N:
        raise InputDataError(f"cycle length {n} above the maximum {MAX_CYCLE_N}")
    adjacent = _chart_complex_cached(field, "adjacent")
    per_kind = {
        "diagonal": (*_chart_complex_cached(field, "diagonal")[:3], "qiso_to_diagonal",
                     "restricted blocks around one node; shared complex"),
        "adjacent": (*adjacent[:3], "qiso_to_diagonal",
                     "torus chart; diagonal is the graph of inversion"),
        "distant": (adjacent[0], zero_complex(adjacent[0]), None, "exact_everywhere",
                    "chart disjoint from the diagonal; zero complex"),
    }
    jobs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            kind = classify_chart(i, j, n)
            rng, total, spec, expectation, note = per_kind[kind]
            jobs.append(VerificationEntry(
                f"chart({i},{j}):{kind}", rng, total, spec, notes=[note],
                expectation=expectation, window=SINGULAR_WINDOW,
                truncation_note="truncation window {} in effect", chart=(i, j), kind=kind))
    witness = _cycle_witness(n)
    witness.charts = _chart_witnesses(witness, n, field)
    notes = [
        f"chart classification counts: {n} diagonal, {2 * n} adjacent, "
        f"{n * n - 3 * n} distant",
        "adjacent-chart matrices are derived chart data under the fixed "
        "trivialization convention (coordinates on the two sides of a node "
        "multiply to 1 on the overlap), validated by the verification suite",
    ]
    return CycleCatalog(n, jobs, witness, notes)


def _chart_complex_cached(field: Field, kind: str):
    """Chart complexes are n-independent; build them once per field."""
    return _cached(field, kind, _build_diagonal_chart_complex if kind == "diagonal"
                   else _build_adjacent_chart_complex)


# ---------------------------------------------------------------------------
# verification drivers


def verify_chart_jobs(jobs):
    """Verify jobs in order, reusing verdicts of shared complexes."""
    cache: dict = {}
    out = []
    for job in jobs:
        key = (id(job.complex), job.expectation, id(job.diagonal))
        base = cache.get(key)
        if base is None:
            cache[key] = base = verdict_report(job)
            out.append(base)
        else:
            out.append(VerificationReport(
                job.name, base.verdict, base.field_used, base.conditions, base.messages,
                base.notes + [f"verdict shared with {base.name} (identical chart data)"],
                base.window, 0.0, base.subreports))
    return out
