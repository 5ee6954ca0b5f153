"""Catalog entries: construction facts, chart combinatorics, restriction,
basis-change invariance, and the documented mutation controls."""

import random
from fractions import Fraction

import pytest

from diagres.catalog import (build_affine_line, build_cycle, build_nodal_conic,
                             build_nodal_conic_product, documented_mutations,
                             mutation_flips, restrict_complex, verify_chart_jobs,
                             verify_entry)
from diagres.catalog.entries import classify_chart
from diagres.complexes import (ChainComplex, DiagonalSpec, InputDataError,
                               check_differential, verify_diagonal_qiso)
from diagres.matrices import identity_matrix
from diagres.polyring import RingMap, ring
from diagres.witness import verify_witness


def test_affine_entry_matches_expected_matrices():
    from diagres.matrices import mat_to_strings
    entry = build_affine_line()
    cx = entry.complex
    assert {i: cx.rank(i) for i in cx.degrees()} == {-1: 1, 0: 4, 1: 4, 2: 1}
    assert mat_to_strings(cx.diff(2)) == [["0"], ["x2"], ["-x1"], ["1"]]
    assert mat_to_strings(cx.diff(1)) == [
        ["0", "x1", "x2", "0"],
        ["x1 - x2", "0", "0", "0"],
        ["-1", "1", "0", "-x2"],
        ["1", "0", "1", "x1"],
    ]
    assert mat_to_strings(cx.diff(0)) == [["1", "-1", "-x1", "-x2"]]


def test_conic_entry_block_structure():
    """The bottom differential carries the two connecting units and the
    projection/section rows of the two ideal-sheaf summands."""
    from diagres.matrices import mat_to_strings
    entry = build_nodal_conic()
    assert mat_to_strings(entry.complex.diff(0)) == [
        ["1", "-1", "-x1", "-y1", "-x2", "-y2", "0", "0", "0", "0", "0"],
        ["1", "0", "0", "0", "0", "0", "-1", "-x1", "-y1", "-x2", "-y2"],
    ]


def test_adjacent_chart_section_block():
    """Degree-0 block of the adjacent-chart map: [[1, -u], [-y, 1]]."""
    from diagres.matrices import mat_to_strings
    cat = build_cycle(3)
    adj = next(j for j in cat.chart_jobs if j.kind == "adjacent")
    d1 = adj.complex.diff(1)
    block = [row[:2] for row in mat_to_strings(d1)[:2]]
    assert block == [["1", "-u"], ["-y", "1"]]
    # torus diagonal as frozen data
    assert [str(p) for p in adj.diagonal.ideal] == ["x", "v", "y*u - 1"]


def test_catalog_complexes_pass_check_differential():
    for entry in (build_affine_line(), build_nodal_conic(),
                  build_nodal_conic_product()):
        assert check_differential(entry.complex), entry.name
    cat = build_cycle(3)
    seen = set()
    for job in cat.chart_jobs:
        if id(job.complex) in seen:
            continue
        seen.add(id(job.complex))
        assert check_differential(job.complex)


def test_entries_verify():
    for entry in (build_affine_line(), build_nodal_conic(),
                  build_nodal_conic_product()):
        rep = verify_entry(entry)
        assert rep.passed, (entry.name, rep.first_failure())


def test_minimized_and_raw_verdicts_agree():
    entry = build_nodal_conic()
    a = verify_diagonal_qiso(entry.complex, entry.diagonal, pre_minimize=True)
    b = verify_diagonal_qiso(entry.complex, entry.diagonal, pre_minimize=False)
    assert a.passed and b.passed


def test_chart_classification_counts():
    for n in (3, 4, 5, 7):
        counts = {"diagonal": 0, "adjacent": 0, "distant": 0}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                counts[classify_chart(i, j, n)] += 1
        assert counts == {"diagonal": n, "adjacent": 2 * n,
                          "distant": n * n - 3 * n}


def test_build_cycle_structure():
    cat = build_cycle(4)
    assert len(cat.chart_jobs) == 16
    kinds = [j.kind for j in cat.chart_jobs]
    assert kinds.count("diagonal") == 4
    assert kinds.count("adjacent") == 8
    assert kinds.count("distant") == 4
    distant = [j for j in cat.chart_jobs if j.kind == "distant"]
    assert all(j.complex.is_zero() for j in distant)
    assert all(j.expectation == "exact_everywhere" for j in distant)
    with pytest.raises(InputDataError):
        build_cycle(2)


def test_cycle_charts_verify_and_witness_emits_bound():
    cat = build_cycle(3)
    reports = verify_chart_jobs(cat.chart_jobs)
    assert len(reports) == 9
    assert all(r.passed for r in reports)
    wrep = verify_witness(cat.witness)
    assert wrep.passed
    assert any("Rdim(D^bCoh(I_3)) <= 1" in m for m in wrep.messages)


def test_a_shared_chart_verdict_keeps_the_error_reason():
    """Charts that share a complex and spec share one verdict; an error
    verdict keeps its reason in every chart that shares it."""
    from dataclasses import replace
    jobs = build_cycle(3).chart_jobs
    spec = next(j.diagonal for j in jobs if j.kind == "diagonal")
    short = DiagonalSpec(spec.ideal, spec.degree, spec.augmentation[:-1], spec.window)
    jobs = [replace(j, diagonal=short) if j.kind == "diagonal" else j for j in jobs]
    reports = {r.name: r for r in verify_chart_jobs(jobs)}
    diagonal = [reports[f"chart({i},{i}):diagonal"] for i in (1, 2, 3)]
    assert [r.verdict for r in diagonal] == ["error"] * 3
    assert "augmentation row length" in diagonal[0].error
    assert all(r.error == diagonal[0].error for r in diagonal)
    assert all(r.passed for r in reports.values() if "diagonal" not in r.name)


def test_restrict_identity():
    entry = build_affine_line()
    rng = entry.ring
    ident = RingMap(rng, rng, [rng.var(v) for v in rng.names])
    assert restrict_complex(entry.complex, ident) == entry.complex


def test_restrict_conic_to_affine_chart():
    """Setting y1 = y2 = 0 recovers the affine-line diagonal at degree 0.

    Entrywise substitution of a complex of frees computes the derived
    restriction along the chart inclusion; since the chart is a closed
    non-flat piece, periodic torsion terms appear in odd positive degrees.
    The affine-line content survives exactly: the restricted augmentation
    still identifies degree-0 homology with the affine diagonal, and
    nothing sits below it.
    """
    entry = build_nodal_conic()
    target = ring(["x1", "x2"], field=entry.ring.field)
    rmap = RingMap(entry.ring, target,
                   [target.var("x1"), target.zero(),
                    target.var("x2"), target.zero()])
    restricted = restrict_complex(entry.complex, rmap)
    aug = [rmap.apply(p) for p in entry.diagonal.augmentation]
    spec = DiagonalSpec(ideal=[target.parse("x1-x2")], degree=0,
                        augmentation=aug, window=(-1, 0))
    assert verify_diagonal_qiso(restricted, spec).passed
    # the derived correction terms are really there (degree 1)
    from diagres.complexes import homology_is_zero_at
    assert not homology_is_zero_at(restricted, 1)


def test_restrict_rejects_incompatible_substitution():
    entry = build_nodal_conic()
    rng = entry.ring
    bad = RingMap(rng, rng, [rng.var("x1"), rng.var("x1"),
                             rng.var("x2"), rng.var("y2")])
    with pytest.raises(InputDataError):
        restrict_complex(entry.complex, bad)  # x1*y1 -> x1^2 is not in J


def test_verdict_invariant_under_scalar_conjugation():
    """Conjugating differentials by random invertible scalar matrices (and
    transporting the augmentation row) does not change the verdict.

    Each basis change Q_i of C_i is a product of a few elementary matrices
    E, which keeps the conjugated matrices sparse enough to verify quickly
    without weakening the statement.  Each E is applied directly, without
    forming Q_i: d_{i+1} <- E d_{i+1} is a row operation, and d_i <- d_i E^-1
    (and the augmentation row at its degree) the inverse column operation.
    """
    entry = build_nodal_conic()
    cx, dspec = entry.complex, entry.diagonal
    rand = random.Random(31)

    def elementary_ops(n):
        ops = []
        for _ in range(min(6, n)):
            kind = rand.choice(("add", "scale", "swap"))
            i, j = rand.randrange(n), rand.randrange(n)
            if kind == "add" and i != j:
                ops.append((kind, i, j, Fraction(rand.choice((-2, -1, 1, 2)))))
            elif kind == "scale":
                ops.append((kind, i, i, Fraction(rand.choice((-1, 2, -2)))))
            elif kind == "swap" and i != j:
                ops.append((kind, i, j, None))
        return ops

    def row_op(mat, op):
        kind, i, j, a = op
        if kind == "add":
            mat[i] = [x + y.scale(a) for x, y in zip(mat[i], mat[j])]
        elif kind == "scale":
            mat[i] = [x.scale(a) for x in mat[i]]
        else:
            mat[i], mat[j] = mat[j], mat[i]

    def col_op(mat, op):
        kind, i, j, a = op
        for row in mat:
            if kind == "add":
                row[j] = row[j] - row[i].scale(a)
            elif kind == "scale":
                row[i] = row[i].scale(1 / a)
            else:
                row[i], row[j] = row[j], row[i]

    for _ in range(10):
        diffs = {i: [list(row) for row in m] for i, m in cx.diffs.items()}
        aug = [list(dspec.augmentation)]
        for i in cx.degrees():
            for op in elementary_ops(cx.rank(i)):
                if i + 1 in diffs:
                    row_op(diffs[i + 1], op)
                if i in diffs:
                    col_op(diffs[i], op)
                if i == dspec.degree:
                    col_op(aug, op)
        conj = ChainComplex(entry.ring, dict(cx.ranks), diffs, check=False)
        spec = DiagonalSpec(list(dspec.ideal), dspec.degree, aug[0], dspec.window)
        assert verify_diagonal_qiso(conj, spec).passed


def test_catalog_builds_are_reproducible(monkeypatch):
    """Two independent builds, each from empty caches, agree matrix for matrix."""
    from diagres.catalog import entries
    monkeypatch.setattr(entries, "_CACHE", {})
    a = build_nodal_conic()
    monkeypatch.setattr(entries, "_CACHE", {})
    b = build_nodal_conic()
    assert a.ring is not b.ring
    assert a.complex == b.complex
    assert [str(p) for p in a.diagonal.augmentation] == \
        [str(p) for p in b.diagonal.augmentation]


def test_exported_entry_reverifies_from_job_document():
    """Catalog -> job file -> parse -> verify round trip."""
    import json
    from diagres.jobio import emit_job, job_document, parse_job
    entry = build_nodal_conic()
    doc = parse_job(json.loads(emit_job(
        job_document(entry.name, entry.ring, entry.complex, entry.diagonal))))
    assert verify_diagonal_qiso(doc.complexes["total"], doc.diagonal).passed


# sha256 of catalog job exports, per field: the product resolution, the
# affine line, the nodal conic, and the 3-cycle's diagonal and adjacent
# charts (1,1) and (1,2).  The job-stream digests pin only conjugated
# exports over Q; these pin the catalog's own matrices, byte for byte, over
# both fields.
EXPORT_SHA256 = {
    "fp:32003": {
        "nodal-conic-product":
            "ca09b845208b7499fee3c9cbc599eebdad073612c1d1a952a51d54c04c392549",
        "affine-line":
            "6e21cdd97d556ae874c69633b05570a096274b169c7795ca3f250ba4acded395",
        "nodal-conic":
            "f5fe965201119b1bf973863b8efaefee397eea0e57c728c05a770cd75287b678",
        "chart(1,1):diagonal":
            "db0899bdcafdf9e6af4c01158ec1238d02afb448b971120ac550e32ae6a33692",
        "chart(1,2):adjacent":
            "12828a5b2f4d00a07df9444e2f450a875e1045500cfba3c6129b2eca767cf675",
    },
    "q": {
        "nodal-conic-product":
            "69f10468d2a3ab39bf8a14e26cea5e09a499e2e76ce8115b0762ea65efd138aa",
        "affine-line":
            "647c6c7fa9f4500535cd4448d1a181fce20535d594dacf4ae7fa18e7a0226e72",
        "nodal-conic":
            "3121924f121d85be8bfefe026c9162f5ffe4b69ccf00ff26c933265c0d3a75f3",
        "chart(1,1):diagonal":
            "fb00b25c3bcb3efdc2fda4b8969d504d2a52e3618f3298166f5f8f62b49c37ac",
        "chart(1,2):adjacent":
            "8d1cb163a034f5c5cda72e78bd4eb6723c9f50efdcb420c0e61a0ec1c3a4adc8",
    },
}


@pytest.mark.parametrize("spec", sorted(EXPORT_SHA256))
def test_nodal_conic_product_export_is_pinned(spec):
    """The product resolution's export, and four more catalog exports."""
    import hashlib
    from diagres.jobio import emit_job, job_document
    from diagres.scalars import field_from_spec
    fld = field_from_spec(spec)
    charts = build_cycle(3, fld).chart_jobs
    digests = {e.name: hashlib.sha256(emit_job(job_document(
        e.name, e.ring, e.complex, e.diagonal)).encode()).hexdigest()
        for e in (build_nodal_conic_product(fld), build_affine_line(fld),
                  build_nodal_conic(fld), charts[0], charts[1])}
    assert digests == EXPORT_SHA256[spec]


def test_each_conic_object_is_built_once():
    """Sections into one ideal sheaf share one truncated source and end at
    that ideal sheaf itself, and the diagonal chart's truncated models are
    the conic pieces' own truncations, not copies."""
    from diagres.catalog.entries import _chart_complex_cached, _conic_pieces
    from diagres.scalars import QQ
    p = _conic_pieces(QQ)
    assert p.sx1.tgt is p.sx2.tgt is p.ix
    assert p.sx1.src is p.sx2.src
    assert p.sy1.tgt is p.sy2.tgt is p.iy
    assert p.sy1.src is p.sy2.src
    models = _chart_complex_cached(QQ, "diagonal")[4]
    assert models["trunc_x"] is p.sx1.src
    assert models["trunc_y"] is p.sy1.src
    assert models["point"] is p.k0s


def test_cone_of_identity_exact_for_catalog_complexes():
    """cone(id) collapses to nothing for every catalog complex."""
    from diagres.complexes import ChainMap, cone, minimize
    complexes = [build_affine_line().complex, build_nodal_conic().complex,
                 build_nodal_conic_product().complex]
    cat = build_cycle(3)
    seen = set()
    for job in cat.chart_jobs:
        if id(job.complex) not in seen and not job.complex.is_zero():
            seen.add(id(job.complex))
            complexes.append(job.complex)
    for cx in complexes:
        ident = ChainMap(cx, cx, {i: identity_matrix(cx.ring, cx.rank(i))
                                  for i in cx.degrees()}, check=False)
        collapsed, _ = minimize(cone(ident))
        assert collapsed.is_zero()


def test_documented_mutations_flip():
    cases = []
    affine = build_affine_line()
    cases += [("affine-line", affine.complex, affine.diagonal)]
    conic = build_nodal_conic()
    cases += [("nodal-conic", conic.complex, conic.diagonal)]
    product = build_nodal_conic_product()
    cases += [("nodal-conic-product", product.complex, product.diagonal)]
    cat = build_cycle(3)
    diag = next(j for j in cat.chart_jobs if j.kind == "diagonal")
    adj = next(j for j in cat.chart_jobs if j.kind == "adjacent")
    cases += [("cycle-diagonal-chart", diag.complex, diag.diagonal),
              ("cycle-adjacent-chart", adj.complex, adj.diagonal)]
    for name, cx, dspec in cases:
        muts = documented_mutations(name)
        assert len(muts) == 5, name
        for m in muts:
            assert mutation_flips(cx, dspec, m), (name, m.name)


def test_conic_pieces_cache_is_keyed_by_field(monkeypatch, capsys):
    """Building over q first leaves the fp:32003 reports exactly as a fresh
    fp:32003-only process gives them, and no two fields share a ring."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    from diagres.catalog import entries
    from diagres.cli import main
    from diagres.report import VerificationReport
    from diagres.scalars import field_from_spec

    monkeypatch.setattr(entries, "_CACHE", {})
    examples = (["nodal-conic"], ["cycle", "--n", "3"])
    src = str(Path(__file__).resolve().parents[1] / "src")
    for spec in ("q", "fp:32003"):
        for ex in examples:
            argv = ["verify", "--example", *ex, "--field", spec, "--report", "json"]
            assert main(argv) == 0
            mixed = capsys.readouterr().out
            if spec == "q":
                continue
            fresh = subprocess.run(
                [sys.executable, "-m", "diagres.cli", *argv], capture_output=True,
                text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
            assert (VerificationReport.from_json(mixed).to_json(with_timing=False)
                    == VerificationReport.from_json(fresh).to_json(with_timing=False))
    fp = field_from_spec("fp:32003")
    q_conic, fp_conic = build_nodal_conic(), build_nodal_conic(fp)
    assert q_conic.ring is not fp_conic.ring
    assert fp_conic.ring.field == fp and q_conic.ring.field != fp
    assert all(job.ring.field == fp for job in build_cycle(3, fp).chart_jobs)


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_full_catalog_build_searches_no_syzygies_and_compares_no_complexes(
        monkeypatch, spec):
    """Every catalog model is a Tate model: a full build (affine line, conic,
    product, cycle n = 6) from empty caches runs no syzygy search, builds at
    most 18 elimination bases, and never compares two complexes entrywise."""
    from diagres import groebner, resolutions
    from diagres.catalog import entries
    from diagres.complexes import ChainComplex
    from diagres.scalars import field_from_spec

    def no_search(*args):
        raise AssertionError("resolve_cyclic called by a catalog build")

    counts = {"solvers": 0, "eq": 0}
    init, eq = groebner.ImageSolver.__init__, ChainComplex.__eq__

    def counted_init(self, *args):
        counts["solvers"] += 1
        init(self, *args)

    def counted_eq(self, other):
        counts["eq"] += 1
        return eq(self, other)

    assert not hasattr(entries, "resolve_cyclic")
    monkeypatch.setattr(resolutions, "resolve_cyclic", no_search)
    monkeypatch.setattr(entries, "_CACHE", {})
    monkeypatch.setattr(groebner.ImageSolver, "__init__", counted_init)
    monkeypatch.setattr(ChainComplex, "__eq__", counted_eq)
    fld = field_from_spec(spec)
    build_affine_line(fld)
    build_nodal_conic(fld)
    build_nodal_conic_product(fld)
    kinds = {job.kind for job in build_cycle(6, fld).chart_jobs}
    assert kinds == {"diagonal", "adjacent", "distant"}
    assert counts["solvers"] <= 18
    assert counts["eq"] == 0
