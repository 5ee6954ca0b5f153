"""Seeded inputs for the benchmark workloads, made from the public API only.

job-stream: job files exported from the four catalog entries that carry
documented mutations.  Each file is conjugated by a seeded change of basis
(products of at most six elementary scalar operations per degree), after
optionally applying one seeded documented mutation.  The source mix and
the mutation share are the same for every seed, so seeds give comparable
work; only which mutation, which basis change and which order vary.

gb-suite: rank-1 submodules with 2-4 generators of 2-4 terms each, total
degree <= 3, over k[x,y,z] and k[x1,y1,x2,y2]/(x1y1, x2y2), each over Q and
F_32003.  Instances are written as JSON lines of coefficients and exponents
and read one per operation, so every operation builds fresh polynomials.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

# Catalog entries with documented mutations, in the order of each block.
JOB_SOURCES = ("nodal-conic", "nodal-conic-product",
               "cycle-diagonal-chart", "cycle-adjacent-chart")

# Per source and round: two clean files (exit 0), one augmentation or ideal
# mutation (exit 1, full check) and one differential mutation (exit 2, d*d
# check while parsing).  Position i of a round's block b uses kind
# KINDS[(i + b) % 4], so every block of four runs each source once and
# every round gives each source each entry of KINDS once.
KINDS = ("clean", "reject", "clean", "malformed")
EXPECTED_EXIT = {"clean": 0, "reject": 1, "malformed": 2}

GB_RINGS = (("q", "xyz"), ("fp", "xyz"), ("q", "conic"), ("fp", "conic"))
GB_NVARS = {"xyz": 3, "conic": 4}
# Distinct instances, more than a run uses today: instance costs are heavy
# tailed, so repeating a small pool would make throughput depend on the seed.
GB_POOL = 24000


def _sources():
    from diagres.catalog import build_cycle, build_nodal_conic, build_nodal_conic_product

    conic = build_nodal_conic()
    product = build_nodal_conic_product()
    charts = {job.kind: job for job in build_cycle(3).chart_jobs}
    out = {
        "nodal-conic": (conic.ring, conic.complex, conic.diagonal),
        "nodal-conic-product": (product.ring, product.complex, product.diagonal),
    }
    for kind in ("diagonal", "adjacent"):
        job = charts[kind]
        out[f"cycle-{kind}-chart"] = (job.ring, job.complex, job.diagonal)
    return out


def _elementary_ops(rand: random.Random, n: int) -> list:
    """Seeded elementary scalar operations on a basis of size n, as
    (kind, i, j, scalar); an op whose indices coincide is skipped."""
    ops = []
    for _ in range(min(6, n)):
        kind = rand.choice(("add", "scale", "swap"))
        i, j = rand.randrange(n), rand.randrange(n)
        if kind == "add" and i != j:
            ops.append(("add", i, j, Fraction(rand.choice((-2, -1, 1, 2)))))
        elif kind == "scale":
            ops.append(("scale", i, i, Fraction(rand.choice((-1, 2, -2)))))
        elif kind == "swap" and i != j:
            ops.append(("swap", i, j, None))
    return ops


def _row_op(rng, mat, op):
    """mat <- E mat, where E is the elementary matrix of op."""
    kind, i, j, a = op
    if kind == "add":
        c = rng.const(a)
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    elif kind == "scale":
        c = rng.const(a)
        mat[i] = [c * x for x in mat[i]]
    else:
        mat[i], mat[j] = mat[j], mat[i]


def _col_op(rng, mat, op):
    """mat <- mat E^-1."""
    kind, i, j, a = op
    for row in mat:
        if kind == "add":
            row[j] = row[j] - rng.const(a) * row[i]
        elif kind == "scale":
            row[i] = rng.const(1 / a) * row[i]
        else:
            row[i], row[j] = row[j], row[i]


def conjugate(rng, cx, dspec, rand: random.Random):
    """(Q d Q^-1, aug Q^-1) for a seeded graded change of basis Q."""
    from diagres import ChainComplex, DiagonalSpec

    diffs = {i: [list(row) for row in m] for i, m in cx.diffs.items()}
    aug = [list(dspec.augmentation)]
    for deg in cx.degrees():
        for op in _elementary_ops(rand, cx.rank(deg)):
            if deg + 1 in diffs:
                _row_op(rng, diffs[deg + 1], op)
            if deg in diffs:
                _col_op(rng, diffs[deg], op)
            if deg == dspec.degree:
                _col_op(rng, aug, op)
    return (ChainComplex(rng, dict(cx.ranks), diffs, check=False),
            DiagonalSpec(list(dspec.ideal), dspec.degree, aug[0], dspec.window))


def write_jobs(seed: int, out_dir: str) -> dict:
    """Write one round of job files; return the manifest (files in run order)."""
    from diagres.catalog import apply_mutation, documented_mutations
    from diagres.jobio import emit_job, job_document

    rand = random.Random(seed)
    sources = _sources()
    entries = []
    digest = hashlib.sha256()
    for block in range(len(KINDS)):
        for pos, source in enumerate(JOB_SOURCES):
            kind = KINDS[(pos + block) % len(KINDS)]
            rng, cx, dspec = sources[source]
            mutation = None
            if kind != "clean":
                wanted = "differential" if kind == "malformed" else ("augmentation", "ideal")
                pool = [m for m in documented_mutations(source) if m.kind in wanted]
                mutation = rand.choice(pool)
                cx, dspec = apply_mutation(cx, dspec, mutation)
            cx, dspec = conjugate(rng, cx, dspec, rand)
            text = emit_job(job_document(source, rng, cx, dspec))
            name = f"{len(entries):02d}-{source}-{kind}.json"
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            digest.update(text.encode())
            entries.append({"file": name, "source": source, "kind": kind,
                            "mutation": mutation.name if mutation else None,
                            "expect": EXPECTED_EXIT[kind], "bytes": len(text)})
    manifest = {"seed": seed, "jobs": entries, "digest": digest.hexdigest()}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def gb_rings() -> list:
    from diagres.polyring import ring
    from diagres.scalars import QQ, PrimeField

    fields = {"q": QQ, "fp": PrimeField(32003)}
    out = []
    for fname, shape in GB_RINGS:
        if shape == "xyz":
            out.append(ring(["x", "y", "z"], field=fields[fname]))
        else:
            out.append(ring(["x1", "y1", "x2", "y2"], field=fields[fname],
                            relations=["x1*y1", "x2*y2"]))
    return out


def _random_poly(rand: random.Random, nvars: int) -> list:
    terms = []
    for _ in range(rand.randint(2, 4)):
        exps = [rand.randint(0, 3) for _ in range(nvars)]
        while sum(exps) > 3:
            exps[exps.index(max(exps))] -= 1
        terms.append([rand.randint(-4, 4), exps])
    return terms


def write_gb(seed: int, path: str) -> str:
    """Write GB_POOL instances as JSON lines; return their sha256.

    Instance k uses ring GB_RINGS[k % 4] and is [ring index, generators,
    multipliers]: the member check tests sum_i c_i * x^m_i * g_i with a
    scalar c_i and a monomial of degree at most one.
    """
    rand = random.Random(seed)
    digest = hashlib.sha256()
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(GB_POOL):
            which = k % len(GB_RINGS)
            n = GB_NVARS[GB_RINGS[which][1]]
            gens = [_random_poly(rand, n) for _ in range(rand.randint(2, 4))]
            mults = []
            for _ in gens:
                exps = [0] * n
                exps[rand.randrange(n)] = rand.randint(0, 1)
                mults.append([rand.choice((-3, -2, -1, 1, 2, 3)), exps])
            line = json.dumps([which, gens, mults]) + "\n"
            fh.write(line)
            digest.update(line.encode())
    return digest.hexdigest()
