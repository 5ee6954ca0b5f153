"""Acceptance suite: one criterion per test, one printed verdict line each.

Runtime targets are asserted as hard bounds (wall clock, single process):
  1. affine line verifies                         < 1 s
  2. nodal conic, both resolutions verify         < 5 s
  3. cycle: n in {3,4,5,6}, all n^2 charts +
     witness emits the Rouquier bound             < 60 s per n
  4. all documented mutations flip their verdicts
  5. randomized Gröbner property suite (100 ideals) < 30 s
  6. Koszul homology oracle (lengths 1..3)
  7. graded-decomposition suite (200 random maps)
  8. catalog verdicts identical over Q and F_32003
"""

import random
import time
from fractions import Fraction

from diagres._terms import tup_lcm, tup_sub
from diagres.bimodcalc import GradedLinearMap, GradedVectorSpace, decompose
from diagres.catalog import (build_affine_line, build_cycle, build_nodal_conic,
                             build_nodal_conic_product, documented_mutations,
                             mutation_flips, verify_chart_jobs, verify_entry)
from diagres.cli import main as cli_main
from diagres.complexes import DiagonalSpec, verify_diagonal_qiso
from diagres.groebner import (Submodule, buchberger, member, normal_form, syzygies,
                              vec_is_zero)
from diagres.polyring import ring
from diagres.scalars import CHECK_PRIME, QQ, PrimeField
from diagres.witness import verify_witness

FP = PrimeField(CHECK_PRIME)


def _announce(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_affine_line(capsys):
    t0 = time.monotonic()
    code = cli_main(["verify", "--example", "affine-line"])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(1, "affine line", code == 0 and elapsed < 1.0,
                  f"{elapsed:.2f}s < 1s, exit {code}")


def test_criterion_2_nodal_conic(capsys):
    t0 = time.monotonic()
    weak = verify_entry(build_nodal_conic())
    product = verify_entry(build_nodal_conic_product())
    elapsed = time.monotonic() - t0
    ok = weak.passed and product.passed and elapsed < 5.0
    with capsys.disabled():
        _announce(2, "nodal conic, both resolutions", ok,
                  f"{elapsed:.2f}s < 5s")


def test_criterion_3_cycle(capsys):
    details = []
    ok = True
    for n in (3, 4, 5, 6):
        t0 = time.monotonic()
        cat = build_cycle(n)
        reports = verify_chart_jobs(cat.chart_jobs)
        charts_ok = len(reports) == n * n and all(r.passed for r in reports)
        wrep = verify_witness(cat.witness)
        bound = any(f"Rdim(D^bCoh(I_{n})) <= 1" in m for m in wrep.messages)
        elapsed = time.monotonic() - t0
        ok = ok and charts_ok and wrep.passed and bound and elapsed < 60.0
        details.append(f"n={n}: {elapsed:.1f}s")
    with capsys.disabled():
        _announce(3, "cycle of projective lines", ok, "; ".join(details))


def test_criterion_4_mutations(capsys):
    affine = build_affine_line()
    conic = build_nodal_conic()
    product = build_nodal_conic_product()
    cat = build_cycle(3)
    diag = next(j for j in cat.chart_jobs if j.kind == "diagonal")
    adj = next(j for j in cat.chart_jobs if j.kind == "adjacent")
    cases = [("affine-line", affine.complex, affine.diagonal),
             ("nodal-conic", conic.complex, conic.diagonal),
             ("nodal-conic-product", product.complex, product.diagonal),
             ("cycle-diagonal-chart", diag.complex, diag.diagonal),
             ("cycle-adjacent-chart", adj.complex, adj.diagonal)]
    flipped = total = 0
    for name, cx, dspec in cases:
        for m in documented_mutations(name):
            total += 1
            flipped += bool(mutation_flips(cx, dspec, m))
    with capsys.disabled():
        _announce(4, "mutation controls", flipped == total == 25,
                  f"{flipped}/{total} flipped")


def _random_ideal(rng, rand):
    gens = []
    for _ in range(rand.randint(1, 4)):
        p = rng.zero()
        for _ in range(rand.randint(1, 3)):
            exps = [rand.randint(0, 3) for _ in range(rng.nvars)]
            while sum(exps) > 3:
                exps[exps.index(max(exps))] -= 1
            p = p + rng.const(rand.randint(-3, 3)).shift(tuple(exps))
        if not p.is_zero():
            gens.append((p,))
    return Submodule(rng, 1, gens if gens else [(rng.one(),)])


def test_criterion_5_groebner_suite(capsys):
    rng = ring(["x", "y", "z"])
    rand = random.Random(2024)
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        sub = _random_ideal(rng, rand)
        gb = buchberger(sub)
        # every S-polynomial of the (monic) output basis reduces to zero
        polys = [v[0] for v in gb.vectors]
        leads = [p.leading()[0] for p in polys]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                lcm = tup_lcm(leads[i], leads[j])
                s = (polys[i].shift(tup_sub(lcm, leads[i]))
                     - polys[j].shift(tup_sub(lcm, leads[j])))
                if not vec_is_zero(normal_form((s,), gb)):
                    ok = False
        # membership agrees with normal-form-vanishing
        for _ in range(3):
            probe = _random_ideal(rng, rand).generators[0]
            ok = ok and (member(probe, sub)
                         == vec_is_zero(normal_form(probe, gb)))
        # syzygy generators annihilate the generator matrix exactly
        mat = [[g[0] for g in sub.generators]]
        syz = syzygies(mat, rng)
        for s in syz.generators:
            image = sum((mat[0][j] * s[j] for j in range(len(s))), rng.zero())
            ok = ok and image.is_zero()
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _announce(5, "Gröbner property suite", ok and elapsed < 30.0,
                  f"100 ideals in {elapsed:.1f}s < 30s")


def test_criterion_6_koszul_oracle(capsys):
    rng = ring(["x1", "x2", "x3"])
    from diagres.resolutions import resolve_cyclic
    ok = True
    for length in (1, 2, 3):
        gens = [rng.var(f"x{i + 1}") for i in range(length)]
        kos = resolve_cyclic(rng, gens, 6)
        aug = [rng.one()] + [rng.zero()] * (kos.rank(0) - 1)
        spec = DiagonalSpec(ideal=list(gens), degree=0, augmentation=aug)
        res = verify_diagonal_qiso(kos, spec)
        ok = ok and res.passed
        # analytic answer: binomial ranks, homology only in degree 0
        from math import comb
        ok = ok and all(kos.rank(i) == comb(length, i) for i in range(length + 1))
    with capsys.disabled():
        _announce(6, "Koszul homology oracle", ok, "regular sequences 1..3")


def test_criterion_7_bimodcalc_suite(capsys):
    from diagres.bimodcalc import invert_matrix, mat_mul_scalar
    rand = random.Random(71)
    ok = True
    for _ in range(200):
        src, tgt, mats = {}, {}, {}
        for d in range(-3, 4):
            if rand.random() < 0.5:
                continue
            s, t = rand.randint(0, 5), rand.randint(0, 5)
            if s:
                src[d] = s
            if t:
                tgt[d] = t
            if s and t:
                mats[d] = [[Fraction(rand.randint(-4, 4)) for _ in range(s)]
                           for _ in range(t)]
        phi = GradedLinearMap(GradedVectorSpace.make(src),
                              GradedVectorSpace.make(tgt), mats)
        dec = decompose(phi)
        for d in phi.degrees():
            ok = ok and (dec.u_dims.get(d, 0) + dec.v_dims.get(d, 0)
                         == phi.source.dim(d))
            ok = ok and (dec.v_dims.get(d, 0) + dec.w_dims.get(d, 0)
                         == phi.target.dim(d))
            rows, cols = phi.target.dim(d), phi.source.dim(d)
            if rows == 0 or cols == 0:
                continue
            v = dec.v_dims.get(d, 0)
            canon = [[QQ.one if (i == j and i < v) else QQ.zero
                      for j in range(cols)] for i in range(rows)]
            qinv = invert_matrix(QQ, dec.q_mats[d])
            got = mat_mul_scalar(QQ, mat_mul_scalar(QQ, qinv, canon),
                                 dec.p_mats[d])
            ok = ok and got == phi.mat(d)
    with capsys.disabled():
        _announce(7, "graded decomposition suite", ok, "200 random maps")


def test_criterion_8_field_cross_check(capsys):
    def verdicts(field):
        out = [verify_entry(build_affine_line(field)).verdict,
               verify_entry(build_nodal_conic(field)).verdict,
               verify_entry(build_nodal_conic_product(field)).verdict]
        cat = build_cycle(3, field)
        out.extend(r.verdict for r in verify_chart_jobs(cat.chart_jobs))
        out.append("pass" if verify_witness(cat.witness).passed else "fail")
        return out

    v_q = verdicts(QQ)
    v_p = verdicts(FP)
    ok = v_q == v_p and all(v == "pass" for v in v_q)
    with capsys.disabled():
        _announce(8, "field cross-check Q vs F_32003", ok,
                  f"{len(v_q)} verdicts compared")
