"""Chain complexes: construction, cone/shift/sum, homology, the verdict."""

import random
from functools import cached_property

import pytest

from diagres.complexes import (ChainComplex, ChainMap, DiagonalSpec,
                               InputDataError, cone, direct_sum,
                               exact_everywhere, minimize, shift,
                               verify_diagonal_qiso, zero_complex)
from diagres.matrices import Matrix, as_matrix, identity_matrix, mat_mul
from diagres.polyring import ring
from diagres.resolutions import lift_module_map, resolve_cyclic
from diagres.scalars import CHECK_PRIME
from helpers import check_differential, exponent_terms, homology_is_zero_at

R2 = ring(["x1", "x2"])


def koszul(rng, gens):
    return resolve_cyclic(rng, [rng.parse(g) for g in gens], 8)


def test_koszul_is_complex():
    k = koszul(R2, ["x1", "x2"])
    assert check_differential(k)
    assert {i: k.rank(i) for i in k.degrees()} == {0: 1, 1: 2, 2: 1}


def test_perturbed_koszul_fails():
    k = koszul(R2, ["x1", "x2"])
    bad = {i: [list(r) for r in m] for i, m in k.diffs.items()}
    bad[2][0][0] = -bad[2][0][0]
    broken = ChainComplex(R2, dict(k.ranks), bad, check=False)
    assert not check_differential(broken)
    with pytest.raises(InputDataError):
        ChainComplex(R2, dict(k.ranks), bad, check=True)


def test_homology_verdicts_on_a_non_complex_raise():
    """d_1 = d_2 = d_3 = (1) over k[x] is not a complex (d*d = 1), so no
    homology verdict may answer on it, with or without minimizing first."""
    rx = ring(["x"])
    one = [[rx.one()]]
    cx = ChainComplex(rx, {0: 1, 1: 1, 2: 1, 3: 1}, {1: one, 2: one, 3: one}, check=False)
    assert not check_differential(cx)
    with pytest.raises(InputDataError, match="d\\*d"):
        exact_everywhere(cx)
    for pre_minimize in (True, False):
        with pytest.raises(InputDataError, match="d\\*d"):
            homology_is_zero_at(cx, 1, pre_minimize=pre_minimize)


def test_koszul_homology_concentrated():
    k = koszul(R2, ["x1", "x2"])
    assert not homology_is_zero_at(k, 0)
    for i in (1, 2, 3):
        assert homology_is_zero_at(k, i)
    # out-of-range degrees are vacuously exact
    assert homology_is_zero_at(k, -5) and homology_is_zero_at(k, 9)


def test_two_term_multiplication():
    two = resolve_cyclic(ring(["x"]), [ring(["x"]).parse("x")], 4)
    assert homology_is_zero_at(two, 1)
    assert not homology_is_zero_at(two, 0)


def test_zero_complex():
    z = zero_complex(R2)
    assert z.is_zero()
    for i in (-1, 0, 3):
        assert homology_is_zero_at(z, i)
    assert exact_everywhere(z).passed


def test_exact_everywhere_on_an_empty_window_raises():
    """A window [lo, hi] with lo > hi holds no degree to check, for the zero
    complex as for k in degree 0, whose H_0 is not zero."""
    rx = ring(["x"])
    for cx in (zero_complex(rx), ChainComplex(rx, {0: 1}, {})):
        with pytest.raises(InputDataError, match="empty window"):
            exact_everywhere(cx, (3, -1))
    assert not exact_everywhere(ChainComplex(rx, {0: 1}, {}), (0, 0)).passed


def test_cone_of_identity_is_exact():
    k = koszul(R2, ["x1", "x2"])
    ident = ChainMap(k, k, {i: identity_matrix(R2, k.rank(i))
                            for i in k.degrees()})
    c = cone(ident)
    assert check_differential(c)
    for i in range(c.lo - 1, c.hi + 2):
        assert homology_is_zero_at(c, i)


def test_cone_of_zero_map_from_nothing():
    k = koszul(R2, ["x1", "x2"])
    c = cone(ChainMap(zero_complex(R2), k, {}))
    assert c == k


def test_cone_multiplication_by_x():
    rx = ring(["x"])
    free = resolve_cyclic(rx, [], 3)
    mult = ChainMap(free, free, {0: [[rx.parse("x")]]})
    c = cone(mult)
    assert {i: c.rank(i) for i in c.degrees()} == {0: 1, 1: 1}
    assert not homology_is_zero_at(c, 0)
    assert homology_is_zero_at(c, 1)


def test_shift_identities():
    k = koszul(R2, ["x1", "x2"])
    assert shift(k, 0) == k
    assert shift(shift(k, 1), -1) == k
    assert check_differential(shift(k, 1))
    assert shift(k, 2).rank(2) == 1


def test_direct_sum():
    k = koszul(R2, ["x1", "x2"])
    s = direct_sum(k, shift(k, 1))
    for i in s.degrees():
        assert s.rank(i) == k.rank(i) + k.rank(i - 1)
    assert direct_sum(k, zero_complex(R2)) == k
    # exactness degrees intersect
    assert not homology_is_zero_at(s, 0)
    assert not homology_is_zero_at(s, 1)  # the shifted copy contributes here
    assert homology_is_zero_at(s, 2)


def test_cone_shift_compatibility():
    """cone(f)[1] = cone(f[1]) after the canonical sign involution.

    The two complexes have equal ranks and differ exactly by negating the
    target block, so conjugating one differential by that sign matrix gives
    literal equality degreewise (and hence submodule-equal images).
    """
    from diagres.matrices import mat_eq
    k = koszul(R2, ["x1", "x2"])
    mult = lift_module_map(k, k, [[R2.parse("x1-x2")]])
    src1 = shift(k, 1)
    a = shift(cone(mult), 1)
    b = cone(ChainMap(src1, src1, {i + 1: m for i, m in mult.mats.items()}))
    assert a.ranks == b.ranks

    def sign_mat(i):
        # +1 on the source block (src[1] part), -1 on the target block
        n_src = src1.rank(i - 1)
        n = a.rank(i)
        return as_matrix(R2, [[(R2.one() if j < n_src else -R2.one()) if j == l else R2.zero()
                              for l in range(n)] for j in range(n)])

    for i in a.degrees():
        if not a.rank(i) or not a.rank(i - 1):
            continue
        conj = mat_mul(mat_mul(sign_mat(i - 1), b.diff(i)), sign_mat(i))
        assert mat_eq(a.diff(i), conj)


def test_minimize_preserves_homology():
    k = koszul(R2, ["x1", "x2"])
    ident = ChainMap(k, k, {i: identity_matrix(R2, k.rank(i)) for i in k.degrees()})
    c = cone(ident)
    m, _ = minimize(c)
    assert m.is_zero()  # fully contractible
    two = cone(lift_module_map(k, k, [[R2.parse("x1")]]))
    m2, _ = minimize(two)
    for i in range(two.lo - 1, two.hi + 2):
        assert homology_is_zero_at(two, i) == homology_is_zero_at(m2, i, pre_minimize=False)


# ---------------------------------------------------------------------------
# brute-force specialization oracle (necessary condition at random points)


def _rank_mod_p(rows, p):
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _evaluate(mat, point, p):
    out = []
    for row in mat:
        out_row = []
        for e in row:
            total = 0
            for exps, c in exponent_terms(e).items():
                v = int(c) if c.denominator == 1 else (int(c.numerator)
                                                       * pow(int(c.denominator), p - 2, p))
                for x, ex in zip(point, exps):
                    v = (v * pow(x, ex, p)) % p
                total = (total + v) % p
            out_row.append(total % p)
        out.append(out_row)
    return out


def test_homology_matches_specialization_oracle():
    """Exactness (Gröbner verdict) implies the generic rank identity."""
    rand = random.Random(23)
    p = CHECK_PRIME
    k = koszul(R2, ["x1", "x2"])
    for trial in range(4):
        poly = R2.zero()
        for _ in range(3):
            exps = (rand.randint(0, 2), rand.randint(0, 2))
            poly = poly + R2.const(rand.randint(-2, 2)).shift(exps)
        if poly.is_zero():
            poly = R2.one()
        f = lift_module_map(k, k, [[poly]])
        c = cone(f)
        for i in range(c.lo, c.hi + 1):
            if not homology_is_zero_at(c, i):
                continue
            for _ in range(5):
                point = tuple(rand.randint(1, p - 1) for _ in range(2))
                r_in = _rank_mod_p(_evaluate(c.diff(i), point, p), p) if c.rank(i - 1) else 0
                r_out = _rank_mod_p(_evaluate(c.diff(i + 1), point, p), p) if c.rank(i + 1) else 0
                assert r_in + r_out == c.rank(i)


# ---------------------------------------------------------------------------
# the diagonal verdict on a small hand case


def test_verify_diagonal_qiso_affine_pattern():
    """R <-(x1-x2)- R resolves the diagonal of the affine line directly."""
    cx = ChainComplex(R2, {0: 1, 1: 1}, {1: [[R2.parse("x1-x2")]]})
    spec = DiagonalSpec(ideal=[R2.parse("x1-x2")], degree=0,
                        augmentation=[R2.one()])
    assert verify_diagonal_qiso(cx, spec).passed
    assert verify_diagonal_qiso(cx, spec, pre_minimize=False).passed
    # wrong augmentation: multiplication by x1 misses the unit
    bad = DiagonalSpec(ideal=[R2.parse("x1-x2")], degree=0,
                       augmentation=[R2.parse("x1")])
    res = verify_diagonal_qiso(cx, bad)
    assert not res.passed and res.first_failure().condition == "surjective"
    assert res.first_failure().detail == "1 is not in aug(ker d_0) + I"
    # R alone in degree 0: aug is onto R/(x1-x2), but x1-x2 is no boundary
    res = verify_diagonal_qiso(ChainComplex(R2, {0: 1}, {}), spec)
    assert not res.passed and res.first_failure().condition == "injective"
    assert res.first_failure().detail == (
        "column 0 of ker(aug mod I) on ker d_0 is not a boundary")


def test_verify_input_errors():
    cx = ChainComplex(R2, {0: 1, 1: 1}, {1: [[R2.parse("x1-x2")]]})
    with pytest.raises(InputDataError):
        verify_diagonal_qiso(cx, DiagonalSpec([R2.one()], 0, [R2.one()]))
    with pytest.raises(InputDataError):
        verify_diagonal_qiso(cx, DiagonalSpec([R2.parse("x1-x2")], 5, [R2.one()]))
    with pytest.raises(InputDataError):
        verify_diagonal_qiso(cx, DiagonalSpec([R2.parse("x1-x2")], 0, [R2.zero()]))


# ---------------------------------------------------------------------------
# minimize: the sparse elimination matches a dense scan restarted from the
# lowest degree after every pivot


def _minimize_restarting(cx, transport_degrees=()):
    """Reference Gaussian cancellation: rescan every degree after each pivot."""
    rng = cx.ring
    fld = rng.field
    ranks = dict(cx.ranks)
    diffs = {i: [row[:] for row in cx.diff(i)]
             for i in range(cx.lo, cx.hi + 1) if cx.rank(i) and cx.rank(i - 1)}
    incl = {d: [list(row) for row in identity_matrix(rng, cx.rank(d))]
            for d in transport_degrees}

    def find_pivot():
        for k in sorted(diffs):
            for r, row in enumerate(diffs[k]):
                for c, e in enumerate(row):
                    if not e.is_zero() and e.is_constant():
                        return k, r, c, e.constant_value()
        return None

    while (piv := find_pivot()) is not None:
        k, r, c, a = piv
        inv = fld.inv(a)
        mat = diffs[k]
        rows, cols = len(mat), len(mat[0])
        prow = mat[r]
        new_k = []
        for s in range(rows):
            corr = rng.const(inv) * mat[s][c]
            if s != r:
                new_k.append([mat[s][t] - corr * prow[t] if not corr.is_zero() else mat[s][t]
                              for t in range(cols) if t != c])
        if k in incl:
            old = incl[k]
            incl[k] = [[old[s][t] - old[s][c] * (rng.const(inv) * prow[t])
                        for t in range(cols) if t != c] for s in range(len(old))]
        if k - 1 in incl:
            old = incl[k - 1]
            incl[k - 1] = [[row[t] for t in range(len(row)) if t != r] for row in old]
        if k + 1 in diffs:
            diffs[k + 1] = [row for t, row in enumerate(diffs[k + 1]) if t != c]
        if k - 1 in diffs:
            diffs[k - 1] = [[e for s, e in enumerate(row) if s != r]
                            for row in diffs[k - 1]]
        diffs[k] = new_k
        ranks[k] -= 1
        ranks[k - 1] -= 1
        diffs = {i: m for i, m in diffs.items() if m and m[0]}
        ranks = {i: n for i, n in ranks.items() if n}
    return ChainComplex(rng, ranks, diffs, check=False), incl


def _conjugate(cx, rand, steps):
    """Random graded change of basis by elementary (unitriangular) operations.

    Adding c times basis vector a to basis vector b of C_i rewrites
    d_{i+1} by a row operation and d_i by the inverse column operation,
    so d*d = 0 is kept and homology is unchanged.
    """
    rng = cx.ring
    diffs = {i: [row[:] for row in cx.diff(i)] for i in range(cx.lo, cx.hi + 2)}
    gens = [rng.one(), rng.const(-2), rng.parse("x1"), rng.parse("x2 - 1")]
    degrees = [i for i in cx.degrees() if cx.rank(i) >= 2]
    for _ in range(steps if degrees else 0):
        i = rand.choice(degrees)
        a, b = rand.sample(range(cx.rank(i)), 2)
        c = rand.choice(gens)
        up = diffs[i + 1]
        if up and up[0]:
            up[a] = [x + c * y for x, y in zip(up[a], up[b])]
        down = diffs[i]
        for row in down:
            row[b] = row[b] - c * row[a]
    return ChainComplex(rng, dict(cx.ranks),
                        {i: m for i, m in diffs.items() if m and m[0]})


def _assert_same_minimization(cx, degrees):
    """minimize agrees with the restarting scan, and the row it returns for
    the unit row e_s at degree d is row s of the scan's inclusion at d: the
    rows for every s rebuild the whole inclusion."""
    from diagres.matrices import mat_eq
    got, no_row = minimize(cx)
    want, want_incl = _minimize_restarting(cx, transport_degrees=degrees)
    assert no_row is None
    assert got.ranks == want.ranks
    assert got == want
    one = cx.ring.one()
    for d in degrees:
        rows = []
        for s in range(cx.rank(d)):
            reduced, row = minimize(cx, (d, {s: one}))
            # The row never becomes a differential of its own.
            assert reduced == got and set(reduced.diffs) == set(got.diffs)
            rows.append(row)
        incl = Matrix(cx.ring, cx.rank(d), got.rank(d), rows)
        assert mat_eq(incl, as_matrix(cx.ring, want_incl[d], got.rank(d)))


def test_minimize_matches_restarting_scan_on_catalog():
    from diagres.catalog import build_affine_line, build_nodal_conic, build_nodal_conic_product
    from diagres.catalog.entries import _chart_complex_cached
    from diagres.scalars import QQ, field_from_spec
    cxs = [build_affine_line().complex, build_nodal_conic().complex,
           _chart_complex_cached(QQ, "adjacent")[1],
           _chart_complex_cached(QQ, "diagonal")[1],
           build_nodal_conic_product().complex,
           build_nodal_conic(field_from_spec("fp:32003")).complex]
    for cx in cxs:
        _assert_same_minimization(cx, (0,))


def test_minimize_matches_restarting_scan_randomized():
    rand = random.Random(31)
    k = koszul(R2, ["x1", "x2"])
    ident = ChainMap(k, k, {i: identity_matrix(R2, k.rank(i)) for i in k.degrees()})
    mult = lift_module_map(k, k, [[R2.parse("x1 + 1")]])
    # Cancelling the unit 1 of [[1, x1], [x1, x1^2 + 1]] turns x1^2 + 1 into
    # the unit 1: a unit that only the Schur update creates.
    schur = ChainComplex(R2, {0: 2, 1: 2},
                         {1: [[R2.parse(e) for e in row] for row in
                              (("1", "x1"), ("x1", "x1^2 + 1"))]})
    # No d_1 is stored between nonzero C_1 and C_0: a row carried at degree
    # 1 must not leave a zero d_1 behind.
    gap = ChainComplex(R2, {0: 2, 1: 2, 2: 1}, {2: [[R2.one()], [R2.parse("x2")]]})
    bases = [direct_sum(k, cone(ident), shift(k, 1)), cone(mult),
             direct_sum(cone(ident), cone(lift_module_map(k, k, [[R2.parse("x2")]]))),
             schur, gap]
    for base in bases:
        _assert_same_minimization(base, tuple(base.degrees()))
        for _ in range(3):
            cx = _conjugate(base, rand, steps=12)
            _assert_same_minimization(cx, tuple(cx.degrees()))


def test_augmentation_row_is_never_a_pivot():
    """The augmentation's 1 at column 0 is the lexicographically first unit
    of d_1 with the row in it (its key sorts before every basis index);
    cancelling it would delete a basis vector of C_0 that does not exist."""
    from diagres.matrices import mat_eq
    p = R2.parse
    cx = ChainComplex(R2, {0: 1, 1: 3, 2: 1},
                      {1: [[p("1"), p("x1"), p("x2")]], 2: [[p("x2")], [p("0")], [p("-1")]]})
    aug = [p("1"), p("x2"), p("0")]
    reduced, row = minimize(cx, (1, as_matrix(R2, [aug]).rows[0]))
    want, want_incl = _minimize_restarting(cx, transport_degrees=(1,))
    plain, _ = minimize(cx)
    assert reduced == plain == want and set(reduced.diffs) == set(plain.diffs)
    assert row == {0: p("x2 - x1")}
    eps_incl = mat_mul(as_matrix(R2, [aug]), as_matrix(R2, want_incl[1], reduced.rank(1)))
    assert mat_eq(Matrix(R2, 1, reduced.rank(1), [row]), eps_incl)


# ---------------------------------------------------------------------------
# one d*d check per complex


def test_square_zero_scan_runs_once_per_complex(monkeypatch):
    calls = []
    scan = ChainComplex._d2_failure.func
    counted = cached_property(lambda self: calls.append(self) or scan(self))
    counted.__set_name__(ChainComplex, "_d2_failure")
    monkeypatch.setattr(ChainComplex, "_d2_failure", counted)
    cx = ChainComplex(R2, {0: 1, 1: 1}, {1: [[R2.parse("x1-x2")]]}, check=False)
    assert check_differential(cx) and check_differential(cx)
    spec = DiagonalSpec(ideal=[R2.parse("x1-x2")], degree=0, augmentation=[R2.one()])
    assert verify_diagonal_qiso(cx, spec).passed
    assert calls == [cx]


def test_noncommuting_map_fails_through_its_cone():
    k = ChainComplex(R2, {0: 1, 1: 1}, {1: [[R2.parse("x1")]]})
    f = ChainMap(k, k, {0: [[R2.one()]], 1: [[R2.zero()]]})
    assert not check_differential(cone(f))
    spec = DiagonalSpec(ideal=[R2.parse("x1")], degree=0, augmentation=[R2.one()])
    with pytest.raises(InputDataError, match=r"d\*d != 0"):
        verify_diagonal_qiso(cone(f), spec)


def test_mutated_copy_of_checked_complex_fails_its_own_check(tmp_path, capsys):
    from diagres.catalog import build_affine_line
    from diagres.catalog.mutations import apply_mutation, documented_mutations
    from diagres.cli import main
    from diagres.jobio import emit_job, job_document
    entry = build_affine_line()
    assert check_differential(entry.complex)
    mutation = next(m for m in documented_mutations("affine-line")
                    if m.kind == "differential")
    mcx, mspec = apply_mutation(entry.complex, entry.diagonal, mutation)
    assert not check_differential(mcx)
    assert check_differential(entry.complex)
    with pytest.raises(InputDataError):
        verify_diagonal_qiso(mcx, mspec)
    path = tmp_path / "mutated.json"
    path.write_text(emit_job(job_document("mutated", entry.ring, mcx, mspec)))
    assert main(["verify", "--job", str(path)]) == 2
    assert "d*d" in capsys.readouterr().err


def test_square_zero_scan_skips_degrees_without_differentials(monkeypatch):
    from diagres.jobio import parse_complex
    calls = []
    monkeypatch.setattr("diagres.complexes.mat_mul",
                        lambda a, b: calls.append(1) or mat_mul(a, b))
    n = 60
    assert check_differential(ChainComplex(R2, {0: n, 1: n, 2: n}, {}))
    parse_complex({"ranks": {"0": n, "1": n, "2": n}}, R2, "complexes[0]")
    one_side = ChainComplex(R2, {0: 1, 1: 1, 2: 1}, {1: [[R2.parse("x1")]]})
    assert check_differential(one_side)
    assert calls == []
    koszul_diffs = koszul(R2, ["x1", "x2"]).diffs
    assert check_differential(ChainComplex(R2, {0: 1, 1: 2, 2: 1}, koszul_diffs))
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_mat_neg_negates_every_entry_and_keeps_zeros(spec):
    from diagres.catalog.entries import negate_map
    from diagres.matrices import mat_neg
    from diagres.scalars import field_from_spec
    rng = ring(["x", "y"], field=field_from_spec(spec), relations=("x*y",))
    texts = ["0", "1", "-1", "x", "2*x - 3*y^2", "0", "x^2*y", "7", "-y + 1"]
    mat = as_matrix(rng, [[rng.parse(t) for t in texts[i:i + 3]] for i in range(0, 9, 3)])
    neg = mat_neg(mat)
    assert [[-e for e in row] for row in mat] == list(neg)
    assert [row.keys() for row in mat.rows] == [row.keys() for row in neg.rows]
    cx = ChainComplex(rng, {0: 3, 1: 3}, {}, check=False)
    f = ChainMap(cx, cx, {0: mat})
    assert negate_map(f).mats == {0: neg}


# ---------------------------------------------------------------------------
# homology from one elimination basis per differential


def _homology_zero_reference(cx, i):
    """H_i = 0 the long way: kernel generators of d_i (the unit vectors when
    there is none), each tested for membership in a Submodule of the image
    columns of d_{i+1}, which has its own Gröbner basis."""
    from diagres.groebner import Submodule, member, syzygies
    from diagres.matrices import mat_cols
    rng, n = cx.ring, cx.rank(i)
    if n == 0:
        return True
    zero = rng.zero()
    image = Submodule(rng, n, [tuple(col.get(r, zero) for r in range(n))
                               for col in mat_cols(cx.diff(i + 1))])
    return all(member(g, image) for g in syzygies(cx.diff(i), rng).generators)


def _assert_homology_matches_reference(cx):
    reduced, _ = minimize(cx)
    for i in range(cx.lo - 1, cx.hi + 2):
        assert homology_is_zero_at(cx, i, pre_minimize=False) == \
            _homology_zero_reference(cx, i), (cx, i, "raw")
        assert homology_is_zero_at(cx, i) == _homology_zero_reference(reduced, i), \
            (cx, i, "minimized")


@pytest.mark.parametrize("relations,unit", [((), False),
                                            (("x1*x2", "x1^2", "x2^2"), False),
                                            (("x1*x2 - 1", "x1"), True)])
def test_homology_without_differentials_matches_augmented_membership(relations, unit):
    """A degree with no differential on either side has H = (R/J)^n: the
    identity columns are boundaries iff every unit vector lies in J*R^n."""
    rng = ring(["x1", "x2"], relations=relations)
    for n in (1, 2, 3):
        d1 = [[rng.parse("x1")] * n]  # C_1 -> C_0, so degree 2 has no differential
        cx = ChainComplex(rng, {0: 1, 1: n, 2: n}, {1: d1})
        for i in (0, 1, 2):
            assert homology_is_zero_at(cx, i, pre_minimize=False) == \
                _homology_zero_reference(cx, i)
        assert homology_is_zero_at(cx, 2, pre_minimize=False) == unit


def test_homology_matches_image_membership_randomized():
    """At every degree, the homology verdict equals the reference on random
    cones of multiplication maps between resolutions over R2 and the conic
    ring, conjugated by random changes of basis, minimized and raw."""
    from diagres.catalog.entries import conic_ring
    rand = random.Random(12)
    conic = conic_ring()
    cases = [(R2, ["x1", "x2", "x1^2", "x1*x2 - x2", "x2^2 + x1"], 4),
             (conic, ["x1", "y1", "x2", "y2", "x1 - x2", "y1 + y2", "x1*y2"], 3)]
    for rng, pool, length in cases:
        for _ in range(4):
            gens = [rng.parse(g) for g in rand.sample(pool, rand.choice((1, 2, 3)))]
            res = resolve_cyclic(rng, gens, length)
            p = rng.parse(rand.choice(pool + ["1", "0"]))
            cx = cone(lift_module_map(res, res, [[p]]))
            _assert_homology_matches_reference(cx)
            _assert_homology_matches_reference(_conjugate(cx, rand, steps=6))


def test_homology_matches_image_membership_on_catalog():
    from diagres.catalog import build_affine_line, build_nodal_conic, build_nodal_conic_product
    from diagres.catalog.entries import _chart_complex_cached
    from diagres.scalars import QQ
    for cx in (build_affine_line().complex, build_nodal_conic().complex,
               build_nodal_conic_product().complex,
               _chart_complex_cached(QQ, "diagonal")[1],
               _chart_complex_cached(QQ, "adjacent")[1]):
        _assert_homology_matches_reference(cx)


@pytest.mark.parametrize("pre_minimize", [True, False])
def test_verdict_builds_one_solver_per_differential(monkeypatch, pre_minimize):
    """A verdict on the nodal conic builds at most one ImageSolver per
    differential of the checked complex, plus one for the row of
    augmentation values and ideal generators, and no Gröbner basis of an
    image submodule: the only Submodule basis it builds is the ideal's."""
    from diagres import complexes, groebner
    from diagres.catalog import build_nodal_conic
    entry = build_nodal_conic()
    # a fresh complex has no memoized verdict, and its fresh matrices (on
    # the entry's rows) carry no solver; its d*d check caches the relation
    # basis before counting starts
    cx = ChainComplex(entry.ring, dict(entry.complex.ranks),
                      {i: Matrix(m.ring, m.nrows, m.ncols, m.rows)
                       for i, m in entry.complex.diffs.items()})
    reduced, solved, bases = [], [], []
    minimize_ = complexes.minimize
    init = groebner.ImageSolver.__init__
    build = groebner.buchberger
    monkeypatch.setattr(complexes, "minimize",
                        lambda *a, **kw: reduced.append(out := minimize_(*a, **kw)) or out)
    monkeypatch.setattr(groebner.ImageSolver, "__init__",
                        lambda self, m, rng: solved.append(m) or init(self, m, rng))
    monkeypatch.setattr(groebner, "buchberger", lambda sub: bases.append(sub) or build(sub))
    assert verify_diagonal_qiso(cx, entry.diagonal, pre_minimize).passed
    work = reduced[0][0] if pre_minimize else cx
    own = [m for m in solved if any(m is d for d in work.diffs.values())]
    assert len({id(m) for m in own}) == len(own) >= 2
    rest = [m for m in solved if not any(m is d for d in work.diffs.values())]
    assert len(rest) == 1 and rest[0].nrows == 1
    assert [sub.generators for sub in bases] == [[(g,) for g in entry.diagonal.ideal]]
