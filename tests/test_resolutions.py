"""Free resolutions, chain-map lifting, homotopies, maps into shifted cones."""

import pytest

from diagres.complexes import (InputDataError, check_differential,
                               cone, homology_is_zero_at, shift)
from diagres.matrices import mat_eq, mat_mul, zero_matrix
from diagres.polyring import ring
from diagres.resolutions import (lift_module_map, maps_to_shifted_cone,
                                 nullhomotopy, resolve_cyclic, tate, truncate)
from diagres.scalars import QQ

RXY = ring(["x", "y"], relations=["x*y"])
R2 = ring(["x1", "x2"])


def test_resolve_cyclic_periodic():
    res = resolve_cyclic(RXY, [RXY.parse("y")], 6)
    assert {i: res.rank(i) for i in res.degrees()} == {i: 1 for i in range(7)}
    # alternating y, x, y, x...
    entries = [str(res.diffs[i][0][0]) for i in sorted(res.diffs)]
    assert entries == ["y", "x", "y", "x", "y", "x"]
    assert check_differential(res)


def test_resolve_cyclic_exact_away_from_zero():
    res = resolve_cyclic(RXY, [RXY.parse("x"), RXY.parse("y")], 5)
    assert check_differential(res)
    assert not homology_is_zero_at(res, 0)
    for i in range(1, 5):  # truncation junk only at the top degree
        assert homology_is_zero_at(res, i)


def test_resolve_cyclic_finite_stops():
    res = resolve_cyclic(R2, [R2.parse("x1"), R2.parse("x2")], 9)
    assert res.hi == 2  # Koszul resolution terminates


def test_resolve_free_module():
    res = resolve_cyclic(R2, [], 5)
    assert {i: res.rank(i) for i in res.degrees()} == {0: 1}


def test_truncate():
    res = resolve_cyclic(RXY, [RXY.parse("y")], 6)
    t = truncate(res, 3)
    assert t.hi == 3 and 4 not in t.diffs and check_differential(t)


def test_lift_module_map_commutes():
    kx = resolve_cyclic(RXY, [RXY.parse("y")], 5)
    k0 = resolve_cyclic(RXY, [RXY.parse("x"), RXY.parse("y")], 6)
    lifted = lift_module_map(truncate(kx, 5), k0, [[RXY.one()]])
    assert lifted.commutes()


def test_lift_rejects_unliftable():
    # 1: R/(x) -> R/(x,y) lifts, but a map hitting a non-cycle cannot
    k0 = resolve_cyclic(R2, [R2.parse("x1")], 3)
    free = resolve_cyclic(R2, [], 3)
    with pytest.raises(InputDataError):
        # source longer than target resolution
        lift_module_map(resolve_cyclic(R2, [R2.parse("x1"), R2.parse("x2")], 5),
                        truncate(k0, 1), [[R2.one()]])


def test_nullhomotopy_of_multiplication():
    """x * id on the resolution of R/(x) is nullhomotopic over k[x]."""
    rx = ring(["x"])
    k = resolve_cyclic(rx, [rx.parse("x")], 4)
    mult = lift_module_map(truncate(k, 3), k, [[rx.parse("x")]])
    h = nullhomotopy(mult)
    # verify f = d h + h d degreewise
    src, tgt = mult.src, mult.tgt
    for i in src.degrees():
        if not src.rank(i):
            continue
        want = mult.mat(i)
        got = zero_matrix(rx, tgt.rank(i), src.rank(i))
        if i in h:
            got = mat_mul(tgt.diff(i + 1), h[i])
        if i - 1 in h and src.rank(i - 1):
            part = mat_mul(h[i - 1], src.diff(i))
            got = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(got, part)]
        assert all(x == y for rw, rg in zip(want, got) for x, y in zip(rw, rg))


def test_nullhomotopy_impossible():
    rx = ring(["x"])
    k = resolve_cyclic(rx, [rx.parse("x")], 4)
    ident = lift_module_map(truncate(k, 3), k, [[rx.one()]])
    with pytest.raises(InputDataError):
        nullhomotopy(ident)  # identity on a non-exact complex is not nullhomotopic


def test_map_to_shifted_cone_is_chain_map():
    kx = resolve_cyclic(RXY, [RXY.parse("y")], 5)
    k0 = resolve_cyclic(RXY, [RXY.parse("x"), RXY.parse("y")], 5)
    proj = lift_module_map(truncate(kx, 5), k0, [[RXY.one()]])
    mult = lift_module_map(truncate(kx, 4), proj.src, [[RXY.parse("x")]])
    phi, = maps_to_shifted_cone([mult], proj)
    assert phi.commutes()
    assert phi.tgt == shift(cone(proj), -1)


def test_cone_of_a_map_to_shifted_cone_is_a_complex():
    """Three objects as a cone into a cone satisfy d*d = 0 via the nullhomotopy."""
    kx = resolve_cyclic(RXY, [RXY.parse("y")], 5)
    k0 = resolve_cyclic(RXY, [RXY.parse("x"), RXY.parse("y")], 5)
    proj = lift_module_map(truncate(kx, 5), k0, [[RXY.one()]])
    mult = lift_module_map(truncate(kx, 4), proj.src, [[RXY.parse("x")]])
    assert check_differential(cone(maps_to_shifted_cone([mult], proj)[0]))


def test_nodal_conic_build_computes_each_elimination_basis_once(monkeypatch):
    """resolve, lift and nullhomotopy share one solver per differential, and
    the three conic builders share one set of conic pieces per field."""
    from diagres import groebner
    from diagres.catalog import build_cycle, build_nodal_conic, build_nodal_conic_product
    from diagres.catalog import entries

    real = groebner.ImageSolver.__init__
    seen = []

    def counted(self, matrix, rng):
        seen.append(tuple(tuple(row) for row in matrix))
        return real(self, matrix, rng)

    monkeypatch.setattr(entries, "_CACHE", {})
    monkeypatch.setattr(groebner.ImageSolver, "__init__", counted)
    build_nodal_conic()
    assert seen
    build_nodal_conic_product()
    build_cycle(3)  # its diagonal chart is built from the conic pieces
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_memoized_solver_matches_fresh_solver(spec):
    """Every catalog differential gets its own shared solver, and that solver
    answers solve() and kernel() exactly as a freshly built one does."""
    from diagres.catalog.entries import (conic_ring, sections_into_ideal_sheaf,
                                         skyscraper_projection)
    from diagres.groebner import ImageSolver, solver_of
    from diagres.scalars import field_from_spec

    rng = conic_ring(field_from_spec(spec))
    x1, y1, x2, y2 = rng.gens()
    kx = resolve_cyclic(rng, [y1, y2], 5)
    k0 = resolve_cyclic(rng, [x1, y1, x2, y2], 5)
    proj = skyscraper_projection(kx, k0)
    sections_into_ideal_sheaf(kx, proj, [x1])
    diffs = [d for cx in (kx, k0) for d in cx.diffs.values()]
    assert all(d._solver is not None for d in diffs)
    for d in diffs:
        shared, fresh = solver_of(d), ImageSolver(d, rng)
        assert shared is d._solver
        assert mat_eq(shared.kernel(), fresh.kernel())
        cols = [tuple(row[j] for row in d) for j in range(len(d[0]))]
        probes = cols + [tuple(x1 * e for e in col) for col in cols]
        probes.append(tuple(rng.one() for _ in d))
        for vec in probes:
            col = dict(enumerate(vec))
            assert shared.solve(col) == fresh.solve(col)


def _catalog_tate_data(name, fld):
    """(ring, gens, lifts) of one of the catalog's five Tate models."""
    from diagres.catalog.entries import conic_ring
    if name == "affine-origin":
        rng = ring(["x1", "x2"], field=fld)
        return rng, list(rng.gens()), []
    if name == "adjacent-plane":
        rng = ring(["x", "y", "u", "v"], field=fld, relations=["x*y", "u*v"])
        x, y, u, v = rng.gens()
        return rng, [x, v], [[y, rng.zero()], [rng.zero(), u]]
    rng = conic_ring(fld)
    x1, y1, x2, y2 = rng.gens()
    z = rng.zero()
    return rng, *{
        "kx": ([y1, y2], [[x1, z], [z, x2]]),
        "ky": ([x1, x2], [[y1, z], [z, y2]]),
        "k0": ([x1, y1, x2, y2], [[z, x1, z, z], [z, z, z, x2]]),
    }[name]


TATE_MODELS = ["affine-origin", "kx", "ky", "k0", "adjacent-plane"]


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
@pytest.mark.parametrize("name", TATE_MODELS)
def test_tate_model_resolves_like_the_syzygy_oracle(name, spec):
    """d*d = 0 mod J, d_1 is the row of generators, and the comparison map
    to the iterated-syzygy resolution has a cone exact below the top."""
    from diagres.matrices import mat_to_strings
    from diagres.scalars import field_from_spec
    top = 5
    rng, gens, lifts = _catalog_tate_data(name, field_from_spec(spec))
    model = tate(rng, gens, lifts, top)
    assert check_differential(model)
    assert mat_to_strings(model.diff(1)) == [[str(g) for g in gens]]
    oracle = resolve_cyclic(rng, gens, top)
    comparison = cone(lift_module_map(model, oracle, [[rng.one()]]))
    for i in range(top):
        assert homology_is_zero_at(comparison, i), i


@pytest.mark.parametrize("name", ["kx", "ky", "k0", "adjacent-plane"])
def test_catalog_builds_these_tate_models(name):
    """The pairs above are the ones the catalog states."""
    from diagres.catalog.entries import (TARGET_LEN, _chart_complex_cached,
                                         _conic_pieces)
    rng, gens, lifts = _catalog_tate_data(name, QQ)
    if name == "adjacent-plane":
        built = _chart_complex_cached(QQ, "adjacent")[4]["plane"]
    else:
        built = getattr(_conic_pieces(QQ), name)
    assert built == tate(rng, gens, lifts, TARGET_LEN)


def test_tate_rejects_a_lift_that_misses_its_relation():
    rng, gens, lifts = _catalog_tate_data("kx", QQ)
    x1, y1, x2, y2 = rng.gens()
    with pytest.raises(InputDataError):
        tate(rng, gens, [[x1, rng.zero()], [rng.zero(), y2]], 5)  # y2*y2 != x2*y2
    with pytest.raises(InputDataError):
        tate(rng, gens, lifts[:1], 5)  # one relation without its variable


def test_tate_with_one_flipped_lift_coefficient_fails_d_squared():
    """Negating one sigma entry of d_2 leaves d_1 d_2 = -f = 0 mod J, but
    d_2 d_3 then misses g_l * 2 sigma, so the check sees it."""
    from diagres.complexes import ChainComplex
    from diagres.matrices import Matrix
    rng, gens, lifts = _catalog_tate_data("kx", QQ)
    model = tate(rng, gens, lifts, 5)
    d2 = model.diff(2)
    col = 1  # the basis of degree 2 is e_0 e_1, then T_0, T_1
    row = next(r for r, entries in enumerate(d2.rows) if col in entries)
    rows = [dict(entries) for entries in d2.rows]
    rows[row][col] = -rows[row][col]
    diffs = dict(model.diffs)
    diffs[2] = Matrix(rng, d2.nrows, d2.ncols, rows)
    assert not check_differential(ChainComplex(rng, dict(model.ranks), diffs, check=False))
