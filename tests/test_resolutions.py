"""Free resolutions, chain-map lifting, homotopies, totalization."""

import pytest

from diagres.complexes import (InputDataError, check_differential,
                               compose, cone, homology_is_zero_at, shift)
from diagres.matrices import mat_mul, zero_matrix
from diagres.polyring import ring
from diagres.resolutions import (lift_module_map, map_to_shifted_cone,
                                 nullhomotopy, resolve_cyclic, totalize_chain,
                                 truncate)

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
            got = mat_mul(tgt.diff(i + 1), h[i], rx)
        if i - 1 in h and src.rank(i - 1):
            part = mat_mul(h[i - 1], src.diff(i), rx)
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
    h = nullhomotopy(compose(proj, mult))
    phi = map_to_shifted_cone(mult, proj, h)
    assert phi.commutes()
    assert phi.tgt == shift(cone(proj), -1)


def test_totalize_chain_matches_cone():
    """With two objects the totalization reproduces the cone convention."""
    k = resolve_cyclic(R2, [R2.parse("x1"), R2.parse("x2")], 4)
    mult = lift_module_map(k, k, [[R2.parse("x1-x2")]])
    via_cone = cone(mult)
    via_total = totalize_chain({0: k, 1: k}, {1: mult.mats})
    assert via_total == via_cone


def test_totalize_chain_with_homotopy():
    """Three-object totalization satisfies d*d = 0 via the correction."""
    kx = resolve_cyclic(RXY, [RXY.parse("y")], 5)
    k0 = resolve_cyclic(RXY, [RXY.parse("x"), RXY.parse("y")], 5)
    proj = lift_module_map(truncate(kx, 5), k0, [[RXY.one()]])
    mult = lift_module_map(truncate(kx, 4), proj.src, [[RXY.parse("x")]])
    total = totalize_chain({-1: k0, 0: proj.src, 1: mult.src},
                           {0: proj.mats, 1: mult.mats})
    assert check_differential(total)


def test_nodal_conic_build_computes_each_elimination_basis_once(monkeypatch):
    """resolve, lift and nullhomotopy share one solver per differential, and
    the three conic builders share one set of conic pieces per field."""
    from diagres import groebner
    from diagres.catalog import build_cycle, build_nodal_conic, build_nodal_conic_product
    from diagres.catalog import entries

    real = groebner._elimination_gb
    seen = []

    def counted(rng, matrix, m, c):
        seen.append(tuple(tuple(row) for row in matrix))
        return real(rng, matrix, m, c)

    monkeypatch.setattr(entries, "_CACHE", {})
    monkeypatch.setattr(groebner, "_elimination_gb", counted)
    build_nodal_conic()
    assert seen
    build_nodal_conic_product()
    build_cycle(3)  # its diagonal chart is built from the conic pieces
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_memoized_solver_matches_fresh_solver(spec):
    """Every catalog differential gets its own shared solver, and that solver
    answers solve() and kernel() exactly as a freshly built one does."""
    from diagres.catalog.builders import (conic_ring, section_into_ideal_sheaf,
                                          skyscraper_projection)
    from diagres.groebner import ImageSolver
    from diagres.resolutions import _solver
    from diagres.scalars import field_from_spec

    rng = conic_ring(field_from_spec(spec))
    x1, y1, x2, y2 = rng.gens()
    kx = resolve_cyclic(rng, [y1, y2], 5)
    k0 = resolve_cyclic(rng, [x1, y1, x2, y2], 5)
    proj = skyscraper_projection(kx, k0)
    section_into_ideal_sheaf(kx, proj, x1)
    diffs = [d for cx in (kx, k0) for d in cx.diffs.values()]
    assert len(rng._solvers) == len(diffs)
    for d in diffs:
        shared, fresh = _solver(d, rng), ImageSolver(d, rng)
        assert shared.matrix is d
        assert shared.kernel().generators == fresh.kernel().generators
        cols = [tuple(row[j] for row in d) for j in range(len(d[0]))]
        probes = cols + [tuple(x1 * e for e in col) for col in cols]
        probes.append(tuple(rng.one() for _ in d))
        for vec in probes:
            assert shared.solve(vec) == fresh.solve(vec)
