"""Shared construction machinery for catalog entries.

All quotient-ring objects here are cyclic, so a free model is an iterated
syzygy resolution; ideal-sheaf-type objects are shifted cones of lifted
projections; maps into them are (lift, nullhomotopy) pairs.  Truncation
lengths: targets carry TARGET_LEN degrees of resolution, sources one less
(the nullhomotopy of a source map needs one extra target degree), which
puts all truncation junk strictly above degree WINDOW_HI and makes the
claimed window [-1, WINDOW_HI] honest.
"""

from __future__ import annotations

from typing import Sequence

from ..complexes import ChainComplex, ChainMap, cone, shift
from ..matrices import block_matrix, identity_matrix, mat_neg
from ..polyring import Polynomial, QuotientRing, ring
from ..resolutions import lift_module_map, map_to_shifted_cone, truncate
from ..scalars import QQ, Field

TARGET_LEN = 5
SOURCE_LEN = 4
WINDOW_HI = 3


def conic_ring(field: Field = QQ) -> QuotientRing:
    return ring(("x1", "y1", "x2", "y2"), field=field,
                relations=("x1*y1", "x2*y2"))


def adjacent_chart_ring(field: Field = QQ) -> QuotientRing:
    return ring(("x", "y", "u", "v"), field=field, relations=("x*y", "u*v"))


def skyscraper_projection(kstruct: ChainComplex, kpoint: ChainComplex) -> ChainMap:
    """Lift of the canonical surjection structure-sheaf -> skyscraper."""
    rng = kstruct.ring
    return lift_module_map(truncate(kstruct, SOURCE_LEN + 1), kpoint, [[rng.one()]])


def ideal_sheaf_model(proj: ChainMap) -> ChainComplex:
    """cone(structure -> skyscraper)[-1], the ideal-sheaf free model."""
    return shift(cone(proj), -1)


def section_into_ideal_sheaf(kstruct: ChainComplex, proj: ChainMap,
                             value: Polynomial) -> ChainMap:
    """Map structure-sheaf -> ideal-sheaf lifting multiplication by a section.

    The section must vanish on the skyscraper point so that the composite
    with the projection is nullhomotopic.
    """
    src = truncate(kstruct, SOURCE_LEN)
    mult = lift_module_map(src, proj.src, [[value]])
    return map_to_shifted_cone(mult, proj)


def skyscraper_connecting_map(proj: ChainMap, ideal: ChainComplex,
                              source: ChainComplex) -> ChainMap:
    """Shifted skyscraper -> ideal sheaf (the triangle's connecting map).

    The identity onto the skyscraper block of ideal = ideal_sheaf_model(proj),
    in the degrees of source (the shifted skyscraper, possibly truncated).
    """
    rng = proj.ring
    mats = {i: block_matrix(rng, [proj.src.rank(i), source.rank(i)], [source.rank(i)],
                            {(1, 0): identity_matrix(rng, source.rank(i))})
            for i in source.degrees() if source.rank(i)}
    return ChainMap(source, ideal, mats, check=False)


def inclusion_of_truncation(kfull: ChainComplex) -> ChainMap:
    """Identity components from the SOURCE_LEN truncation into the full resolution."""
    ks = truncate(kfull, SOURCE_LEN)
    mats = {i: identity_matrix(kfull.ring, ks.rank(i)) for i in ks.degrees()}
    return ChainMap(ks, kfull, mats, check=False)


def negate_map(f: ChainMap) -> ChainMap:
    return ChainMap(f.src, f.tgt, {i: mat_neg(m) for i, m in f.mats.items()},
                    check=False)


def parse_row(rng: QuotientRing, row: Sequence[str]):
    return [rng.parse(s) for s in row]
