"""Documented single-entry mutation controls.

Each catalog entry carries five frozen mutations, each changing exactly one
sign or coefficient somewhere in the entry's data (a differential entry, an
augmentation entry, or a diagonal-ideal generator).  Every documented
mutation flips the verdict away from pass; the test suite asserts this.

In these complexes a single differential entry can never be negated without
breaking d*d = 0 modulo the relations (the only sign-insensitive entries
are multiples of the relations themselves, which are invisible over the
quotient), so differential mutations surface as failed preconditions; the
augmentation and ideal mutations reach the homology stage and fail there.

No CLI path loads this module: the tests import it, and the benchmark's
job inputs reach it through the package (see catalog.__getattr__).
"""

from __future__ import annotations

from typing import NamedTuple

from ..complexes import ChainComplex, DiagonalSpec, InputDataError
from ..matrices import Matrix


class Mutation(NamedTuple):
    name: str
    kind: str          # 'differential' | 'augmentation' | 'ideal'
    location: tuple    # differential: (degree, row, col); otherwise: (index,)
    value: str         # replacement entry, in the polynomial grammar
    description: str = ""


DOCUMENTED = {
    "affine-line": [
        Mutation("d1-sign", "differential", (1, 1, 0), "-x1+x2",
                 "negate the section-difference column head"),
        Mutation("d2-coeff", "differential", (2, 1, 0), "2*x2",
                 "double a syzygy coefficient"),
        Mutation("aug-to-x1", "augmentation", (1,), "x1",
                 "augmentation no longer hits the unit"),
        Mutation("aug-extra-slot", "augmentation", (0,), "1",
                 "augmentation leaks through the skyscraper slot"),
        Mutation("ideal-sign", "ideal", (0,), "x1+x2",
                 "wrong diagonal ideal"),
    ],
    "nodal-conic": [
        Mutation("d0-sign", "differential", (0, 0, 1), "1",
                 "negate the x-side projection unit"),
        Mutation("d1-coeff", "differential", (1, 1, 0), "2*x1-x2",
                 "double one section coefficient"),
        Mutation("aug-sign", "augmentation", (6,), "-1",
                 "flip the y-side unit of the augmentation"),
        Mutation("aug-corr-sign", "augmentation", (2,), "x1",
                 "flip a correction term of the augmentation"),
        Mutation("ideal-sign", "ideal", (1,), "y1+y2",
                 "wrong diagonal ideal"),
    ],
    "nodal-conic-product": [
        Mutation("d1-sign", "differential", (1, 0, 0), "-x1+x2",
                 "negate the x-side separation entry"),
        Mutation("d1-coeff", "differential", (1, 1, 1), "2*y1-y2",
                 "double the y-side separation entry"),
        Mutation("aug-sign", "augmentation", (1,), "1",
                 "flip the unit of the augmentation"),
        Mutation("aug-corr", "augmentation", (2,), "-x1",
                 "flip a correction term"),
        Mutation("ideal-sign", "ideal", (0,), "x1+x2",
                 "wrong diagonal ideal"),
    ],
    "cycle-diagonal-chart": [
        Mutation("d0-sign", "differential", (0, 0, 1), "1",
                 "negate a projection unit"),
        Mutation("d1-coeff", "differential", (1, 0, 0), "2*x1",
                 "double a section entry"),
        Mutation("aug-sign", "augmentation", (8,), "-1",
                 "flip the unit of the augmentation"),
        Mutation("aug-corr", "augmentation", (6,), "-x1",
                 "flip a correction term"),
        Mutation("ideal-sign", "ideal", (0,), "x1+x2",
                 "wrong diagonal ideal"),
    ],
    "cycle-adjacent-chart": [
        Mutation("d1-sign", "differential", (1, 0, 1), "u",
                 "negate the u-section entry"),
        Mutation("d1-coeff", "differential", (1, 1, 0), "-2*y",
                 "double the y-section entry"),
        Mutation("aug-sign", "augmentation", (1,), "-1",
                 "flip the unit of the augmentation"),
        Mutation("aug-coeff", "augmentation", (0,), "2*y",
                 "double the y-part of the augmentation"),
        Mutation("ideal-sign", "ideal", (2,), "y*u+1",
                 "wrong torus diagonal"),
    ],
}


def documented_mutations(name: str):
    return list(DOCUMENTED.get(name, []))


def apply_mutation(cx: ChainComplex, dspec: DiagonalSpec, mutation: Mutation):
    """Fresh (complex, diagonal) with one entry replaced."""
    rng = cx.ring
    value = rng.parse(mutation.value)
    if mutation.kind == "differential":
        deg, row, col = mutation.location
        if deg not in cx.diffs:
            raise InputDataError(f"no differential at degree {deg}")
        m = cx.diffs[deg]
        rows = list(m.rows)  # unchanged rows are shared, as matrices are immutable
        rows[row] = {c: e for c, e in rows[row].items() if c != col}
        if value.terms:
            rows[row][col] = value
        diffs = {**cx.diffs, deg: Matrix(rng, m.nrows, m.ncols, rows)}
        return (ChainComplex(rng, dict(cx.ranks), diffs, check=False), dspec)
    if mutation.kind == "augmentation":
        (idx,) = mutation.location
        aug = list(dspec.augmentation)
        aug[idx] = value
        return (cx, DiagonalSpec(list(dspec.ideal), dspec.degree, aug, dspec.window))
    if mutation.kind == "ideal":
        (idx,) = mutation.location
        ideal = list(dspec.ideal)
        ideal[idx] = value
        return (cx, DiagonalSpec(ideal, dspec.degree, list(dspec.augmentation),
                                 dspec.window))
    raise InputDataError(f"unknown mutation kind {mutation.kind!r}")
