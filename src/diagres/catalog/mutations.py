"""Documented single-entry mutation controls, and witness mutation controls.

Each catalog entry carries five frozen mutations, each changing exactly one
sign or coefficient somewhere in the entry's data (a differential entry, an
augmentation entry, or a diagonal-ideal generator).  Every documented
mutation flips the verdict away from pass; the test suite asserts this.

In these complexes a single differential entry can never be negated without
breaking d*d = 0 modulo the relations (the only sign-insensitive entries
are multiples of the relations themselves, which are invisible over the
quotient), so differential mutations surface as failed preconditions; the
augmentation and ideal mutations reach the homology stage and fail there.

Each witness mutation control is a generation witness that a verifier
trusting labels, unlinked steps or a search up to basis changes would
accept; every one must fail with the named problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..complexes import ChainComplex, DiagonalSpec, InputDataError, verify_diagonal_qiso
from ..scalars import Field
from ..witness import ConeCertificate, GeneratorDecl
from .entries import (_chart_witnesses, _cycle_witness, build_affine_line,
                      build_nodal_conic, build_nodal_conic_product)


@dataclass(frozen=True)
class Mutation:
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
        diffs = {i: [list(r) for r in m] for i, m in cx.diffs.items()}
        diffs[deg][row][col] = value
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


def mutation_flips(cx: ChainComplex, dspec: DiagonalSpec, mutation: Mutation) -> bool:
    """True iff the mutated data no longer verifies (fail or input error)."""
    mcx, mspec = apply_mutation(cx, dspec, mutation)
    try:
        return not verify_diagonal_qiso(mcx, mspec).passed
    except InputDataError:
        return True


# ---------------------------------------------------------------------------
# witness mutation controls


def _conic_step_0_only(field: Field):
    """The nodal conic cut to step 0 with claimed time 0 (Rdim <= 0 is
    false: a reduced curve has Rdim >= 1)."""
    w = build_nodal_conic(field).witness
    return replace(w, steps=w.steps[:1], claimed_time=0), None


def _cycle_misplaced_certificate(field: Field):
    """The 4-cycle with G_1 certified by O_square_3 -> O_node_1, a node the
    third square does not meet."""
    w = _cycle_witness(4)
    w.generators = [
        GeneratorDecl("G_1", "weakly_product", ConeCertificate("O_square_3", "O_node_1"))
        if g.label == "G_1" else g for g in w.generators]
    w.charts = _chart_witnesses(w, 4, field)
    return w, True


def _conic_product_final(field: Field):
    """The conic's last target and spec swapped for the product resolution's,
    which pass the diagonal check on their own."""
    w = build_nodal_conic(field).witness
    product = build_nodal_conic_product(field)
    last = replace(w.steps[-1], target=product.complex)
    return replace(w, steps=w.steps[:-1] + [last], final_diagonal=product.diagonal), None


def _affine_reversed_summands(field: Field):
    """The affine line's step-1 summands declared in reverse block order."""
    w = build_affine_line(field).witness
    last = replace(w.steps[-1], summands=list(reversed(w.steps[-1].summands)))
    return replace(w, steps=w.steps[:-1] + [last]), None


# name -> (text one of the witness problems must contain,
#          field -> (witness, chart_suite_passed))
WITNESS_MUTATIONS = {
    "conic-step-0-only": ("final complex fails diagonal check", _conic_step_0_only),
    "cycle-misplaced-certificate": ("does not match the declared sum",
                                    _cycle_misplaced_certificate),
    "conic-product-final": ("target is not the cone of the attaching map",
                            _conic_product_final),
    "affine-reversed-summands": ("does not match the declared sum",
                                 _affine_reversed_summands),
}
