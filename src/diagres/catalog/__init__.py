"""Executable catalog: the affine line, the nodal conic, and the cycle of
projective lines, each as a chain complex plus diagonal data plus a
generation witness.

Entries are constructed, not transcribed: free models are Tate models,
written in closed form (Tate, "Homology of Noetherian rings and local
rings", Illinois J. Math. 1, 1957, Thm. 4), ideal-sheaf objects come
from shifted cones, and the total complexes from the fixed cone
conventions, so identical inputs reproduce identical matrices byte for
byte.  Augmentation rows are frozen catalog data, validated by the test
suite.

EXAMPLES is the CLI's one table of examples.  Its builders look up the
build and verify functions here at call time, so replacing one here
(a monkeypatch, the benchmark's tracer) reaches the CLI.
"""

from dataclasses import dataclass, field
from typing import Callable

from ..witness import GenerationWitness
from .entries import (CycleCatalog, build_affine_line, build_cycle, build_nodal_conic,
                      build_nodal_conic_product, restrict_complex, verify_chart_jobs,
                      verify_entry)
from .mutations import apply_mutation, documented_mutations, mutation_flips


@dataclass
class Example:
    """One CLI example: the title and notes of its report, its witness, and
    its entries, built on demand (``witness --example`` verifies none).
    verify makes their subreports: one by one, or for the cycle's charts
    with one verdict per distinct chart complex."""

    title: str
    witness: GenerationWitness
    entries: Callable[[], list]
    verify: Callable[[list], list] = lambda entries: [verify_entry(e) for e in entries]
    notes: list = field(default_factory=list)


def _affine_line(fld, n):
    entry = build_affine_line(fld)
    return Example("affine-line", entry.witness, lambda: [entry])


def _nodal_conic(fld, n):
    entry = build_nodal_conic(fld)
    return Example("nodal-conic", entry.witness,
                   lambda: [entry, build_nodal_conic_product(fld)])


def _cycle(fld, n):
    cat = build_cycle(n, fld)
    return Example(f"cycle(n={n})", cat.witness, lambda: cat.chart_jobs,
                   verify_chart_jobs, cat.notes)


# name -> (builder of the example from (field, n), the default of n, or None
# for an example that takes no n and has no charts)
EXAMPLES = {
    "affine-line": (_affine_line, None),
    "nodal-conic": (_nodal_conic, None),
    "cycle": (_cycle, 3),
}

__all__ = [
    "CycleCatalog", "EXAMPLES", "Example",
    "build_affine_line", "build_nodal_conic", "build_nodal_conic_product",
    "build_cycle", "restrict_complex", "verify_entry", "verify_chart_jobs",
    "documented_mutations", "apply_mutation", "mutation_flips",
]
