"""Helpers that only tests need: polynomials read as exponent tuples, and the
verdict of documented mutation controls."""

from diagres.catalog import apply_mutation
from diagres.complexes import InputDataError, verify_diagonal_qiso


def exponent_terms(p) -> dict:
    """p's terms as {exponent tuple: coefficient}."""
    decode = p.ring.packing.decode
    return {decode(k)[1]: c for k, c in p.terms.items()}


def leading(p):
    """(exponents, coefficient) of p's leading term; None for zero."""
    if not p.terms:
        return None
    k = max(p.terms)
    return p.ring.packing.decode(k)[1], p.terms[k]


def mutation_flips(cx, dspec, mutation) -> bool:
    """True iff the mutated data no longer verifies (fail or input error)."""
    mcx, mspec = apply_mutation(cx, dspec, mutation)
    try:
        return not verify_diagonal_qiso(mcx, mspec).passed
    except InputDataError:
        return True
