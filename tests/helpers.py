"""Helpers that only tests need: polynomials read as exponent tuples, ring
maps, the d*d check and the raw-path homology reference, and the verdict of
documented mutation controls."""

from diagres.catalog.mutations import apply_mutation
from diagres.complexes import InputDataError, _zero_at, minimize, verify_diagonal_qiso
from diagres.polyring import RingMismatchError


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


class RingMap:
    """Ring homomorphism determined by variable images: images[i] is the
    image of source variable i in the target ring.  The map is applied
    literally; whether it carries the source relations into the target
    relation ideal is for the caller to check."""

    def __init__(self, source, target, images):
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        if any(im.ring != target for im in images):
            raise RingMismatchError("image not in target ring")
        if source.field != target.field:
            raise ValueError("ring map must preserve the field")
        self.source = source
        self.target = target
        self.images = tuple(images)

    def apply(self, p):
        """The image of p, built from products, so each is degree-checked."""
        if p.ring != self.source:
            raise RingMismatchError("polynomial not in the map's source ring")
        out, decode = self.target.zero(), self.source.packing.decode
        for k, c in p.terms.items():
            term = self.target.const(c)
            for im, e in zip(self.images, decode(k)[1]):
                for _ in range(e):
                    term = term * im
            out = out + term
        return out


def check_differential(cx) -> bool:
    """True iff every composite d.d reduces to zero modulo the relations."""
    return cx._d2_failure is None


def homology_is_zero_at(cx, i: int, pre_minimize: bool = True) -> bool:
    """True iff ker(d_i) is contained in im(d_{i+1}) + J*C_i, on the
    minimized complex or, with pre_minimize=False, on cx itself (the raw
    path that minimize's results are checked against); InputDataError if cx
    is not a complex."""
    cx._require_square_zero()
    if pre_minimize:
        cx, _ = minimize(cx)
    return _zero_at(cx, i)


def mutation_flips(cx, dspec, mutation) -> bool:
    """True iff the mutated data no longer verifies (fail or input error)."""
    mcx, mspec = apply_mutation(cx, dspec, mutation)
    try:
        return not verify_diagonal_qiso(mcx, mspec).passed
    except InputDataError:
        return True
