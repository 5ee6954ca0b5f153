"""diagres: machine verification of diagonal resolutions over quotient rings.

The package checks, with exact arithmetic, that explicit chain complexes of
free modules over rings like k[x1,y1,x2,y2]/(x1y1, x2y2) are resolutions of
the diagonal module, and validates generation-time certificates that turn
such resolutions into Rouquier-dimension upper bounds.

The commonly used surface is re-exported here; the submodules hold the
rest (catalog entries live under diagres.catalog).
"""

from .complexes import (ChainComplex, ChainMap, DiagonalSpec, cone, direct_sum, shift,
                        verify_diagonal_qiso)
from .groebner import Submodule, buchberger, member, normal_form, syzygies
from .polyring import MonomialOrder, Polynomial, QuotientRing, parse_poly, ring
from .scalars import QQ, PrimeField, field_from_spec

__version__ = "0.1.0"
__all__ = [
    "__version__",
    "QQ", "PrimeField", "field_from_spec",
    "ring", "Polynomial", "QuotientRing", "MonomialOrder", "parse_poly",
    "Submodule", "buchberger", "normal_form", "member", "syzygies",
    "ChainComplex", "ChainMap", "DiagonalSpec", "cone", "shift", "direct_sum",
    "verify_diagonal_qiso",
]
