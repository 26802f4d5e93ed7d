"""Exact computational tools for genus-one band knots.

Everything is integer or rational arithmetic end to end: Laurent
polynomial invariants (Kauffman bracket, Jones, Alexander), Seifert
matrices with the moves generating S-equivalence, a decision procedure
with unimodular certificates for twisted genus-one forms, and the
lambda(n, m, p) family of two-band knots with both a closed-form
Seifert matrix and compiled planar diagrams.

The package root re-exports each module's ``__all__``.
"""

from .errors import KnotError
from .laurent import *
from .seifert import *
from .sequiv import *
from .diagram import *
from .morse import *
from .family import *

__version__ = "0.1.0"

__all__ = [
    "KnotError",
    *laurent.__all__,
    *seifert.__all__,
    *sequiv.__all__,
    *diagram.__all__,
    *morse.__all__,
    *family.__all__,
    "__version__",
]
