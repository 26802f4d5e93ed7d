"""Exact computational tools for genus-one band knots.

Everything is integer or rational arithmetic end to end: Laurent
polynomial invariants (Kauffman bracket, Jones, Alexander), Seifert
matrices with the moves generating S-equivalence, a decision procedure
with unimodular certificates for twisted genus-one forms, and the
lambda(n, m, p) family of two-band knots with both a closed-form
Seifert matrix and compiled planar diagrams.
"""

from .errors import KnotError
from .laurent import LaurentPoly, parse_poly
from .seifert import (
    CongruenceCertificate,
    SeifertMatrix,
    alexander,
    connected_sum,
    enlarge_first,
    enlarge_second,
    int_det,
    knot_determinant,
    parse_matrix,
    signature,
    try_reduce,
)
from .sequiv import (
    brute_force_congruence,
    connected_sum_certificate,
    decide_first_sequiv,
    first_sequiv_condition,
    twist_form,
    verify_certificate,
)
from .diagram import (
    PlanarDiagram,
    add_kink,
    connect_sum,
    jones,
    jones_q,
    jones_twist,
    kauffman_bracket,
    mirror,
    parse_pd,
    validate,
)
from .morse import MorseBuilder
from .family import (
    LambdaSpec,
    lambda_diagram,
    lambda_seifert,
    lambda_twist,
    paper_report,
    render_report,
    seifert_by_linking,
)

__version__ = "0.1.0"

__all__ = [
    "KnotError",
    "LaurentPoly",
    "parse_poly",
    "CongruenceCertificate",
    "SeifertMatrix",
    "alexander",
    "connected_sum",
    "enlarge_first",
    "enlarge_second",
    "int_det",
    "knot_determinant",
    "parse_matrix",
    "signature",
    "try_reduce",
    "brute_force_congruence",
    "connected_sum_certificate",
    "decide_first_sequiv",
    "first_sequiv_condition",
    "twist_form",
    "verify_certificate",
    "PlanarDiagram",
    "add_kink",
    "connect_sum",
    "jones",
    "jones_q",
    "jones_twist",
    "kauffman_bracket",
    "mirror",
    "parse_pd",
    "validate",
    "MorseBuilder",
    "LambdaSpec",
    "lambda_diagram",
    "lambda_seifert",
    "lambda_twist",
    "paper_report",
    "render_report",
    "seifert_by_linking",
    "__version__",
]
