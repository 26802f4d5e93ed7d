"""Exact computational tools for genus-one band knots.

Everything is integer or rational arithmetic end to end: Laurent
polynomial invariants (Kauffman bracket, Jones, Alexander), Seifert
matrices with the moves generating S-equivalence, a decision procedure
with unimodular certificates for twisted genus-one forms, and the
lambda(n, m, p) family of two-band knots with both a closed-form
Seifert matrix and compiled planar diagrams.

``_EXPORTS`` below is the package's one list of public names, each
under the module that defines it; no module but ``cli`` has an
``__all__``.  ``import knotlab`` loads none of those modules: reading
a name imports the one module that defines it (PEP 562), so a Jones
polynomial never loads the Seifert-form, S-equivalence or
lambda-family code.  The root does not keep what it looked up;
``knotlab.jones`` is ``knotlab.diagram.jones`` at every read, even
after that attribute is replaced.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; __all__ is these and __version__
_EXPORTS = {
    "errors": ("KnotError",),
    "laurent": ("LaurentPoly", "parse_poly"),
    "seifert": ("SeifertMatrix", "CongruenceCertificate", "int_det", "alexander",
                "signature", "knot_determinant", "parse_matrix", "enlarge_first",
                "enlarge_second", "connected_sum"),
    "sequiv": ("twist_form", "decide_first_sequiv", "verify_certificate",
               "brute_force_congruence", "connected_sum_certificate"),
    "diagram": ("PlanarDiagram", "parse_pd", "kauffman_bracket", "jones", "jones_twist",
                "mirror", "add_kink", "connect_sum", "validate"),
    "morse": ("MorseBuilder",),
    "family": ("LambdaSpec", "lambda_seifert", "lambda_diagram", "lambda_twist",
               "seifert_by_linking", "paper_report", "render_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from knotlab import cli`
    # falls through to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
