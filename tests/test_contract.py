"""The public-call contract: every public callable and method, called with
one argument replaced by an odd value, returns a result or raises
KnotError, TypeError or AttributeError.

A value of the wrong Python type (None where a SeifertMatrix is
expected, an operand that is not a polynomial) may raise TypeError or
AttributeError; every other invalid input is a KnotError.  The huge
values (10**5000, a tuple holding it) only pass when they are refused
before any work that grows with them, so the test needs no timer.  A
polynomial a call returns must have a repr, even one whose exponents
are past the interpreter's int-to-text digit limit.
"""

import math

import knotlab
from knotlab import KnotError, LaurentPoly
from knotlab.diagram import parse_pd
from knotlab.family import LambdaSpec, paper_report
from knotlab.morse import MorseBuilder
from knotlab.seifert import CongruenceCertificate, SeifertMatrix

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
# two labels of a braid closure's code swapped: one oriented curve, but
# not planar
NONPLANAR = ((1, 2, 4, 3), (4, 6, 5, 3), (5, 10, 8, 7), (8, 6, 9, 7), (10, 12, 11, 9),
             (11, 12, 14, 13), (14, 16, 15, 13), (15, 16, 18, 17), (17, 18, 2, 1))
HUGE = 10**5000
ODD = {
    "None": None,
    "True": True,
    "1.5": 1.5,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bytes": TREFOIL.encode(),
    "text": "text",
    "10**5000": HUGE,
    "-10**5000": -HUGE,
    "10**30": 10**30,
    "tuple of 10**5000": (HUGE,),
    "rows of 10**5000": ((HUGE, 1), (0, HUGE)),
    "ragged rows": [[1, 2], [3]],
    "empty rows": [[], []],
    "no rows": [],
    "non-planar PD code": NONPLANAR,
}

M = SeifertMatrix(((0, 1), (2, 0)))
CERT = CongruenceCertificate(((1, -1), (0, 1)))
POLY = LaurentPoly({-1: 1, 0: -2, 2: 3})
SPEC = LambdaSpec(0, 0, 3)
D = parse_pd(TREFOIL)


def _builder(stage: str) -> MorseBuilder:
    """A builder ready for a cap ("open"), a crossing or cup ("two
    strands"), or finishing ("closed": curves a and b, closing a 2-crossing
    braid on two strands, a Hopf link)."""
    b = MorseBuilder()
    if stage == "open":
        return b
    b.cap(0, label="a")
    if stage == "two strands":
        return b
    b.cap(2, label="b")
    for _ in range(2):
        b.crossing(1)
    b.cup(0)
    b.cup(0)
    return b


# name -> (callable factory, valid arguments); a factory makes the bound
# method afresh for each call, since MorseBuilder's tiles change it
CALLS = {
    "KnotError": (lambda: KnotError, ("message",)),
    "LaurentPoly": (lambda: LaurentPoly, ({0: 1, 1: -1},)),
    "parse_poly": (lambda: knotlab.parse_poly, ("t^-1 - 2 + 3t^2", "t")),
    "SeifertMatrix": (lambda: SeifertMatrix, (((0, 1), (2, 0)),)),
    "CongruenceCertificate": (lambda: CongruenceCertificate, (((1, -1), (0, 1)),)),
    "int_det": (lambda: knotlab.int_det, (((1, 2), (3, 4)),)),
    "alexander": (lambda: knotlab.alexander, (M,)),
    "signature": (lambda: knotlab.signature, (M,)),
    "knot_determinant": (lambda: knotlab.knot_determinant, (M,)),
    "parse_matrix": (lambda: knotlab.parse_matrix, ("[[0,1],[2,0]]",)),
    "enlarge_first": (lambda: knotlab.enlarge_first, (M, (1, 2))),
    "enlarge_second": (lambda: knotlab.enlarge_second, (M, (1, 2))),
    "connected_sum": (lambda: knotlab.connected_sum, (M, M)),
    "twist_form": (lambda: knotlab.twist_form, (M, 3, "first")),
    "decide_first_sequiv": (lambda: knotlab.decide_first_sequiv, (M, 3, "second")),
    "verify_certificate": (lambda: knotlab.verify_certificate, (M, CERT.apply(M), CERT)),
    "brute_force_congruence": (lambda: knotlab.brute_force_congruence, (M, M, 1)),
    "connected_sum_certificate": (lambda: knotlab.connected_sum_certificate, (CERT, 2)),
    "PlanarDiagram": (lambda: knotlab.PlanarDiagram, (D.crossings,)),
    "parse_pd": (lambda: knotlab.parse_pd, (TREFOIL,)),
    "kauffman_bracket": (lambda: knotlab.kauffman_bracket, (D,)),
    "jones": (lambda: knotlab.jones, (D,)),
    "jones_twist": (lambda: knotlab.jones_twist, (POLY, 3)),
    "mirror": (lambda: knotlab.mirror, (D,)),
    "add_kink": (lambda: knotlab.add_kink, (D, 1, -1)),
    "connect_sum": (lambda: knotlab.connect_sum, (D, 1, D, 2)),
    "validate": (lambda: knotlab.validate, (D.crossings,)),
    "MorseBuilder": (lambda: MorseBuilder, ()),
    "LambdaSpec": (lambda: LambdaSpec, (2, 0, 3)),
    "lambda_seifert": (lambda: knotlab.lambda_seifert, (SPEC,)),
    "lambda_diagram": (lambda: knotlab.lambda_diagram, (SPEC,)),
    "lambda_twist": (lambda: knotlab.lambda_twist, (SPEC, 3, "second")),
    "seifert_by_linking": (lambda: knotlab.seifert_by_linking, (SPEC,)),
    "paper_report": (lambda: paper_report, ()),
    "render_report": (lambda: knotlab.render_report, (paper_report()[:3],)),
    "LaurentPoly.term": (lambda: LaurentPoly.term, (3, -2)),
    "LaurentPoly.format": (lambda: POLY.format, ("q",)),
    "LaurentPoly.__add__": (lambda: POLY.__add__, (POLY,)),
    "LaurentPoly.__sub__": (lambda: POLY.__sub__, (POLY,)),
    "LaurentPoly.__mul__": (lambda: POLY.__mul__, (POLY,)),
    "LaurentPoly.__eq__": (lambda: POLY.__eq__, (POLY,)),
    "CongruenceCertificate.apply": (lambda: CERT.apply, (M,)),
    "CongruenceCertificate.identity": (lambda: CongruenceCertificate.identity, (2,)),
    "CongruenceCertificate.direct_sum": (lambda: CERT.direct_sum, (CERT,)),
    "MorseBuilder.cap": (lambda: _builder("open").cap, (0, "lr", "a")),
    "MorseBuilder.cup": (lambda: _builder("two strands").cup, (0,)),
    "MorseBuilder.crossing": (lambda: _builder("two strands").crossing, (0, "R")),
    "MorseBuilder.finish": (lambda: _builder("closed").finish, ()),
    "MorseBuilder.to_pd": (lambda: _builder("closed").to_pd, ()),
    "MorseBuilder.linking_number": (lambda: _builder("closed").linking_number, ("a", "b")),
}


def test_calls_cover_every_root_export():
    callables = {name for name in knotlab.__all__ if callable(getattr(knotlab, name))}
    assert callables == {name for name in CALLS if "." not in name}
    assert len(callables) == len(knotlab.__all__) - 1  # all but __version__


def test_every_public_call_ends_in_a_result_or_a_documented_error():
    failures = []
    calls = polys = 0
    for name, (make, args) in CALLS.items():
        make()(*args)  # the valid call succeeds
        for position in range(len(args)):
            for label, value in ODD.items():
                odd = args[:position] + (value,) + args[position + 1:]
                calls += 1
                where = f"{name} arg {position} = {label}"
                try:
                    result = make()(*odd)
                except (KnotError, TypeError, AttributeError):
                    continue
                except Exception as e:  # anything else breaks the contract
                    failures.append(f"{where}: {type(e).__name__}: {str(e)[:100]}")
                    continue
                # a polynomial returned, even one past the int-to-text
                # digit limit, has a repr
                if isinstance(result, LaurentPoly):
                    polys += 1
                    try:
                        repr(result)
                    except Exception as e:
                        failures.append(f"{where}: repr raised {type(e).__name__}")
    assert calls == len(ODD) * sum(len(args) for _, args in CALLS.values())
    assert polys > 0
    assert not failures, "\n".join(failures)
