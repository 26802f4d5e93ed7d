"""The lambda(n, m, p) family of genus-one band knots.

lambda(n, m, p) is the boundary of a disk with two bands: band 1 gets
n/2 full twists, band 2 gets m/2 full twists, and the bands wind
through each other in a vertical cable of p double crossings (band over
band, so each double crossing is four strand crossings).  n and m are
even; p is odd with |p| >= 3; negative p means the mirror-image cable.

Two things are computed for a parameter triple:

  * ``lambda_seifert`` -- the Seifert matrix of the obvious spanning
    surface in the basis of the two band cores,

        (( -n/2,      (p+1)/2 ),
         ( (p-1)/2,   -m/2    )),

  * ``lambda_diagram`` -- an explicit planar diagram, assembled with
    :class:`knotlab.morse.MorseBuilder` (4|p| + |n| + |m| crossings).

``seifert_by_linking`` recomputes the matrix entries from scratch as
linking numbers of the band cores and their push-offs on compiled
two-curve pictures; it shares no arithmetic with the closed form above
and exists to keep the two honest against each other.

The one sign convention that is not forced by the definitions (which
chirality of strand crossing realizes a "positive" twist or cable) is
fixed below so that positive band twists lower the matrix diagonal, and
is pinned extensionally by the golden Jones values in the test suite.

``paper_report`` recomputes every published value for this family that
the package embeds (matrices, congruence certificates, Jones
polynomials, and the connected-sum pair) and compares.
"""

from __future__ import annotations

from .diagram import PlanarDiagram, connect_sum as splice, jones, jones_twist, validate
from .errors import KnotError, Value, check_int, value_text
from .laurent import LaurentPoly, parse_poly
from .morse import MorseBuilder
from .seifert import CongruenceCertificate, SeifertMatrix, connected_sum
from .sequiv import (_check_band, connected_sum_certificate, decide_first_sequiv,
                     verify_certificate)

# the most crossings a LambdaSpec may describe, 4|p| + |n| + |m|, checked
# before anything is built.  Its PD code then has labels of at most five
# digits, about 26.4 bytes per crossing: 1,031,003 bytes for the 39,008
# crossings of lambda(2, 2, -9751), so every code `lambda --emit pd`
# prints fits the CLI's 1 MiB @file limit and can be read back.
MAX_CROSSINGS = 39_000


class LambdaSpec(Value):
    """Validated parameter triple: n, m even; p odd, |p| >= 3."""

    __slots__ = ("n", "m", "p")

    def __init__(self, n: int, m: int, p: int):
        for name, value in (("n", n), ("m", m), ("p", p)):
            check_int(value, f"lambda: {name}")
        if n % 2 or m % 2:
            raise KnotError("lambda: n and m must be even")
        if p % 2 == 0 or abs(p) < 3:
            raise KnotError("lambda: p must be odd with |p| >= 3")
        crossings = 4 * abs(p) + abs(n) + abs(m)
        if crossings > MAX_CROSSINGS:
            sn, sm, sp, sc = map(value_text, (n, m, p, crossings))
            raise KnotError(
                f"lambda: lambda({sn},{sm},{sp}) has {sc} crossings, "
                f"over the limit of {MAX_CROSSINGS}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)

    def __str__(self) -> str:
        return f"lambda({self.n},{self.m},{self.p})"


def lambda_seifert(spec: LambdaSpec) -> SeifertMatrix:
    """Seifert matrix of the two-band spanning surface."""
    n, m, p = spec.n, spec.m, spec.p
    return SeifertMatrix(
        ((-n // 2, (p + 1) // 2), ((p - 1) // 2, -m // 2))
    )


def lambda_twist(spec: LambdaSpec, ell: int, band: str = "first") -> LambdaSpec:
    """The spec after ell extra full twists in one band."""
    check_int(ell, "lambda: ell")
    if _check_band(band) == "first":
        return LambdaSpec(spec.n + 2 * ell, spec.m, spec.p)
    return LambdaSpec(spec.n, spec.m + 2 * ell, spec.p)


def _over(k: int) -> str:
    """Crossing chirality realizing a twist or cable parameter of sign k.

    Flipping it mirrors part of the picture; this convention makes the
    compiled diagrams match the golden Jones values and the linking
    oracle match lambda_seifert."""
    return "R" if k > 0 else "L"


def _cable(b: MorseBuilder, i: int, over: str) -> None:
    """One double crossing of the strand pairs (i, i+1) and (i+2, i+3)."""
    b.crossing(i + 1, over)
    b.crossing(i, over)
    b.crossing(i + 2, over)
    b.crossing(i + 1, over)


def _knot_builder(spec: LambdaSpec) -> MorseBuilder:
    """The boundary of the two-band surface as a Morse program.

    Frontier layout after the caps ([..] marks the band attachments):

        [A1: 0 1] [A2: 2 3] [A3: 4 5] [A4: 6 7]

    Band 1 runs A1 -> A3, band 2 runs A2 -> A4, so the attachments
    interleave around the disk.  Twists for band 1 sit on the A1 legs,
    twists for band 2 on the A4 legs, the cable crosses A2 over A3
    territory in the middle, and each band closes with a nested pair of
    cups at the top.
    """
    b = MorseBuilder()
    b.cap(0)
    b.cap(1)
    b.cap(3)
    b.cap(5)
    for _ in range(abs(spec.n)):
        b.crossing(0, _over(spec.n))
    for _ in range(abs(spec.m)):
        b.crossing(6, _over(spec.m))
    for _ in range(abs(spec.p)):
        _cable(b, 2, _over(spec.p))
    b.cup(1)
    b.cup(0)
    b.cup(1)
    b.cup(0)
    return b


def lambda_diagram(spec: LambdaSpec) -> PlanarDiagram:
    """Planar diagram with 4|p| + |n| + |m| crossings."""
    return validate(_knot_builder(spec).to_pd())


# -- linking-number oracle -------------------------------------------------------


def _diagonal_linking(twists: int) -> int:
    """lk of one band core with its parallel push-off: the core and the
    copy run up the band, cross once per half twist, and close."""
    b = MorseBuilder()
    b.cap(0, flow="lr", label="core")
    b.cap(1, flow="lr", label="copy")
    for _ in range(abs(twists)):
        b.crossing(0, _over(twists))
    b.cup(1)
    b.cup(0)
    return b.linking_number("core", "copy")


def _off_diagonal_linking(p: int, pushed: int) -> int:
    """lk of one band core with the push-off of the other.

    The two cores cross once inside the disk (the chords A1->A3 and
    A2->A4 intersect) and once per cable crossing.  ``pushed`` says
    which curve was pushed off the surface, i.e. which one passes over
    at the disk intersection.
    """
    b = MorseBuilder()
    b.cap(0, flow="lr", label="c1")
    b.cap(1, flow="lr", label="c2")
    # frontier: c1 c2 c2 c1 -> swap the right pair so the attachment
    # order around the disk is c1 c2 c1 c2
    b.crossing(2, "L" if pushed == 2 else "R")
    for _ in range(abs(p)):
        b.crossing(1, _over(p))
    b.cup(0)
    b.cup(0)
    return b.linking_number("c1", "c2")


def seifert_by_linking(spec: LambdaSpec) -> SeifertMatrix:
    """Recompute the Seifert matrix as core/push-off linking numbers."""
    a11 = _diagonal_linking(spec.n)
    a22 = _diagonal_linking(spec.m)
    a12 = _off_diagonal_linking(spec.p, pushed=2)
    a21 = _off_diagonal_linking(spec.p, pushed=1)
    return SeifertMatrix(((a11, a12), (a21, a22)))


# -- published values for this family --------------------------------------------
#
# Everything below is data the package promises to reproduce.  The one
# deliberate exception is flagged KNOWN-DISCREPANCY: the published matrix
# for lambda(0,-6,3) has a sign that contradicts both the twist formula
# and the published congruence next to it (whose product is ((0,2),(1,3))),
# so the recomputation is kept and the printed value is flagged.

BASE = LambdaSpec(0, 0, 3)

PUBLISHED_MATRICES = {
    (0, 0, 3): ((0, 2), (1, 0)),
    (6, 0, 3): ((-3, 2), (1, 0)),
    (-6, 0, 3): ((3, 2), (1, 0)),
    (0, 6, 3): ((0, 2), (1, -3)),
    (0, -6, 3): ((0, 2), (1, -3)),  # see KNOWN-DISCREPANCY note above
}

# (T, twisted spec, published product)
PUBLISHED_CONGRUENCES = [
    (((1, -1), (0, 1)), (6, 0, 3), ((-3, 2), (1, 0))),
    (((1, 1), (0, 1)), (-6, 0, 3), ((3, 2), (1, 0))),
    (((1, 0), (-1, 1)), (0, 6, 3), ((0, 2), (1, -3))),
    (((1, 0), (1, 1)), (0, -6, 3), ((0, 2), (1, -3))),
]

PUBLISHED_JONES = {
    (0, 0, 3): "2 - t^-1 + t^-2 - 2t^-3 + t^-4 - t^-5 + t^-6",
    (-6, 0, 3): "1 + t^-6 - t^-7 + t^-8 - 2t^-9 + t^-10 - t^-11 + t^-12",
    (0, -6, 3): "1 + t^-6 - t^-7 + t^-8 - 2t^-9 + t^-10 - t^-11 + t^-12",
    (6, 0, 3): "t^6 - t^5 + t^4 - 2t^3 + t^2 - t + 2",
    (0, 6, 3): "t^6 - t^5 + t^4 - 2t^3 + t^2 - t + 2",
}

# twist parameters realizing each published congruence from the base
TWISTS = {
    (6, 0, 3): (3, "first"),
    (-6, 0, 3): (-3, "first"),
    (0, 6, 3): (3, "second"),
    (0, -6, 3): (-3, "second"),
}

# worked example: ((0,1),(2,0)), s = 3, ell = 3k, certificate ((1,-k),(0,1))
EXAMPLE_MATRIX = ((0, 1), (2, 0))

# connected-sum certificate: ((1,1),(0,1)) extended by the identity
PUBLISHED_SUM_CERT = (
    (1, 1, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)

KNOWN_DISCREPANCIES = {
    "matrix lambda(0,-6,3)": (
        "published ((0,2),(1,-3)) but the twist formula and the published "
        "congruence T M T^T = ((0,2),(1,3)) force a22 = +3"
    ),
    "congruence -> lambda(0,-6,3)": (
        "published product ((0,2),(1,-3)) differs from the actual product "
        "((0,2),(1,3)) of the published certificate"
    ),
}


def _name(triple: tuple[int, int, int]) -> str:
    return "lambda(%d,%d,%d)" % triple


def paper_report() -> list[dict]:
    """Recompute every published value and compare.

    Returns one dict per line: label, published, computed, status
    (MATCH, KNOWN-DISCREPANCY, or MISMATCH) and an optional note.
    Status is KNOWN-DISCREPANCY only for the two documented lines.
    """
    lines: list[dict] = []

    def add(label, published, computed, note=""):
        if published == computed:
            status = "MATCH"
        elif label in KNOWN_DISCREPANCIES:
            status = "KNOWN-DISCREPANCY"
            note = KNOWN_DISCREPANCIES[label]
        else:
            status = "MISMATCH"
        lines.append(
            {
                "label": label,
                "published": str(published),
                "computed": str(computed),
                "status": status,
                "note": note,
            }
        )

    # Seifert matrices of the five specs
    for triple, published in PUBLISHED_MATRICES.items():
        spec = LambdaSpec(*triple)
        computed = lambda_seifert(spec).rows
        add(f"matrix {_name(triple)}", published, computed)

    # the four congruences: published certificate against recomputed product
    base_m = lambda_seifert(BASE)
    for t_rows, triple, published in PUBLISHED_CONGRUENCES:
        cert = CongruenceCertificate(t_rows)
        product = cert.apply(base_m).rows
        label = f"congruence -> {_name(triple)}"
        add(label, published, product)
        # and the certificate must verify against the product
        target = SeifertMatrix(product)
        add(
            label + " verifies",
            True,
            verify_certificate(base_m, target, cert),
        )

    # the same certificates, rederived by the decision procedure
    for triple, (ell, band) in TWISTS.items():
        report = decide_first_sequiv(base_m, ell, band)
        t_rows = next(t for t, tr, _ in PUBLISHED_CONGRUENCES if tr == triple)
        add(
            f"decision certificate {_name(triple)}",
            t_rows,
            report.certificate.rows if report.certificate else None,
        )

    # worked twist example: ell = 3k twists on ((0,1),(2,0))
    example = SeifertMatrix(EXAMPLE_MATRIX)
    for k in (1, 2, 3):
        report = decide_first_sequiv(example, 3 * k, "first")
        add(
            f"example certificate ell=3k, k={k}",
            ((1, -k), (0, 1)),
            report.certificate.rows if report.certificate else None,
        )

    # Jones polynomials, diagram pipeline
    computed_jones: dict[tuple, LaurentPoly] = {}
    for triple, text in PUBLISHED_JONES.items():
        spec = LambdaSpec(*triple)
        v = jones(lambda_diagram(spec))
        computed_jones[triple] = v
        add(f"jones {_name(triple)} (diagram)", str(parse_poly(text)), str(v))

    # Jones polynomials, twist recursion from the computed base value
    base_v = computed_jones[(0, 0, 3)]
    for triple, (ell, _band) in TWISTS.items():
        add(
            f"jones {_name(triple)} (twist recursion)",
            str(parse_poly(PUBLISHED_JONES[triple])),
            str(jones_twist(base_v, ell)),
        )

    # connected sums: K1 = base # base, K2 = lambda(-6,0,3) # base.
    # Jones of the spliced diagrams must factor as the product of the
    # summands' Jones polynomials.
    v1 = computed_jones[(0, 0, 3)]
    v2 = computed_jones[(-6, 0, 3)]
    d1 = lambda_diagram(BASE)
    d2 = lambda_diagram(LambdaSpec(-6, 0, 3))
    k1 = jones(splice(d1, d1.arcs[0], d1, d1.arcs[0]))
    k2 = jones(splice(d2, d2.arcs[0], d1, d1.arcs[0]))
    add("jones K1 (spliced) = jones(base)^2", str(v1 * v1), str(k1))
    add("jones K2 (spliced) = jones(-6,0,3)*jones(base)", str(v2 * v1), str(k2))
    add("jones K1 != jones K2", True, k1 != k2)
    m1 = connected_sum(base_m, base_m)
    m2 = connected_sum(lambda_seifert(LambdaSpec(-6, 0, 3)), base_m)
    lifted = connected_sum_certificate(
        CongruenceCertificate(((1, 1), (0, 1))), 2
    )
    add("sum certificate rows", PUBLISHED_SUM_CERT, lifted.rows)
    add("sum certificate verifies", True, verify_certificate(m1, m2, lifted))
    return lines


def render_report(lines: list[dict]) -> str:
    out = []
    width = max((len(l["label"]) for l in lines), default=0)
    for l in lines:
        row = f"{l['status']:<17} {l['label']:<{width}}  computed: {l['computed']}"
        if l["status"] != "MATCH":
            row += f"  published: {l['published']}"
            if l["note"]:
                row += f"  ({l['note']})"
        out.append(row)
    bad = sum(1 for l in lines if l["status"] == "MISMATCH")
    known = sum(1 for l in lines if l["status"] == "KNOWN-DISCREPANCY")
    out.append(
        f"-- {len(lines)} lines: {len(lines) - bad - known} match, "
        f"{known} known discrepancies, {bad} mismatches"
    )
    return "\n".join(out)
