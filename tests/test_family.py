import pytest

from knotlab.cli import MAX_ARG_BYTES
from knotlab.diagram import jones, jones_twist, mirror
from knotlab.errors import KnotError
from knotlab.family import (
    BASE,
    KNOWN_DISCREPANCIES,
    MAX_CROSSINGS,
    PUBLISHED_CONGRUENCES,
    PUBLISHED_JONES,
    PUBLISHED_MATRICES,
    TWISTS,
    LambdaSpec,
    lambda_diagram,
    lambda_seifert,
    lambda_twist,
    paper_report,
    render_report,
    seifert_by_linking,
)
from knotlab.laurent import LaurentPoly
from knotlab.seifert import CongruenceCertificate, alexander, knot_determinant
from knotlab.sequiv import twist_form

from oracles import at_minus_one, lambda_jones, parse_poly_text

SMALL_GRID = [
    LambdaSpec(n, m, p)
    for n in (-4, -2, 0, 2, 4)
    for m in (-4, 0, 2)
    for p in (-5, -3, 3, 5)
]


# ---- parameter validation ----

def test_spec_accepts_valid_triples():
    for n, m, p in [(0, 0, 3), (6, 0, 3), (0, -6, 3), (2, 4, -5), (-8, 2, 7)]:
        spec = LambdaSpec(n, m, p)
        assert str(spec) == f"lambda({n},{m},{p})"


def test_spec_rejects_bad_triples():
    with pytest.raises(KnotError):
        LambdaSpec(1, 0, 3)  # n odd
    with pytest.raises(KnotError):
        LambdaSpec(0, 3, 3)  # m odd
    with pytest.raises(KnotError):
        LambdaSpec(0, 0, 4)  # p even
    with pytest.raises(KnotError):
        LambdaSpec(0, 0, 1)  # |p| < 3
    with pytest.raises(KnotError):
        LambdaSpec(0, 0, -1)
    with pytest.raises(KnotError):
        LambdaSpec(0, 0, 3.0)  # not an int


def test_spec_rejects_bools():
    # a bool is an int subclass, but no parameter is a truth value
    for args, name in (((0, False, 3), "m"), ((True, 0, 3), "n"), ((0, 0, True), "p")):
        with pytest.raises(KnotError, match=f"lambda: {name} must be an int, got (True|False)"):
            LambdaSpec(*args)


def test_spec_limits_its_crossings():
    # 4|p| + |n| + |m| is checked before anything is built; the largest
    # admitted diagram's PD code still fits the CLI's @file limit
    largest = LambdaSpec(2, 2, -9749)
    d = lambda_diagram(largest)
    assert len(d.crossings) == MAX_CROSSINGS
    assert len(str(d).encode()) <= MAX_ARG_BYTES
    LambdaSpec(0, 0, 1001)
    for n, m, p in ((4, 2, -9749), (2_000_000, 0, 3), (0, 0, -(10**100) - 1),
                    (0, 0, 10**5000 + 1), (2 * 10**5000, 0, 3)):
        with pytest.raises(KnotError, match=r"crossings, over the limit of 39000"):
            LambdaSpec(n, m, p)
    # past 64 bits a parameter is named by its size, not its digits
    with pytest.raises(KnotError, match=r"^lambda: lambda\(0,0,<16610 bits>\) has <16612 bits> "):
        LambdaSpec(0, 0, 10**5000 + 1)


# ---- Seifert matrices ----

def test_seifert_matrix_golden_values():
    assert lambda_seifert(BASE).rows == ((0, 2), (1, 0))
    assert lambda_seifert(LambdaSpec(6, 0, 3)).rows == ((-3, 2), (1, 0))
    assert lambda_seifert(LambdaSpec(-6, 0, 3)).rows == ((3, 2), (1, 0))
    assert lambda_seifert(LambdaSpec(0, 6, 3)).rows == ((0, 2), (1, -3))
    # recomputation disagrees with the published table here; the twist
    # formula and the published congruence both give +3
    assert lambda_seifert(LambdaSpec(0, -6, 3)).rows == ((0, 2), (1, 3))
    assert PUBLISHED_MATRICES[(0, -6, 3)] == ((0, 2), (1, -3))
    assert lambda_seifert(LambdaSpec(0, 0, -3)).rows == ((0, -1), (-2, 0))


def test_seifert_matrix_matches_linking_numbers():
    for spec in SMALL_GRID:
        assert seifert_by_linking(spec) == lambda_seifert(spec), str(spec)


def test_twist_changes_one_parameter():
    assert lambda_twist(BASE, 3, "first") == LambdaSpec(6, 0, 3)
    assert lambda_twist(BASE, -3, "second") == LambdaSpec(0, -6, 3)
    with pytest.raises(KnotError):
        lambda_twist(BASE, 1, "third")


def test_twist_commutes_with_seifert_matrix():
    for spec in (BASE, LambdaSpec(2, -2, 5), LambdaSpec(-4, 0, -3)):
        for ell in range(-3, 4):
            for band in ("first", "second"):
                twisted = lambda_twist(spec, ell, band)
                assert lambda_seifert(twisted) == twist_form(
                    lambda_seifert(spec), ell, band
                ), (str(spec), ell, band)


# ---- diagrams ----

def test_diagram_crossing_count():
    for spec in (BASE, LambdaSpec(2, 4, 3), LambdaSpec(-2, 0, -5)):
        d = lambda_diagram(spec)
        expected = 4 * abs(spec.p) + abs(spec.n) + abs(spec.m)
        assert len(d.crossings) == expected, str(spec)


def test_published_jones_values():
    for triple, text in PUBLISHED_JONES.items():
        d = lambda_diagram(LambdaSpec(*triple))
        assert dict(jones(d).items()) == parse_poly_text(text), triple


def test_published_jones_text_is_the_printed_form():
    # the report compares this text with str() of the computed value, so
    # it must be the text format prints, and the family's closed form
    for triple, text in PUBLISHED_JONES.items():
        assert str(LaurentPoly(parse_poly_text(text))) == text, triple
        assert parse_poly_text(text) == lambda_jones(*triple), triple


def test_diagram_jones_follows_twist_recursion():
    # jones_twist holds when the other band is untwisted: m = 0 for a
    # band 1 twist, n = 0 for a band 2 twist
    for k in range(-4, 5, 2):
        for p in (-5, -3, 3, 5):
            for band, spec in (("first", LambdaSpec(k, 0, p)),
                               ("second", LambdaSpec(0, k, p))):
                v = jones(lambda_diagram(spec))
                for ell in (-2, -1, 1, 2):
                    d = lambda_diagram(lambda_twist(spec, ell, band))
                    assert jones(d) == jones_twist(v, ell), (str(spec), ell, band)


def test_jones_twist_needs_the_other_band_untwisted():
    twisted = jones(lambda_diagram(LambdaSpec(2, 2, 3)))
    assert dict(twisted.items()) == parse_poly_text("t^-2 - t^-1 + 1 - t + t^2")
    assert jones_twist(jones(lambda_diagram(LambdaSpec(0, 2, 3))), 1) != twisted


def test_negated_parameters_give_the_mirror():
    for spec in (BASE, LambdaSpec(2, 0, 3), LambdaSpec(0, -2, 3)):
        neg = LambdaSpec(-spec.n, -spec.m, -spec.p)
        assert jones(lambda_diagram(neg)) == jones(
            mirror(lambda_diagram(spec))
        ), str(spec)


def test_jones_at_minus_one_gives_the_determinant():
    for spec in (BASE, LambdaSpec(2, 2, 3), LambdaSpec(-2, 0, -3),
                 LambdaSpec(4, -2, 3), LambdaSpec(0, 0, 5)):
        v = jones(lambda_diagram(spec))
        det = knot_determinant(lambda_seifert(spec))
        assert abs(at_minus_one(dict(v.items()))) == det, str(spec)


def test_base_alexander_and_determinant():
    m = lambda_seifert(BASE)
    assert dict(alexander(m).items()) == parse_poly_text("2 - 5t + 2t^2")
    assert knot_determinant(m) == 9


# ---- published certificates ----

def test_published_congruences_act_correctly():
    base = lambda_seifert(BASE)
    for rows, triple, printed in PUBLISHED_CONGRUENCES:
        cert = CongruenceCertificate(rows)
        product = cert.apply(base)
        assert product == lambda_seifert(LambdaSpec(*triple)), triple
        if triple == (0, -6, 3):
            assert product.rows != printed  # the flagged table entry
        else:
            assert product.rows == printed, triple


def test_twists_match_congruence_table():
    for triple, (ell, band) in TWISTS.items():
        assert lambda_twist(BASE, ell, band) == LambdaSpec(*triple)


# ---- report ----

def test_report_statuses():
    lines = paper_report()
    statuses = {line["status"] for line in lines}
    assert statuses <= {"MATCH", "KNOWN-DISCREPANCY"}
    flagged = sorted(
        line["label"] for line in lines if line["status"] == "KNOWN-DISCREPANCY"
    )
    assert flagged == sorted(KNOWN_DISCREPANCIES)


def test_report_rendering():
    text = render_report(paper_report())
    assert "0 mismatches" in text
    assert "2 known discrepancies" in text
    assert "lambda(0,-6,3)" in text


# a published Jones polynomial of lambda(6, 0, 3) with its constant term off by one
WRONG_JONES = "3 - t + t^2 - 2t^3 + t^4 - t^5 + t^6"


def test_report_flags_a_wrong_published_value(monkeypatch):
    # both Jones lines of the triple compare against the wrong value: the
    # diagram's and the twist recursion's.  It is in printed form, so the
    # lines differ by its constant term, not by the order of its terms
    assert str(LaurentPoly(parse_poly_text(WRONG_JONES))) == WRONG_JONES
    monkeypatch.setitem(PUBLISHED_JONES, (6, 0, 3), WRONG_JONES)
    lines = paper_report()
    bad = [line for line in lines if line["status"] == "MISMATCH"]
    assert [line["label"] for line in bad] == ["jones lambda(6,0,3) (diagram)",
                                               "jones lambda(6,0,3) (twist recursion)"]
    assert all(line["published"] == WRONG_JONES != line["computed"]
               for line in bad)
    rows = render_report(lines).splitlines()
    flagged = [row for row in rows if row.startswith("MISMATCH")]
    assert len(flagged) == 2
    assert all(f"published: {WRONG_JONES}" in row for row in flagged)
    assert rows[-1] == (f"-- {len(lines)} lines: {len(lines) - 4} match, "
                        "2 known discrepancies, 2 mismatches")
