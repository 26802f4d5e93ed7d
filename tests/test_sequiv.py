import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import knotlab
from knotlab.errors import KnotError
from knotlab.seifert import CongruenceCertificate, SeifertMatrix, connected_sum
from knotlab.sequiv import (
    _integer_roots,
    brute_force_congruence,
    connected_sum_certificate,
    decide_first_sequiv,
    twist_form,
    verify_certificate,
)

from conftest import genus_one
from oracles import naive_congruence, published_rule, scan_congruence

M0 = SeifertMatrix(((0, 1), (2, 0)))  # s = 3


# ---- twisting ----

def test_twist_form_first_and_second():
    assert twist_form(M0, 3).rows == ((-3, 1), (2, 0))
    assert twist_form(M0, -2, "second").rows == ((0, 1), (2, 2))
    assert twist_form(M0, 0).rows == M0.rows


def test_twist_form_rejects():
    with pytest.raises(KnotError):
        twist_form(SeifertMatrix(()), 1)
    with pytest.raises(KnotError):
        twist_form(M0, 1, "third")


@given(genus_one(), st.integers(-6, 6), st.sampled_from(("first", "second")))
def test_twist_is_additive_and_invertible(m, ell, band):
    once = twist_form(m, ell, band)
    assert twist_form(once, -ell, band) == m
    twice = twist_form(once, ell, band)
    assert twice == twist_form(m, 2 * ell, band)


# ---- the decision procedure ----

def _equivalent(m, ell, band="first"):
    return decide_first_sequiv(m, ell, band).equivalent


def test_condition_golden():
    # s = 3: multiples of 3 twist to congruent forms, others do not
    for ell in (-6, -3, 0, 3, 6, 9):
        assert _equivalent(M0, ell)
    for ell in (-4, -1, 1, 2, 4, 7):
        assert not _equivalent(M0, ell)
    # nonzero opposite diagonal blocks everything except ell = 0
    busy = SeifertMatrix(((0, 1), (2, 5)))
    assert _equivalent(busy, 0)
    assert not _equivalent(busy, 3)
    # second band keys on a11 instead
    assert _equivalent(busy, 3, "second")
    assert not _equivalent(SeifertMatrix(((5, 1), (2, 0))), 3, "second")


def test_certificate_golden():
    # ell = 3k on ((0,1),(2,0)) gives T = ((1,-k),(0,1))
    for k in range(1, 6):
        report = decide_first_sequiv(M0, 3 * k)
        assert report.equivalent
        assert report.certificate.rows == ((1, -k), (0, 1))
        assert verify_certificate(M0, report.twisted, report.certificate)


def test_certificate_second_band_is_transposed():
    m = SeifertMatrix(((0, 2), (1, 0)))
    report = decide_first_sequiv(m, 3, "second")
    assert report.certificate.rows == ((1, 0), (-1, 1))
    assert verify_certificate(m, report.twisted, report.certificate)


def test_zero_twist_gives_identity():
    report = decide_first_sequiv(M0, 0)
    assert report.equivalent
    assert report.certificate.rows == ((1, 0), (0, 1))
    assert report.reason == "ell = 0, forms are equal"


def test_negative_reports_have_reasons():
    r1 = decide_first_sequiv(SeifertMatrix(((0, 1), (2, 5))), 3)
    assert not r1.equivalent and r1.certificate is None
    assert r1.reason == "a22 = 5 != 0"
    r2 = decide_first_sequiv(M0, 4)
    assert r2.reason == "s = 3 does not divide ell = 4"
    assert "not decided" in r2.note


def test_negative_s_divisibility():
    m = SeifertMatrix(((0, -1), (-2, 0)))  # s = -3
    for ell in (-6, -3, 3, 6):
        report = decide_first_sequiv(m, ell)
        assert report.equivalent
        assert verify_certificate(m, report.twisted, report.certificate)
    assert not _equivalent(m, 4)


@given(genus_one(), st.integers(-9, 9), st.sampled_from(("first", "second")))
def test_positive_decisions_carry_verifying_certificates(m, ell, band):
    report = decide_first_sequiv(m, ell, band)
    assert report.equivalent == published_rule(m.rows, ell, band)
    if report.equivalent:
        assert verify_certificate(m, report.twisted, report.certificate)
    else:
        assert report.certificate is None


# ---- verification ----

def test_verify_rejects_wrong_target():
    t = CongruenceCertificate(((1, -1), (0, 1)))
    good = t.apply(M0)
    assert verify_certificate(M0, good, t)
    bad = SeifertMatrix(((0, 1), (2, 4)))
    assert not verify_certificate(M0, bad, t)
    with pytest.raises(KnotError):
        verify_certificate(M0, good, CongruenceCertificate.identity(4))


# ---- the exhaustive oracle ----

def test_oracle_finds_known_witness():
    target = twist_form(M0, 6)
    w = brute_force_congruence(M0, target, 4)
    assert w is not None
    assert verify_certificate(M0, target, w)


def test_oracle_respects_bound():
    target = twist_form(M0, 30)  # needs T with entry -10
    assert _equivalent(M0, 30)
    assert brute_force_congruence(M0, target, 4) is None
    assert brute_force_congruence(M0, target, 10) is not None


def test_oracle_finds_nothing_when_not_congruent():
    assert brute_force_congruence(M0, twist_form(M0, 1), 4) is None
    assert brute_force_congruence(M0, twist_form(M0, 2), 4) is None


def test_oracle_is_lexicographically_first():
    w = brute_force_congruence(M0, M0, 1)
    # identity is beaten by ((-1,0),(0,-1)) in lexicographic entry order
    assert w.rows == ((-1, 0), (0, -1))


def test_huge_ell_gets_its_answer():
    m = SeifertMatrix(((0, 1), (2, 0)))
    ell = 3 * 10**5000
    report = decide_first_sequiv(m, ell)
    assert report.equivalent
    assert report.reason == "a22 = 0 and s = 3 divides ell = <16612 bits>"
    assert verify_certificate(m, report.twisted, report.certificate)
    assert not _equivalent(m, ell + 1)
    assert decide_first_sequiv(m, ell + 1).reason == "s = 3 does not divide ell = <16612 bits>"


def test_oracle_trivial_and_rejected_sizes():
    empty = SeifertMatrix(())
    assert brute_force_congruence(empty, empty, 0).rows == ()
    stable = SeifertMatrix(((0, 1), (0, 0)))
    six = connected_sum(connected_sum(stable, stable), stable)
    with pytest.raises(KnotError, match="larger than 4x4"):
        brute_force_congruence(six, six, 1)
    with pytest.raises(KnotError):
        brute_force_congruence(M0, M0, -1)
    # a form and a target of different sizes
    with pytest.raises(KnotError, match="^oracle: size mismatch$"):
        brute_force_congruence(M0, connected_sum(M0, M0), 1)
    # 1001^2 candidate rows, over ORACLE_ROWS: refused before the search
    with pytest.raises(KnotError, match="1002001 candidate rows"):
        brute_force_congruence(M0, M0, 500)
    # a bound whose decimal text is past the interpreter's digit limit
    with pytest.raises(KnotError, match="^oracle: bound <16610 bits> gives <33222 bits> candidate rows, "):
        brute_force_congruence(M0, M0, 10**5000)
    # a bound that is not an int is refused, not truncated or compared;
    # True is not taken as 1
    for bad in (1.5, "2", True):
        with pytest.raises(KnotError, match="bound must be an int"):
            brute_force_congruence(M0, M0, bad)


def test_oracle_4x4_small_bound():
    band = SeifertMatrix(((0, 1), (0, 0)))
    m = SeifertMatrix(((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    w = brute_force_congruence(m, m, 1)
    assert w is not None and verify_certificate(m, m, w)
    assert w.rows == ((-1, 0, -1, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 1, 0, -1))
    # the first-band twist of the unknotted band, lifted by connected sum
    report = decide_first_sequiv(band, 1)
    target = connected_sum(report.twisted, band)
    lifted = connected_sum_certificate(report.certificate, 2)
    assert verify_certificate(m, target, lifted)
    w = brute_force_congruence(m, target, 1)
    assert w is not None and verify_certificate(m, target, w)
    assert w.rows == ((-1, 0, -1, 1), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 1))


def test_oracle_4x4_refuses_past_its_row_checks():
    # ((0,1),(0,0)) + itself is not congruent to ((0,1),(0,0)) +
    # ((0,2),(1,0)); at bound 5 the search would check tens of millions of
    # rows, so it is refused once the count passes ORACLE_CHECKS, at a
    # point that does not depend on the host
    band = SeifertMatrix(((0, 1), (0, 0)))
    m = connected_sum(band, band)
    target = connected_sum(band, SeifertMatrix(((0, 2), (1, 0))))
    with pytest.raises(KnotError, match=r"^oracle: search reached 1000433 row checks, "
                                        r"over the limit of 1000000$"):
        brute_force_congruence(m, target, 5)


@given(genus_one(), st.integers(-3, 3), st.sampled_from(("first", "second")),
       st.integers(0, 2))
def test_oracle_matches_naive_enumeration(m, ell, band, bound):
    target = twist_form(m, ell, band)
    witness = brute_force_congruence(m, target, bound)
    expected = naive_congruence(m.rows, target.rows, bound)
    assert (None if witness is None else witness.rows) == expected


@settings(deadline=None)
@given(genus_one(), st.integers(-6, 6), st.sampled_from(("first", "second")),
       st.integers(0, 6))
def test_oracle_matches_row_scan(m, ell, band, bound):
    target = twist_form(m, ell, band)
    witness = brute_force_congruence(m, target, bound)
    expected = scan_congruence(m.rows, target.rows, bound)
    assert (None if witness is None else witness.rows) == expected


@settings(max_examples=40, deadline=None)
@given(genus_one(2), genus_one(2), st.integers(-2, 2), st.sampled_from(("first", "second")))
def test_oracle_matches_row_scan_on_block_sums(a, b, ell, band):
    m = connected_sum(a, b)
    target = connected_sum(twist_form(a, ell, band), b)
    witness = brute_force_congruence(m, target, 1)
    expected = scan_congruence(m.rows, target.rows, 1)
    assert (None if witness is None else witness.rows) == expected


# One search per branch of the last-entry solve.  Row (p, x) of a 2x2 T
# has value a x^2 + lin x + q with a = M[1][1], lin = p (M[0][1] + M[1][0])
# and q = p^2 M[0][0]; each case names the branch some (p, x) reaches.
_B = 2**64
_SOLVE_CASES = {
    # a = 0, lin = 3p: one root when 3p divides q - t
    "linear": (((0, 1), (2, 0)), ((-3, 1), (2, 0)), 2, ((-1, 1), (0, -1))),
    # a = lin = 0 at p = 0 with q = t = 0: every x in the box
    "every x": (((0, 1), (0, 0)), ((0, 1), (0, 0)), 1, ((-1, 0), (0, -1))),
    # a = -1, value p x - x^2: t = 0 at p = 2 has the two roots 0 and 2
    "a < 0": (((0, 1), (0, -1)), ((0, 1), (0, -3)), 2, ((-1, 0), (2, -1))),
    # value p^2 + p x + x^2: t = 3 at p = 2 has discriminant 0 (the double
    # root x = -1), t = 1 at p = 2 has -8 and t = 3 at p = 0 has 12
    "zero, negative and non-square discriminants": (
        ((1, 1), (0, 1)), ((3, 2), (1, 1)), 2, ((-2, 1), (-1, 0))),
    # t = 31 at p = 1: x^2 + x - 30 has roots 5 and -6, both outside [-2, 2]
    "roots outside the box": (((1, 1), (0, 1)), ((31, 6), (5, 1)), 2, None),
    # ... and only 5 inside [-5, 5]
    "one root inside the box": (((1, 1), (0, 1)), ((31, 6), (5, 1)), 5, ((-1, -5), (0, -1))),
    # T = ((1, 1), (0, 1)); t = 2B + 1 at p = 1 has discriminant (2^65 + 1)^2,
    # whose square root in floating point is 2^65
    "2^64 entries": (((_B, 1), (0, _B)), ((2 * _B + 1, _B + 1), (_B, _B)), 1,
                     ((-1, -1), (0, -1))),
}


@pytest.mark.parametrize("m, target, bound, expected", _SOLVE_CASES.values(),
                         ids=_SOLVE_CASES.keys())
def test_oracle_last_entry_solve(m, target, bound, expected):
    witness = brute_force_congruence(SeifertMatrix(m), SeifertMatrix(target), bound)
    assert (None if witness is None else witness.rows) == expected
    assert scan_congruence(m, target, bound) == expected


def test_integer_roots_names_a_double_root_once():
    # x^2 + 2x + 1 = (x + 1)^2; a repeated root changes no witness, so no
    # search shows it
    assert _integer_roots(1, 2, 1, 3) == (-1,)


# One 2x2 search per guard of the second-row solve, on Seifert forms.
# Row r1 = w + k r0 has det T = eps = (m01 - m10)(t01 - t10), and
# r0 S r1^T = r0 S w^T + 2 k t00 must be t01 + t10 (S = M + M^T); when
# t00 = 0, r1 M r1^T = w M w^T + k (t01 + t10) fixes k instead.  The
# answer of each case named after a guard changes when that guard is cut
# out, and "det T = -1" changes when eps is taken to be 1.
_SECOND_ROW_CASES = {
    # r0 = (0, -3) has r0 M r0^T = 0; without the guard the search would
    # return T = ((0, -3), (-1, 3)), of det -3
    "first row not primitive": (((-2, -1), (0, 0)), ((0, -1), (-2, 1)), 3, None),
    # r0 = (-1, 0) has no second row, r0 = (0, -1) has one
    "x = 0": (((0, -1), (0, 0)), ((0, 0), (1, -1)), 1, ((0, -1), (1, 1))),
    "t00 != 0, exact division": (((0, -2), (-1, -1)), ((2, -1), (0, -1)), 1,
                                 ((-1, 1), (0, -1))),
    "t00 != 0, inexact division": (((3, -2), (-3, -2)), ((3, 0), (-1, -2)), 3, None),
    "t00 != 0, r1 M r1^T misses": (((2, 0), (-1, -2)), ((1, -4), (-3, 0)), 2, None),
    "t00 = 0, an equation misses at k = 0": (((1, 1), (2, 2)), ((0, -3), (-2, 1)), 3, None),
    "t00 = 0, nonzero slope": (((0, 0), (1, 1)), ((0, -1), (0, 0)), 2, ((-1, 1), (-1, 0))),
    # r0 = (-1, -1) solves to r1 = (-1, -2), outside [-1, 1]^2, and the
    # search goes on to r0 = (-1, 0)
    "the box cuts the interval": (((1, 1), (0, -1)), ((1, 1), (0, -1)), 1, ((-1, 0), (0, -1))),
    # eps = -1: m01 - m10 = 1 and t01 - t10 = -1
    "det T = -1": (((-1, 1), (0, -2)), ((-1, 0), (1, -2)), 1, ((-1, 0), (1, 1))),
}


@pytest.mark.parametrize("m, target, bound, expected", _SECOND_ROW_CASES.values(),
                         ids=_SECOND_ROW_CASES.keys())
def test_oracle_second_row_solve(m, target, bound, expected):
    witness = brute_force_congruence(SeifertMatrix(m), SeifertMatrix(target), bound)
    assert (None if witness is None else witness.rows) == expected
    assert scan_congruence(m, target, bound) == expected


_UNIMODULAR = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
               if a * d - b * c in (1, -1)]


@st.composite
def _form_pairs(draw):
    """A Seifert form M with entries in [-6, 6], and T M T^T for a
    unimodular T with entries in [-4, 4], that form with one diagonal
    entry moved by 1, or another such Seifert form."""
    m = draw(genus_one(6))
    kind = draw(st.sampled_from(("congruent", "moved", "other")))
    if kind == "other":
        return m, draw(genus_one(6))
    rows = [list(r) for r in CongruenceCertificate(draw(st.sampled_from(_UNIMODULAR))).apply(m).rows]
    if kind == "moved":
        i = draw(st.integers(0, 1))
        rows[i][i] += draw(st.sampled_from((1, -1)))
    return m, SeifertMatrix(rows)


@settings(deadline=None)
@given(_form_pairs(), st.integers(0, 7))
def test_oracle_matches_row_scan_on_general_pairs(pair, bound):
    m, target = pair
    witness = brute_force_congruence(m, target, bound)
    expected = scan_congruence(m.rows, target.rows, bound)
    assert (None if witness is None else witness.rows) == expected


def test_oracle_at_its_row_limit():
    # bound 499, the row limit: ((0, 1), (0, 0)) keeps about 2,000 first rows
    stable = SeifertMatrix(((0, 1), (0, 0)))
    assert brute_force_congruence(stable, SeifertMatrix(((0, 2), (1, 0))), 499) is None
    w = brute_force_congruence(M0, M0, 499)
    assert w.rows == ((-1, 0), (0, -1))
    w = brute_force_congruence(stable, stable, 499)
    assert w.rows == ((-1, 0), (0, -1)) == scan_congruence(stable.rows, stable.rows, 499)
    # the diagonal and t00 = 0 cases of the second-row solve, checked
    # against the row scan at the same bound
    for name in ("t00 != 0, r1 M r1^T misses", "t00 = 0, an equation misses at k = 0"):
        m, target, _, _ = _SECOND_ROW_CASES[name]
        witness = brute_force_congruence(SeifertMatrix(m), SeifertMatrix(target), 499)
        assert (None if witness is None else witness.rows) == scan_congruence(m, target, 499)


def test_oracle_is_exact_for_huge_entries():
    # in 64-bit arithmetic 2^63 - 1 + 1 wraps to -2^63, which faked a witness
    big = 2**63
    m = SeifertMatrix(((big - 1, 1), (0, 0)))
    assert brute_force_congruence(m, SeifertMatrix(((-big, 1), (0, 0))), 1) is None
    huge = SeifertMatrix(((2**64, 1), (0, 0)))
    w = brute_force_congruence(huge, huge, 1)
    assert w is not None and verify_certificate(huge, huge, w)


@settings(max_examples=25, deadline=None)
@given(genus_one(2), st.integers(-4, 4), st.sampled_from(("first", "second")))
def test_oracle_agrees_with_decision(m, ell, band):
    target = twist_form(m, ell, band)
    witness = brute_force_congruence(m, target, 5)
    expected = _equivalent(m, ell, band)
    assert (witness is not None) == expected
    if witness is not None:
        assert verify_certificate(m, target, witness)


# ---- connected sum lift ----

def test_connected_sum_certificate():
    t = CongruenceCertificate(((1, 1), (0, 1)))
    lifted = connected_sum_certificate(t, 2)
    assert lifted.rows == ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert connected_sum_certificate(t, 0).rows == t.rows
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(KnotError, match="must be an int >= 0"):
            connected_sum_certificate(t, bad)
    with pytest.raises(KnotError, match=r"^certificate: <16610 bits> rows, over the limit of 64$"):
        connected_sum_certificate(t, 10**5000)


# ---- the package as a fresh interpreter sees it ----

def _fresh_python(*flags, code):
    src = str(Path(knotlab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
    )


def test_import_does_not_load_numpy():
    proc = _fresh_python(code="import knotlab; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_certificate_check_survives_optimize_flag():
    # a twist that disagrees with the certificate must still be caught
    # when python -O strips assert statements
    code = (
        "from knotlab import sequiv; from knotlab.seifert import SeifertMatrix\n"
        "sequiv.twist_form = lambda m, ell, band: SeifertMatrix(((5, 1), (2, 0)))\n"
        "sequiv.decide_first_sequiv(SeifertMatrix(((0, 1), (2, 0))), 3)"
    )
    proc = _fresh_python("-O", code=code)
    assert proc.returncode == 1
    assert "AssertionError: decide: certificate does not reproduce" in proc.stderr
