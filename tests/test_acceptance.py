"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single
``[criterion N] PASS/FAIL - ...`` line with the elapsed time, and
asserts both the mathematical content and the stated time budget.
Run ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import io
import time

from knotlab.cli import main
from knotlab.diagram import (
    add_kink,
    connect_sum,
    jones,
    jones_twist,
    kauffman_bracket,
    mirror,
    parse_pd,
)
from knotlab.family import (
    BASE,
    KNOWN_DISCREPANCIES,
    PUBLISHED_CONGRUENCES,
    PUBLISHED_JONES,
    PUBLISHED_MATRICES,
    PUBLISHED_SUM_CERT,
    TWISTS,
    LambdaSpec,
    lambda_diagram,
    lambda_seifert,
    paper_report,
)
from knotlab.laurent import parse_poly
from knotlab.seifert import (
    CongruenceCertificate,
    SeifertMatrix,
    alexander,
    connected_sum,
)
from knotlab.sequiv import (
    brute_force_congruence,
    decide_first_sequiv,
    twist_form,
    verify_certificate,
)

from oracles import at_minus_one, invert, naive_bracket, published_rule

LEFT_TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIGURE_EIGHT = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


def _finish(num, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s"
    if budget is not None:
        timing += f", budget {budget:.0f}s"
    print(f"[criterion {num}] {status} - {detail} ({timing})")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_1_base_jones():
    t0 = time.perf_counter()
    v = jones(lambda_diagram(BASE))
    ok = v == parse_poly(PUBLISHED_JONES[(0, 0, 3)])
    _finish(1, ok, "Jones of the base knot matches the published value",
            time.perf_counter() - t0, budget=5.0)


def test_criterion_2_twisted_jones():
    t0 = time.perf_counter()
    base_v = jones(lambda_diagram(BASE))
    ok = True
    for triple, (ell, band) in sorted(TWISTS.items()):
        computed = jones(lambda_diagram(LambdaSpec(*triple)))
        published = parse_poly(PUBLISHED_JONES[triple])
        recursed = jones_twist(base_v, ell)
        ok = ok and computed == published == recursed
    _finish(2, ok, "all four twisted Jones values match the table and the "
            "twist recursion", time.perf_counter() - t0, budget=20.0)


def test_criterion_3_published_certificates():
    t0 = time.perf_counter()
    base = lambda_seifert(BASE)
    ok = base.rows == PUBLISHED_MATRICES[(0, 0, 3)]
    for rows, triple, printed in PUBLISHED_CONGRUENCES:
        cert = CongruenceCertificate(rows)
        target = lambda_seifert(LambdaSpec(*triple))
        ok = ok and verify_certificate(base, target, cert)
        if triple == (0, -6, 3):
            # the printed matrix fails against its own certificate and is
            # flagged as a known discrepancy
            ok = ok and target.rows == ((0, 2), (1, 3))
            ok = ok and not verify_certificate(base, SeifertMatrix(printed), cert)
            ok = ok and any("lambda(0,-6,3)" in k for k in KNOWN_DISCREPANCIES)
        else:
            ok = ok and target.rows == printed
    _finish(3, ok, "the four published congruence certificates verify, with "
            "the lambda(0,-6,3) sign flagged", time.perf_counter() - t0)


def test_criterion_4_worked_example():
    t0 = time.perf_counter()
    m = SeifertMatrix(((0, 1), (2, 0)))
    ok = True
    for k in range(1, 6):
        report = decide_first_sequiv(m, 3 * k)
        ok = ok and report.equivalent
        ok = ok and report.certificate.rows == ((1, -k), (0, 1))
        ok = ok and verify_certificate(m, report.twisted, report.certificate)
    _finish(4, ok, "the worked-example certificates ((1,-k),(0,1)) come out "
            "for k = 1..5 and verify", time.perf_counter() - t0)


def test_criterion_5_spliced_sums():
    t0 = time.perf_counter()
    d1 = lambda_diagram(BASE)
    d2 = lambda_diagram(LambdaSpec(-6, 0, 3))
    v1, v2 = jones(d1), jones(d2)
    k1 = jones(connect_sum(d1, d1.arcs[0], d1, d1.arcs[0]))
    k2 = jones(connect_sum(d2, d2.arcs[0], d1, d1.arcs[0]))
    ok = k1 == v1 * v1 and k2 == v2 * v1 and k1 != k2

    base = lambda_seifert(BASE)
    lifted = CongruenceCertificate(PUBLISHED_SUM_CERT)
    summed = connected_sum(base, base)
    target = connected_sum(lambda_seifert(LambdaSpec(-6, 0, 3)), base)
    ok = ok and verify_certificate(summed, target, lifted)
    _finish(5, ok, "spliced sums have distinct Jones values while the lifted "
            "4x4 certificate verifies", time.perf_counter() - t0, budget=10.0)


def test_criterion_6_oracle_sweep():
    t0 = time.perf_counter()
    matrices = []
    for a11 in range(-3, 4):
        for a22 in range(-3, 4):
            for a21 in range(-3, 4):
                for a12 in (a21 - 1, a21 + 1):
                    if -3 <= a12 <= 3:
                        matrices.append(SeifertMatrix(((a11, a12), (a21, a22))))
    checked = witnesses = 0
    ok = True
    for m in matrices:
        for ell in range(-6, 7):
            for band in ("first", "second"):
                report = decide_first_sequiv(m, ell, band)
                witness = brute_force_congruence(m, report.twisted, 6)
                agree = (witness is not None) == report.equivalent
                agree = agree and report.equivalent == published_rule(m.rows, ell, band)
                for t in (report.certificate, witness):
                    if t is not None:
                        agree = agree and verify_certificate(m, report.twisted, t)
                ok = ok and agree
                checked += 1
                witnesses += witness is not None
    ok = ok and checked == len(matrices) * 13 * 2
    _finish(6, ok, f"decision agrees with the published rule and the exhaustive "
            f"bound-6 search on {checked} twisted pairs, whose {witnesses} witnesses verify",
            time.perf_counter() - t0, budget=120.0)


def test_criterion_7_property_sweep():
    t0 = time.perf_counter()
    trefoil = parse_pd(LEFT_TREFOIL)
    fig8 = parse_pd(FIGURE_EIGHT)
    ok = True

    # a curl on any arc never moves the Jones polynomial
    for d in (trefoil, fig8):
        v = jones(d)
        for arc in d.arcs:
            for sign in (1, -1):
                ok = ok and jones(add_kink(d, arc, sign)) == v

    # mirror duality, and bracket exponents 3w mod 4, so V has integer
    # powers of t
    samples = [trefoil, fig8, lambda_diagram(BASE),
               lambda_diagram(LambdaSpec(2, 0, 3))]
    for d in samples:
        ok = ok and dict(jones(mirror(d)).items()) == invert(dict(jones(d).items()))
        ok = ok and all((e - 3 * d.writhe()) % 4 == 0 for e, _ in kauffman_bracket(d).items())

    # contraction agrees with the brute-force state sum on small inputs
    small = [parse_pd("X[1,1,2,2]"), parse_pd("X[1,2,2,1]"), trefoil,
             mirror(trefoil), fig8, add_kink(trefoil, 1, -1),
             connect_sum(trefoil, 1, mirror(trefoil), 1)]
    for d in small:
        ok = ok and dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings)

    # |V(-1)| equals |Alexander(-1)| across twenty family members
    specs = [LambdaSpec(n, m, p)
             for n in (-4, -2, 0, 2, 4)
             for m in (-2, 0)
             for p in (3, -3)]
    assert len(specs) == 20
    for spec in specs:
        v_at = at_minus_one(dict(jones(lambda_diagram(spec)).items()))
        a_at = at_minus_one(dict(alexander(lambda_seifert(spec)).items()))
        ok = ok and abs(v_at) == abs(a_at)
    _finish(7, ok, "curl invariance, mirror duality, state-sum agreement and "
            "the determinant bridge all hold", time.perf_counter() - t0,
            budget=120.0)


def test_criterion_8_paper_report():
    t0 = time.perf_counter()
    lines = paper_report()
    statuses = {line["status"] for line in lines}
    flagged = sorted(
        line["label"] for line in lines if line["status"] != "MATCH"
    )
    ok = statuses <= {"MATCH", "KNOWN-DISCREPANCY"}
    ok = ok and flagged == sorted(KNOWN_DISCREPANCIES)
    ok = ok and all("lambda(0,-6,3)" in label for label in flagged)
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(["report", "--paper"])
    ok = ok and exit_code == 0
    _finish(8, ok, "the recomputation report is all MATCH apart from the "
            "documented discrepancy and exits 0",
            time.perf_counter() - t0)
