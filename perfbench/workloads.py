"""The three benchmark workloads.

A workload is a list of items.  Each item has a ``run`` that makes the
timed calls into knotlab and returns what they produced, and a ``check``
that compares those outputs against ``reference`` (which never imports
knotlab) and raises ``CheckFailed`` on any difference.

Inputs come from ``random.Random`` keyed by workload name and seed.  The
seed chooses signs, splits, matrix entries and sample members; it never
chooses a size.  Crossing counts, braid shapes, genus lists, oracle
bounds and item counts are fixed below, so every seed does the same
amount of counted work.

Items run in a seeded shuffled order.  Items of similar cost are then
spread over the whole pass, so the per-pass median and tail sample all
of it rather than one stretch; on a shared host the CPU's speed can
drift by a third within seconds.

Calls go through module attributes (``diagram.jones(d)``), so the traced
run sees them once its wrappers are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from knotlab import cli, diagram, family, morse, seifert, sequiv

import reference as ref


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    items: list[Item]
    warmup: list[Item]
    work: dict  # counted work, identical across seeds


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng: random.Random, items: list[Item], warmup: list[Item], work: dict) -> Workload:
    rng.shuffle(items)
    return Workload(items, warmup, work)


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _coeffs(poly) -> dict:
    return dict(poly.items())


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_payload(out, argv) -> dict:
    code, text = out
    require(code == 0, f"{' '.join(argv[:1])} exited {code}")
    return json.loads(text)


# -- family_jones -------------------------------------------------------------------

# |p| of each item, 14 to 488 crossings.  The seed picks every sign; the
# twist split (|n|, |m|) cycles through FAMILY_SPLITS by position, always
# with |n| >= 2 (n = 0 runs about three times faster under the current
# contraction order).  Signs alone still change an item's cost by up to
# 1.5x.  On a ladder of distinct |p| the median and the tail are each one
# item, whose cost then moves with the seed.  So both land in the middle
# of a cluster of items that share |p| and differ only in split and
# signs.  Sorted by cost: 18 cheap items (the low ladder, three CLI
# lambda calls and the report), 15 at |p| = 23, one at 29, 13 at 35 and
# the four largest.  The median is the 8th of the |p| = 23 cluster and
# the tail (10 items beyond) the 7th of the |p| = 35 cluster.
FAMILY_P = (tuple(range(3, 16, 2)) * 2 + (23,) * 15 + (29,) + (35,) * 13
            + (51, 61, 91, 121))
FAMILY_SPLITS = ((2, 0), (2, 2), (4, 0), (4, 2), (2, 4), (6, 2), (4, 4), (2, 6), (8, 0))
FAMILY_CLI_P = (5, 9, 13)


def _lambda_triple(rng: random.Random, ap: int, split: tuple[int, int]) -> tuple[int, int, int]:
    an, am = split
    return an * _sign(rng), am * _sign(rng), ap * _sign(rng)


def _family_item(n: int, m: int, p: int) -> Item:
    def run():
        spec = family.LambdaSpec(n, m, p)
        d = family.lambda_diagram(spec)
        v = diagram.jones(d)
        closed = family.lambda_seifert(spec)
        linked = family.seifert_by_linking(spec)
        return (d, v, closed, linked, seifert.alexander(closed),
                seifert.signature(closed), seifert.knot_determinant(closed))

    def check(out):
        d, v, closed, linked, alex, sig, det = out
        expect = ref.lambda_matrix(n, m, p)
        e_alex, e_sig, e_det = ref.genus_one_invariants(expect)
        vc, ac = _coeffs(v), _coeffs(alex)
        require(len(d.crossings) == 4 * abs(p) + abs(n) + abs(m), "crossing count")
        require(closed.rows == expect, "lambda_seifert differs from the closed form")
        require(linked.rows == expect, "seifert_by_linking differs from lambda_seifert")
        require(ref.at_one(vc) == 1, "V(1) != 1")
        require(ac == e_alex, "Alexander polynomial")
        require(sig == e_sig, "signature")
        require(det == e_det, "knot_determinant")
        require(abs(ref.at_minus_one(vc)) == e_det, "|V(-1)| != determinant")
        require(abs(ref.at_minus_one(ac)) == e_det, "|Alexander(-1)| != determinant")

    return Item(f"lambda({n},{m},{p})", run, check)


def _report_item() -> Item:
    argv = ["report", "--paper", "--json"]

    def check(out):
        payload = _cli_payload(out, argv)
        statuses = {line["status"] for line in payload["result"]["lines"]}
        require(bool(statuses) and statuses <= {"MATCH", "KNOWN-DISCREPANCY"},
                f"report --paper statuses {sorted(statuses)}")
        require(payload["result"]["ok"] is True, "report --paper not ok")

    return Item("cli report --paper", lambda: _call_cli(argv), check)


def _lambda_cli_item(n: int, m: int, p: int) -> Item:
    argv = ["lambda", "--n", str(n), "--m", str(m), "--p", str(p),
            "--emit", "jones", "--json"]

    def check(out):
        res = _cli_payload(out, argv)["result"]
        expect = ref.lambda_matrix(n, m, p)
        _, _, e_det = ref.genus_one_invariants(expect)
        v = ref.parse_poly_text(res["jones"])
        require(tuple(map(tuple, res["seifert"])) == expect, "cli lambda seifert")
        require(ref.at_one(v) == 1, "cli lambda V(1) != 1")
        require(abs(ref.at_minus_one(v)) == e_det, "cli lambda |V(-1)| != determinant")

    return Item(f"cli lambda({n},{m},{p})", lambda: _call_cli(argv), check)


def family_jones(seed: int) -> Workload:
    rng = _rng("family_jones", seed)
    specs = [_lambda_triple(rng, ap, FAMILY_SPLITS[i % len(FAMILY_SPLITS)])
             for i, ap in enumerate(FAMILY_P)]
    cli_specs = [_lambda_triple(rng, ap, (2, 2)) for ap in FAMILY_CLI_P]
    items = [_family_item(*s) for s in specs]
    items.append(_report_item())
    items += [_lambda_cli_item(*s) for s in cli_specs]
    crossings = sum(4 * abs(p) + abs(n) + abs(m) for n, m, p in specs + cli_specs)
    return _shuffled(rng, items, [items[0], items[-1]],
                     {"items": len(items), "lambda_crossings": crossings})


# -- wide_bracket ---------------------------------------------------------------------

# (strands, sweeps): the word is (s_1 s_2 ... s_{k-1})^sweeps with a
# seeded sign on every letter.  The closure permutation is the sweeps-th
# power of a k-cycle, one cycle because gcd(strands, sweeps) = 1.  Fixing
# the letter order keeps the bracket's partial-state count nearly seed-free;
# fully random words vary fivefold in cost between seeds.
#
# The shapes are listed cheapest first and their costs do not overlap
# much, so sorted item times fall into five clusters of seven.  With 35
# items the median is the 4th of the third cluster and the tail (10 items
# beyond) the 4th of the fourth: each is a median over one shape's seeded
# signs, not a boundary between two shapes, which would move with the seed.
BRAID_SHAPES = ((5, 7), (9, 4), (5, 13), (7, 5), (8, 5))
BRAIDS_PER_SHAPE = 7
# Where a curl sits can change the bracket's cost thirtyfold, so the
# curl goes on a fixed arc and only its sign is seeded.  Arc numbering
# follows the Morse program, which the signs do not change.
KINK_ARC = 1


def _braid_item(strands: int, signs: tuple[int, ...], kink_sign: int) -> Item:
    word = [(k % (strands - 1), s) for k, s in enumerate(signs)]

    def run():
        b = morse.MorseBuilder()
        for i in range(strands):
            b.cap(i)
        for g, s in word:
            b.crossing(g, "L" if s > 0 else "R")
        for i in reversed(range(strands)):
            b.cup(i)
        d = diagram.validate(b.to_pd())
        v = diagram.jones(d)
        vm = diagram.jones(diagram.mirror(d))
        back = diagram.parse_pd(str(d))
        vk = diagram.jones(diagram.add_kink(d, KINK_ARC, kink_sign))
        return d, v, vm, back, vk

    def check(out):
        d, v, vm, back, vk = out
        vc = _coeffs(v)
        require(len(d.crossings) == len(word), "crossing count")
        require(sum(d.signs) == sum(signs), "writhe != braid exponent sum")
        require(ref.at_one(vc) == 1, "V(1) != 1")
        require(ref.at_minus_one(vc) % 2 == 1, "V(-1) is even")
        require(_coeffs(vm) == ref.invert(vc), "mirror duality")
        require(back.crossings == d.crossings and back.signs == d.signs, "PD round trip")
        require(_coeffs(vk) == vc, "add_kink changed Jones")

    return Item(f"braid{strands}x{len(word)}", run, check)


def wide_bracket(seed: int) -> Workload:
    rng = _rng("wide_bracket", seed)
    items, crossings = [], 0
    for _ in range(BRAIDS_PER_SHAPE):
        for strands, sweeps in BRAID_SHAPES:
            length = (strands - 1) * sweeps
            signs = tuple(_sign(rng) for _ in range(length))
            items.append(_braid_item(strands, signs, _sign(rng)))
            crossings += length
    return _shuffled(rng, items, [items[0]],
                     {"items": len(items), "braid_crossings": crossings})


# -- forms_oracle ---------------------------------------------------------------------

ORACLE_TRIPLES = 1000
ORACLE_BOUND = 6
CLI_SEQUIV_CALLS = 4
CLI_ORACLE_BOUND = 3
DENSE_GENERA = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7)


def _criterion6_matrices() -> list[tuple]:
    """Every genus-one form with entries in [-3, 3]: 588 matrices, which
    with ell in [-6, 6] and two bands give the 15,288 criterion-6 triples."""
    out = []
    for a11 in range(-3, 4):
        for a22 in range(-3, 4):
            for a21 in range(-3, 4):
                for a12 in (a21 - 1, a21 + 1):
                    if -3 <= a12 <= 3:
                        out.append(((a11, a12), (a21, a22)))
    return out


def _check_decision(m, ell, band, twisted_rows, equivalent, certificate, witness):
    expect_twisted = ref.twist(m, ell, band)
    expect = ref.first_sequiv_expected(m, ell, band)
    require(tuple(map(tuple, twisted_rows)) == expect_twisted, "twisted form")
    require(equivalent == expect, "decision differs from the published criterion")
    require((witness is not None) == expect, "oracle disagrees with the decision")
    require((certificate is not None) == expect, "certificate presence")
    for t in (certificate, witness):
        if t is not None:
            require(ref.is_congruence(t, m, expect_twisted), "witness is not a congruence")


def _triple_item(m, ell: int, band: str) -> Item:
    def run():
        sm = seifert.SeifertMatrix(m)
        report = sequiv.decide_first_sequiv(sm, ell, band)
        witness = sequiv.brute_force_congruence(sm, report.twisted, ORACLE_BOUND)
        verified = [sequiv.verify_certificate(sm, report.twisted, t)
                    for t in (report.certificate, witness) if t is not None]
        return report, witness, verified

    def check(out):
        report, witness, verified = out
        _check_decision(
            m, ell, band, report.twisted.rows, report.equivalent,
            report.certificate and report.certificate.rows,
            witness and witness.rows,
        )
        require(all(verified), "verify_certificate rejected a witness")

    return Item(f"sequiv {m} ell={ell} {band}", run, check)


# A 4x4 bound-1 search that stops at its first witness.  Kept fixed, not
# seeded: the witness's position in the scan sets its cost, and a seeded
# pair would make that cost depend on the seed.
_UNKNOT_BAND = ((0, 1), (0, 0))


def _oracle_4x4_item() -> Item:
    def run():
        band = seifert.SeifertMatrix(_UNKNOT_BAND)
        report = sequiv.decide_first_sequiv(band, 1, "first")
        lifted = sequiv.connected_sum_certificate(report.certificate, 2)
        m = seifert.connected_sum(band, band)
        target = seifert.connected_sum(report.twisted, band)
        witness = sequiv.brute_force_congruence(m, target, 1)
        verified = [sequiv.verify_certificate(m, target, t) for t in (lifted, witness) if t]
        return m, target, lifted, witness, verified

    def check(out):
        m, target, lifted, witness, verified = out
        expect_m = ref.block_sum([_UNKNOT_BAND, _UNKNOT_BAND])
        expect_target = ref.block_sum([ref.twist(_UNKNOT_BAND, 1, "first"), _UNKNOT_BAND])
        require(m.rows == expect_m and target.rows == expect_target, "4x4 block sums")
        require(witness is not None, "4x4 oracle found no witness")
        require(len(verified) == 2 and all(verified), "verify_certificate on 4x4")
        for t in (lifted, witness):
            require(ref.is_congruence(t.rows, expect_m, expect_target), "4x4 congruence")

    return Item("sequiv 4x4 bound 1", run, check)


def _dense_form(rng: random.Random, genus: int):
    """A block sum of seeded lambda forms, conjugated by T = L U with unit
    triangular L, U, redrawn until every entry of T M T^T is nonzero."""
    blocks = [ref.lambda_matrix(2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3),
                                rng.choice((3, 5, 7)) * _sign(rng)) for _ in range(genus)]
    m = ref.block_sum(blocks)
    n = 2 * genus
    while True:
        low = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)]
               for i in range(n)]
        up = ref.transpose([[1 if i == j else rng.randint(-1, 1) if j < i else 0
                             for j in range(n)] for i in range(n)])
        t = ref.matmul(low, up)
        dense = ref.matmul(ref.matmul(t, m), ref.transpose(t))
        if all(x for row in dense for x in row):
            return blocks, dense


def _dense_item(blocks, rows) -> Item:
    def run():
        sm = seifert.SeifertMatrix(rows)
        return seifert.alexander(sm), seifert.signature(sm), seifert.knot_determinant(sm)

    def check(out):
        alex, sig, det = out
        e_alex, e_sig, e_det = {0: 1}, 0, 1
        for b in blocks:
            a, s, d = ref.genus_one_invariants(b)
            e_alex, e_sig, e_det = ref.poly_mul(e_alex, a), e_sig + s, e_det * d
        require(_coeffs(alex) == ref.normalize(e_alex), "dense Alexander polynomial")
        require(sig == e_sig, "dense signature")
        require(det == e_det, "dense knot_determinant")

    return Item(f"dense genus {len(blocks)}", run, check)


def _sequiv_cli_item(m, ell: int, band: str) -> Item:
    argv = ["sequiv", "--seifert", json.dumps([list(r) for r in m]), "--ell", str(ell),
            "--band", band, "--oracle-bound", str(CLI_ORACLE_BOUND), "--json"]

    def check(out):
        res = _cli_payload(out, argv)["result"]
        oracle = res["oracle"]
        require(oracle["agrees"] is True, "cli oracle disagrees")
        _check_decision(m, ell, band, res["twisted"], res["first_s_equivalent"],
                        res["certificate"], oracle["witness"])

    return Item(f"cli sequiv {m} ell={ell} {band}", lambda: _call_cli(argv), check)


def forms_oracle(seed: int) -> Workload:
    rng = _rng("forms_oracle", seed)
    matrices = _criterion6_matrices()
    triples = [(m, ell, band) for m in matrices for ell in range(-6, 7)
               for band in ("first", "second")]
    items = [_triple_item(*t) for t in rng.sample(triples, ORACLE_TRIPLES)]
    four_by_four = _oracle_4x4_item()
    items.append(four_by_four)
    dense = [_dense_form(rng, g) for g in DENSE_GENERA]
    items += [_dense_item(*form) for form in dense]
    # |ell| <= bound, so every positive answer has a witness in range
    for _ in range(CLI_SEQUIV_CALLS):
        items.append(_sequiv_cli_item(rng.choice(matrices), rng.randint(-CLI_ORACLE_BOUND, CLI_ORACLE_BOUND),
                                      rng.choice(("first", "second"))))
    candidates = (ORACLE_TRIPLES * (2 * ORACLE_BOUND + 1) ** 4 + 3 ** 16
                  + CLI_SEQUIV_CALLS * (2 * CLI_ORACLE_BOUND + 1) ** 4)
    # The warm-up runs the 4x4 search: its large arrays leave numpy's
    # allocator in the state every later pass sees.  Without it the first
    # pass's triples ran about 1.5x slower than the rest.
    return _shuffled(rng, items, [four_by_four, items[0], items[-1]],
                     {"items": len(items), "oracle_candidates": candidates,
                      "genus_list": [len(blocks) for blocks, _ in dense],
                      "population": len(triples)})


WORKLOADS = {"family_jones": family_jones, "wide_bracket": wide_bracket,
             "forms_oracle": forms_oracle}
