import ast
import itertools
import json
import os
import random
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotlab import diagram
from knotlab.cli import main
from knotlab.diagram import (
    PlanarDiagram,
    _SHIFTS,
    _contraction_order,
    _jones_from_bracket,
    _replay,
    add_kink,
    connect_sum,
    jones,
    jones_twist,
    kauffman_bracket,
    mirror,
    parse_pd,
    validate,
)
from knotlab.errors import KnotError
from knotlab.family import LambdaSpec, lambda_diagram
from knotlab.laurent import LaurentPoly
from knotlab.morse import MorseBuilder

from oracles import (
    convolve,
    invert,
    lambda_jones,
    naive_bracket,
    naive_contraction_order,
    naive_step,
    parse_poly_text,
    tl_bracket,
)

LEFT_TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIGURE_EIGHT = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


# ---- parsing and validation ----

def test_parse_empty_is_unknot():
    for text in ("", "   ", "PD[]"):
        d = parse_pd(text)
        assert d.crossings == ()
        assert str(d) == "unknot"


def test_parse_round_trip():
    d = parse_pd(LEFT_TREFOIL)
    assert str(d) == LEFT_TREFOIL
    assert parse_pd(str(d)) == d


def test_parse_accepts_wrappers_and_separators():
    d = parse_pd(LEFT_TREFOIL)
    assert parse_pd("PD[x[1,4,2,5], x[3,6,4,1], x[5,2,6,3]]") == d
    assert parse_pd("X[ 1 , 4 , 2 , 5 ]; X[3,6,4,1]; X[5,2,6,3]") == d


def test_parse_rejects_junk():
    with pytest.raises(KnotError):
        parse_pd("X[1,4,2,5] banana")
    with pytest.raises(KnotError):
        parse_pd("Y[1,2,3,4]")
    with pytest.raises(KnotError):
        parse_pd("X[1,2,3]")


def test_validate_arc_multiplicity():
    with pytest.raises(KnotError, match="appears"):
        parse_pd("X[1,2,3,4]")  # every arc once
    with pytest.raises(KnotError, match="appears"):
        parse_pd("X[1,1,1,2] X[2,3,3,4] X[4,5,5,6]")


def test_bracket_rejects_unvalidated_diagram():
    # the constructor checks the crossings, so no unchecked diagram
    # reaches the bracket
    with pytest.raises(KnotError, match="appears"):
        PlanarDiagram(((1, 2, 3, 4),))
    # two split kinks: every arc appears twice, but the curve is a link
    with pytest.raises(KnotError, match="component"):
        PlanarDiagram(((1, 2, 2, 1), (3, 3, 4, 4)))


def test_direct_diagram_signs_come_from_its_crossings():
    left = parse_pd(LEFT_TREFOIL)
    d = PlanarDiagram(left.crossings)
    assert d == left and d.signs == (-1, -1, -1)
    assert jones(d) == jones(parse_pd(str(d)))
    # signs cannot be given, so they cannot disagree with the crossings
    with pytest.raises(TypeError):
        PlanarDiagram(left.crossings, (1, 1, -1))


# two labels of a braid closure's code swapped: every arc appears twice
# and the strand is one oriented curve, but the slot order traces 9 faces
# where a planar code with 9 crossings has 11
NONPLANAR = ((1, 2, 4, 3), (4, 6, 5, 3), (5, 10, 8, 7), (8, 6, 9, 7), (10, 12, 11, 9),
             (11, 12, 14, 13), (14, 16, 15, 13), (15, 16, 18, 17), (17, 18, 2, 1))


def test_rejects_nonplanar_code():
    with pytest.raises(KnotError, match="not a planar diagram"):
        parse_pd(" ".join("X[%d,%d,%d,%d]" % x for x in NONPLANAR))
    with pytest.raises(KnotError, match="not a planar diagram"):
        PlanarDiagram(NONPLANAR)


def test_validate_rejects_nonpositive_labels():
    with pytest.raises(KnotError, match="positive"):
        parse_pd("X[0,1,1,2] X[2,3,3,4]")
    # labels that int() would turn into the left trefoil's code
    for first in ((1, 4.5, 2, 5), (1, "4", 2, 5), (True, 4, 2, 5)):
        with pytest.raises(KnotError, match="positive integers"):
            validate([first, (3, 6, 4, 1), (5, 2, 6, 3)])
    # a crossing, or the whole code, that is not a sequence at all
    for quads in ([1, 2, 3], [(1, 2, 3, 4), 5]):
        with pytest.raises(KnotError, match="crossing needs 4 arcs"):
            validate(quads)
    with pytest.raises(KnotError, match="crossings must be a sequence"):
        validate(5)
    # a label past the interpreter's int-conversion digit limit
    with pytest.raises(KnotError, match="arc label too long"):
        parse_pd("X[%s,1,1,2]" % ("9" * 5000))


def test_validate_rejects_two_components():
    # two strands crossing each other twice and closing up separately
    with pytest.raises(KnotError, match="component"):
        parse_pd("X[1,4,2,3] X[2,3,1,4]")


def test_validate_rejects_unorientable():
    # arc 1 enters both crossings as the under-strand
    with pytest.raises(KnotError, match="orientation"):
        parse_pd("X[1,3,2,4] X[1,4,2,3]")


def test_signs_and_writhe():
    left = parse_pd(LEFT_TREFOIL)
    assert left.signs == (-1, -1, -1)
    assert left.writhe() == -3
    assert parse_pd(FIGURE_EIGHT).writhe() == 0
    assert parse_pd("X[1,1,2,2]").writhe() == 1
    assert parse_pd("X[1,2,2,1]").writhe() == -1


# ---- bracket and Jones values ----

def test_unknot_polynomials():
    d = parse_pd("")
    assert kauffman_bracket(d) == LaurentPoly.one()
    assert jones(d) == LaurentPoly.one()


def test_kink_brackets():
    assert kauffman_bracket(parse_pd("X[1,1,2,2]")) == LaurentPoly.term(-1, 3)
    assert kauffman_bracket(parse_pd("X[1,2,2,1]")) == LaurentPoly.term(-1, -3)
    assert jones(parse_pd("X[1,1,2,2]")) == LaurentPoly.one()
    assert jones(parse_pd("X[1,2,2,1]")) == LaurentPoly.one()


def test_trefoil_jones():
    left = parse_pd(LEFT_TREFOIL)
    assert dict(jones(left).items()) == parse_poly_text("-t^-4 + t^-3 + t^-1")
    assert dict(jones(mirror(left)).items()) == parse_poly_text("t + t^3 - t^4")


def test_figure_eight_jones():
    d = parse_pd(FIGURE_EIGHT)
    expected = LaurentPoly(parse_poly_text("t^-2 - t^-1 + 1 - t + t^2"))
    assert jones(d) == expected
    # amphichiral: the mirror has the same Jones polynomial
    assert jones(mirror(d)) == expected


def test_bracket_exponents_are_3w_mod_4():
    # what makes V a polynomial in t = A^-4 after the writhe normalization
    for text in (LEFT_TREFOIL, FIGURE_EIGHT):
        d = parse_pd(text)
        w = d.writhe()
        assert all((e - 3 * w) % 4 == 0 for e, _ in kauffman_bracket(d).items())


def test_bracket_fault_is_an_internal_error(monkeypatch):
    # a bracket off by A^2 is the sweep's fault, not the input's: jones()
    # and the jones command both raise AssertionError, never KnotError
    sweep = diagram.kauffman_bracket
    monkeypatch.setattr(diagram, "kauffman_bracket", lambda d: sweep(d) * LaurentPoly.term(1, 2))
    with pytest.raises(AssertionError, match="^jones: "):
        jones(parse_pd(LEFT_TREFOIL))
    with pytest.raises(AssertionError, match="^jones: "):
        main(["jones", "--pd", LEFT_TREFOIL])


@pytest.mark.parametrize("text, fails", [
    ("-t^-2 - t^-1 - 1 - t - t^2", "V(1) = 1"),
    ("-1 - t^2 + t^3 + t^5 + t^6", "V'(1) = 0"),
    ("t^2 + t^4 - t^6", "V(e^(2 pi i/3)) = 1"),
    ("t^2 + t^3 - t^5", "V(i) = (-1)^Arf"),  # V(i) is not real
    ("-2 + 3t + 3t^3 - 3t^4", "V(i) = (-1)^Arf"),  # V(i) = -5
])
def test_each_jones_identity_is_checked(text, fails):
    # each V fails exactly one of the four identities; read off a bracket
    # of writhe 0, whose A^(-4k) is t^k
    v = LaurentPoly(parse_poly_text(text))
    with pytest.raises(AssertionError, match=rf"^jones: V\(t\) fails {re.escape(fails)}$"):
        _jones_from_bracket(LaurentPoly({-4 * k: c for k, c in v.items()}), 0)


@pytest.mark.parametrize("corrupt, fails", [
    # one coefficient off by 1: V(1) = 2 or 0
    (lambda n, radix: n + 1, "V(1) = 1"),
    # a unit moved from the lowest coefficient to the next keeps V(1) = 1
    (lambda n, radix: n - 1 + (1 << radix), "V'(1) = 0"),
])
def test_jones_identities_catch_a_corrupted_sweep(monkeypatch, corrupt, fails):
    # the last step of the sweep hands back its one state with its
    # coefficients altered; the exponents stay right, so only the
    # identities V is checked against can see it
    d = lambda_diagram(LambdaSpec(2, -2, 5))
    expected = jones(d)
    replay, steps = diagram._replay, []

    def corrupting_replay(program, los, packs, shifts, radix):
        los, packs, digits, dropped = replay(program, los, packs, shifts, radix)
        steps.append(None)
        if len(steps) == len(d.crossings):
            packs = [corrupt(packs[0], radix)]
        return los, packs, digits, dropped

    monkeypatch.setattr(diagram, "_replay", corrupting_replay)
    with pytest.raises(AssertionError, match=rf"^jones: V\(t\) fails .*{re.escape(fails)}"):
        jones(d)
    steps.clear()
    with pytest.raises(AssertionError, match=rf"^jones: V\(t\) fails .*{re.escape(fails)}"):
        main(["jones", "--pd", str(d)])
    monkeypatch.setattr(diagram, "_replay", replay)
    assert jones(d) == expected


# ---- contraction agrees with the brute-force state sum ----

def _small_diagrams():
    left = parse_pd(LEFT_TREFOIL)
    fig8 = parse_pd(FIGURE_EIGHT)
    out = [
        parse_pd("X[1,1,2,2]"),
        parse_pd("X[1,2,2,1]"),
        left,
        mirror(left),
        fig8,
        add_kink(left, 4, 1),
        add_kink(fig8, 7, -1),
        connect_sum(left, 1, mirror(left), 1),
        connect_sum(left, 2, left, 5),
        # the closure of _knotted(3, [(1,-1),(0,1),(0,1),(1,1),(1,1),(1,1)],
        # [1,1]): two partial states meet and cancel to zero in its sweep
        parse_pd("X[2,3,5,4] X[4,7,6,1] X[7,9,8,6] X[5,11,10,9] X[11,13,12,10] "
                 "X[13,15,14,12] X[14,16,1,8] X[15,3,2,16]"),
    ]
    # every two-kink unknot
    for s1 in (1, -1):
        for s2 in (1, -1):
            base = parse_pd("X[1,1,2,2]" if s1 > 0 else "X[1,2,2,1]")
            out.append(add_kink(base, 2, s2))
    return out


def test_bracket_matches_naive_state_sum():
    for d in _small_diagrams():
        assert dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings), str(d)


def test_bracket_is_independent_of_the_cut():
    # the sweep cuts the knot open at its last crossing, so rotating the
    # crossing list moves the cut
    for d in _small_diagrams():
        expected = naive_bracket(d.crossings)
        for k in range(1, len(d.crossings)):
            rotated = validate(d.crossings[k:] + d.crossings[:k])
            assert dict(kauffman_bracket(rotated).items()) == expected, (str(d), k)


def _packed(coeffs, radix=64):
    """The int holding ``coeffs`` (lowest first) in base-2^radix digits."""
    return sum(c << (radix * k) for k, c in enumerate(coeffs))


def _sum(*feeds, radix=64):
    """Replay one successor fed by one state per ``(exponent, packed)``
    pair, each through its A-smoothing with no loops on an even turn,
    which adds 1 to the exponent: the successor's (exponent, packed,
    digits), or None when its sum is 0 and it is dropped."""
    program = tuple(16 * i for i in range(len(feeds) - 1)) + (16 * len(feeds) - 15,)
    los, packs, digits, dropped = _replay(program, [e - 1 for e, _ in feeds],
                                          [n for _, n in feeds], _SHIFTS[0], radix)
    if dropped:
        assert (los, packs, digits, dropped) == ([], [], 0, [0])
        return None
    return los[0], packs[0], digits


def test_replay_aligns_trims_and_drops():
    # 1 + A^4 plus -1 + 2A^8: the A^0 terms cancel, so the low end is trimmed
    assert _sum((0, _packed([1, 1])), (0, _packed([-1, 0, 2]))) == (4, _packed([1, 2]), 2)
    # aligned by the lower exponent, whichever side has it; the top end cancels
    assert _sum((4, _packed([3])), (-4, _packed([1, 0, -3]))) == (-4, 1, 1)
    assert _sum((-4, _packed([1, 0, -3])), (4, _packed([3]))) == (-4, 1, 1)
    # several low digits cancel at once, and negative digits borrow
    assert _sum((0, _packed([1, 2, 3, -1])), (0, _packed([-1, -2, -3, 0, 7]))) \
        == (12, _packed([-1, 7]), 2)
    assert _sum((0, _packed([-5, 1], 8)), (4, _packed([-1], 8)), radix=8) == (0, -5, 1)
    # a sum of zero is dropped
    assert _sum((2, _packed([5, -1])), (2, _packed([-5, 1]))) is None
    # a sum that cancels to 0 partway starts again from the next feed
    assert _sum((0, 1), (0, -1), (8, 5)) == (8, 5, 1)
    with pytest.raises(AssertionError, match="mod 4"):
        _sum((0, 1), (2, 1))
    with pytest.raises(AssertionError, match="mod 4"):
        _sum((-6, 1), (0, 1))
    # on an odd turn the B-smoothing adds 1; each loop multiplies by
    # delta = -A^-2 - A^2.  Successor 0 is fed by state 1 closing one
    # loop and successor 1 by state 0 closing two, so the first comes
    # out -A^-1 (1 + A^4) and the second A^-3 (1 + 2A^4 + A^8)
    program = (16 + 8 + 2 + 1, 8 + 4 + 1)
    assert _replay(program, [0, 0], [1, 1], _SHIFTS[1], 64) \
        == ([-1, -3], [_packed([-1, -1]), _packed([1, 2, 1])], 5, [])


def _cycle(strands, word, start):
    """The strands on the same component of the braid closure as
    strand ``start``."""
    perm = list(range(strands))
    for g, _ in word:
        perm[g], perm[g + 1] = perm[g + 1], perm[g]
    seen, i = {start}, perm[start]
    while i != start:
        seen.add(i)
        i = perm[i]
    return seen


def _knotted(strands, word, signs):
    """The word followed by a letter sigma_g, with sign signs[g], for each
    g whose strands g and g+1 still close to different components; each
    such letter joins two components, so the closure is a knot."""
    word = list(word)
    for g in range(strands - 1):
        if g + 1 not in _cycle(strands, word, g):
            word.append((g, signs[g]))
    return word


def _braid_builder(strands, word):
    """The Morse program of the closure of a braid word of (generator,
    sign) letters, built from nested caps and cups."""
    b = MorseBuilder()
    for i in range(strands):
        b.cap(i)
    for g, sign in word:
        b.crossing(g, "L" if sign > 0 else "R")
    for i in reversed(range(strands)):
        b.cup(i)
    return b


def _braid_closure(strands, word):
    return validate(_braid_builder(strands, word).to_pd())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signs_match_morse_orientation(data):
    # MorseBuilder solves orientations with a union-find over its caps'
    # orientation bits, sharing no code with the strand walk in validate
    strands = data.draw(st.integers(2, 7))
    sign = st.sampled_from((1, -1))
    letter = st.tuples(st.integers(0, strands - 2), sign)
    word = data.draw(st.lists(letter, max_size=30))
    signs = data.draw(st.lists(sign, min_size=strands - 1, max_size=strands - 1))
    b = _braid_builder(strands, _knotted(strands, word, signs))
    quads = b.to_pd()
    expected = tuple(sign for _, sign, _ in b.finish())
    assert validate(quads).signs == expected
    # the walk starts at crossing 0, wherever that sits on the strand
    order = data.draw(st.permutations(range(len(quads))))
    shuffled = validate([quads[i] for i in order])
    assert shuffled.signs == tuple(expected[i] for i in order)


def test_long_over_bridge(tmp_path, capsys):
    # the closure of sigma_1 ... sigma_599, every letter over from the
    # left: an unknot whose one over-bridge passes 599 crossings
    d = _braid_closure(600, [(g, 1) for g in range(599)])
    assert parse_pd(str(d)).writhe() == 599
    assert jones(d) == LaurentPoly.one()
    path = tmp_path / "bridge600.pd"
    path.write_text(str(d))
    assert main(["jones", "--pd", f"@{path}"]) == 0
    captured = capsys.readouterr()
    assert "jones (t): 1\n" in captured.out
    assert captured.err == ""


def _draw_braid_knot(data, max_crossings):
    """A knotted closure of a 3-5-strand braid with at most
    ``max_crossings`` crossings."""
    strands = data.draw(st.integers(3, 5))
    sign = st.sampled_from((1, -1))
    letter = st.tuples(st.integers(0, strands - 2), sign)
    # _knotted adds at most strands - 1 joining letters
    word = data.draw(st.lists(letter, max_size=max_crossings + 1 - strands))
    signs = data.draw(st.lists(sign, min_size=strands - 1, max_size=strands - 1))
    return _braid_closure(strands, _knotted(strands, word, signs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_matches_naive_on_braid_closures(data):
    d = _draw_braid_knot(data, 12)
    kink = data.draw(st.sampled_from(("none", "cut", "any")))
    if kink != "none":
        # the sweep cuts open the arc at slot 0 of the last crossing in
        # its order
        if kink == "cut":
            arc = d.crossings[_contraction_order(d._mate)[-1]][0]
        else:
            arc = data.draw(st.sampled_from(d.arcs))
        d = add_kink(d, arc, data.draw(st.sampled_from((1, -1))))
    assert dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings), str(d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_matches_temperley_lieb_trace(data):
    # closures on up to 7 strands with up to 40 crossings hold over a
    # hundred partial states a step, past what the state sum can check;
    # the trace in TL_n shares no code with the sweep
    strands = data.draw(st.integers(2, 7))
    sign = st.sampled_from((1, -1))
    letter = st.tuples(st.integers(0, strands - 2), sign)
    word = data.draw(st.lists(letter, min_size=strands, max_size=41 - strands))
    signs = data.draw(st.lists(sign, min_size=strands - 1, max_size=strands - 1))
    word = _knotted(strands, word, signs)
    d = _braid_closure(strands, word)
    expected = tl_bracket(strands, [(g, "L" if s > 0 else "R") for g, s in word])
    assert dict(kauffman_bracket(d).items()) == expected, str(d)
    # a curl of sign s multiplies the bracket by -A^(3s)
    curl = data.draw(st.sampled_from((0, 1, -1)))
    if curl:
        kinked = add_kink(d, data.draw(st.sampled_from(d.arcs)), curl)
        assert dict(kauffman_bracket(kinked).items()) == convolve({3 * curl: -1}, expected), \
            str(kinked)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_swapped_labels_are_rejected_or_exact(data):
    # swapping two entries keeps every label appearing twice; the result
    # may be a link, unorientable or not planar, and validate must say
    # so, or else the sweep must agree with the state sum
    flat = [a for x in _draw_braid_knot(data, 11).crossings for a in x]
    i, j = data.draw(st.lists(st.integers(0, len(flat) - 1), min_size=2, max_size=2, unique=True))
    flat[i], flat[j] = flat[j], flat[i]
    quads = [flat[k:k + 4] for k in range(0, len(flat), 4)]
    try:
        d = validate(quads)
    except KnotError:
        return
    assert dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings), str(d)


def test_cut_keeps_the_sweep_narrow(monkeypatch):
    # the closure of (sigma_1 ... sigma_7)^5, every letter over from the
    # left: the positive torus knot T(8,5).  A merge is a feed of a
    # replayed step that is not its successor's first.  The sweep makes
    # 1,035, 27 of which start a sum again after it cancelled to 0; cut
    # open beside its first crossing it made about four times as many.
    d = _braid_closure(8, [(k % 7, 1) for k in range(35)])
    merges = []
    replay = diagram._replay

    def counted(program, *args):
        out = replay(program, *args)
        los, _, _, dropped = out
        merges.append(len(program) - len(los) - len(dropped))
        return out

    monkeypatch.setattr(diagram, "_replay", counted)
    v = jones(d)
    assert 0 < sum(merges) < 1500
    # Jones of T(p,q) is t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    assert LaurentPoly({0: 1, 2: -1}) * v == LaurentPoly({14: 1, 20: -1, 23: -1, 27: 1})


def test_narrow_radix_renormalises_and_widens(monkeypatch):
    # lambda(0, 0, p) has coefficients up to p - 1, so these need more
    # than an 8-bit digit
    items = [lambda_diagram(LambdaSpec(0, 0, 131)), lambda_diagram(LambdaSpec(2, -4, -133))]
    expected = [kauffman_bracket(d) for d in items]
    assert all(max(abs(c) for _, c in b.items()) > 2 ** 7 for b in expected)
    rng = random.Random(3)
    closures = []
    for strands in (3, 4, 5):
        word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(9)]
        closures.append(_braid_closure(strands, _knotted(strands, word, [1] * (strands - 1))))
    closures.append(add_kink(closures[0], closures[0].arcs[0], -1))
    widths = []
    repack = diagram._repack

    def recorded(packs, radix):
        wide, bound = repack(packs, radix)
        widths.append((radix, wide))
        return wide, bound

    monkeypatch.setattr(diagram, "_RADIX", 8)
    monkeypatch.setattr(diagram, "_repack", recorded)
    for d, b in zip(items, expected):
        assert kauffman_bracket(d) == b, str(d)
    for d in closures:
        assert dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings), str(d)
    # renormalised at one width and widened from 8
    assert any(radix == wide for radix, wide in widths)
    assert (8, 16) in widths and any(wide > 16 for _, wide in widths)


def _empty_memo(monkeypatch):
    """Give this test an empty memo of compiled steps; the process's own
    memo comes back when the test ends."""
    monkeypatch.setattr(diagram, "_STEPS", {})
    monkeypatch.setattr(diagram, "_SETS", {})
    monkeypatch.setattr(diagram, "_memo_ints", 0)


def _memo_contents_ints():
    """The ints the memo holds, counted as the sweep charges them."""
    return sum(2 * len(nxt.states[0]) * len(states.states)
               for (states, _), (nxt, _, _) in diagram._STEPS.items())


def _check_memo():
    """The memo's count is what it holds, and every state set it names,
    as a key or as a successor, is the one ``_SETS`` keeps for its
    states."""
    assert diagram._memo_ints == _memo_contents_ints()
    for (states, _), (nxt, _, _) in diagram._STEPS.items():
        assert diagram._SETS[states.states] is states
        assert diagram._SETS[nxt.states] is nxt


def _count_table(monkeypatch):
    """Empty the memo, then count the steps the sweep compiles (each a
    (state set, shape) pair neither the call nor the memo had), with the
    shape key of each."""
    _empty_memo(monkeypatch)
    counts = {"compiled": 0, "keys": []}
    compile_ = diagram._compile

    def counting_compile(key, states):
        counts["compiled"] += 1
        counts["keys"].append(key)
        return compile_(key, states)

    monkeypatch.setattr(diagram, "_compile", counting_compile)
    return counts


def test_bracket_table_works_out_few_transitions(monkeypatch):
    # within one sweep the whole state set repeats from crossing to
    # crossing, and a step is compiled once per (state set, shape) pair:
    # cold, lambda(4, 2, 35) compiles 16 steps for its 146 crossings and
    # lambda(0, 0, 1001) 10 for its 4,004
    for spec, crossings in ((LambdaSpec(4, 2, 35), 146), (LambdaSpec(0, 0, 1001), 4004)):
        d = lambda_diagram(spec)
        assert len(d.crossings) == crossings
        expected = kauffman_bracket(d)
        counts = _count_table(monkeypatch)
        assert kauffman_bracket(d) == expected
        assert 0 < counts["compiled"] <= 20, (spec, counts["compiled"])


def test_bracket_table_serves_both_turns_and_signs(monkeypatch):
    # sigma_1 with alternating signs: a positive and a negative crossing
    # on the same two strands have one shape turned by one slot, so one
    # table entry serves both, with the A- and B-smoothings swapped
    counts = _count_table(monkeypatch)
    word = _knotted(3, [(0, (-1) ** k) for k in range(7)], [1, 1])
    d = _braid_closure(3, word)
    assert {1, -1} <= set(d.signs)
    assert dict(kauffman_bracket(d).items()) == naive_bracket(d.crossings), str(d)
    assert counts["compiled"] < len(d.crossings)
    # a curl of either sign on every arc: each curl is a slot tied to a
    # slot of its own crossing, met in every turn
    small = _braid_closure(3, _knotted(3, [(0, 1), (1, -1), (0, 1)], [1, 1]))
    for arc in small.arcs:
        for sign in (1, -1):
            kinked = add_kink(small, arc, sign)
            assert dict(kauffman_bracket(kinked).items()) == naive_bracket(kinked.crossings), \
                (arc, sign)


def test_contraction_order_matches_naive_rescan():
    ps = [sign * p for p in range(3, 37, 2) for sign in (1, -1)]
    specs = [LambdaSpec(n, m, p) for p in ps for n, m in ((0, 0), (8, -8), (-2, 6))]
    # every split with |n|, |m| <= 8, zeros included, at a small and a large |p|
    splits = itertools.product(range(-8, 9, 2), repeat=2)
    specs += [LambdaSpec(n, m, -35 if k % 2 else 3) for k, (n, m) in enumerate(splits)]
    diagrams = [lambda_diagram(spec) for spec in specs]
    rng = random.Random(5)
    for strands in range(5, 10):
        signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
        for sweeps in range(2, 7):
            word = [(k % (strands - 1), rng.choice((1, -1))) for k in range((strands - 1) * sweeps)]
            diagrams.append(_braid_closure(strands, _knotted(strands, word, signs)))
        for _ in range(3):
            word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(8 * strands)]
            diagrams.append(_braid_closure(strands, _knotted(strands, word, signs)))
    # curls, the one slot whose mate is a slot of its own crossing: each
    # sign on a few arcs, and a second curl on the first one's loop
    for d in [d for d in diagrams if len(d.crossings) <= 60][::6]:
        for arc in (d.arcs[0], d.arcs[len(d.arcs) // 2], d.arcs[-1]):
            for sign in (1, -1):
                kinked = add_kink(d, arc, sign)
                diagrams += [kinked, add_kink(kinked, max(kinked.arcs), -sign)]
    for d in diagrams:
        assert _contraction_order(d._mate) == naive_contraction_order(d.crossings), str(d)


def test_every_lambda_sweeps_at_five_states(monkeypatch):
    # the order that lets a twist region or the cable finish the strands
    # it has started holds every lambda(n, m, p) of this grid to 5
    # partial states; the lowest-index order alone held 720 of them at 13.
    # Every V the grid sweeps is the family's closed form.
    peak = {"states": 0}
    replay = diagram._replay

    def counting_replay(program, los, packs, shifts, radix):
        out = replay(program, los, packs, shifts, radix)
        peak["states"] = max(peak["states"], len(out[0]))
        return out

    monkeypatch.setattr(diagram, "_replay", counting_replay)
    ps = (3, -3, 5, -5, 7, 9, -11, 21, -23, 35, -37)
    for n, m in itertools.product(range(-8, 9, 2), repeat=2):
        for p in ps:
            peak["states"] = 0
            v = jones(lambda_diagram(LambdaSpec(n, m, p)))
            assert peak["states"] == 5, (n, m, p, peak["states"])
            assert dict(v.items()) == lambda_jones(n, m, p), (n, m, p)


# ---- Reidemeister I and mirror behaviour ----

def test_kink_leaves_jones_alone():
    for text in (LEFT_TREFOIL, FIGURE_EIGHT):
        d = parse_pd(text)
        v = jones(d)
        for arc in d.arcs:
            for sign in (1, -1):
                kinked = add_kink(d, arc, sign)
                assert kinked.writhe() == d.writhe() + sign
                assert len(kinked.crossings) == len(d.crossings) + 1
                assert jones(kinked) == v, (text, arc, sign)


def test_mirror_inverts_jones():
    for d in _small_diagrams():
        assert dict(jones(mirror(d)).items()) == invert(dict(jones(d).items())), str(d)


def test_mirror_is_an_involution():
    for d in _small_diagrams():
        back = mirror(mirror(d))
        assert back.crossings == d.crossings
        assert back.signs == d.signs
    assert mirror(parse_pd("")).crossings == ()


def test_mirror_flips_writhe():
    for d in _small_diagrams():
        assert mirror(d).writhe() == -d.writhe()


# ---- surgery ----

def test_add_kink_rejects_bad_input():
    d = parse_pd(LEFT_TREFOIL)
    with pytest.raises(KnotError):
        add_kink(d, 1, 0)
    with pytest.raises(KnotError, match=r"^pd: unknown arc 99$"):
        add_kink(d, 99, 1)
    with pytest.raises(KnotError):
        add_kink(parse_pd(""), 1, 1)
    # a bool or a float is not taken as the int it equals
    for sign in (True, 1.0):
        with pytest.raises(KnotError, match=rf"^kink sign must be an int, got {sign}$"):
            add_kink(d, 1, sign)
    with pytest.raises(KnotError, match=r"^pd: unknown arc 1\.0$"):
        add_kink(d, 1.0, 1)


def test_connect_sum_unknot_identity():
    d = parse_pd(LEFT_TREFOIL)
    e = parse_pd("")
    assert connect_sum(d, 1, e, None) == d
    assert connect_sum(e, None, d, 1) == d


def test_connect_sum_rejects_bad_arcs():
    d = parse_pd(LEFT_TREFOIL)
    with pytest.raises(KnotError):
        connect_sum(d, None, d, 1)
    with pytest.raises(KnotError, match=r"^pd: unknown arc 99$"):
        connect_sum(d, 1, d, 99)
    with pytest.raises(KnotError, match=r"^pd: unknown arc 99$"):
        connect_sum(d, 99, d, 1)
    # refused before d2's labels are shifted, where "x" + offset would
    # raise TypeError
    with pytest.raises(KnotError, match=r"^pd: unknown arc 'x'$"):
        connect_sum(d, 1, d, "x")
    # an arc equal to an int but not an int is unknown too
    with pytest.raises(KnotError, match=r"^pd: unknown arc True$"):
        connect_sum(d, True, d, 1)
    with pytest.raises(KnotError, match=r"^pd: unknown arc 2\.0$"):
        connect_sum(d, 1, d, 2.0)


def test_connect_sum_jones_is_multiplicative():
    left = parse_pd(LEFT_TREFOIL)
    fig8 = parse_pd(FIGURE_EIGHT)
    for a in (1, 4):
        for b in (2, 7):
            summed = connect_sum(left, a, fig8, b)
            assert len(summed.crossings) == 7
            assert jones(summed) == jones(left) * jones(fig8), (a, b)
    square = connect_sum(left, 1, left, 1)
    assert jones(square) == jones(left) * jones(left)


def test_jones_twist_algebra():
    v = jones(parse_pd(LEFT_TREFOIL))
    assert jones_twist(v, 0) == v
    assert jones_twist(LaurentPoly.one(), 5) == LaurentPoly.one()
    for a in (-2, 1, 3):
        for b in (-1, 2):
            assert jones_twist(jones_twist(v, a), b) == jones_twist(v, a + b)


# ---- sweep limit ----

def test_sweep_limit_refuses_with_the_count(tmp_path, monkeypatch, capsys):
    # the all-"L" 8-strand, 5-sweep closure holds 32,578 partial-state and
    # step ints over its sweep
    d = _braid_closure(8, [(k % 7, 1) for k in range(35)])
    monkeypatch.setattr(diagram, "SWEEP_LIMIT", 10_000)
    with pytest.raises(KnotError, match=r"sweep work reached \d+ .*limit of 10000") as exc:
        kauffman_bracket(d)
    reached = int(re.search(r"reached (\d+)", str(exc.value))[1])
    assert 10_000 < reached < 30_000
    path = tmp_path / "torus.pd"
    path.write_text(str(d))
    assert main(["jones", "--pd", f"@{path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sweep work" in err
    assert "Traceback" not in err


def test_sweep_limit_pins_the_work_count(monkeypatch):
    # lambda(-2, -6, -121), 492 crossings, holds exactly 218,765
    # partial-state and step ints over its sweep, and the all-"L"
    # 8-strand, 5-sweep closure 32,578, whether the memo of compiled
    # steps starts empty or already holds every step.  A step is charged
    # for each of its states, so a state met in two sets of one shape is
    # charged in each
    _empty_memo(monkeypatch)
    cases = [(lambda_diagram(LambdaSpec(-2, -6, -121)), 218_765),
             (_braid_closure(8, [(k % 7, 1) for k in range(35)]), 32_578)]
    for memo in ("empty", "full"):
        for d, work in cases:
            monkeypatch.setattr(diagram, "SWEEP_LIMIT", work - 1)
            with pytest.raises(KnotError, match=f"sweep work reached {work} "):
                kauffman_bracket(d)
            monkeypatch.setattr(diagram, "SWEEP_LIMIT", work)
            assert kauffman_bracket(d), memo


# ---- the memo of compiled steps ----

def test_memo_serves_later_sweeps(monkeypatch):
    # T(8, 5) compiles 23 steps cold, and the shapes of those steps are
    # every shape it meets
    counts = _count_table(monkeypatch)
    d = _braid_closure(8, [(k % 7, 1) for k in range(35)])
    expected = kauffman_bracket(d)
    assert counts["compiled"] == 23
    met = set(counts["keys"])
    # the same diagram again: every step comes from the memo
    assert kauffman_bracket(d) == expected
    assert counts["compiled"] == 23
    # the mirror turns each crossing by one slot, which its shape key
    # absorbs, but its cut sits on another arc of the last crossing, so
    # 12 steps are new; swept again it too compiles nothing
    m = mirror(d)
    flipped = LaurentPoly({-e: c for e, c in expected.items()})
    assert kauffman_bracket(m) == flipped
    assert counts["compiled"] == 23 + 12
    assert kauffman_bracket(m) == flipped
    assert counts["compiled"] == 23 + 12
    # a curl on arc 1, far from the cut, compiles only steps of shapes
    # that d never met
    for sign in (1, -1):
        kinked = add_kink(d, 1, sign)
        del counts["keys"][:]
        assert jones(kinked) == jones(d)
        assert counts["keys"] and not met & set(counts["keys"]), sign


def _golden_closures():
    """The braid closures of morse_golden.json, each made a knot."""
    golden = json.loads(Path(__file__).with_name("morse_golden.json").read_text())
    diagrams = []
    for label in golden:
        if label.startswith("braid "):
            _, strands, word = label.split(" ", 2)
            strands = int(strands)
            diagrams.append(_braid_closure(strands, _knotted(strands, ast.literal_eval(word),
                                                             [1] * (strands - 1))))
    assert len(diagrams) == 35
    return diagrams


def _lambda_grid():
    return [lambda_diagram(LambdaSpec(n, m, p))
            for n in (-4, 0, 2) for m in (-2, 0, 6) for p in (-7, 3, 5)]


def test_memo_leaves_answers_alone(monkeypatch):
    # the braid closures of morse_golden.json, each made a knot, and a
    # lambda grid: every bracket comes out the same swept with the memo
    # emptied before the call and with every step already in the memo,
    # and matches the state sum where the diagram is small.  Some of
    # these sweeps drop a successor whose sum cancels to 0.
    diagrams = _golden_closures() + _lambda_grid()
    cold = []
    for d in diagrams:
        _empty_memo(monkeypatch)
        cold.append(kauffman_bracket(d))
    _empty_memo(monkeypatch)
    for d in diagrams:
        kauffman_bracket(d)
    zeros, sets = [], []
    replay, state_set = diagram._replay, diagram._state_set

    def counted(*args):
        out = replay(*args)
        zeros.append(bool(out[3]))
        return out

    def recorded(states):
        sets.append(states)
        return state_set(states)

    monkeypatch.setattr(diagram, "_replay", counted)
    monkeypatch.setattr(diagram, "_state_set", recorded)
    for d, b in zip(diagrams, cold):
        assert kauffman_bracket(d) == b, str(d)
        if len(d.crossings) <= 12:
            assert dict(b.items()) == naive_bracket(d.crossings), str(d)
    # with every step in the memo, a sweep looks a set up only to start,
    # and after a crossing where a successor's sum ended at 0
    assert any(zeros)
    assert len(sets) > len(diagrams)


def test_compiled_steps_match_the_state_oracle(monkeypatch):
    # every step compiled from an empty memo while sweeping the golden
    # braid closures, each also with a curl of either sign, and the
    # lambda grid.  Decoded, a program feeds each (state, smoothing)
    # once, to the successor and with the loop count that a union-find
    # over the crossing's slots gives, a successor's feeds in order
    _empty_memo(monkeypatch)
    steps = []
    compile_ = diagram._compile

    def recorded(key, states):
        step = compile_(key, states)
        steps.append((key, states, step))
        return step

    monkeypatch.setattr(diagram, "_compile", recorded)
    diagrams = _lambda_grid()
    for d in _golden_closures():
        diagrams += [d, add_kink(d, 1, 1), add_kink(d, 1, -1)]
    for d in diagrams:
        kauffman_bracket(d)
    # 175 steps, with curls, and with feeds that close two loops
    assert any(k < 0 for key, _, _ in steps for k in key)
    assert any(code & 6 == 4 for _, _, (_, _, program) in steps for code in program)
    assert len(steps) > 150
    for key, states, (nxt, growth, program) in steps:
        assert list(nxt) == sorted(set(nxt)), key
        fed, successor, previous = {}, 0, -1
        for code in program:
            assert code >> 3 > previous, key
            fed[code >> 4, code >> 3 & 1] = nxt[successor], code >> 1 & 3
            previous = -1 if code & 1 else code >> 3
            successor += code & 1
        assert successor == len(nxt) and len(fed) == len(program), key
        expected = {(i, smoothing): naive_step(key, state, smoothing)
                    for i, state in enumerate(states) for smoothing in (0, 1)}
        assert fed == expected, key
        assert growth == max((1 << expected[i, 0][1]) + (1 << expected[i, 1][1])
                             for i in range(len(states))), key


def test_memo_stays_within_the_sweep_limit(monkeypatch):
    # braid closures and lambda diagrams, some refused; the limit is low
    # enough that the memo is emptied along the way
    _empty_memo(monkeypatch)
    monkeypatch.setattr(diagram, "SWEEP_LIMIT", 1_000)
    rng = random.Random(5)
    items = [lambda_diagram(LambdaSpec(n, m, p)) for n, m, p in
             ((0, 0, 3), (2, -2, 3), (-4, 2, -3), (2, 0, 5))]
    for strands in (3, 4, 5, 6):
        for _ in range(3):
            word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(8)]
            items.append(_braid_closure(strands, _knotted(strands, word, [1] * (strands - 1))))
    rng.shuffle(items)
    refused = emptied = 0
    for d in items:
        before = diagram._memo_ints
        try:
            b = kauffman_bracket(d)
        except KnotError:
            refused += 1
        else:
            assert dict(b.items()) == naive_bracket(d.crossings), str(d)
        emptied += diagram._memo_ints < before
        assert diagram._memo_ints <= diagram.SWEEP_LIMIT
        _check_memo()
    assert refused and emptied and len(items) - refused > 8


def test_threads_share_the_memo(monkeypatch):
    # more threads than cores sweep at once, with thread switches forced
    # often; a lost update would leave the memo's count off what it holds
    _empty_memo(monkeypatch)
    monkeypatch.setattr(diagram, "SWEEP_LIMIT", 6_000)
    rng = random.Random(8)
    items = []
    for strands in (3, 4, 5):
        for _ in range(4):
            word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(7)]
            items.append(_braid_closure(strands, _knotted(strands, word, [1] * (strands - 1))))
    expected = [naive_bracket(d.crossings) for d in items]
    failures = []

    def sweep(k):
        try:
            for _ in range(20):
                for d, b in zip(items[k::2], expected[k::2]):
                    if dict(kauffman_bracket(d).items()) != b:
                        failures.append(str(d))
        except Exception as e:  # reported below, with the thread's input
            failures.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(k % 2,))
                   for k in range((os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert 0 < diagram._memo_ints <= diagram.SWEEP_LIMIT
    _check_memo()


def test_diagram_is_frozen():
    d = parse_pd(LEFT_TREFOIL)
    with pytest.raises(Exception):
        d.crossings = ()
    assert isinstance(d, PlanarDiagram)
