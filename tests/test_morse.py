import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotlab.diagram import jones, mirror, parse_pd, validate
from knotlab.errors import KnotError
from knotlab.family import LambdaSpec, lambda_diagram, seifert_by_linking
from knotlab import family
from knotlab.morse import MorseBuilder, _Sets

from oracles import parse_poly_text


def plat_trefoil(over: str) -> MorseBuilder:
    """Two bridges, three half twists between the middle strands."""
    b = MorseBuilder()
    b.cap(0)
    b.cap(2)
    for _ in range(3):
        b.crossing(1, over)
    b.cup(0)
    b.cup(0)
    return b


def hopf(over: str, flow2: str = "lr") -> MorseBuilder:
    b = MorseBuilder()
    b.cap(0, flow="lr", label="a")
    b.cap(2, flow=flow2, label="b")
    b.crossing(1, over)
    b.crossing(1, over)
    b.cup(0)
    b.cup(0)
    return b


# ---- building knots ----

def test_plat_trefoil_pd_is_valid():
    quads = plat_trefoil("L").to_pd()
    d = validate(quads)
    assert len(d.crossings) == 3
    assert set(d.arcs) == set(range(1, 7))


def test_plat_trefoil_chirality():
    right = validate(plat_trefoil("L").to_pd())
    left = validate(plat_trefoil("R").to_pd())
    assert right.writhe() == 3
    assert left.writhe() == -3
    assert dict(jones(right).items()) == parse_poly_text("t + t^3 - t^4")
    assert dict(jones(left).items()) == parse_poly_text("-t^-4 + t^-3 + t^-1")
    assert jones(mirror(right)) == jones(left)


def test_long_cup_chain():
    # 1,200 caps closed by sigma_1 ... sigma_1199: the cups tie every
    # orientation bit into one long union-find chain
    b = MorseBuilder()
    for i in range(1200):
        b.cap(i)
    for g in range(1199):
        b.crossing(g, "L")
    for i in reversed(range(1200)):
        b.cup(i)
    d = validate(b.to_pd())
    assert len(d.crossings) == 1199


def _relations(edges, start):
    """Each bit joined to start by the accepted relations, with its parity
    relative to start, by graph search."""
    rel, todo = {start: 0}, [start]
    while todo:
        u = todo.pop()
        for w, p in edges[u]:
            if w not in rel:
                rel[w] = rel[u] ^ p
                todo.append(w)
    return rel


_UNIONS = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.integers(0, 1)), max_size=30)))


@settings(max_examples=100, deadline=None)
@given(_UNIONS)
def test_sets_find_matches_graph_search(case):
    n, unions = case
    bits = _Sets()
    edges = {bits.make(): [] for _ in range(n)}
    for a, b, parity in unions:
        related = _relations(edges, a)
        if related.get(b, parity) != parity:
            with pytest.raises(KnotError):
                bits.union(a, b, parity)
            continue
        # True exactly when a and b were not yet related
        assert bits.union(a, b, parity) is (b not in related)
        edges[a].append((b, parity))
        edges[b].append((a, parity))
    for v in range(n):
        rel = _relations(edges, v)
        rv, pv = bits.find(v)
        for w in range(n):
            rw, pw = bits.find(w)
            assert (rv == rw) == (w in rel)
            if w in rel:
                assert pv ^ pw == rel[w]


@settings(max_examples=100, deadline=None)
@given(_UNIONS)
def test_sets_unions_at_parity_0_never_conflict(case):
    # how the builder joins arcs: every parity stays 0
    n, unions = case
    arcs = _Sets()
    for _ in range(n):
        arcs.make()
    for a, b, _ in unions:
        before = arcs.find(a)[0] != arcs.find(b)[0]
        assert arcs.union(a, b, 0) is before
    assert all(arcs.find(v)[1] == 0 for v in range(n))


def test_single_crossing_kink():
    b = MorseBuilder()
    b.cap(0)
    b.cap(1)
    b.cup(2)
    b.crossing(0, "L")
    b.cup(0)
    d = validate(b.to_pd())
    assert len(d.crossings) == 1
    assert jones(d) == jones(parse_pd(""))


def test_orientation_is_free_for_a_knot():
    # pinning the single cap either way gives the same diagram
    results = []
    for flow in ("lr", "rl", None):
        b = MorseBuilder()
        b.cap(0, flow=flow)
        b.cap(2, flow=None)
        for _ in range(3):
            b.crossing(1, "L")
        b.cup(0)
        b.cup(0)
        results.append(jones(validate(b.to_pd())))
    assert results[0] == results[1] == results[2]


# ---- error handling ----

def test_positions_must_be_open():
    b = MorseBuilder()
    with pytest.raises(KnotError, match="out of range"):
        b.cup(0)
    with pytest.raises(KnotError, match="out of range"):
        b.crossing(0)
    with pytest.raises(KnotError, match="out of range"):
        b.cap(1)
    b.cap(0)
    with pytest.raises(KnotError, match="out of range"):
        b.crossing(1)


def test_bad_tile_arguments():
    b = MorseBuilder()
    with pytest.raises(KnotError, match="flow"):
        b.cap(0, flow="up")
    b.cap(0)
    with pytest.raises(KnotError, match="over"):
        b.crossing(0, over="X")
    # a bool or a float position is refused, not taken as the int it equals
    for tile, name in ((b.cap, "cap position"), (b.cup, "position"), (b.crossing, "position")):
        for i in (True, 0.0):
            with pytest.raises(KnotError) as refusal:
                tile(i)
            assert str(refusal.value) == f"morse: {name} must be an int, got {i!r}"
    assert len(b._front) == 2


def test_finish_rejects_open_ends():
    b = MorseBuilder()
    b.cap(0)
    with pytest.raises(KnotError, match="still open"):
        b.finish()


def test_no_tiles_after_finish():
    b = MorseBuilder()
    b.cap(0)
    b.cup(0)
    b.finish()
    with pytest.raises(KnotError, match="finished"):
        b.cap(0)


def test_conflicting_pins():
    b = MorseBuilder()
    b.cap(0, flow="lr")
    b.cap(2, flow="rl")
    b.cup(1)
    b.cup(0)
    with pytest.raises(KnotError, match="pins conflict"):
        b.finish()


def test_cup_refuses_two_labels():
    # joining an end of curve a to one of curve b would make one curve with
    # two labels, whose one crossing linking_number would count as half
    b = MorseBuilder()
    b.cap(0, label="a")
    b.cap(2, label="b")
    b.crossing(1, "L")
    with pytest.raises(KnotError) as refusal:
        b.cup(2)
    assert str(refusal.value) == "morse: cup joins curves 'a' and 'b'"
    assert len(b._front) == 4


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_labelled_programs_give_results_or_knot_errors(data):
    # random caps, crossings and cups, closed at the end: every outcome is
    # a result or a KnotError, never a fault of the builder
    b = MorseBuilder()
    labels = ("a", "b", "c")
    width = 0
    try:
        for _ in range(data.draw(st.integers(0, 12))):
            tile = data.draw(st.sampled_from(("cap", "crossing", "cup") if width else ("cap",)))
            if tile == "cap":
                b.cap(data.draw(st.integers(0, width)), flow=data.draw(st.sampled_from((None, "lr", "rl"))),
                      label=data.draw(st.sampled_from(labels)))
                width += 2
            elif tile == "crossing":
                b.crossing(data.draw(st.integers(0, width - 2)), data.draw(st.sampled_from("LR")))
            else:
                b.cup(data.draw(st.integers(0, width - 2)))
                width -= 2
        while width:
            b.cup(data.draw(st.integers(0, width - 2)))
            width -= 2
        for x in labels:
            for y in labels:
                assert b.linking_number(x, y) == b.linking_number(y, x)
        b.to_pd()
    except KnotError:
        pass


def test_free_circles_counted_and_rejected():
    b = MorseBuilder()
    b.cap(0)
    b.cup(0)
    with pytest.raises(KnotError, match="circles"):
        b.to_pd()
    b2 = MorseBuilder()
    b2.cap(0)
    b2.cup(0)
    assert b2.finish() == []
    assert b2.free_circles == 1


# ---- linking numbers ----

def test_hopf_linking_number():
    assert hopf("L").linking_number("a", "b") == -1
    assert hopf("R").linking_number("a", "b") == 1
    # reversing one curve reverses the linking number
    assert hopf("L", flow2="rl").linking_number("a", "b") == 1
    # symmetric in the two labels
    assert hopf("R").linking_number("b", "a") == 1


def test_linking_number_ignores_self_crossings():
    b = plat_trefoil("L")
    assert b.linking_number("K", "K") == 0


def test_unlinked_curves():
    b = MorseBuilder()
    b.cap(0, label="a")
    b.cup(0)
    b.cap(0, label="b")
    b.cup(0)
    assert b.linking_number("a", "b") == 0
    assert b.free_circles == 2


def test_four_crossing_tangle_linking():
    # double the Hopf twisting: linking number doubles
    b = MorseBuilder()
    b.cap(0, flow="lr", label="a")
    b.cap(2, flow="lr", label="b")
    for _ in range(4):
        b.crossing(1, "R")
    b.cup(0)
    b.cup(0)
    assert b.linking_number("a", "b") == 2


# ---- golden output ----
#
# PD text (and so the arc numbering, which the benchmark's fixed curl arc
# depends on), linking-number matrices of multi-curve braid closures and
# the lambda family's Seifert rows by linking must come out byte for byte
# as recorded in morse_golden.json.

MORSE_GOLDEN_PATH = Path(__file__).with_name("morse_golden.json")
GOLDEN_LAMBDAS = [(n, m, p) for n in range(-4, 5, 2) for m in range(-4, 5, 2)
                  for p in (-5, -3, 3, 5)]


def _golden_braids():
    """(strands, word) pairs, a few sweeps long with seeded letters, so
    some closures are knots and some are links."""
    braids = []
    for strands in (2, 3, 4, 5, 7, 9):
        for sweeps in (1, 2, 4):
            rng = random.Random(100 * strands + sweeps)
            word = [(rng.randrange(strands - 1), rng.choice((1, -1)))
                    for _ in range((strands - 1) * sweeps)]
            braids.append((strands, word))
            # and the benchmark's sweep form, one letter per gap in turn
            signs = [rng.choice((1, -1)) for _ in range((strands - 1) * sweeps)]
            braids.append((strands, [(k % (strands - 1), s) for k, s in enumerate(signs)]))
    return braids


def _labeled_closure(strands, word):
    """The braid closure with each cap labeled by the closure component
    its strand belongs to, and the sorted labels."""
    top = list(range(strands))  # top[j]: the cap whose strand ends at j
    for g, _ in word:
        top[g], top[g + 1] = top[g + 1], top[g]
    succ = {cap: j for j, cap in enumerate(top)}
    label = {}
    for start in range(strands):
        c = start
        while c not in label:
            label[c] = f"c{start}"
            c = succ[c]
    b = MorseBuilder()
    for i in range(strands):
        b.cap(i, label=label[i])
    for g, sign in word:
        b.crossing(g, "L" if sign > 0 else "R")
    for i in reversed(range(strands)):
        b.cup(i)
    return b, sorted(set(label.values()))


def _golden_record():
    record = {}
    for n, m, p in GOLDEN_LAMBDAS:
        spec = LambdaSpec(n, m, p)
        record[f"lambda {n} {m} {p}"] = {
            "pd": str(lambda_diagram(spec)),
            "seifert_by_linking": [list(r) for r in seifert_by_linking(spec).rows],
        }
    for strands, word in _golden_braids():
        b, labels = _labeled_closure(strands, word)
        try:
            pd = " ".join("X[%d,%d,%d,%d]" % q for q in b.to_pd())
        except KnotError as e:  # a strand that no letter touches
            pd = str(e)
        linking = [[b.linking_number(x, y) if x != y else 0 for y in labels] for x in labels]
        record[f"braid {strands} {word}"] = {
            "pd": pd, "free_circles": b.free_circles, "linking": linking}
    return record


def test_golden_builders_have_roots_that_are_not_the_smallest_arc(monkeypatch):
    # finish names each arc set by its smallest arc, not by its root; some
    # golden builder must have a set where the two differ, or the golden
    # text would not see that naming
    builders = []

    class Recorded(MorseBuilder):
        def __init__(self):
            super().__init__()
            builders.append(self)

    monkeypatch.setattr(family, "MorseBuilder", Recorded)
    specs = [(0, 0, 3), (2, -2, 5), (-4, 0, 3), (4, 2, -5)]
    assert set(specs) <= set(GOLDEN_LAMBDAS)
    for n, m, p in specs:
        spec = LambdaSpec(n, m, p)
        lambda_diagram(spec)
        seifert_by_linking(spec)
    assert len(builders) == 20

    def root_is_not_smallest(b):
        members = {}
        for a in range(len(b._arcs.parent)):
            members.setdefault(b._arcs.find(a)[0], []).append(a)
        return any(root != min(arcs) for root, arcs in members.items())

    assert any(map(root_is_not_smallest, builders))


def test_golden_pd_and_linking():
    golden = json.loads(MORSE_GOLDEN_PATH.read_text())
    record = _golden_record()
    assert sorted(record) == sorted(golden)
    for key, value in record.items():
        assert value == golden[key], key
