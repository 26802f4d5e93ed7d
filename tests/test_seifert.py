import pytest
from hypothesis import given, strategies as st

from knotlab import seifert
from knotlab.errors import KnotError
from knotlab.laurent import parse_poly
from knotlab.seifert import (
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
)

from conftest import genus_one, unimodular
from oracles import (
    at_minus_one,
    charpoly_signature,
    convolve,
    invert,
    leibniz_det,
    naive_alexander,
    naive_signature,
    normalized,
)


# ---- validation ----

def test_accepts_valid_forms():
    for rows in [(), ((0, 2), (1, 0)), ((-1, 1), (0, -1)), ((1, 1), (0, -1))]:
        m = SeifertMatrix(rows)
        assert m.size == len(rows)
    assert SeifertMatrix(()).genus == 0


def test_rejects_invalid_forms():
    with pytest.raises(KnotError):
        SeifertMatrix(((0, 1), (1, 0)))  # det(M - M^T) = 0
    with pytest.raises(KnotError):
        SeifertMatrix(((0, 3), (1, 0)))  # det = 4
    with pytest.raises(KnotError):
        SeifertMatrix(((1,),))  # odd size
    with pytest.raises(KnotError):
        SeifertMatrix(((0, 1), (1,)))  # ragged
    with pytest.raises(KnotError):
        SeifertMatrix(((0, 1.5), (1, 0)))  # non-int
    # det = 10^6000, more digits than the interpreter turns into text
    with pytest.raises(KnotError, match=r"^seifert: det\(M - M\^T\) = <19932 bits>, must be 1$"):
        SeifertMatrix(((0, 10**3000), (0, 0)))


def _block_sum_of_bands(n):
    """The n x n block sum of ((0, 1), (0, 0))."""
    return tuple(tuple(int(j == i + 1 and i % 2 == 0) for j in range(n)) for i in range(n))


def test_size_limit_refuses_before_the_determinant(monkeypatch):
    assert SeifertMatrix(_block_sum_of_bands(seifert.MAX_SIZE)).size == seifert.MAX_SIZE
    dets = []
    monkeypatch.setattr(seifert, "int_det", lambda rows: dets.append(rows) or 1)
    n = seifert.MAX_SIZE + 2
    with pytest.raises(KnotError, match=f"{n} rows, over the limit of {seifert.MAX_SIZE}"):
        SeifertMatrix(_block_sum_of_bands(n))
    assert dets == []


def test_post_init_runs_from_the_class_at_every_build(monkeypatch):
    # perfbench/spans.py counts matrix builds by wrapping this method on
    # the class; a check inlined into __init__ would escape the count
    check = SeifertMatrix.__dict__["__post_init__"]
    builds = []

    def counting(self):
        builds.append(self)
        check(self)

    monkeypatch.setattr(SeifertMatrix, "__post_init__", counting)
    a = SeifertMatrix(((0, 2), (1, 0)))
    SeifertMatrix([[0, 2], [1, 0]])
    with pytest.raises(KnotError):
        SeifertMatrix(((0, 1), (1, 0)))
    assert len(builds) == 3 and builds[0] is a
    assert builds[1].rows == ((0, 2), (1, 0))


# decide_first_sequiv divides ell by s = a12 + a21, odd since |a12 - a21| = 1
@given(genus_one())
def test_s_is_odd(m):
    assert (m.rows[0][1] + m.rows[1][0]) % 2 == 1


def test_int_det():
    assert int_det(()) == 1
    assert int_det(((5,),)) == 5
    assert int_det(((1, 2), (3, 4))) == -2
    assert int_det(((2, 0, 1), (0, 3, 0), (1, 0, 2))) == 9
    assert int_det(((0, 1), (1, 0))) == -1
    with pytest.raises(KnotError):
        int_det(((1, 2),))
    # entries are never truncated or parsed: floats, strings and bools raise
    for bad in ([[0.5, 2], [1, 0.9]], [["3"]], [[True, 0], [0, 1]]):
        with pytest.raises(KnotError, match="ints"):
            int_det(bad)


@pytest.mark.parametrize("bad", [True, 2.0, "1"])
def test_int_det_2x2_refuses_non_int_entries(bad):
    for i in range(2):
        for j in range(2):
            rows = [[1, 0], [0, 1]]
            rows[i][j] = bad
            with pytest.raises(KnotError, match="ints"):
                int_det(rows)


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9) | st.integers(-2**70, 2**70), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(square_matrices)
def test_int_det_matches_leibniz(rows):
    assert int_det(rows) == leibniz_det(rows)


def test_parse_matrix():
    assert parse_matrix("[[0,2],[1,0]]") == [[0, 2], [1, 0]]
    assert parse_matrix("0 2\n1 0") == [[0, 2], [1, 0]]
    assert parse_matrix("0, 2\n1, 0") == [[0, 2], [1, 0]]
    for bad in ["", "[[0,2]]", "[[0,2],[1]]", "1 2\n3", "[[a]]",
                "[[0.5,2],[1,0]]", '[["a",1],[0,0]]', "[[None,1],[0,0]]",
                "[[1e400,1],[0,0]]", "[[True,1],[0,0]]"]:
        with pytest.raises(KnotError):
            parse_matrix(bad)


# ---- certificates ----

def test_certificate_validation():
    CongruenceCertificate(((1, -3), (0, 1)))
    CongruenceCertificate(((0, 1), (1, 0)))
    with pytest.raises(KnotError):
        CongruenceCertificate(((1, 0), (0, 2)))
    with pytest.raises(KnotError):
        CongruenceCertificate(((1, 0), (1,)))


def test_certificate_identity_refuses_bad_sizes(monkeypatch):
    assert CongruenceCertificate.identity(0).rows == ()
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(KnotError, match="size of an identity must be an int >= 0"):
            CongruenceCertificate.identity(bad)
    # a size over the limit is refused before any row is built, work
    # that grows as the size squared
    limit = seifert.MAX_SIZE
    monkeypatch.setattr(seifert, "_as_int_rows", lambda rows, what: pytest.fail("rows built"))
    with pytest.raises(KnotError, match=f"^certificate: {limit + 1} rows, over the limit of {limit}$"):
        CongruenceCertificate.identity(limit + 1)
    with pytest.raises(KnotError, match=f"^certificate: <16610 bits> rows, over the limit of {limit}$"):
        CongruenceCertificate.identity(10**5000)


def test_rows_that_are_not_sequences_are_refused():
    # a matrix, or a row of it, that has no length
    for build in (SeifertMatrix, CongruenceCertificate, int_det):
        for bad in (5, [1, 2], [[0, 1], 2]):
            with pytest.raises(KnotError, match="a matrix must be a sequence of rows"):
                build(bad)


def test_certificate_size_limit_refuses_before_the_determinant(monkeypatch):
    limit = seifert.MAX_SIZE
    assert CongruenceCertificate.identity(limit).size == limit
    half = CongruenceCertificate.identity(limit // 2)
    rest = CongruenceCertificate.identity(limit // 2 + 1)
    dets = []
    monkeypatch.setattr(seifert, "int_det", lambda rows: dets.append(rows) or 1)
    with pytest.raises(KnotError, match=f"{limit + 2} rows, over the limit of {limit}"):
        CongruenceCertificate.identity(limit + 2)
    with pytest.raises(KnotError, match=f"{limit + 1} rows, over the limit of {limit}"):
        half.direct_sum(rest)
    assert dets == []


def test_certificate_apply():
    m = SeifertMatrix(((0, 2), (1, 0)))
    t = CongruenceCertificate(((1, 1), (0, 1)))
    assert t.apply(m).rows == ((3, 2), (1, 0))
    with pytest.raises(KnotError):
        CongruenceCertificate.identity(4).apply(m)


def test_certificate_direct_sum():
    t = CongruenceCertificate(((1, 1), (0, 1)))
    lifted = t.direct_sum(CongruenceCertificate.identity(2))
    assert lifted.rows == ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# ---- invariants ----

BLOCKS = [
    SeifertMatrix(rows)
    for rows in (
        ((0, 2), (1, 0)), ((-1, 1), (0, -1)), ((1, 1), (0, 1)),
        ((-3, 2), (1, 0)), ((2, 0), (1, 4)), ((0, 1), (2, 0)),
        ((1, 1), (0, -1)), ((-2, 3), (2, 1)), ((3, -1), (0, -2)),
    )
]


def _block_sum(blocks):
    m = SeifertMatrix(())
    for b in blocks:
        m = connected_sum(m, b)
    return m


def _dense(m):
    """T M T^T for T = U U^T, U unit upper triangular with U[i][j] =
    (i j mod 5) - 2 above the diagonal.  T is unimodular and fills in
    most zero entries; a test that needs all of them nonzero checks."""
    n = m.size
    u = [[1 if j == i else (i * j) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]
    t = CongruenceCertificate(
        tuple(tuple(sum(u[i][k] * u[j][k] for k in range(n)) for j in range(n)) for i in range(n))
    )
    return t.apply(m)


def test_alexander_golden():
    cases = [
        (((0, 2), (1, 0)), "2 - 5t + 2t^2"),
        (((-1, 1), (0, -1)), "1 - t + t^2"),
        (((-3, 2), (1, 0)), "2 - 5t + 2t^2"),
        (((1, 1), (0, -1)), "1 - 3t + t^2"),
        ((), "1"),
    ]
    for rows, expected in cases:
        assert alexander(SeifertMatrix(rows)) == parse_poly(expected)


def test_alexander_symmetric():
    # Alexander polynomials satisfy p(t) ~ p(1/t) up to units
    for rows in [((0, 2), (1, 0)), ((-3, 2), (1, -5)), ((2, 0), (1, 4))]:
        p = alexander(SeifertMatrix(rows))
        assert normalized(invert(dict(p.items()))) == dict(p.items())


def test_knot_determinant_golden():
    assert knot_determinant(SeifertMatrix(((0, 2), (1, 0)))) == 9
    assert knot_determinant(SeifertMatrix(((-3, 2), (1, 0)))) == 9
    assert knot_determinant(SeifertMatrix(((-1, 1), (0, -1)))) == 3
    assert knot_determinant(SeifertMatrix(())) == 1


@given(genus_one(4))
def test_determinant_is_alexander_at_minus_one(m):
    assert knot_determinant(m) == abs(at_minus_one(dict(alexander(m).items())))


def test_signature_golden():
    assert signature(SeifertMatrix(((0, 2), (1, 0)))) == 0
    assert signature(SeifertMatrix(((-1, 1), (0, -1)))) == -2
    assert signature(SeifertMatrix(((1, 1), (0, 1)))) == 2
    assert signature(SeifertMatrix(())) == 0
    big = connected_sum(
        SeifertMatrix(((0, 2), (1, 0))), SeifertMatrix(((-1, 1), (0, -1)))
    )
    assert signature(big) == -2  # additivity; S has a zero diagonal entry


def test_signature_repairs_zero_pivots(monkeypatch):
    # each form meets a zero pivot; the spy names the repair it needs: a
    # swap when a later diagonal entry of the trailing block is nonzero,
    # else adding a row and column.  Either is a congruence, so the block
    # stays symmetric
    repair = seifert._repair_pivot
    moves = []

    def spy(a):
        moves.append("swap" if any(a[i][i] for i in range(1, len(a))) else "add")
        repair(a)
        assert a[0][0] and a == [list(col) for col in zip(*a)]

    monkeypatch.setattr(seifert, "_repair_pivot", spy)
    trefoil = SeifertMatrix(((-1, 1), (0, -1)))
    swap, add = SeifertMatrix(((0, 1), (0, 1))), SeifertMatrix(((0, 1), (0, 0)))
    cases = [
        (swap, ["swap"]),
        (add, ["add"]),
        # the same repairs on the trailing block, after two pivots
        (connected_sum(trefoil, swap), ["swap"]),
        (connected_sum(trefoil, add), ["add"]),
        (enlarge_first(trefoil, (2, 3)), ["swap"]),
        (enlarge_first(add, (0, 1)), ["add", "add"]),
    ]
    for m, expected in cases:
        moves.clear()
        assert signature(m) == naive_signature(m.rows) == charpoly_signature(m.rows)
        assert moves == expected, m


def test_symmetric_signature_checks_its_result():
    for singular in [((0, 0), (0, 0)), ((1, 1), (1, 1)), ((2, 1, 0), (1, 2, 0), (0, 0, 0))]:
        with pytest.raises(AssertionError, match="singular"):
            seifert._symmetric_signature(singular)
    # det S is odd for every S = M + M^T
    for even in [((0, 2), (2, 0)), ((2, 0), (0, 1))]:
        with pytest.raises(AssertionError, match="must be odd"):
            seifert._symmetric_signature(even)


def test_alexander_raises_on_a_wrong_determinant(monkeypatch):
    # one determinant off by one at one node leaves no integer polynomial
    # of degree g with leading coefficient 1 through the g + 1 values
    forms = [_dense(_block_sum(BLOCKS[:g])) for g in range(5)]
    for g, m in enumerate(forms):
        for node in range(g + 1):
            for error in (1, -1):
                nodes = iter(range(g + 1))
                monkeypatch.setattr(
                    seifert, "int_det",
                    lambda rows: int_det(rows) + (error if next(nodes) == node else 0),
                )
                with pytest.raises(AssertionError, match="divided difference|leading coefficient"):
                    alexander(m)


def test_cost_in_determinants(monkeypatch):
    calls = []
    monkeypatch.setattr(seifert, "int_det", lambda rows: calls.append(rows) or int_det(rows))
    for g in range(8):
        m = _dense(_block_sum(BLOCKS[:g]))
        assert m.genus == g
        calls.clear()
        alexander(m)
        assert len(calls) == g + 1
        calls.clear()
        signature(m)
        assert calls == []


def test_dense_form_at_the_size_limit():
    # 32 left trefoils, conjugated until no entry is zero
    trefoil = SeifertMatrix(((-1, 1), (0, -1)))
    m = _dense(_block_sum([trefoil] * (seifert.MAX_SIZE // 2)))
    assert m.size == seifert.MAX_SIZE
    assert all(x for row in m.rows for x in row)
    expected = {0: 1}
    for _ in range(m.genus):
        expected = convolve(expected, {0: 1, 1: -1, 2: 1})
    assert dict(alexander(m).items()) == expected
    assert signature(m) == -seifert.MAX_SIZE


@st.composite
def small_forms(draw):
    """Block sums of one to three genus-one forms, enlarged when that
    keeps them 6x6 or smaller (the Leibniz oracle has n! terms), then
    conjugated."""
    m = _block_sum(draw(st.lists(genus_one(), min_size=1, max_size=3)))
    if m.size < 6 and draw(st.booleans()):
        q = draw(st.lists(st.integers(-5, 5), min_size=m.size, max_size=m.size))
        m = draw(st.sampled_from((enlarge_first, enlarge_second)))(m, q)
    return draw(unimodular(m.size, ops=10)).apply(m)


@given(small_forms())
def test_invariants_match_naive_oracles(m):
    assert dict(alexander(m).items()) == normalized(naive_alexander(m.rows))
    assert signature(m) == naive_signature(m.rows)


def test_genus_nine_dense_form():
    dense = _dense(_block_sum(BLOCKS))
    assert all(x for row in dense.rows for x in row)
    product = {0: 1}
    for b in BLOCKS:
        product = convolve(product, normalized(naive_alexander(b.rows)))
    assert dict(alexander(dense).items()) == product
    assert signature(dense) == sum(naive_signature(b.rows) for b in BLOCKS)


@st.composite
def enlarged_forms(draw):
    """Forms of genus 0 to 5 with entries in [-6, 6]: block sums of
    genus-one forms, enlarged (so zero diagonal entries occur), then
    conjugated."""
    m = _block_sum(draw(st.lists(genus_one(6), max_size=4)))
    for _ in range(draw(st.integers(0, 5 - m.genus))):
        q = draw(st.lists(st.integers(-6, 6), min_size=m.size, max_size=m.size))
        m = draw(st.sampled_from((enlarge_first, enlarge_second)))(m, q)
    return draw(unimodular(m.size, ops=10)).apply(m) if m.size else m


@st.composite
def dense_forms(draw):
    """Block sums of one to seven genus-one forms, conjugated by L U with
    L and U unit triangular and entries in [-1, 1] below and above the
    diagonal."""
    m = _block_sum(draw(st.lists(genus_one(6), min_size=1, max_size=7)))
    n = m.size
    entries = st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n)
    lo, up = draw(entries), draw(entries)
    t = [
        [sum((lo[i * n + k] if k < i else int(k == i)) * (up[k * n + j] if k < j else int(k == j))
             for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return CongruenceCertificate(t).apply(m)


@given(enlarged_forms() | dense_forms())
def test_signature_matches_both_oracles(m):
    expected = naive_signature(m.rows)
    assert charpoly_signature(m.rows) == expected
    assert signature(m) == expected


# ---- congruence invariance ----

@given(genus_one(), unimodular())
def test_congruence_preserves_invariants(m, t):
    m2 = t.apply(m)
    assert alexander(m2) == alexander(m)
    assert signature(m2) == signature(m)
    assert knot_determinant(m2) == knot_determinant(m)


# ---- enlargement moves ----

@given(genus_one(), st.lists(st.integers(-7, 7), min_size=2, max_size=2))
def test_enlargements_preserve_invariants(m, q):
    for enlarged in (enlarge_first(m, q), enlarge_second(m, q)):
        assert enlarged.size == m.size + 2
        assert alexander(enlarged) == alexander(m)
        assert signature(enlarged) == signature(m)


def test_enlarge_first_shape():
    m = SeifertMatrix(((0, 2), (1, 0)))
    e = enlarge_first(m, (5, -7))
    assert e.rows == (
        (0, 2, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (5, -7, 0, 0),
    )
    assert alexander(e) == parse_poly("2 - 5t + 2t^2")


def test_enlarge_second_shape():
    m = SeifertMatrix(((0, 2), (1, 0)))
    e = enlarge_second(m, (5, -7))
    assert e.rows == (
        (0, 2, 0, 5),
        (1, 0, 0, -7),
        (0, 0, 0, 0),
        (0, 0, 1, 0),
    )


def test_enlarge_rejects_wrong_length():
    m = SeifertMatrix(((0, 2), (1, 0)))
    with pytest.raises(KnotError):
        enlarge_first(m, (1,))
    with pytest.raises(KnotError):
        enlarge_second(m, (1, 2, 3))


@pytest.mark.parametrize("q", [(2.7, 3), ("3", 0), (True, 0)])
def test_enlarge_rejects_non_int_twist_entries(q):
    m = SeifertMatrix(((0, 2), (1, 0)))
    for enlarge in (enlarge_first, enlarge_second):
        with pytest.raises(KnotError, match="entries must be ints"):
            enlarge(m, q)


def test_enlarge_first_of_the_empty_form():
    assert enlarge_first(SeifertMatrix(()), ()).rows == ((0, 1), (0, 0))


# ---- connected sum ----

def test_connected_sum_blocks():
    a = SeifertMatrix(((0, 2), (1, 0)))
    b = SeifertMatrix(((3, 2), (1, 0)))
    s = connected_sum(a, b)
    assert s.rows == ((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 3, 2), (0, 0, 1, 0))
    assert alexander(s) == alexander(a) * alexander(b)
    assert signature(s) == signature(a) + signature(b)
    assert connected_sum(a, SeifertMatrix(())) == a
