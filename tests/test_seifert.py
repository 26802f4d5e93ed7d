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
    try_reduce,
)

from conftest import genus_one, unimodular
from oracles import convolve, leibniz_det, naive_alexander, naive_signature, normalized


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
        assert p.substitute_inverse().normalize_units() == p


def test_knot_determinant_golden():
    assert knot_determinant(SeifertMatrix(((0, 2), (1, 0)))) == 9
    assert knot_determinant(SeifertMatrix(((-3, 2), (1, 0)))) == 9
    assert knot_determinant(SeifertMatrix(((-1, 1), (0, -1)))) == 3
    assert knot_determinant(SeifertMatrix(())) == 1


@given(genus_one(4))
def test_determinant_is_alexander_at_minus_one(m):
    assert knot_determinant(m) == abs(alexander(m).evaluate(-1))


def test_signature_golden():
    assert signature(SeifertMatrix(((0, 2), (1, 0)))) == 0
    assert signature(SeifertMatrix(((-1, 1), (0, -1)))) == -2
    assert signature(SeifertMatrix(((1, 1), (0, 1)))) == 2
    assert signature(SeifertMatrix(())) == 0
    big = connected_sum(
        SeifertMatrix(((0, 2), (1, 0))), SeifertMatrix(((-1, 1), (0, -1)))
    )
    assert signature(big) == -2  # additivity; S has a zero diagonal entry


def test_det_poly_raises_on_inconsistent_values(monkeypatch):
    # det values 0, 0, 1 at x = 0, 1, 2 fit no integer polynomial
    values = iter((0, 0, 1))
    monkeypatch.setattr(seifert, "int_det", lambda rows: next(values))
    with pytest.raises(AssertionError, match="not divisible"):
        seifert._det_poly(((0, 0), (0, 0)), ((1, 0), (0, 1)))


@st.composite
def small_forms(draw):
    """Block sums of one to three genus-one forms, enlarged when that
    keeps them 6x6 or smaller (the Leibniz oracle has n! terms), then
    conjugated."""
    blocks = draw(st.lists(genus_one(), min_size=1, max_size=3))
    m = SeifertMatrix(())
    for b in blocks:
        m = connected_sum(m, b)
    if m.size < 6 and draw(st.booleans()):
        q = draw(st.lists(st.integers(-5, 5), min_size=m.size, max_size=m.size))
        m = draw(st.sampled_from((enlarge_first, enlarge_second)))(m, q)
    return draw(unimodular(m.size, ops=10)).apply(m)


@given(small_forms())
def test_invariants_match_naive_oracles(m):
    assert dict(alexander(m).items()) == normalized(naive_alexander(m.rows))
    assert signature(m) == naive_signature(m.rows)


def test_genus_nine_dense_form():
    blocks = [
        SeifertMatrix(rows)
        for rows in (
            ((0, 2), (1, 0)), ((-1, 1), (0, -1)), ((1, 1), (0, 1)),
            ((-3, 2), (1, 0)), ((2, 0), (1, 4)), ((0, 1), (2, 0)),
            ((1, 1), (0, -1)), ((-2, 3), (2, 1)), ((3, -1), (0, -2)),
        )
    ]
    m = SeifertMatrix(())
    for b in blocks:
        m = connected_sum(m, b)
    # T = U U^T with U unit upper triangular, U[i][j] = (i j mod 5) - 2
    # above the diagonal, is unimodular and makes every entry of T M T^T
    # nonzero
    n = m.size
    u = [[1 if j == i else (i * j) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]
    t = CongruenceCertificate(
        tuple(tuple(sum(u[i][k] * u[j][k] for k in range(n)) for j in range(n)) for i in range(n))
    )
    dense = t.apply(m)
    assert all(x for row in dense.rows for x in row)
    product = {0: 1}
    for b in blocks:
        product = convolve(product, normalized(naive_alexander(b.rows)))
    assert dict(alexander(dense).items()) == product
    assert signature(dense) == sum(naive_signature(b.rows) for b in blocks)


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


@given(genus_one(), st.lists(st.integers(-7, 7), min_size=2, max_size=2))
def test_reduce_inverts_enlarge(m, q):
    assert try_reduce(enlarge_first(m, q)) == (m, "first")
    assert try_reduce(enlarge_second(m, q)) == (m, "second")


def test_reduce_no_match():
    assert try_reduce(SeifertMatrix(((0, 2), (1, 0)))) is None
    # a 4x4 form that is not an enlargement
    m = connected_sum(SeifertMatrix(((0, 2), (1, 0))), SeifertMatrix(((-1, 1), (0, -1))))
    assert try_reduce(m) is None
    assert try_reduce(SeifertMatrix(())) is None


def test_reduce_is_size_zero_safe():
    e = enlarge_first(SeifertMatrix(()), ())
    assert e.rows == ((0, 1), (0, 0))
    assert try_reduce(e) == (SeifertMatrix(()), "first")


# ---- connected sum ----

def test_connected_sum_blocks():
    a = SeifertMatrix(((0, 2), (1, 0)))
    b = SeifertMatrix(((3, 2), (1, 0)))
    s = connected_sum(a, b)
    assert s.rows == ((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 3, 2), (0, 0, 1, 0))
    assert alexander(s) == alexander(a) * alexander(b)
    assert signature(s) == signature(a) + signature(b)
    assert connected_sum(a, SeifertMatrix(())) == a
