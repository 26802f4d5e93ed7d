import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from knotlab.errors import KnotError
from knotlab.laurent import LaurentPoly

from oracles import convolve, parse_poly_text

polys = st.dictionaries(
    st.integers(-8, 8), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


def test_zero_and_one():
    assert not LaurentPoly()
    assert str(LaurentPoly()) == "0"
    assert dict(LaurentPoly.one().items()) == {0: 1}
    assert LaurentPoly.one() == LaurentPoly({0: 1, 5: 0})


def test_format_basics():
    p = LaurentPoly({-3: -2, 0: 1, 1: -1, 4: 3})
    assert str(p) == "-2t^-3 + 1 - t + 3t^4"
    assert str(LaurentPoly({1: 1})) == "t"
    assert str(LaurentPoly({-1: -1})) == "-t^-1"


def test_parse_round_trip_fixed():
    for text in [
        "0",
        "7",
        "-t",
        "t^-6 - t^-5 + t^-4 - 2t^-3 + t^-2 - t^-1 + 2",
        "2 - t^-1 + t^-2 - 2t^-3 + t^-4 - t^-5 + t^-6",
        "1 + t^-6 - t^-7 + t^-8 - 2t^-9 + t^-10 - t^-11 + t^-12",
    ]:
        p = LaurentPoly(parse_poly_text(text))
        assert parse_poly_text(str(p)) == dict(p.items())


@given(polys)
def test_parse_format_round_trip(p):
    assert parse_poly_text(str(p)) == dict(p.items())


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly() == p
    assert p * LaurentPoly.one() == p
    assert p - p == LaurentPoly()


@given(polys, polys)
def test_product_against_convolution(p, q):
    assert dict((p * q).items()) == convolve(dict(p.items()), dict(q.items()))


def test_normalize_units():
    p = LaurentPoly({-3: -2, -1: 4})
    n = p.normalize_units()
    assert n == LaurentPoly({0: 2, 2: -4})
    assert n.normalize_units() == n
    assert not LaurentPoly().normalize_units()


@given(polys, st.integers(-5, 5), st.booleans())
def test_normalize_units_kills_units(p, k, flip):
    shifted = p * LaurentPoly.term(1, k)
    if flip:
        shifted = -shifted
    assert shifted.normalize_units() == p.normalize_units()


def test_immutability():
    p = LaurentPoly({0: 1})
    with pytest.raises(AttributeError):
        p._coeffs = {}
    with pytest.raises(AttributeError):
        del p._coeffs
    assert hash(p) == hash(LaurentPoly({0: 1}))


@given(polys)
def test_pickle_and_copy_round_trip(p):
    duplicates = [pickle.loads(pickle.dumps(p, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    duplicates += [copy.copy(p), copy.deepcopy(p)]
    for q in duplicates:
        assert type(q) is LaurentPoly
        assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert q._coeffs is not p._coeffs


@pytest.mark.parametrize("bad", ["1 - 2t", [(0, 1)], 5])
def test_rejects_non_mapping(bad):
    with pytest.raises(KnotError, match="mapping"):
        LaurentPoly(bad)


def test_none_and_empty_mapping_give_zero():
    assert LaurentPoly(None) == LaurentPoly({})
    assert not LaurentPoly(None)


def test_rejects_non_int():
    with pytest.raises(KnotError):
        LaurentPoly({0: 1.5})
    with pytest.raises(KnotError):
        LaurentPoly({0.5: 1})
    with pytest.raises(KnotError):
        LaurentPoly({0: True})
    with pytest.raises(KnotError):
        LaurentPoly({False: 1})


def test_repr_names_ints_past_the_digit_limit():
    huge = 10**5000
    assert repr(LaurentPoly({-1: 2**70, 3: -5})) == (
        "LaurentPoly('1180591620717411303424t^-1 - 5t^3')")
    assert repr(LaurentPoly.term(1, huge)) == "LaurentPoly({<16610 bits>: 1})"
    assert repr(LaurentPoly({-2: 3, 0: huge})) == "LaurentPoly({-2: 3, 0: <16610 bits>})"
    assert repr(LaurentPoly({-2: 3, 0: -huge})) == "LaurentPoly({-2: 3, 0: -<16610 bits>})"
    assert repr(LaurentPoly.term(1, -huge)) == "LaurentPoly({-<16610 bits>: 1})"
    # str() raises as str(int) does; the command line turns that into its
    # one-line error
    for p in (LaurentPoly.term(1, huge), LaurentPoly({0: -huge})):
        with pytest.raises(ValueError, match="integer string conversion"):
            str(p)
