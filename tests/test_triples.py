"""Triple admissibility and the exact rational sign witness."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repwords import is_admissible
from repwords.triples import F_value, Triple

SPORADIC = [(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3), (3, 3, 1), (2, 4, 1), (4, 2, 2)]


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(1, 2, 1)
    with pytest.raises(ValueError):
        Triple(2, 1, 1)
    with pytest.raises(ValueError):
        Triple(2, 2, 0)
    assert Triple(2, 2, 1) < Triple(2, 2, 2) < Triple(2, 3, 1)


def test_admissible_families():
    for l in (1, 2, 3, 17, 10**4):
        assert is_admissible(Triple(2, 2, l))
    for q in (2, 3, 5, 11, 10**4):
        assert is_admissible(Triple(q, 2, 1))
    for t in SPORADIC:
        assert is_admissible(Triple(*t))


def test_inadmissible_samples():
    for t in [(2, 5, 1), (4, 3, 1), (4, 2, 3), (5, 2, 2), (6, 2, 2), (3, 2, 4), (2, 3, 3)]:
        assert not is_admissible(Triple(*t))


# frozen oracle: F computed by hand as (24/25)nl - 1 - nl/q - l
F_CASES = [
    ((2, 3, 1), Fraction(-31, 50)),
    ((2, 5, 1), Fraction(3, 10)),
    ((3, 2, 4), Fraction(1, 75)),
    ((5, 2, 2), Fraction(1, 25)),
    ((2, 2, 1), Fraction(-27, 25)),
    ((4, 2, 2), Fraction(-4, 25)),
    ((3, 3, 1), Fraction(-3, 25)),
]


@pytest.mark.parametrize("t,expect", F_CASES)
def test_F_values(t, expect):
    assert F_value(Triple(*t)) == expect


def test_F_exactness():
    # must be exact rational arithmetic, not float
    v = F_value(Triple(3, 2, 4))
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 75)
    assert v > 0


@given(st.integers(min_value=2, max_value=50), st.integers(min_value=2, max_value=50),
       st.integers(min_value=1, max_value=50))
def test_F_sign_separates(q, n, l):
    t = Triple(q, n, l)
    if is_admissible(t):
        assert F_value(t) < 0
    else:
        assert F_value(t) > 0
