"""Digit word encode/decode round trips and validation."""

import pytest
from hypothesis import given, strategies as st

from repwords.words import (
    MalformedWordError,
    System,
    Word,
    bijective_word,
    canonical_word,
    fibonacci,
    render_word,
    repeat_word,
    split_repetition,
    to_bijective,
    to_canonical,
    to_zeckendorf,
    word_value,
    zeckendorf_word,
)

# frozen oracle: encodings computed by independent hand arithmetic
CANONICAL_CASES = [
    (0, 10, ()),
    (7, 10, (7,)),
    (100, 10, (1, 0, 0)),
    (255, 16, (15, 15)),
    (255, 2, (1,) * 8),
    (343, 7, (1, 0, 0, 0)),
    (57459558593**3, 12400, (4208, 7128, 8441, 5457) * 2),
]

BIJECTIVE_CASES = [
    (1, 2, (1,)),
    (2, 2, (2,)),
    (3, 2, (1, 1)),
    (100, 2, (2, 1, 1, 2, 1, 2)),
    (26, 10, (2, 6)),
    (30, 10, (2, 10)),
    (10, 10, (10,)),
    (11, 10, (1, 1)),
]

# 0 eats the empty word; F(2)=1, F(3)=2, F(4)=3, F(5)=5, F(6)=8
ZECKENDORF_CASES = [
    (0, ()),
    (1, (1,)),
    (2, (1, 0)),
    (3, (1, 0, 0)),
    (4, (1, 0, 1)),
    (12, (1, 0, 1, 0, 1)),
    (100, (1, 0, 0, 0, 0, 1, 0, 1, 0, 0)),
]


def test_fibonacci_base_values():
    assert [fibonacci(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(30) == 832040


@pytest.mark.parametrize("x,b,digits", CANONICAL_CASES)
def test_to_canonical(x, b, digits):
    w = to_canonical(x, b)
    assert w.digits == digits
    assert word_value(w) == x


@pytest.mark.parametrize("x,b,digits", BIJECTIVE_CASES)
def test_to_bijective(x, b, digits):
    w = to_bijective(x, b)
    assert w.digits == digits
    assert word_value(w) == x


@pytest.mark.parametrize("x,digits", ZECKENDORF_CASES)
def test_to_zeckendorf(x, digits):
    w = to_zeckendorf(x)
    assert w.digits == digits
    assert word_value(w) == x


def test_word_validation():
    with pytest.raises(MalformedWordError, match="^leading zero in canonical word$"):
        canonical_word(10, (0, 1))  # leading zero
    with pytest.raises(MalformedWordError, match="^canonical digit out of range$"):
        canonical_word(10, (10,))  # digit == base
    with pytest.raises(MalformedWordError, match="^canonical digit out of range$"):
        canonical_word(10, (1, -1))
    with pytest.raises(MalformedWordError, match="^bijective digit out of range$"):
        bijective_word(10, (0,))  # bijective digits start at 1
    with pytest.raises(MalformedWordError, match="^bijective digit out of range$"):
        bijective_word(10, (11,))
    with pytest.raises(MalformedWordError, match="^adjacent 1 digits in zeckendorf word$"):
        zeckendorf_word((1, 1))  # adjacent ones
    with pytest.raises(MalformedWordError, match="^zeckendorf word must start with 1$"):
        zeckendorf_word((0, 1))  # leading zero
    with pytest.raises(MalformedWordError, match="^zeckendorf digit not a bit$"):
        zeckendorf_word((1, 0, 2))
    with pytest.raises(MalformedWordError, match="^base must be >= 2, got 1$"):
        canonical_word(1, (0,))  # base too small
    with pytest.raises(MalformedWordError, match="^zeckendorf words use base=2$"):
        Word(System.ZECKENDORF, 3, (1,))
    # the leading-digit check comes first, then the range, then adjacency
    with pytest.raises(MalformedWordError, match="^leading zero in canonical word$"):
        canonical_word(10, (0, 10))
    with pytest.raises(MalformedWordError, match="^zeckendorf digit not a bit$"):
        zeckendorf_word((1, 1, 2))
    # empty and edge-of-range words are valid
    assert canonical_word(10, ()).digits == ()
    assert canonical_word(10, (9, 0)).digits == (9, 0)
    assert bijective_word(10, (10, 1)).digits == (10, 1)
    assert zeckendorf_word((1, 0, 1, 0)).digits == (1, 0, 1, 0)


def test_repeat_and_split():
    w = canonical_word(10, (1, 2))
    w3 = repeat_word(w, 3)
    assert w3.digits == (1, 2, 1, 2, 1, 2)
    assert split_repetition(w3, 3) == w
    assert split_repetition(w3, 2) is None  # 6 digits, but halves differ
    assert split_repetition(w3, 4) is None  # length not divisible
    assert split_repetition(w3, 1) == w3
    with pytest.raises(ValueError):
        repeat_word(w, 0)


def test_split_repetition_rejects_mismatched_blocks():
    w = canonical_word(10, (1, 2, 1, 3))
    assert split_repetition(w, 2) is None


def test_render_parse_roundtrip():
    w = canonical_word(12400, (4208, 7128, 8441, 5457))
    assert render_word(w) == "(4208,7128,8441,5457)@12400"

    z = to_zeckendorf(100)
    assert render_word(z) == "1000010100"


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=2, max_value=64))
def test_canonical_roundtrip(x, b):
    assert word_value(to_canonical(x, b)) == x


@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=2, max_value=64))
def test_bijective_roundtrip(x, b):
    w = to_bijective(x, b)
    assert word_value(w) == x
    assert all(1 <= d <= b for d in w.digits)


@given(st.integers(min_value=0, max_value=10**30))
def test_zeckendorf_roundtrip(x):
    w = to_zeckendorf(x)
    assert word_value(w) == x
    # no two adjacent Fibonacci indices used
    assert all(a * b_ == 0 for a, b_ in zip(w.digits, w.digits[1:]))


@given(st.integers(min_value=2, max_value=1000), st.integers(min_value=2, max_value=36))
def test_bijective_distinct_up_to_bound(n, b):
    # bijectivity on an initial segment: distinct values, distinct words
    seen = {to_bijective(x, b).digits for x in range(1, n + 1)}
    assert len(seen) == n
