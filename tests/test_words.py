"""Digit word encode/decode round trips and validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repwords import words
from repwords.words import (
    MalformedWordError,
    System,
    Word,
    bijective_word,
    canonical_word,
    fibonacci,
    format_decimal,
    parse_decimal,
    parse_decimals,
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
    # the bit test runs before the adjacency test reads the digits as bytes
    for digits in ((1, 2, 1, 1), (1, 0, 256), (1, 0, -1)):
        with pytest.raises(MalformedWordError, match="^zeckendorf digit not a bit$"):
            zeckendorf_word(digits)
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

    # a digit and a base past the 4,300-digit limit of str(int)
    big = Word(System.CANONICAL, 10**4400, (10**4399,))
    assert render_word(big) == "(1" + "0" * 4399 + ")@1" + "0" * 4400


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


def test_zeckendorf_past_every_cached_fibonacci_number():
    # x above the largest cached F(i) makes to_zeckendorf extend the cache;
    # the greedy encoding over a Fibonacci list built here is the oracle
    def greedy(x):
        fibs = [1, 2]
        while fibs[-1] <= x:
            fibs.append(fibs[-1] + fibs[-2])
        bits, rest = [], x
        for f in reversed(fibs[:-1]):
            bits.append(int(f <= rest))
            rest -= f * bits[-1]
        return tuple(bits)

    x = words._FIBS[-1] ** 2 + 12_345
    assert to_zeckendorf(x).digits == greedy(x)
    assert words._FIBS[-1] > x
    # on a cleared cache, the index to_zeckendorf asks for must pass x
    f = [0, 1]
    while len(f) <= 400:
        f.append(f[-1] + f[-2])
    for k in range(3, 401):
        for x in (f[k] - 1, f[k], f[k] + 1):
            del words._FIBS[4:]
            assert to_zeckendorf(x).digits == greedy(x), (k, x)


@given(st.integers(min_value=2, max_value=1000), st.integers(min_value=2, max_value=36))
def test_bijective_distinct_up_to_bound(n, b):
    # bijectivity on an initial segment: distinct values, distinct words
    seen = {to_bijective(x, b).digits for x in range(1, n + 1)}
    assert len(seen) == n


# naive per-digit references for the radix converter
def naive_canonical(x, b):
    digits = []
    while x:
        x, r = divmod(x, b)
        digits.append(r)
    return tuple(reversed(digits))


def naive_bijective(x, b):
    digits = []
    while x:
        x, r = divmod(x, b)
        if r == 0:
            r, x = b, x - 1
        digits.append(r)
    return tuple(reversed(digits))


BIG_BASE = 2**64 + 13


@st.composite
def base_and_value(draw, lo):
    # up to 3,000 digits, so both sides of the converter's cutoff are drawn
    b = draw(st.one_of(st.integers(min_value=2, max_value=10**6), st.just(BIG_BASE)))
    n = draw(st.integers(min_value=0, max_value=3000))
    return b, draw(st.integers(min_value=lo, max_value=max(lo, b**n - 1)))


@settings(max_examples=150, deadline=None)
@given(base_and_value(0))
def test_canonical_matches_naive(bx):
    b, x = bx
    w = to_canonical(x, b)
    assert w.digits == naive_canonical(x, b)
    assert word_value(w) == x


@settings(max_examples=150, deadline=None)
@given(base_and_value(1))
def test_bijective_matches_naive(bx):
    b, x = bx
    w = to_bijective(x, b)
    assert w.digits == naive_bijective(x, b)
    assert word_value(w) == x


@pytest.mark.parametrize("b", [2, 3, 10, 12400, 10**6, BIG_BASE])
def test_converters_at_length_boundaries(b):
    for k in (1, 2, 5, 127, 128, 129, 300, 1000):
        r_k = (b**k - 1) // (b - 1)  # the least value of a k-digit bijective word
        for x in (r_k - 1, r_k, r_k + 1, b**k - 1, b**k):
            c = to_canonical(x, b)
            assert c.digits == naive_canonical(x, b)
            assert word_value(c) == x
            if x >= 1:
                w = to_bijective(x, b)
                assert w.digits == naive_bijective(x, b)
                assert word_value(w) == x
        assert len(to_bijective(r_k, b)) == k and len(to_bijective(r_k + b**k, b)) == k + 1


def test_converters_at_100k_digits():
    # a random 500-digit word repeated 200 times is c * (b**100000 - 1) / (b**500 - 1)
    b = 10
    rng = random.Random(100_000)
    repunit = (b**100_000 - 1) // (b**500 - 1)
    c = to_canonical(rng.randrange(b**499, b**500), b)
    assert to_canonical(word_value(c) * repunit, b) == repeat_word(c, 200)
    w = bijective_word(b, tuple(rng.randrange(1, b + 1) for _ in range(500)))
    x = word_value(w) * repunit
    assert to_bijective(x, b) == repeat_word(w, 200)
    assert word_value(repeat_word(w, 200)) == x


# 12,001 and 20,001 digits are 3 and 6 leaves: each merge carries an odd top leaf
@pytest.mark.parametrize("length", [1, 3_999, 4_000, 4_001, 8_001, 12_001, 20_001, 200_000])
def test_decimal_text_round_trips(length):
    rng = random.Random(length)
    text = rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1))
    x = word_value(canonical_word(10, tuple(map(int, text))))
    assert parse_decimal(text) == x
    assert format_decimal(x) == text
    assert parse_decimal("0" * length + "7") == 7
    assert parse_decimals([text, " 7", "0" * length + "7"]) == [x, 7, 7]
    assert parse_decimals([text, "7"]) == [x, 7]
    if length < 10_000:
        for v, t in ((10 ** (length - 1), "1" + "0" * (length - 1)), (10**length - 1, "9" * length)):
            assert format_decimal(v) == t and parse_decimal(t) == v


def test_format_decimal_at_bit_splits():
    # numbers are cut into leaves of 2**14 bits: 2**(3 * 2**14) + 1 has zero
    # middle leaves, and the random value has 5 leaves
    five = random.Random(5).getrandbits(5 * 2**14) | 1 << (5 * 2**14 - 1)
    values = [2 ** (3 * 2**14) + 1, five]
    for e in (2**14, 2**15, 2**16, 3 * 2**15):
        values += (2**e - 1, 2**e, 2**e + 1, 2**e * 12345)
    for v in values:
        assert format_decimal(v) == "".join(map(str, to_canonical(v, 10).digits))


def test_ladder_cache_is_bounded():
    # numbers below the cutoff never build a ladder; larger ones keep at most
    # _LADDER_CACHE_MAX of them, and the results stay exact past the bound
    words._ladder.cache_clear()
    for b in range(2, 2000):
        x = b**50 + 1
        assert word_value(to_canonical(x, b)) == x
        assert word_value(to_bijective(x, b)) == x
    assert words._ladder.cache_info().currsize == 0
    for b in range(2, 40):
        x = b**300 + 1
        assert to_canonical(x, b).digits == (1,) + (0,) * 299 + (1,)
        assert words._ladder.cache_info().currsize <= words._LADDER_CACHE_MAX
    assert words._ladder.cache_info().currsize == words._LADDER_CACHE_MAX
