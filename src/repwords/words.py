"""Digit words in canonical, bijective, and Zeckendorf numeration.

A word is a finite digit string read most significant digit first.  The
three systems share one value map (sum of digit * weight) but differ in
digit alphabet and weights:

* canonical base b: digits 0..b-1, weights b^k, no leading zero
* bijective base b: digits 1..b, weights b^k
* zeckendorf: digits 0/1, weight of position i is the Fibonacci number
  F(i) with F(2) = 1, F(3) = 2, and no two adjacent 1 digits

Every nonnegative integer has exactly one canonical and one Zeckendorf
word, every positive integer exactly one bijective word.

Conversions at any length are divide and conquer over a cached ladder of
powers, so no step walks the whole number once per digit.  A number of
more than about 128 digits is split into machine-size leaves by the
ladder of its base.  Every conversion into a number is one merge,
_merge: limbs, least significant first, are added in pairs by the ladder
of their weight, so a word merges K-digit limbs, decimal text 4,000-digit
int() leaves, and a large number's decimal text is built from exact
Decimals of its bit slices.  The bijective word of x comes from its
canonical digits: each digit at or below 0 borrows one from the digit
above, and a 0 left on top is dropped.  No conversion goes through str
beyond its 4300-digit limit.
"""

from __future__ import annotations

import decimal
from bisect import bisect_right
from enum import Enum
from functools import lru_cache, partial
from itertools import compress

from .arith import Frozen


class System(str, Enum):
    CANONICAL = "canonical"
    BIJECTIVE = "bijective"
    ZECKENDORF = "zeckendorf"


class MalformedWordError(ValueError):
    """Digit string violates the invariants of its numeration system."""


_FIBS = [0, 1, 1, 2]


def fibonacci(i: int) -> int:
    """F(i) with F(1) = F(2) = 1; Zeckendorf positions use i >= 2."""
    if i < 0:
        raise ValueError("index must be >= 0")
    while len(_FIBS) <= i:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[i]


class Word(Frozen):
    """Immutable digit string; equality is (system, base, digits).

    ``base`` carries no meaning for Zeckendorf words and is pinned to 2
    there so that equal words compare equal.
    """

    __slots__ = ("system", "base", "digits")  # a System, an int, a tuple of ints

    def __post_init__(self) -> None:
        if self.system is System.ZECKENDORF:
            if self.base != 2:
                raise MalformedWordError("zeckendorf words use base=2")
        elif self.base < 2:
            raise MalformedWordError(f"base must be >= 2, got {self.base}")
        d = self.digits
        if self.system is System.CANONICAL:
            if d and d[0] == 0:
                raise MalformedWordError("leading zero in canonical word")
            if d and (min(d) < 0 or max(d) >= self.base):
                raise MalformedWordError("canonical digit out of range")
        elif self.system is System.BIJECTIVE:
            if d and (min(d) < 1 or max(d) > self.base):
                raise MalformedWordError("bijective digit out of range")
        else:
            if d and d[0] != 1:
                raise MalformedWordError("zeckendorf word must start with 1")
            if not set(d) <= {0, 1}:
                raise MalformedWordError("zeckendorf digit not a bit")
            if b"\x01\x01" in bytes(d):
                raise MalformedWordError("adjacent 1 digits in zeckendorf word")

    def __len__(self) -> int:
        return len(self.digits)


# canonical_word(base, digits), bijective_word(base, digits), zeckendorf_word(digits)
canonical_word = partial(Word, System.CANONICAL)
bijective_word = partial(Word, System.BIJECTIVE)
zeckendorf_word = partial(Word, System.ZECKENDORF, 2)


# Radix conversion (Brent & Zimmermann, Modern Computer Arithmetic, 1.7).
# Up to about _CUTOFF_DIGITS digits, numbers take the per-digit loop and
# words Horner's rule.  A longer number is split top-down by the ladder
# B, B**2, B**4, ... of its base, where B = base**K is the largest power of
# the base below 2**62 (or the base itself), into K-digit leaves that the
# same loop finishes; a longer word is merged up from K-digit limbs by
# _merge.
_CUTOFF_DIGITS = 128
# only numbers and words above the cutoff build a ladder, so few bases
# ever hold one
_LADDER_CACHE_MAX = 8


@lru_cache(maxsize=_LADDER_CACHE_MAX)
def _ladder(base: int) -> tuple[int, dict[int, int]]:
    """(K, {i: B**(2**i)}), to which _rung adds the rungs a number needs."""
    k, limb = 1, base
    while limb * base < 1 << 62:
        k, limb = k + 1, limb * base
    return k, {0: limb}


def _rung(powers: dict[int, int], i: int) -> int:
    # each write stores the square of the rung below, so two callers that
    # grow one ladder at once store equal values
    for j in range(len(powers), i + 1):
        powers[j] = powers[j - 1] ** 2
    return powers[i]


def _merge(limbs: list, powers: dict) -> int | decimal.Decimal:
    """Sum of limbs[j] * powers[0]**j, merged in pairs: level i joins each
    pair by powers[i].  Limbs are ints, or Decimals in the _EXACT context."""
    level = 0
    while len(limbs) > 1:
        p = _rung(powers, level)
        top = limbs[-1:] if len(limbs) % 2 else []
        limbs = [lo + hi * p for lo, hi in zip(limbs[::2], limbs[1::2])] + top
        level += 1
    return limbs[0]


def _put_digits(x: int, base: int, out: list[int], width: int = 0) -> None:
    # append the digits of x, least significant first, zero-padded to width
    end = len(out) + width
    while x:
        x, r = divmod(x, base)
        out.append(r)
    out += [0] * (end - len(out))


def _put_block(x: int, base: int, out: list[int], k: int, powers: dict[int, int], i: int) -> None:
    # append exactly k * 2**i digits of x < powers[i]
    if i:
        hi, lo = divmod(x, powers[i - 1])
        _put_block(lo, base, out, k, powers, i - 1)
        _put_block(hi, base, out, k, powers, i - 1)
    else:
        _put_digits(x, base, out, k)


def _digits(x: int, base: int) -> list[int]:
    """Base-b digits of x >= 0, least significant first, no leading zero."""
    out: list[int] = []
    if x.bit_length() > _CUTOFF_DIGITS * base.bit_length():
        k, powers = _ladder(base)
        top = 0
        while _rung(powers, top + 1) <= x:
            top += 1
        # x < powers[top + 1]: peel full blocks off the bottom, largest first
        for i in range(top, -1, -1):
            if x >= powers[i]:
                x, lo = divmod(x, powers[i])
                _put_block(lo, base, out, k, powers, i)
    _put_digits(x, base, out)
    return out


def _horner(digits: tuple[int, ...], base: int) -> int:
    v = 0
    for d in digits:
        v = v * base + d
    return v


def to_canonical(x: int, base: int) -> Word:
    """Base-b digit word of x, most significant first; x = 0 gives ()."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if x < 0:
        raise ValueError("x must be >= 0")
    return Word(System.CANONICAL, base, tuple(reversed(_digits(x, base))))


def to_bijective(x: int, base: int) -> Word:
    """Bijective base-b word of x >= 1 (digit alphabet 1..b)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if x < 1:
        raise ValueError("x must be >= 1")
    # canonical digits, least significant first: a digit at or below 0
    # takes b and borrows one from the digit above
    digits, borrow = _digits(x, base), False
    for i, d in enumerate(digits):
        d -= borrow
        borrow = d <= 0
        digits[i] = d + base if borrow else d
    if borrow:  # the top digit was a 1 that lent its unit
        digits.pop()
    return Word(System.BIJECTIVE, base, tuple(reversed(digits)))


def to_zeckendorf(x: int) -> Word:
    """Zeckendorf bit word of x >= 0 (greedy; never two adjacent 1s)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return Word(System.ZECKENDORF, 2, ())
    # F(i) >= phi**(i - 2) > 2**(2 * (i - 2) / 3), so this F(i) exceeds x
    fibonacci(3 * x.bit_length() // 2 + 3)
    fibs = _FIBS
    top = bisect_right(fibs, x) - 1
    digits = [0] * (top - 1)
    i = top
    while x:
        # taking F(i) always leaves a remainder below F(i-1)
        digits[top - i] = 1
        x -= fibs[i]
        i = bisect_right(fibs, x, 2, i) - 1 if x else 2
    return Word(System.ZECKENDORF, 2, tuple(digits))


def word_value(w: Word) -> int:
    """Integer value of a word; inverse of the to_* encoders."""
    if w.system is System.ZECKENDORF:
        n = len(w.digits)
        fibonacci(n + 1)
        # the digit at index j weighs F(n + 1 - j)
        return sum(compress(_FIBS[n + 1 : 1 : -1], w.digits))
    base, d = w.base, w.digits
    if len(d) <= _CUTOFF_DIGITS:
        return _horner(d, base)
    k, powers = _ladder(base)
    return _merge([_horner(d[max(i - k, 0) : i], base) for i in range(len(d), 0, -k)], powers)


def repeat_word(w: Word, n: int) -> Word:
    """Concatenate n copies of w; the result must itself be a valid word."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not w.digits:
        raise ValueError("cannot repeat the empty word")
    return Word(w.system, w.base, w.digits * n)


def split_repetition(w: Word, n: int) -> Word | None:
    """The word u with w = u repeated n times, or None if there is none."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not w.digits:
        raise ValueError("cannot split the empty word")
    total = len(w.digits)
    if total % n:
        return None
    k = total // n
    u = w.digits[:k]
    if w.digits != u * n:
        return None
    return Word(w.system, w.base, u)


# Decimal text at any size.  Numbers below 10**_SPLIT_DIGITS and texts of
# at most _SPLIT_DIGITS digits go through C-level str() and int(), below
# their 4300-digit limit.  A longer text is cut into _SPLIT_DIGITS-digit
# int() leaves from its end, which _merge joins by the ladder
# {i: 10**(_SPLIT_DIGITS * 2**i)}.  A larger number is cut into
# _LEAF_BITS-bit slices, and _merge joins their exact Decimals in the
# decimal module by the ladder {i: 2**(_LEAF_BITS * 2**i)}: that
# multiplication is subquadratic, where divmod by a power of ten is
# schoolbook.
_SPLIT_DIGITS = 4000
_DECIMAL_RUNGS = {0: 10**_SPLIT_DIGITS}
_LEAF_BITS = 16384
_BINARY_RUNGS = {0: decimal.Decimal(1 << _LEAF_BITS)}
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def format_decimal(x: int) -> str:
    """Decimal digits of x >= 0 at any size; str() stops at 4300 digits."""
    if x < _DECIMAL_RUNGS[0]:
        return str(x)
    # byteorder is passed, since it has a default only from Python 3.11
    raw, n = x.to_bytes((x.bit_length() + 7) // 8, "little"), _LEAF_BITS // 8
    leaves = [int.from_bytes(raw[i : i + n], "little") for i in range(0, len(raw), n)]
    with decimal.localcontext(_EXACT):
        return str(_merge(list(map(decimal.Decimal, leaves)), _BINARY_RUNGS))


def parse_decimal(text: str) -> int:
    """Inverse of format_decimal: ASCII digits only, surrounding whitespace
    ignored, at any length; int() alone refuses more than 4300 digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid decimal {text[:32]!r} ({len(text)} characters)")
    n = _SPLIT_DIGITS
    return _merge([int(text[max(i - n, 0) : i]) for i in range(len(text), 0, -n)], _DECIMAL_RUNGS)


def parse_decimals(texts: list[str]) -> list[int]:
    """parse_decimal of each text, with the same errors.  Texts that are
    all non-empty and together hold at most _SPLIT_DIGITS ASCII digits
    pass one test of their join and go straight to int()."""
    joined = "".join(texts)
    if all(texts) and len(joined) <= _SPLIT_DIGITS and joined.isascii() and joined.isdigit():
        return list(map(int, texts))
    return list(map(parse_decimal, texts))


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def render_word(w: Word) -> str:
    """Text form: ``(d1,d2,...,dk)@b`` or, for Zeckendorf, a bit string."""
    if w.system is System.ZECKENDORF:
        return bytes(w.digits).translate(_BIT_CHARS).decode()
    body = ",".join(map(format_decimal, w.digits))
    return f"({body})@{format_decimal(w.base)}"

