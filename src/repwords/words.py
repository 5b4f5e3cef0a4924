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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum


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


def _fibs_through(x: int) -> list[int]:
    # extend the shared cache until it covers x, return a view of it
    while _FIBS[-1] <= x:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS


@dataclass(frozen=True)
class Word:
    """Immutable digit string; equality is (system, base, digits).

    ``base`` carries no meaning for Zeckendorf words and is pinned to 2
    there so that equal words compare equal.
    """

    system: System
    base: int
    digits: tuple[int, ...]

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
            if (1, 1) in zip(d, d[1:]):
                raise MalformedWordError("adjacent 1 digits in zeckendorf word")

    def __len__(self) -> int:
        return len(self.digits)


def canonical_word(base: int, digits: tuple[int, ...]) -> Word:
    return Word(System.CANONICAL, base, digits)


def bijective_word(base: int, digits: tuple[int, ...]) -> Word:
    return Word(System.BIJECTIVE, base, digits)


def zeckendorf_word(digits: tuple[int, ...]) -> Word:
    return Word(System.ZECKENDORF, 2, digits)


def to_canonical(x: int, base: int) -> Word:
    """Base-b digit word of x, most significant first; x = 0 gives ()."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if x < 0:
        raise ValueError("x must be >= 0")
    digits: list[int] = []
    while x:
        x, r = divmod(x, base)
        digits.append(r)
    return Word(System.CANONICAL, base, tuple(reversed(digits)))


def to_bijective(x: int, base: int) -> Word:
    """Bijective base-b word of x >= 1 (digit alphabet 1..b)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if x < 1:
        raise ValueError("x must be >= 1")
    digits: list[int] = []
    while x:
        x, r = divmod(x, base)
        if r == 0:
            # borrow: digit b in this place, one less in the next
            r = base
            x -= 1
        digits.append(r)
    return Word(System.BIJECTIVE, base, tuple(reversed(digits)))


def to_zeckendorf(x: int) -> Word:
    """Zeckendorf bit word of x >= 0 (greedy; never two adjacent 1s)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return Word(System.ZECKENDORF, 2, ())
    fibs = _fibs_through(x)
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
        if n:
            fibonacci(n + 1)
        return sum(_FIBS[n + 1 - j] for j, d in enumerate(w.digits) if d)
    v = 0
    for d in w.digits:
        v = v * w.base + d
    return v


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


def render_word(w: Word) -> str:
    """Text form: ``(d1,d2,...,dk)@b`` or, for Zeckendorf, a bit string."""
    if w.system is System.ZECKENDORF:
        return "".join(str(d) for d in w.digits)
    body = ",".join(str(d) for d in w.digits)
    return f"({body})@{w.base}"

