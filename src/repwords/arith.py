"""Exact integer helpers: q-th roots and real quadratic integers.

Everything here is integer arithmetic; no floating point is used, so
results stay exact at any operand size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def iroot(x: int, q: int) -> tuple[int, bool]:
    """(floor(x ** (1/q)), exact) for x >= 0, q >= 1.

    The second component reports whether x is a perfect q-th power.
    Integer Newton's iteration from an overestimate never goes below the
    floor root and decreases strictly above it, so it stops exactly there.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x in (0, 1) or q == 1:
        return x, True
    if q == 2:
        r = math.isqrt(x)
        return r, r * r == x
    if q >= x.bit_length():
        # 2 ** q > x already, so the floor root is 1
        return 1, False
    # Newton iteration from a power-of-two overestimate: 2**(q*ceil(bits/q)) > x
    r = 1 << -(-x.bit_length() // q)
    while True:
        nr = ((q - 1) * r + x // r ** (q - 1)) // q
        if nr >= r:
            return r, r ** q == x
        r = nr


def ceil_root(x: int, q: int) -> int:
    """Least k >= 0 with k ** q >= x."""
    if x <= 0:
        return 0
    r, exact = iroot(x, q)
    return r if exact else r + 1


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*sqrt(d) of the ring Z[sqrt(d)], d >= 2 nonsquare."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 2 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"d must be a nonsquare >= 2, got {self.d}")

    def norm(self) -> int:
        return self.a * self.a - self.d * self.b * self.b

    def __mul__(self, other: QuadInt) -> QuadInt:
        if not isinstance(other, QuadInt):
            return NotImplemented
        if self.d != other.d:
            raise ValueError(f"ring mismatch: sqrt({self.d}) vs sqrt({other.d})")
        return QuadInt(
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __pow__(self, k: int) -> QuadInt:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be an integer >= 0")
        result = QuadInt(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def reduce(self, m: int) -> QuadInt:
        return QuadInt(self.a % m, self.b % m, self.d)

    def congruent(self, other: QuadInt, m: int) -> bool:
        """True when self - other lies in the ideal m * Z[sqrt(d)]."""
        if self.d != other.d:
            raise ValueError(f"ring mismatch: sqrt({self.d}) vs sqrt({other.d})")
        if m < 1:
            raise ValueError("modulus must be >= 1")
        return (self.a - other.a) % m == 0 and (self.b - other.b) % m == 0


# unit_order gives up past this exponent
_ORDER_CAP = 10_000


def unit_order(u: QuadInt, m: int) -> int:
    """Least r >= 1 with u ** r congruent to 1 mod m, for a unit u."""
    if abs(u.norm()) != 1:
        raise ValueError("order is only defined for units")
    one = QuadInt(1, 0, u.d)
    w = u.reduce(m)
    for r in range(1, _ORDER_CAP + 1):
        if w.congruent(one, m):
            return r
        w = (w * u).reduce(m)
    raise ValueError(f"no order found below {_ORDER_CAP}")
