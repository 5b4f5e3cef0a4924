"""Exponent/repetition/length triples (q, n, l) and their sign witness.

A triple is admissible when it has an infinite family of solutions;
families.family holds that catalogue.  The sign of the exact rational
bound F(q, n, l) = (24/25)nl - 1 - nl/q - l separates the classes
independently of it: F < 0 on every admissible triple, F > 0 on every
inadmissible one, which under abc has only finitely many solutions.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Frozen


class Triple(Frozen, order=True):
    """Exponent q >= 2, repetition count n >= 2, word length l >= 1."""

    __slots__ = ("q", "n", "l")

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")


def F_value(t: Triple) -> Fraction:
    """Exact value of (24/25)nl - 1 - nl/q - l; negative iff admissible."""
    nl = t.n * t.l
    return Fraction(24 * nl, 25) - 1 - Fraction(nl, t.q) - t.l
