"""Infinite families of repeated-word powers, one generator per triple.

family(t) is the one catalogue: a triple is admissible exactly when it
has a family, and the admissible triples are (2, 2, l) for every l,
(q, 2, 1) for every q, and the seven sporadic triples (2,3,1), (2,3,2),
(3,2,2), (3,2,3), (3,3,1), (2,4,1), (4,2,2).  The two-repetition families
come from explicit digit identities.  Each sporadic generator is a
NormFamily (an orbit of a fundamental unit acting on a fixed-norm element
of a real quadratic ring, sometimes thinned by a congruence so a
divisibility side condition holds) plus a member map from an orbit
element to (b, y, c); one orbit walker drops the degenerate members
(base below 2) and turns the rest into records.  Every generator verifies
the full digit-string property of each candidate before emitting it; a
member that fails raises FamilyError.
The bijective and Zeckendorf square families are one construction each,
checked digit for digit; the bundled table of bijective pattern families
is read and checked by corpus, which owns its format.

Seeds are located by bounded brute force over small ring elements with
the required norm, parity, and congruence.  Unit-power steps are found
by iterating to the first power congruent to 1, never hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count as _count
from math import isqrt
from typing import Callable, Iterator

from .arith import QuadInt, ceil_root, unit_order
from .factoring import primes_upto
from .search import SolutionRecord, verify_solution
from .triples import Triple
from .words import (
    Word,
    bijective_word,
    fibonacci,
    repeat_word,
    to_bijective,
    to_canonical,
    to_zeckendorf,
    zeckendorf_word,
)

# The only three rings that occur, with their fundamental units.
FUNDAMENTAL_UNITS = {
    2: QuadInt(1, 1, 2),
    3: QuadInt(2, -1, 3),
    7: QuadInt(8, -3, 7),
}


# find_seed tries b = 1, 2, ... below this before it gives up
_SEED_BOUND = 100_000


class FamilyError(ValueError):
    """A family's defining invariants do not hold."""


@dataclass(frozen=True)
class NormFamily:
    """Orbit seed * growth**(step * k) inside a fixed-norm fiber.

    congruence, when present, is (m, (ra, rb)): every member must be
    congruent to (ra, rb) mod m, which requires unit**step == 1 mod m.
    """

    d: int
    target_norm: int
    seed: QuadInt
    unit: QuadInt
    step: int
    congruence: tuple[int, tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.seed.d != self.d or self.unit.d != self.d:
            raise FamilyError("seed and unit must live in Z[sqrt(d)]")
        if self.seed.norm() != self.target_norm:
            raise FamilyError(
                f"seed norm {self.seed.norm()} != target {self.target_norm}"
            )
        if abs(self.unit.norm()) != 1:
            raise FamilyError("unit must have norm +-1")
        if self.step < 1:
            raise FamilyError("step must be >= 1")
        if self.congruence is not None:
            m, (ra, rb) = self.congruence
            one = QuadInt(1, 0, self.d)
            if not (self.unit**self.step).congruent(one, m):
                raise FamilyError(f"unit**{self.step} is not 1 mod {m}")
            if (self.seed.a - ra) % m or (self.seed.b - rb) % m:
                raise FamilyError(f"seed violates its congruence mod {m}")


def _growth_direction(unit: QuadInt) -> QuadInt:
    """The associate of the unit with both components positive.

    Exactly one of unit, -unit, and their inverses has a, b > 0, and
    multiplying by it strictly grows positive elements.
    """
    inv = unit.inverse()
    for cand in (unit, -unit, inv, -inv):
        if cand.a > 0 and cand.b > 0:
            return cand
    raise FamilyError("unit has no positive associate")


def _norm_family_stream(f: NormFamily) -> Iterator[QuadInt]:
    g = _growth_direction(f.unit) ** f.step
    if f.congruence is not None:
        m, (ra, rb) = f.congruence
        if not g.congruent(QuadInt(1, 0, f.d), m):
            raise FamilyError(f"growth step is not 1 mod {m}")
    x = f.seed
    if x.a < 0:
        x = -x
    while True:
        if x.a <= 0 or x.b <= 0 or x.norm() != f.target_norm:
            raise FamilyError(f"orbit left the positive norm-{f.target_norm} branch at {x}")
        if f.congruence is not None:
            m, (ra, rb) = f.congruence
            if (x.a - ra) % m or (x.b - rb) % m:
                raise FamilyError(f"orbit member {x} left its class mod {m}")
        yield x
        x = x * g


def find_seed(
    d: int,
    target_norm: int,
    *,
    a_odd: bool = False,
    b_multiple: int = 1,
    a_residues: frozenset[int] | None = None,
    modulus: int = 1,
) -> QuadInt:
    """Smallest (by b, then a) element of Z[sqrt(d)] with the given norm
    and side conditions.  Printed seed values are not trusted; this
    search plus the NormFamily checks are the source of truth.
    """
    for b in range(1, _SEED_BOUND):
        if b % b_multiple:
            continue
        t = target_norm + d * b * b
        if t < 1:
            continue
        a = isqrt(t)
        if a * a != t or a < 1:
            continue
        if a_odd and a % 2 == 0:
            continue
        if a_residues is not None and a % modulus not in a_residues:
            continue
        return QuadInt(a, b, d)
    raise FamilyError(f"no seed with norm {target_norm} below bound {_SEED_BOUND}")


def _emit_verified(candidates: Iterator[SolutionRecord], count: int) -> list[SolutionRecord]:
    """The first `count` candidates; FamilyError if one fails to verify."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out: list[SolutionRecord] = []
    for rec in candidates:
        if not verify_solution(rec):
            raise FamilyError(f"member {len(out) + 1} of ({rec.q},{rec.n},{rec.l}) fails to verify")
        out.append(rec)
        if len(out) == count:
            return out
    raise FamilyError("family stream ended early")


def _rec(q: int, n: int, l: int, b: int, y: int, c: int) -> SolutionRecord:
    return SolutionRecord(q, n, l, b, y, c, to_canonical(c, b))


def _orbit(
    t: tuple[int, int, int],
    fam: NormFamily,
    member: Callable[[QuadInt], tuple[int, int, int]],
    count: int,
) -> list[SolutionRecord]:
    """The first `count` verified records of triple t along fam's orbit.

    member maps each orbit element to (b, y, c); members with base below 2
    are dropped before they become candidates.
    """
    members = (member(el) for el in _norm_family_stream(fam))
    return _emit_verified((_rec(*t, b, y, c) for b, y, c in members if b >= 2), count)


# odd powers of 1 + sqrt(2): solutions of a**2 - 2 b**2 = -1
_PELL = NormFamily(2, -1, FUNDAMENTAL_UNITS[2], FUNDAMENTAL_UNITS[2], 2)


def gen_n21(q: int, count: int) -> list[SolutionRecord]:
    """(q, 2, 1) for any q: c = 1 and b = y**q - 1, so y**q = (1,1) base b."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")

    def stream():
        for y in _count(2):
            yield _rec(q, 2, 1, y**q - 1, y, 1)

    return _emit_verified(stream(), count)


def gen_231(count: int) -> list[SolutionRecord]:
    """(2, 3, 1): c = 3 with 3 y0**2 = x**2 + x + 1 from norm -3 in Z[sqrt(3)]."""
    fam = NormFamily(3, -3, find_seed(3, -3, a_odd=True, b_multiple=2), FUNDAMENTAL_UNITS[3], 2)
    return _orbit((2, 3, 1), fam, lambda el: ((el.a - 1) // 2, 3 * (el.b // 2), 3), count)


def _member_232(el: QuadInt) -> tuple[int, int, int]:
    x, y0 = (el.a - 1) // 2, el.b // 2
    num = x * x - x + 1
    if num % 49:
        raise FamilyError(f"x^2 - x + 1 not divisible by 49 at x = {x}")
    return x, 3 * y0 * (num // 7), 3 * (num // 49)


def gen_232(count: int) -> list[SolutionRecord]:
    """(2, 3, 2): members of the (2,3,1) fiber thinned to 49 | x**2 - x + 1.

    The congruence a == 39 (mod 98) forces the divisibility; the unit
    step is the order of the fundamental unit mod 98.
    """
    unit = FUNDAMENTAL_UNITS[3]
    seed = find_seed(3, -3, a_odd=True, b_multiple=2, a_residues=frozenset({39, 63}), modulus=98)
    fam = NormFamily(3, -3, seed, unit, unit_order(unit, 98), (98, (seed.a % 98, seed.b % 98)))
    return _orbit((2, 3, 2), fam, _member_232, count)


def gen_322(count: int) -> list[SolutionRecord]:
    """(3, 2, 2): (2 y0)**3 = 4 y0 (x**2 + 1) along 2 y0**2 = x**2 + 1."""
    return _orbit((3, 2, 2), _PELL, lambda el: (el.a, 2 * el.b, 4 * el.b), count)


def gen_331(count: int) -> list[SolutionRecord]:
    """(3, 3, 1): 343 y0**2 = x**2 + x + 1 from norm -3 in Z[sqrt(7)]."""
    unit = FUNDAMENTAL_UNITS[7]
    seed = find_seed(7, -3, a_odd=True, b_multiple=14)
    fam = NormFamily(7, -3, seed, unit, unit_order(unit, 14), (14, (seed.a % 14, seed.b % 14)))
    return _orbit((3, 3, 1), fam, lambda el: ((el.a - 1) // 2, 7 * (el.b // 14), el.b // 14), count)


def gen_323(count: int) -> list[SolutionRecord]:
    """(3, 2, 3): image of gen_331 under b, y, c -> b+1, y(b+2), c(b+2)**2."""
    images = (
        _rec(3, 2, 3, r.b + 1, r.y * (r.b + 2), r.c * (r.b + 2) ** 2)
        for r in gen_331(count)
    )
    return _emit_verified(images, count)


def gen_241(count: int) -> list[SolutionRecord]:
    """(2, 4, 1): b = x, c = (x+1)/2, y = y0 (x+1) on 2 y0**2 = x**2 + 1."""
    return _orbit((2, 4, 1), _PELL, lambda el: (el.a, el.b * (el.a + 1), (el.a + 1) // 2), count)


def _member_422(el: QuadInt) -> tuple[int, int, int]:
    c, rem = divmod(8 * 81 * el.b * el.b, 13**4)
    if rem:
        raise FamilyError(f"13^4 does not divide 648 * y0^2 at y0 = {el.b}")
    return el.a, 6 * (el.b // 13), c


def gen_422(count: int) -> list[SolutionRecord]:
    """(4, 2, 2): powers u**(14k+7) in Z[sqrt(2)], which force 13 | y0."""
    u = FUNDAMENTAL_UNITS[2]
    fam = NormFamily(d=2, target_norm=-1, seed=u**7, unit=u, step=14)
    return _orbit((4, 2, 2), fam, _member_422, count)


def gen_22_by_length(l: int, count: int) -> list[SolutionRecord]:
    """(2, 2, l): one solution per prime p == 1 mod 2**(t+1), ascending p.

    Writes l = r * 2**t with r odd, takes the smallest base b with
    b**(2**t) == -1 mod p**2, and builds c = m v**2, y = m v p from
    m = (b**l + 1) / p**2 and the least v with v**2 b >= p**2.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    t = (l & -l).bit_length() - 1
    residue_mod = 2 ** (t + 1)

    def stream():
        sieve_limit = 1 << 10
        emitted_from = 5
        while True:
            for p in primes_upto(sieve_limit):
                if p < max(5, emitted_from) or (p - 1) % residue_mod:
                    continue
                p2 = p * p
                # (Z/p^2)* is cyclic, so for a non-residue g mod p zeta has
                # order 2**(t+1), and the b with b**(2**t) == -1 mod p**2
                # are exactly its odd powers
                g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
                zeta = pow(g, (p2 - p) >> (t + 1), p2)
                witness = min(pow(zeta, j, p2) for j in range(1, residue_mod, 2))
                m, rem = divmod(witness**l + 1, p2)
                if rem:
                    raise FamilyError(f"p^2 = {p2} does not divide {witness}^{l} + 1")
                v = ceil_root(-(-p2 // witness), 2)
                yield _rec(2, 2, l, witness, m * v * p, m * v * v)
            emitted_from = sieve_limit
            sieve_limit *= 2

    return _emit_verified(stream(), count)


# a dict: benchmark tracing rebinds generators held in module-level dicts
_SPORADIC_FAMILIES = {
    (2, 3, 1): gen_231,
    (2, 3, 2): gen_232,
    (3, 2, 2): gen_322,
    (3, 2, 3): gen_323,
    (3, 3, 1): gen_331,
    (2, 4, 1): gen_241,
    (4, 2, 2): gen_422,
}


def family(t: Triple) -> Callable[[int], list[SolutionRecord]] | None:
    """Generator of t's infinite family, called with a count; None if none."""
    if (t.q, t.n) == (2, 2):
        return partial(gen_22_by_length, t.l)
    if (t.n, t.l) == (2, 1):
        return partial(gen_n21, t.q)
    return _SPORADIC_FAMILIES.get((t.q, t.n, t.l))


def is_admissible(t: Triple) -> bool:
    """Whether t has an infinite family; F_value(t) < 0 exactly then."""
    return family(t) is not None


# ---------------------------------------------------------------------------
# bijective families


def gen_bijective_square(b: int, l: int) -> tuple[int, Word]:
    """y = b**l + 1, whose square is w w in bijective base b for the
    l-digit word w = ((b-1) repeated l-2 times, b, 1)."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    y = b**l + 1
    w = bijective_word(b, (b - 1,) * (l - 2) + (b, 1))
    if to_bijective(y * y, b) != repeat_word(w, 2):
        raise FamilyError("square template failed to verify")
    return y, w


# ---------------------------------------------------------------------------
# Zeckendorf families


def gen_fibonacci_family(n: int) -> tuple[int, Word]:
    """y = F(4n+3) + F(4n+6) + F(8n+8) + F(8n+11); its square is w w in
    Zeckendorf for an explicit word w of length 8n + 10."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    y = (
        fibonacci(4 * n + 3)
        + fibonacci(4 * n + 6)
        + fibonacci(8 * n + 8)
        + fibonacci(8 * n + 11)
    )
    digits = (
        (1, 0, 0, 0, 0)
        + (1, 0, 0, 0) * (n - 1)
        + (1, 0, 1, 0, 0, 1, 0, 0, 1)
        + (0,) * (4 * n)
    )
    w = zeckendorf_word(digits)
    if to_zeckendorf(y * y) != repeat_word(w, 2):
        raise FamilyError(f"square family fails at n={n}")
    return y, w

