"""Infinite families of repeated-word powers, one generator per triple.

family(t) is the one catalogue: a triple is admissible exactly when it
has a family, and the admissible triples are (2, 2, l) for every l,
(q, 2, 1) for every q, and the seven sporadic triples (2,3,1), (2,3,2),
(3,2,2), (3,2,3), (3,3,1), (2,4,1), (4,2,2).  The two-repetition families
come from explicit digit identities.  Each sporadic generator is a
NormFamily (the orbit of a seed of a real quadratic ring under the
growing fundamental unit, thinned by a congruence where a divisibility
side condition needs it) plus a member map from an orbit element to
(b, y, c); one orbit walker drops the degenerate members (base below 2)
and numbers the rest.  Every generator emits through search.checked_record,
so a member failing check_solution raises InvariantError naming the member
and the invariant; FamilyError, for a family's own broken invariants, is one.
The bijective and Zeckendorf square families are one construction each,
each member checked by value, which unique words make a check of every
digit; the bundled table of bijective pattern families is read and
checked by corpus, which owns its format.

Seeds are located by bounded brute force over small ring elements with
the required norm, or as the first orbit member with a side condition;
a family's ring, norm and congruence class are its seed's.  Thinning
steps are found by iterating to the first unit power congruent to 1.
"""

from __future__ import annotations

from functools import partial
from itertools import count as _count
from math import isqrt
from typing import Callable, Iterator

from .arith import Frozen, QuadInt, ceil_root, unit_order
from .factoring import is_probable_prime
from .search import InvariantError, SolutionRecord, checked_record
from .triples import Triple
from .words import Word, bijective_word, fibonacci, word_value, zeckendorf_word

# The only three rings that occur, with their fundamental units > 1.
FUNDAMENTAL_UNITS = {
    2: QuadInt(1, 1, 2),
    3: QuadInt(2, 1, 3),
    7: QuadInt(8, 3, 7),
}


# find_seed tries b = 1, 2, ... below this before it gives up
_SEED_BOUND = 100_000


class FamilyError(InvariantError):
    """A family's defining invariants do not hold: a bug, as a solver's are."""


class NormFamily(Frozen, modulus=1):
    """Orbit seed * unit**(step * k), k >= 0, in the seed's ring and norm.

    The unit grows (a, b > 0), so each step grows a positive member.
    Every member stays in the seed's class mod `modulus` (default 1),
    which requires unit**step == 1 mod modulus.
    """

    __slots__ = ("seed", "unit", "step", "modulus")

    def __post_init__(self) -> None:
        if self.unit.d != self.seed.d:
            raise FamilyError("seed and unit must live in the same ring")
        if abs(self.unit.norm()) != 1:
            raise FamilyError("unit must have norm +-1")
        if self.unit.a <= 0 or self.unit.b <= 0:
            raise FamilyError(f"unit {self.unit} does not grow: a and b must be > 0")
        if self.step < 1:
            raise FamilyError("step must be >= 1")
        if not (self.unit**self.step).congruent(QuadInt(1, 0, self.seed.d), self.modulus):
            raise FamilyError(f"unit**{self.step} is not 1 mod {self.modulus}")


def _norm_family_stream(f: NormFamily) -> Iterator[QuadInt]:
    m, norm, g = f.modulus, f.seed.norm(), f.unit**f.step
    x = f.seed
    while True:
        if x.a <= 0 or x.b <= 0 or x.norm() != norm:
            raise FamilyError(f"orbit left the positive norm-{norm} branch at {x}")
        if not x.congruent(f.seed, m):
            raise FamilyError(f"orbit member {x} left its class mod {m}")
        yield x
        x = x * g


def find_seed(d: int, target_norm: int, *, b_multiple: int = 1) -> QuadInt:
    """Smallest (by b) element a + b sqrt(d), a, b > 0, of the given norm
    with b_multiple | b.  Printed seed values are not trusted; this
    search plus the NormFamily checks are the source of truth.
    """
    for b in range(b_multiple, _SEED_BOUND, b_multiple):
        t = target_norm + d * b * b
        if t < 1:
            continue
        a = isqrt(t)
        if a * a == t:
            return QuadInt(a, b, d)
    raise FamilyError(f"no seed with norm {target_norm} below bound {_SEED_BOUND}")


def _emit(t: Triple, members: Iterator[tuple[int, int, int]], count: int) -> list[SolutionRecord]:
    """Checked records of the first `count` of an infinite stream of (b, y, c).

    range leads the zip, so no member past `count` is computed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [
        checked_record(t, b, y, c, f"member {i} of ({t.q},{t.n},{t.l})")
        for i, (b, y, c) in zip(range(1, count + 1), members)
    ]


def _orbit(
    t: tuple[int, int, int],
    fam: NormFamily,
    member: Callable[[QuadInt], tuple[int, int, int]],
    count: int,
) -> list[SolutionRecord]:
    """The first `count` checked records of triple t along fam's orbit.

    member maps each orbit element to (b, y, c); members with base below 2
    are dropped before they are numbered.
    """
    members = (member(el) for el in _norm_family_stream(fam))
    return _emit(Triple(*t), ((b, y, c) for b, y, c in members if b >= 2), count)


# odd powers of 1 + sqrt(2): solutions of a**2 - 2 b**2 = -1
_PELL = NormFamily(FUNDAMENTAL_UNITS[2], FUNDAMENTAL_UNITS[2], 2)
# a**2 - 3 b**2 = -3 with b even (so a odd): the (2,3,1) fiber
_FIBER_231 = NormFamily(find_seed(3, -3, b_multiple=2), FUNDAMENTAL_UNITS[3], 2)


def gen_n21(q: int, count: int) -> list[SolutionRecord]:
    """(q, 2, 1) for any q: c = 1 and b = y**q - 1, so y**q = (1,1) base b."""
    # Triple refuses q < 2
    return _emit(Triple(q, 2, 1), ((y**q - 1, y, 1) for y in _count(2)), count)


def gen_231(count: int) -> list[SolutionRecord]:
    """(2, 3, 1): c = 3 with 3 y0**2 = x**2 + x + 1 from norm -3 in Z[sqrt(3)]."""
    return _orbit((2, 3, 1), _FIBER_231, lambda el: ((el.a - 1) // 2, 3 * (el.b // 2), 3), count)


def _member_232(el: QuadInt) -> tuple[int, int, int]:
    x, y0 = (el.a - 1) // 2, el.b // 2
    num = x * x - x + 1
    if num % 49:
        raise FamilyError(f"x^2 - x + 1 not divisible by 49 at x = {x}")
    return x, 3 * y0 * (num // 7), 3 * (num // 49)


def gen_232(count: int) -> list[SolutionRecord]:
    """(2, 3, 2): one residue class of the (2,3,1) fiber with 49 | x**2 - x + 1.

    The seed is the fiber's first member with that divisibility, which
    holds on the seed's whole class mod 98; the unit step is the order of
    the fundamental unit mod 98.  The fiber's other such class, (39, 30)
    mod 98, is not emitted.
    """
    unit = FUNDAMENTAL_UNITS[3]
    # 4 (x**2 - x + 1) = (a - 2)**2 + 3, so this is _member_232's divisibility
    seed = next(el for el in _norm_family_stream(_FIBER_231) if ((el.a - 2) ** 2 + 3) % 49 == 0)
    fam = NormFamily(seed, unit, unit_order(unit, 98), 98)
    return _orbit((2, 3, 2), fam, _member_232, count)


def gen_322(count: int) -> list[SolutionRecord]:
    """(3, 2, 2): (2 y0)**3 = 4 y0 (x**2 + 1) along 2 y0**2 = x**2 + 1."""
    return _orbit((3, 2, 2), _PELL, lambda el: (el.a, 2 * el.b, 4 * el.b), count)


# a**2 - 7 b**2 = -3 with 14 | b: the (3,3,1) orbit, which (3,2,3) shares
_ORBIT_331 = NormFamily(
    find_seed(7, -3, b_multiple=14), FUNDAMENTAL_UNITS[7], unit_order(FUNDAMENTAL_UNITS[7], 14), 14
)


def _member_331(el: QuadInt) -> tuple[int, int, int]:
    return (el.a - 1) // 2, 7 * (el.b // 14), el.b // 14


def gen_331(count: int) -> list[SolutionRecord]:
    """(3, 3, 1): 343 y0**2 = x**2 + x + 1 from norm -3 in Z[sqrt(7)]."""
    return _orbit((3, 3, 1), _ORBIT_331, _member_331, count)


def _member_323(el: QuadInt) -> tuple[int, int, int]:
    b, y, c = _member_331(el)
    return b + 1, y * (b + 2), c * (b + 2) ** 2


def gen_323(count: int) -> list[SolutionRecord]:
    """(3, 2, 3): the (3,3,1) members under b, y, c -> b+1, y(b+2), c(b+2)**2."""
    return _orbit((3, 2, 3), _ORBIT_331, _member_323, count)


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
    fam = NormFamily(u**7, u, 14)
    return _orbit((4, 2, 2), fam, _member_422, count)


def gen_22_by_length(l: int, count: int) -> list[SolutionRecord]:
    """(2, 2, l): one solution per prime p == 1 mod 2**(t+1), ascending p.

    Writes l = r * 2**t with r odd, takes the smallest base b with
    b**(2**t) == -1 mod p**2, and builds c = m v**2, y = m v p from
    m = (b**l + 1) / p**2 and the least v with v**2 b >= p**2.
    """
    t = (l & -l).bit_length() - 1
    residue_mod = 2 ** (t + 1)

    def stream():
        for p in _count(5):
            if p % residue_mod != 1 or not is_probable_prime(p):
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
            yield witness, m * v * p, m * v * v

    return _emit(Triple(2, 2, l), stream(), count)  # Triple refuses l < 1


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
    l-digit word w = ((b-1) repeated l-2 times, b, 1).  w w is a bijective
    word of value value(w) * (b**l + 1), which is y*y once value(w) == y;
    bijective words are unique, so y*y then spells w w."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    y = b**l + 1
    w = bijective_word(b, (b - 1,) * (l - 2) + (b, 1))
    if word_value(w) != y:
        raise FamilyError("square template failed to verify")
    return y, w


# ---------------------------------------------------------------------------
# Zeckendorf families


def _fibonacci_copy_value(n: int, e: int) -> int:
    """Value of gen_fibonacci_family(n)'s word w followed by e zero digits.

    Its 1-digits weigh F(8n+11+e), the n - 1 terms F(4n+14+e), F(4n+18+e),
    ..., F(8n+6+e), and F(4n+10+e), F(4n+8+e), F(4n+5+e), F(4n+2+e).  The
    progression telescopes, as 5 F(k) = L(k+2) - L(k-2) for the Lucas
    numbers L(k) = F(k-1) + F(k+1).
    """
    a, f = 4 * n + e, fibonacci
    progression = (f(a + 4 * n + 7) + f(a + 4 * n + 9) - f(a + 11) - f(a + 13)) // 5
    return f(a + 4 * n + 11) + progression + f(a + 10) + f(a + 8) + f(a + 5) + f(a + 2)


def gen_fibonacci_family(n: int) -> tuple[int, Word]:
    """y = F(4n+3) + F(4n+6) + F(8n+8) + F(8n+11); its square is w w in
    Zeckendorf for an explicit word w of length 8n + 10.

    The Word checks that w starts with 1 and has no two adjacent 1s.  Once
    value(w) is the closed form's, uniqueness makes w the intended digits,
    which end in 4n >= 4 zeros, so w w is a Zeckendorf word too.  Once
    y*y is its value, uniqueness again makes w w the word of y*y.
    """
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
    v = word_value(w)
    if v != _fibonacci_copy_value(n, 0) or y * y != _fibonacci_copy_value(n, 8 * n + 10) + v:
        raise FamilyError(f"square family fails at n={n}")
    return y, w
