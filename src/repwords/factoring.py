"""Integer factorization tuned for values of cyclotomic polynomials.

The repunit-like quotient (b**(n*l) - 1) // (b**l - 1) splits as the
product of cyclotomic polynomial values Phi_d(b) over the divisors d of
n*l that do not divide l.  Factoring the small pieces instead of the
full quotient keeps the numbers near their square roots.  A prime p
not dividing d divides Phi_d(b) exactly when b is a primitive d-th root
of unity mod p, so p == 1 (mod d); for d = p**k * m with p not dividing
m, exactly when b is a primitive m-th root.  sieve_pieces uses this to
strip the small primes from the pieces of a whole range of bases at
once: one strided pass per (p, root) instead of a trial division per
base, the residue structure of the Cunningham tables (Brillhart et al.,
Factorizations of b^n +- 1).

The factoring core is deterministic: trial division (for factor), a
perfect power reduction, Miller-Rabin with a fixed witness set (provably
correct below 3.3e24, extended by a strong Lucas test above), and Brent's
cycle finding with a fixed parameter schedule.  Pieces are cached after
sieving, where defect_reaches reads them, and finished on demand; an
optional wall clock budget on that aborts cleanly so long range scans
can record a base as unresolved instead of stalling.  defect_reaches
bounds a base's defect from the sieved pieces alone: a cofactor left
after sieving has all its primes above the trial limit, so its share
is bounded over the exponent shapes it can have, and most bases with
no solution are rejected with no primality test and no rho.
open_defects is the one place a base is decided: it sieves a range,
bounds each base, and factors only the bases the bound leaves open.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Iterator
from functools import cache
from itertools import repeat

from .arith import Frozen, iroot

_TRIAL_LIMIT = 10_000

# Deterministic Miller-Rabin witnesses: correct for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


class FactorBudgetError(RuntimeError):
    """Raised when a factorization exceeds its wall clock budget."""


def check_budget(budget_ms: int | None) -> None:
    """ValueError unless budget_ms is None (no budget) or >= 0."""
    if budget_ms is not None and budget_ms < 0:
        raise ValueError(f"factoring budget must be >= 0, got {budget_ms}")


class _Deadline:
    __slots__ = ("at",)

    def __init__(self, budget_ms: int | None):
        check_budget(budget_ms)
        self.at = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    def check(self) -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise FactorBudgetError("factoring budget exceeded")


_sieve_primes: list[int] = []
_sieve_limit = 0


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, from a cached sieve grown on demand."""
    global _sieve_primes, _sieve_limit
    if limit > _sieve_limit:
        size = max(limit, 2 * _sieve_limit, _TRIAL_LIMIT)
        flags = bytearray([1]) * (size + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(size) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(range(p * p, size + 1, p)))
        _sieve_primes = [i for i in range(size + 1) if flags[i]]
        _sieve_limit = size
    if limit >= _sieve_limit:
        return _sieve_primes
    return _sieve_primes[: bisect_right(_sieve_primes, limit)]


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameters: first D in 5, -7, 9, -11, ... with (D/n) = -1.
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # Lucas ladder for U_d, V_d with P = 1.
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V = U // 2 % n, V // 2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Deterministic below 3.3e24; Miller-Rabin plus strong Lucas above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if not _miller_rabin(n, _MR_BASES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    r, exact = iroot(n, 2)
    if exact:
        return False
    return _strong_lucas_prp(n)


def _brent_cycle(n: int, c: int, deadline: _Deadline) -> int:
    """One Brent rho run on odd composite n; returns a factor or n."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
            deadline.check()
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
    return g


def _find_factor(n: int, deadline: _Deadline) -> int:
    """Nontrivial factor of an odd composite n, deterministic schedule."""
    c = 1
    while True:
        g = _brent_cycle(n, c, deadline)
        if 1 < g < n:
            return g
        c += 1
        deadline.check()


class Factorization(Frozen):
    """Prime factorization as ((p1, e1), ...) with p1 < p2 < ..."""

    __slots__ = ("factors",)

    def __post_init__(self) -> None:
        ps = [p for p, _ in self.factors]
        if ps != sorted(ps) or len(set(ps)) != len(ps):
            raise ValueError("factors must be sorted by distinct prime")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")


def _trial_divide(n: int, out: dict[int, int]) -> int:
    """Divide n by the primes up to the trial limit into out; returns the
    cofactor.

    The loop stops at p * p > n, so a cofactor below _TRIAL_LIMIT**2 is
    1 or a prime.
    """
    for p in primes_upto(_TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return n


def root_step(g: int, q: int) -> int:
    """The least y >= 1 with g | y**q, or a divisor of it; never runs rho.

    That least y is the product of p**ceil(e/q) over the primes p**e of
    g.  After trial division, a cofactor below the limit's square or a
    probable prime is one prime to the first power and joins the step;
    any other cofactor is dropped, which leaves a divisor.
    """
    primes: dict[int, int] = {}
    rest = _trial_divide(g, primes)
    step = math.prod(p ** -(-e // q) for p, e in primes.items())
    if rest < _TRIAL_LIMIT**2 or is_probable_prime(rest):
        step *= rest
    return step


def _finish(n: int, out: dict[int, int], deadline: _Deadline) -> None:
    """Factor a trial-division cofactor n into out."""
    # each entry (m, e) stands for m**e; every prime of m is above the
    # trial limit, so any m below the limit's square is prime
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        for q in primes_upto(m.bit_length()):
            root, exact = iroot(m, q)
            if exact:
                stack.append((root, e * q))
                break
        else:
            g = _find_factor(m, deadline)
            stack += [(g, e), (m // g, e)]


def factor(x: int, *, budget_ms: int | None = None) -> Factorization:
    """Full prime factorization of x >= 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    deadline = _Deadline(budget_ms)
    out: dict[int, int] = {}
    _finish(_trial_divide(x, out), out, deadline)
    return Factorization(tuple(sorted(out.items())))


class IntPoly(Frozen):
    """Integer polynomial, coefficients in ascending degree order."""

    __slots__ = ("coeffs",)

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def divexact(self, other: IntPoly) -> IntPoly:
        """Quotient self / other, which must divide with zero remainder."""
        rem = list(self.coeffs)
        out = [0] * (len(self.coeffs) - len(other.coeffs) + 1)
        for i in range(len(out) - 1, -1, -1):
            q, r = divmod(rem[i + other.degree], other.coeffs[-1])
            if r:
                raise ValueError("not an exact polynomial division")
            out[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        if any(rem):
            raise ValueError("not an exact polynomial division")
        return IntPoly(tuple(out))


def _x_pow_minus_one(m: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (m - 1) + (1,))


_cyclo_cache: dict[int, IntPoly] = {1: IntPoly((-1, 1))}


def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial Phi_m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    got = _cyclo_cache.get(m)
    if got is not None:
        return got
    # Phi_m = (X^m - 1) / prod of Phi_d over proper divisors d of m.
    poly = _x_pow_minus_one(m)
    for d in range(1, m):
        if m % d == 0:
            poly = poly.divexact(cyclotomic(d))
    _cyclo_cache[m] = poly
    return poly


def divisors(m: int) -> list[int]:
    """Divisors of m >= 1 in increasing order."""
    small, large = [], []
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
    return small + large[::-1]


# sieved pieces keyed by (d, b): (prime powers, cofactor), the cofactor 1
# once fully factored; the oldest goes first at the bound
_PIECE_CACHE_MAX = 1_000_000
_piece_cache: OrderedDict[tuple[int, int], tuple[tuple, int]] = OrderedDict()


@cache
def _piece_orders(n: int, l: int) -> tuple[int, ...]:
    """The d | n*l with d not dividing l: Phi_d(b) is a piece of the quotient."""
    return tuple(d for d in divisors(n * l) if l % d)


@cache
def _residue_primes(d: int) -> tuple[int, ...]:
    """Primes p <= trial limit with p == 1 (mod d) or p | d: the only
    primes below it that can divide a value of Phi_d."""
    return tuple(p for p in primes_upto(_TRIAL_LIMIT) if p % d == 1 or d % p == 0)


def _unit_roots(m: int, p: int) -> tuple[int, ...]:
    """The residues of multiplicative order exactly m mod the prime p."""
    if m == 1:
        return (1,)
    if (p - 1) % m:
        return ()
    # the units mod p are cyclic, so some x**((p-1)/m) has order exactly m
    for x in range(2, p):
        h = pow(x, (p - 1) // m, p)
        powers = [h]
        while powers[-1] != 1:
            powers.append(powers[-1] * h % p)
        if len(powers) == m:
            return tuple(sorted(powers[k - 1] for k in range(1, m) if math.gcd(k, m) == 1))
    raise AssertionError(f"no unit of order {m} mod {p}")


# d -> [(p, roots), ...] over a prefix of _residue_primes(d), grown on demand
_root_tables: dict[int, list[tuple[int, tuple[int, ...]]]] = {}


def _residue_roots(d: int, limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """(p, roots) for the primes p <= limit of _residue_primes(d), where p
    divides Phi_d(b) exactly when b mod p is in roots.

    For p not dividing d the roots are the primitive d-th roots of unity
    mod p.  For d = p**k * m with p not dividing m, Phi_d is Phi_m to a
    power mod p, so they are the primitive m-th roots.
    """
    primes = _residue_primes(d)
    table = _root_tables.setdefault(d, [])
    k = bisect_right(primes, limit)
    for p in primes[len(table) : k]:
        m = d
        while m % p == 0:
            m //= p
        table.append((p, _unit_roots(m, p)))
    return table[:k]


def sieve_pieces(lo: int, hi: int, n: int, l: int) -> list[tuple[tuple[tuple, int], ...]]:
    """For each base b in lo..hi, the cached (prime powers, cofactor) entry
    of each piece Phi_d(b) of the quotient, d in _piece_orders(n, l).

    Each column d is fetched from the piece cache in one pass, each (d, b)
    looked up once.  Only the missing values are evaluated and sieved:
    for each prime p <= min(B, isqrt(Phi_d(b_max))) of _residue_primes(d)
    (B the trial limit, b_max the largest missing base) and each of its
    roots r, the bases b == r (mod p) are divided by p fully.  Every
    prime of what is left exceeds that bound, so a cofactor below B**2 is
    1 or a prime.
    """
    if lo < 2:
        raise ValueError(f"base must be >= 2, got {lo}")
    if n < 1 or l < 1:
        raise ValueError("n and l must be >= 1")
    bases = range(lo, hi + 1)
    columns = []
    for d in _piece_orders(n, l):
        entries = list(map(_piece_cache.get, zip(repeat(d), bases)))
        if None in entries:
            _sieve(d, lo, entries)
        columns.append(entries)
    # with n = 1 there is no piece: each base's row is empty
    return list(zip(*columns)) if columns else [()] * len(bases)


def _sieve(d: int, lo: int, entries: list) -> None:
    """Fill the None entries, those of bases lo + i, with sieved pieces
    Phi_d(lo + i), and cache them."""
    phi = cyclotomic(d)
    vals = [phi(lo + i) if e is None else None for i, e in enumerate(entries)]
    powers: list[list[tuple[int, int]]] = [[] for _ in entries]
    span = len(entries)
    top = max(v for v in vals if v is not None)
    table = _residue_roots(d, min(_TRIAL_LIMIT, math.isqrt(top)))
    if span < phi.degree:
        # fewer bases than roots (phi(d) of them for p not dividing d): test
        # each base once per prime instead; above the width a prime's one
        # residue hits only the base it came from
        table = [(p, roots) for p, roots in table if p <= span] + [
            (p, (b % p,)) for b in range(lo, lo + span) for p, roots in table
            if p > span and b % p in roots
        ]
    for p, roots in table:
        for r in roots:
            i = (r - lo) % p
            while i < span:
                v = vals[i]
                if v is not None:
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    vals[i] = v
                    powers[i].append((p, e))
                i += p
    for i, v in enumerate(vals):
        if v is not None:
            if len(_piece_cache) >= _PIECE_CACHE_MAX:
                _piece_cache.popitem(last=False)
            entries[i] = _piece_cache[(d, lo + i)] = (tuple(powers[i]), v)


def factor_quotient(b: int, n: int, l: int, *, budget_ms: int | None = None) -> Factorization:
    """Factor (b**(n*l) - 1) // (b**l - 1) piecewise via cyclotomic values.

    Starts from base b's row of sieve_pieces, a cache hit when a range
    scan has just sieved b.  Pieces are memoized per (d, b), so range
    scans that share pieces across triples do not refactor them.
    budget_ms bounds the whole call; sieving is not counted against it.
    """
    [pieces] = sieve_pieces(b, b, n, l)
    deadline = _Deadline(budget_ms)
    total: dict[int, int] = {}
    for d, (powers, cofactor) in zip(_piece_orders(n, l), pieces):
        if cofactor > 1:
            out = dict(powers)
            _finish(cofactor, out, deadline)
            powers = tuple(out.items())
            _piece_cache[(d, b)] = (powers, 1)
        for p, e in powers:
            total[p] = total.get(p, 0) + e
    return Factorization(tuple(sorted(total.items())))


# a cofactor with more primes than this, counted with multiplicity, keeps
# its cheap share: the shape table grows like the partition numbers
_SHAPE_PRIMES_MAX = 12


@cache
def _shapes(E: int, q: int) -> tuple[tuple[int, tuple[tuple[int, int, int, int], ...]], ...]:
    """Each exponent shape e_1 >= e_2 >= ... >= 1 with sum <= E as (g,
    corners): g the gcd of the e_i and, for each i, (e_i, r_i, B**(sum of
    the other e_j), B**(sum of the other r_j)), r_j = -e_j mod q and B
    the trial limit."""
    shapes = [()]
    for shape in shapes:  # grows as it is walked, each shape once
        top = min(shape[-1] if shape else E, E - sum(shape))
        shapes += [shape + (e,) for e in range(1, top + 1)]
    out = []
    for shape in shapes[1:]:
        se, sr = sum(shape), sum(-e % q for e in shape)
        corners = {
            (e, -e % q, _TRIAL_LIMIT ** (se - e), _TRIAL_LIMIT ** (sr - (-e % q))) for e in shape
        }
        out.append((math.gcd(*shape), tuple(sorted(corners))))
    return tuple(out)


def _cheap_share(m: int, q: int) -> int:
    """Lower bound on the share of a cofactor m >= B**2 with no prime up
    to B: m**((q-E)/E) if E < q, else B + 1 unless m is a q-th power."""
    if m < _TRIAL_LIMIT**q:
        top = max(e for e in range(2, q) if _TRIAL_LIMIT**e <= m)
        return iroot(m ** (q - top), top)[0]
    return 1 if iroot(m, q)[1] else _TRIAL_LIMIT + 1


def _least_share(m: int, q: int) -> int:
    """Least share of a cofactor m >= B**2 with no prime up to B over the
    exponent shapes it can have (see defect_reaches)."""
    E = next((e for e in range(2, _SHAPE_PRIMES_MAX + 1) if m < _TRIAL_LIMIT ** (e + 1)), 0)
    if not E:
        return _cheap_share(m, q)
    powers = {g for g in range(2, E + 1) if iroot(m, g)[1]}
    return min(
        min(br * iroot((m // be) ** r, e)[0] for e, r, be, br in corners)
        for g, corners in _shapes(E, q)
        if g == 1 or g in powers
    )


def defect_reaches(n: int, l: int, q: int, limit: int, pieces: tuple) -> bool:
    """True when the least d making d * quotient a q-th power is >= limit.

    Judged from the sieved pieces (one base's row of sieve_pieces), with
    no primality test or rho;
    False only means the bound stays below limit.  Found primes and
    cofactors below B**2 (B the trial limit; such a cofactor is prime)
    count exactly.  A larger cofactor m is prod p_i**e_i with every p_i
    above B and sum e_i <= E, B**E <= m < B**(E+1).  Its share
    prod p_i**r_i, r_i = -e_i mod q, is first bounded cheaply: by
    m**((q-E)/E) if E < q, else by B + 1 unless m is a q-th power.  If
    that falls short of limit, each share is redone as the least over
    the shapes {e_i} m can have: a shape whose e_i have a gcd g > 1
    needs m to be a g-th power; one prime p**e has exactly
    iroot(m, e)**r; several have at least the least corner over i,
    B**(sum_{j!=i} r_j) * iroot((m // B**(sum_{j!=i} e_j))**r_i, e_i),
    where every prime but p_i sits at B.  Cofactors of two pieces share
    no prime unless it divides n*l, so this needs n*l < B: then each
    other prime's part is multiplied in as its piece comes, only the
    primes of n*l are summed over the pieces, and the exact part, which
    only grows, decides the base as soon as it reaches limit.  A small
    cofactor p not dividing n*l is multiplied in as p**(q-1); the dict of
    shared primes and the tuple of large cofactors are built only when a
    base meets a prime of n*l or a cofactor of at least B**2.
    """
    nl = n * l
    if nl >= _TRIAL_LIMIT:
        return False
    exact = 1
    shared: dict[int, int] | None = None
    large = ()
    for powers, cofactor in pieces:
        if cofactor >= _TRIAL_LIMIT * _TRIAL_LIMIT:
            large += (cofactor,)
        elif cofactor > 1:
            if nl % cofactor:
                exact *= cofactor ** (q - 1)
            else:
                powers += ((cofactor, 1),)
        for p, e in powers:
            if nl % p:
                exact *= p ** (-e % q)
            elif shared is None:
                shared = {p: e}
            else:
                shared[p] = shared.get(p, 0) + e
        if exact >= limit:
            return True
    if shared:
        for p, e in shared.items():
            exact *= p ** (-e % q)
    bound = exact
    for m in large:
        if bound >= limit:
            return True
        bound *= _cheap_share(m, q)
    if bound >= limit or not large:
        return bound >= limit
    for m in large:
        exact *= _least_share(m, q)
    return exact >= limit


def compute_defect(f: Factorization, q: int) -> int:
    """Least d >= 1 such that d times the product of f's prime powers is
    a perfect q-th power."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    d = 1
    for p, e in f.factors:
        d *= p ** (-e % q)
    return d


def open_defects(
    lo: int, hi: int, n: int, l: int, q: int, *, budget_ms: int | None = None
) -> Iterator[tuple[int, int | None]]:
    """(b, d) for each base b in lo..hi, ascending, whose defect bound
    stays below b**l: d is the defect of the factored quotient, or None
    when factoring it exceeded budget_ms.

    A base left out has no solution: its defect reaches b**l, the top of
    the c-range (defect_reaches).  The range is sieved at once, and only
    the bases the bound leaves open are factored.
    """
    for b, pieces in zip(range(lo, hi + 1), sieve_pieces(lo, hi, n, l)):
        if defect_reaches(n, l, q, b**l, pieces):
            continue
        try:
            d = compute_defect(factor_quotient(b, n, l, budget_ms=budget_ms), q)
        except FactorBudgetError:
            d = None
        yield b, d
