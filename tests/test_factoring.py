"""Factorization stack: primality, rho splitting, cyclotomic pieces."""

import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repwords import factoring
from repwords.factoring import (
    FactorBudgetError,
    Factorization,
    cyclotomic,
    divisors,
    factor,
    factor_quotient,
    is_probable_prime,
    primes_upto,
    root_step,
)

# frozen oracle: small factorizations checked by hand multiplication
KNOWN = [
    (1, ()),
    (2, ((2, 1),)),
    (12, ((2, 2), (3, 1))),
    (97, ((97, 1),)),
    (2**10, ((2, 10),)),
    (507, ((3, 1), (13, 2))),
    (1000003, ((1000003, 1),)),
    (10**9 + 7, ((10**9 + 7, 1),)),
    # 2^64+1 splits as 274177 * 67280421310721 (classic)
    (2**64 + 1, ((274177, 1), (67280421310721, 1))),
]


@pytest.mark.parametrize("n,expect", KNOWN)
def test_factor_known(n, expect):
    assert factor(n).factors == expect


def test_factorization_value_and_merge():
    f = factor(360)
    assert math.prod(p**e for p, e in f.factors) == 360
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # must be sorted
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponents start at 1


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10_000)) == 1229
    # growing the sieve keeps earlier answers stable
    assert primes_upto(100_000)[-1] == 99991
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_probable_prime_edges():
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert not is_probable_prime(4)
    # strong pseudoprime to base 2, composite: 2047 = 23 * 89
    assert not is_probable_prime(2047)
    # Carmichael numbers
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_probable_prime(n)
    assert is_probable_prime(2**89 - 1)  # Mersenne prime
    assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287
    # psi_12, the least strong pseudoprime to every base 2..37, goes on to
    # the strong Lucas test, which refuses it
    psi_12 = 318_665_857_834_031_151_167_461
    assert factoring._miller_rabin(psi_12, factoring._MR_BASES)
    assert not is_probable_prime(psi_12)
    assert factor(psi_12).factors == ((399_165_290_221, 1), (798_330_580_441, 1))


def test_is_probable_prime_above_the_proven_bound():
    # primes past 3.2e23 whose n + 1 has an odd part above 1, so the
    # strong Lucas ladder runs over its bits
    for p in (10**25 + 13, 10**30 + 57, (2**148 + 1) // 17):
        assert is_probable_prime(p)


def test_strong_lucas_matches_sieve():
    # the strong Lucas pseudoprimes below 10**5 (OEIS A217255)
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                    40309, 58519, 75077, 97439}
    primes = set(primes_upto(100_000))
    wrong = {
        n
        for n in range(5, 100_001, 2)
        if math.isqrt(n) ** 2 != n and factoring._strong_lucas_prp(n) != (n in primes)
    }
    assert wrong == pseudoprimes


def test_perfect_power_factoring():
    p = 1000003
    assert factor(p**4).factors == ((p, 4),)
    assert factor((2**31 - 1) ** 2).factors == ((2**31 - 1, 2),)


def test_factor_budget():
    # two tough 40-digit-ish cofactors with no small prime: must time out
    hard = (2**101 - 1) * (2**103 - 1)
    with pytest.raises(FactorBudgetError):
        factor(hard, budget_ms=1)


def test_factor_residue_hint():
    # prime divisors of b^4+1 = Phi_8(b) are 2 or == 1 mod 8, so sieving
    # the piece by those primes alone must agree with full trial division
    assert factor_quotient(1699, 2, 4) == factor(1699**4 + 1)


def test_cyclotomic_polynomials():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(8).coeffs == (1, 0, 0, 0, 1)
    # degree = Euler phi
    assert len(cyclotomic(105).coeffs) - 1 == 48
    # 105 is the first index with a coefficient of magnitude 2
    assert min(cyclotomic(105).coeffs) == -2


def test_cyclotomic_product_identity():
    for m in (1, 2, 6, 12, 30):
        prod = 1
        for d in divisors(m):
            prod_poly = cyclotomic(d)
            prod *= prod_poly(7)
        assert prod == 7**m - 1


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_cyclotomic_split_covers_quotient():
    # the product of the factored cyclotomic pieces is (b^(n*l)-1)/(b^l-1)
    for n, l, b in [(3, 1, 22), (3, 2, 68), (2, 2, 239), (2, 3, 19), (4, 1, 7), (6, 2, 5)]:
        f = factor_quotient(b, n, l)
        assert math.prod(p**e for p, e in f.factors) == (b ** (n * l) - 1) // (b**l - 1)


@pytest.mark.parametrize(
    "b,n,l,expect",
    [
        (22, 3, 1, ((3, 1), (13, 2))),  # 507 = 3 * 13^2
        (18, 3, 1, ((7, 3),)),  # 343
        (7, 2, 2, ((2, 1), (5, 2))),  # 50
        (10, 2, 1, ((11, 1),)),
    ],
)
def test_factor_quotient_known(b, n, l, expect):
    assert factor_quotient(b, n, l).factors == expect


def test_piece_cache_is_bounded(monkeypatch):
    # past the bound the oldest piece is evicted, and results stay exact
    from collections import OrderedDict

    monkeypatch.setattr(factoring, "_PIECE_CACHE_MAX", 4)
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    for b in range(2, 40):
        for n, l in ((2, 1), (3, 1), (2, 2), (3, 2)):
            f = factor_quotient(b, n, l)
            assert len(factoring._piece_cache) <= 4
            assert f == factor((b ** (n * l) - 1) // (b**l - 1))
    # the four pieces of base 39, in first-use order: every older one is gone
    assert list(factoring._piece_cache) == [(2, 39), (3, 39), (4, 39), (6, 39)]


# (n, l) of every triple with n * l <= 24
SIEVE_SHAPES = [(n, l) for l in range(1, 13) for n in range(2, 25) if n * l <= 24]
# chunks as a range scan sieves them, two of them on either side of 20,000
SIEVE_WINDOWS = [(2, 257), (258, 513), (514, 700), (19_900, 20_000), (20_001, 20_100)]


def _assert_exact_piece(d, b, powers, cofactor, small):
    B = factoring._TRIAL_LIMIT
    primes = [p for p, _ in powers]
    assert primes == sorted(set(primes))
    assert all(p <= B and (p % d == 1 or d % p == 0) for p in primes)
    assert all(e >= 1 for _, e in powers)
    assert math.prod(p**e for p, e in powers) * cofactor == cyclotomic(d)(b)
    if cofactor < B * B:
        assert cofactor == 1 or is_probable_prime(cofactor)
    else:
        assert math.gcd(cofactor, small) == 1


def test_sieved_pieces_are_exact(monkeypatch):
    # each piece Phi_d(b) is its sieved prime powers times a cofactor that
    # is 1 or a prime below B**2, or has no prime up to B (B the trial
    # limit); where no cofactor reaches B**2 the quotient's factorization
    # equals factor() of the whole quotient
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    B = factoring._TRIAL_LIMIT
    small = math.prod(primes_upto(B))
    seen = set()
    for lo, hi in SIEVE_WINDOWS:
        for n, l in SIEVE_SHAPES:
            rows = factoring.sieve_pieces(lo, hi, n, l)
            orders = [d for d in divisors(n * l) if l % d]
            assert len(rows) == hi - lo + 1
            for b, pieces in zip(range(lo, hi + 1), rows):
                assert len(pieces) == len(orders)
                for d, (powers, cofactor) in zip(orders, pieces):
                    if (d, b) in seen:
                        continue
                    seen.add((d, b))
                    _assert_exact_piece(d, b, powers, cofactor, small)
                if (b - lo) % 11 == 0 and all(m < B * B for _, m in pieces):
                    quotient = (b ** (n * l) - 1) // (b**l - 1)
                    assert factor_quotient(b, n, l) == factor(quotient)
    assert len(seen) == 23 * sum(hi - lo + 1 for lo, hi in SIEVE_WINDOWS)


def test_narrow_windows_are_exact(monkeypatch):
    # a window narrower than phi(d) tests each base against each prime's
    # roots; a prime dividing d may be no wider than the window (2 | Phi_8,
    # 3 | Phi_9, 5 | Phi_20) and must still divide each base out once
    small = math.prod(primes_upto(factoring._TRIAL_LIMIT))
    for lo in (2, 3, 19_995):
        for n in (8, 9, 16, 18, 20, 24):
            for span in range(1, 9):
                monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
                rows = factoring.sieve_pieces(lo, lo + span - 1, n, 1)
                for b, pieces in zip(range(lo, lo + span), rows):
                    for d, (powers, cofactor) in zip(divisors(n)[1:], pieces):
                        _assert_exact_piece(d, b, powers, cofactor, small)


def test_sieve_roots_for_primes_dividing_the_order(monkeypatch):
    # 6 = 2 * 3: mod 3, Phi_6 is Phi_2 squared, so 3 divides Phi_6(b)
    # exactly when b == 2 (mod 3); mod 2 it is Phi_3 squared, which has
    # no root, so Phi_6(b) = b*b - b + 1 is never even
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    assert factoring._residue_roots(6, 7) == [(2, ()), (3, (2,)), (7, (3, 5))]
    for lo, hi in ((2, 200), (19_990, 20_010)):
        # (b**6 - 1) / (b**3 - 1) = Phi_2(b) * Phi_6(b)
        for b, pieces in zip(range(lo, hi + 1), factoring.sieve_pieces(lo, hi, 2, 3)):
            # the pieces are Phi_2(b) and Phi_6(b), in the order of the divisors
            _, (powers, cofactor) = pieces
            got = dict(powers)
            assert (3 in got) == (b % 3 == 2) and 2 not in got
            assert got.get(3, 0) <= 1 and cofactor % 2 == 1
    # each table lists exactly the residues b mod p with p | Phi_d(b)
    for d in range(2, 25):
        for p, roots in factoring._residue_roots(d, 300):
            assert roots == tuple(b for b in range(p) if cyclotomic(d)(b) % p == 0)
    # Phi_2(b) = b + 1: the root of 2 is 1, and 2 divides out fully
    [[(powers, _)]] = factoring.sieve_pieces(31, 31, 2, 1)
    assert powers == ((2, 5),)


def test_factor_quotient_matches_direct():
    for b in (2, 3, 10, 97, 1000):
        direct = factor((b**8 - 1) // (b**2 - 1))
        assert factor_quotient(b, 4, 2) == direct


# the benchmark's 17 sweep triples, then (3,2,4) and (3,3,3), as (q, n, l)
DEFECT_TRIPLES = [
    (2, 4, 2), (2, 5, 2), (2, 6, 1), (3, 3, 2), (3, 4, 1), (3, 5, 1), (4, 2, 4),
    (4, 3, 2), (5, 3, 1), (6, 2, 3), (2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3),
    (3, 3, 1), (2, 4, 1), (4, 2, 2), (3, 2, 4), (3, 3, 3),
]


def test_defect_bound_never_exceeds_the_defect(monkeypatch):
    # defect_reaches(d + 1) is False for the exact defect d of every base.
    # Each window sieves all its rows into an empty cache before any piece
    # is finished, so every triple's row keeps its large cofactors; the
    # exact factorizations are shared through the cache.  The shape step
    # must decide bases of (4,2,4), (3,5,1) and (3,2,4) at the limit b**l.
    shaped = []
    least_share = factoring._least_share
    monkeypatch.setattr(factoring, "_least_share", lambda m, q: shaped.append(m) or least_share(m, q))
    decided = set()
    for lo, hi in ((2, 1_600), (19_000, 19_100)):
        monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
        rows = {(q, n, l): factoring.sieve_pieces(lo, hi, n, l) for q, n, l in DEFECT_TRIPLES}
        for (q, n, l), triple_rows in rows.items():
            for b, row in zip(range(lo, hi + 1), triple_rows):
                d = math.prod(p ** (-e % q) for p, e in factor_quotient(b, n, l).factors)
                assert not factoring.defect_reaches(n, l, q, d + 1, row), (q, n, l, b)
                before = len(shaped)
                if factoring.defect_reaches(n, l, q, b**l, row) and len(shaped) > before:
                    decided.add((q, n, l))
    assert {(4, 2, 4), (3, 5, 1), (3, 2, 4)} <= decided


def _parent_defect_reaches(n, l, q, limit, pieces):
    # defect_reaches as written with an eager shared dict and large list,
    # each small cofactor appended to its piece's primes: the oracle that
    # the allocation-free version must agree with
    B = factoring._TRIAL_LIMIT
    nl = n * l
    if nl >= B:
        return False
    exact = 1
    shared = {}
    large = []
    for powers, cofactor in pieces:
        if cofactor >= B * B:
            large.append(cofactor)
        elif cofactor > 1:
            powers += ((cofactor, 1),)
        for p, e in powers:
            if nl % p:
                exact *= p ** (-e % q)
            else:
                shared[p] = shared.get(p, 0) + e
        if exact >= limit:
            return True
    for p, e in shared.items():
        exact *= p ** (-e % q)
    bound = exact
    for m in large:
        if bound >= limit:
            return True
        bound *= factoring._cheap_share(m, q)
    if bound >= limit or not large:
        return bound >= limit
    for m in large:
        exact *= factoring._least_share(m, q)
    return exact >= limit


# the shape-decided bases of test_search.SHAPE_DECIDED, as (q, n, l), bases
SHAPE_BASES = [
    ((3, 5, 1), (10_005, 10_007, 10_010, 10_012, 10_023, 10_027)),
    ((2, 3, 1), (10_008, 10_011, 10_029, 10_034)),
    ((3, 3, 3), (102,)),
    ((2, 4, 2), (515,)),
]


def test_defect_bound_matches_the_eager_version(monkeypatch):
    # the same verdict at the scan's limit b**l and at b**(2l) on every
    # base of the sweep triples, on windows whose cofactors pass B**2, on
    # the shape-decided bases, and on lone small bases, whose narrow sieve
    # leaves cofactors that divide n*l (Phi_2(2) = 3 with n*l = 6)
    windows = [(t, 2, 1_600) for t in DEFECT_TRIPLES[:17]]
    windows += [(t, 9_990, 10_060) for t in ((3, 5, 1), (2, 5, 2), (4, 2, 4))]
    windows += [(t, b, b) for t, bases in SHAPE_BASES for b in bases]
    windows += [(t, b, b) for t in DEFECT_TRIPLES[:17] for b in range(2, 41)]
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    for (q, n, l), lo, hi in windows:
        if hi == lo:
            factoring._piece_cache.clear()
        for b, row in zip(range(lo, hi + 1), factoring.sieve_pieces(lo, hi, n, l)):
            for limit in (b**l, b ** (2 * l)):
                want = _parent_defect_reaches(n, l, q, limit, row)
                assert factoring.defect_reaches(n, l, q, limit, row) == want, (q, n, l, b)


# primes just above the trial limit B = 10,000
P, R, S, T = 10_007, 10_009, 10_037, 10_039


@pytest.mark.parametrize(
    "cofactors,q,bound",
    [
        # one prime p**e: the share is exactly iroot(m, e)**(-e mod q)
        ((P**2,), 3, P),
        ((P**3,), 4, P),
        # squarefree p*r with q = 2 (the cheap rule gives B + 1): {1} and
        # the corner of {1, 1} with one prime at B give B * (m // B)
        ((P * R,), 2, 10_000 * (P * R // 10_000)),
        # p*r*s*t is no square, so {2, 2} and {4} are skipped and {2, 1},
        # a huge square times a prime at B, gives B; only with that does
        # the p*r beside it lift the bound past the cheap (B + 1)**2
        ((P * R * S * T, P * R), 2, 10_000 * 10_000 * (P * R // 10_000)),
        # the prime 2 of n*l = 2 left as the cofactor of two pieces: merged,
        # 2**2 has the part 2 for q = 3, where one part per piece gives 16
        ((2, 2), 3, 2),
    ],
)
def test_defect_bound_of_handmade_cofactors(cofactors, q, bound):
    row = tuple(((), m) for m in cofactors)

    def reaches(limit):
        return factoring.defect_reaches(2, 1, q, limit, row)

    assert reaches(bound) and not reaches(bound + 1)


# fourteen primes above B, for cofactors past the shape table
BIG = [p for p in primes_upto(10_400) if p > 10_000][:14]


@pytest.mark.parametrize(
    "exponents,q",
    [
        # p**13 is no square or cube: B + 1 against the true p or p**2
        ({BIG[0]: 13}, 2),
        ({BIG[0]: 13}, 3),
        # q-th powers have true share 1, and so must the bound
        ({BIG[0]: 14}, 2),
        ({BIG[0]: 15}, 3),
        ({p: 2 for p in BIG[:7]}, 2),
        # q above E = 13: the bound m**((q - E)/E) meets p**4 exactly
        ({BIG[0]: 13}, 17),
        # thirteen distinct primes, one of them squared for q = 3
        (dict.fromkeys(BIG[:13], 1), 2),
        ({**dict.fromkeys(BIG[:13], 1), BIG[13]: 2}, 3),
        (dict.fromkeys(BIG[:13], 1), 17),
    ],
)
def test_least_share_past_the_shape_table(exponents, q):
    # a cofactor of B**13 or more may have more primes than the shape
    # table takes; whatever rule bounds its share must stay at or below
    # the true share prod p**(-e mod q)
    B = factoring._TRIAL_LIMIT
    m = math.prod(p**e for p, e in exponents.items())
    assert m >= B**13 and all(p > B for p in exponents)
    share = math.prod(p ** (-e % q) for p, e in exponents.items())
    assert 1 <= factoring._least_share(m, q) <= share


def test_defect_bound_needs_nl_below_the_trial_limit():
    # the cofactors of two pieces can share any prime of n*l, and the bound
    # merges only those below B: at n*l >= B it decides no base, not even
    # against a limit that every defect reaches
    B = factoring._TRIAL_LIMIT
    assert factoring.defect_reaches(B - 1, 1, 2, 1, ())
    assert not factoring.defect_reaches(B, 1, 2, 1, ())
    assert not factoring.defect_reaches(2, B // 2, 3, 1, ())


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=200_000))
def test_factor_roundtrip(n):
    f = factor(n)
    assert math.prod(p**e for p, e in f.factors) == n
    for p, e in f.factors:
        assert e >= 1 and is_probable_prime(p)
        assert n % p**e == 0 and n % p ** (e + 1) != 0


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=10**12))
def test_factor_roundtrip_large(n):
    f = factor(n)
    assert math.prod(p**e for p, e in f.factors) == n
    assert all(is_probable_prime(p) for p, _ in f.factors)


def _least_root(g, q):
    # the least y0 with g | y0**q divides g (gcd(y0, g) works as well)
    return next(d for d in range(1, g + 1) if g % d == 0 and pow(d, q, g) == 0)


def test_root_step_is_the_least_root_multiple():
    for g in range(1, 3_001):
        for q in range(2, 6):
            assert root_step(g, q) == _least_root(g, q), (g, q)


def test_root_step_never_runs_rho(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rho or factor called")

    monkeypatch.setattr(factoring, "_brent_cycle", refuse)
    monkeypatch.setattr(factoring, "factor", refuse)
    p1, p2 = 10_007, 1_000_003  # both above the trial limit
    big = 2**89 - 1  # a Mersenne prime
    for q in (2, 3, 5):
        # a composite leftover past trial division is dropped: a divisor
        step = root_step(2**5 * 3 * p1 * p2, q)
        exact = 2 ** -(-5 // q) * 3 * p1 * p2
        assert exact % step == 0 and step == 2 ** -(-5 // q) * 3
        assert root_step(p1 * p1, q) == 1
        # a leftover below the limit's square, or a probable prime, joins
        assert root_step(4 * p1 * 9_973, q) == 2 * p1 * 9_973
        assert root_step(6 * big, q) == 6 * big
