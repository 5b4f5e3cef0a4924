"""Integer roots and quadratic-ring arithmetic."""

import random

import pytest
from hypothesis import given, strategies as st

from repwords import arith
from repwords.arith import QuadInt, ceil_root, iroot, unit_order


def test_iroot_exact_and_floor():
    assert iroot(27, 3) == (3, True)
    assert iroot(26, 3) == (2, False)
    assert iroot(28, 3) == (3, False)
    assert iroot(1, 7) == (1, True)
    assert iroot(0, 2) == (0, True)
    big = (10**40 + 7) ** 5
    assert iroot(big, 5) == (10**40 + 7, True)
    assert iroot(big - 1, 5) == (10**40 + 7 - 1, False)


def test_iroot_matches_a_brute_force_root():
    # Newton's iteration alone must land on the floor root: every small x
    # against a search, and large x against the defining inequality
    for q in range(1, 14):
        r = 0
        for x in range(4096):
            while (r + 1) ** q <= x:
                r += 1
            assert iroot(x, q) == (r, r**q == x), (x, q)
    rng = random.Random(31)
    for q in range(3, 10):
        for _ in range(60):
            x = rng.getrandbits(rng.randint(64, 4000)) | 1 << 63
            r, exact = iroot(x, q)
            assert r**q <= x < (r + 1) ** q
            assert exact == (r**q == x)
            assert iroot(r**q, q) == (r, True)


def test_iroot_rejects_bad_input():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(5, 0)
    assert iroot(5, 1) == (5, True)


def test_ceil_root():
    assert ceil_root(26, 3) == 3
    assert ceil_root(27, 3) == 3
    assert ceil_root(28, 3) == 4
    assert ceil_root(1, 9) == 1


@given(st.integers(min_value=0, max_value=10**36), st.integers(min_value=2, max_value=40))
def test_iroot_is_floor(x, q):
    r, exact = iroot(x, q)
    assert r**q <= x < (r + 1) ** q
    assert exact == (r**q == x)


@given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=2, max_value=12))
def test_ceil_root_is_ceiling(x, q):
    r = ceil_root(x, q)
    assert (r - 1) ** q < x <= r**q


def test_quadint_norm_multiplicative():
    a = QuadInt(3, 2, 3)
    b = QuadInt(2, -1, 3)
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.norm() == 9 - 3 * 4 == -3


def test_quadint_units():
    u2 = QuadInt(1, 1, 2)
    assert u2.norm() == -1
    assert (u2**7).a == 239 and (u2**7).b == 169
    u3 = QuadInt(2, -1, 3)
    assert u3.norm() == 1
    assert u3 * QuadInt(2, 1, 3) == QuadInt(1, 0, 3)
    u7 = QuadInt(8, -3, 7)
    assert u7.norm() == 1
    assert u7 * QuadInt(8, 3, 7) == QuadInt(1, 0, 7)
    assert QuadInt(-1, 1, 2) * u2 == QuadInt(1, 0, 2)


def test_quadint_pow_matches_repeated_mul():
    u = QuadInt(1, 1, 2)
    acc = QuadInt(1, 0, 2)
    for k in range(8):
        assert u**k == acc
        acc = acc * u


def test_quadint_ring_mismatch():
    with pytest.raises(ValueError):
        QuadInt(1, 1, 2) * QuadInt(1, 1, 3)
    with pytest.raises(ValueError):
        QuadInt(1, 1, 4)  # 4 is square
    with pytest.raises(ValueError):
        QuadInt(1, 1, 1)


def test_unit_orders():
    # these two orders drive the thinned families; recomputed from scratch
    assert unit_order(QuadInt(2, -1, 3), 98) == 56
    assert unit_order(QuadInt(8, -3, 7), 14) == 14


def test_unit_order_cap(monkeypatch):
    monkeypatch.setattr(arith, "_ORDER_CAP", 10)
    with pytest.raises(ValueError):
        unit_order(QuadInt(2, -1, 3), 98)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([2, 3, 7]),
)
def test_norm_multiplicative_property(a1, b1, a2, b2, d):
    x = QuadInt(a1, b1, d)
    y = QuadInt(a2, b2, d)
    assert (x * y).norm() == x.norm() * y.norm()
    assert QuadInt(x.a, -x.b, d).norm() == x.norm()
