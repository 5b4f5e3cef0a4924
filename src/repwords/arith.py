"""Exact integer helpers: q-th roots and real quadratic integers.

Everything here is integer arithmetic; no floating point is used, so
results stay exact at any operand size.
"""

from __future__ import annotations

import math
import operator


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


def _by_fields(op):
    # compares two records of one class by their fields, as op compares tuples
    return lambda a, b: op(a._key(a), b._key(b)) if b.__class__ is a.__class__ else NotImplemented


class Frozen:
    """Immutable record.  A subclass names its fields in __slots__ (a name with a leading _
    is no field) and gets an __init__ over them that runs __post_init__, if it has one.
    Class keywords give defaults; order=True adds <, <=, >, >= by the tuple of fields."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **defaults) -> None:
        fields = cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        args = ", ".join(f"{f}=defaults[{f!r}]" if f in defaults else f for f in fields)
        body = "".join(f"put(self, {f!r}, {f}); " for f in fields)
        post = "self.__post_init__()" if hasattr(cls, "__post_init__") else "pass"
        ns = {"put": object.__setattr__, "defaults": defaults}
        exec(f"def __init__(self, {args}): {body}{post}", ns)  # as namedtuple builds __new__
        cls.__init__, cls._key = ns["__init__"], operator.attrgetter(*fields)
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        for op in ("__lt__", "__le__", "__gt__", "__ge__") if order else ():
            setattr(cls, op, _by_fields(getattr(operator, op)))

    __eq__ = _by_fields(operator.eq)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # through __init__: pickle's default for slots calls __setattr__
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class QuadInt(Frozen):
    """Element a + b*sqrt(d) of the ring Z[sqrt(d)], d >= 2 nonsquare."""

    __slots__ = ("a", "b", "d")

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
