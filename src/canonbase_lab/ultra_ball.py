"""Exact p-adic absolute value on the rationals, the bounded projective-line
distance built from it, and the ultrametric sort of closed balls.

All arithmetic in this module is exact rational; no floating point enters.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
from .records import Record
from .rules import integer


#: Miller-Rabin on the prime bases up to 41 decides primality exactly below
#: this bound (J. Sorenson and J. Webster, Math. Comp. 86, 2017).
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):  # b is no witness iff b^(d*2^r) = -1 mod n for some r < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class PAdicContext(Record):
    __slots__ = ("prime",)

    def __init__(self, prime: int):
        p = integer(prime, "prime", 2)
        if p >= PRIME_BOUND:
            raise InvariantError(f"must be below {PRIME_BOUND}, the bound of the exact primality test")
        if not _is_prime(p):
            raise InvariantError(f"{p} is not prime")
        super().__init__(p)


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise InvariantError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_abs(x, ctx: PAdicContext) -> Fraction:
    """|x|_p = p^(-v) with v the net exponent of p in x; |0| = 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    p = ctx.prime
    v = _vp(x.numerator, p) - _vp(x.denominator, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p**(-v))


class ProjPoint(Record):
    """A point of the projective line: an exact rational, or infinity."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction | None):
        super().__init__(None if value is None else Fraction(value))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(None)

    @classmethod
    def of(cls, value) -> "ProjPoint":
        return cls(Fraction(value))

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITY = ProjPoint.infinity()


def proj_distance(x: ProjPoint, y: ProjPoint, ctx: PAdicContext) -> Fraction:
    """The bounded distance on the projective line:
    |x - y| / (max(|x|,1) * max(|y|,1)), with d(x, inf) = 1 / max(|x|,1)."""
    if x.is_infinity and y.is_infinity:
        return Fraction(0)
    if x.is_infinity:
        return Fraction(1) / max(padic_abs(y.value, ctx), Fraction(1))
    if y.is_infinity:
        return Fraction(1) / max(padic_abs(x.value, ctx), Fraction(1))
    num = padic_abs(x.value - y.value, ctx)
    den = max(padic_abs(x.value, ctx), Fraction(1)) * max(padic_abs(y.value, ctx), Fraction(1))
    return num / den


def _dotminus(a: Fraction, b: Fraction) -> Fraction:
    return a - b if a > b else Fraction(0)


class Ball(Record):
    """A closed ball of the sort: a center point and a radius in [0, 1]."""

    __slots__ = ("center", "radius")

    def __init__(self, center: ProjPoint, radius: Fraction):
        r = Fraction(radius)
        if not (0 <= r <= 1):
            raise InvariantError(f"ball radius must lie in [0, 1], got {r}")
        super().__init__(center, r)


def ball_distance(a: Ball, b: Ball, ctx: PAdicContext) -> Fraction:
    """d(a_r, b_s) = |r - s| v (d(a, b) - (r ^ s))+, a pseudometric that
    vanishes exactly when the closed balls coincide."""
    rs = abs(a.radius - b.radius)
    centers = proj_distance(a.center, b.center, ctx)
    return max(rs, _dotminus(centers, min(a.radius, b.radius)))
