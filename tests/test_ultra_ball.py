import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError
from canonbase_lab.ultra_ball import (
    INFINITY,
    Ball,
    PAdicContext,
    ProjPoint,
    _dotminus,
    ball_distance,
    padic_abs,
    proj_distance,
    _is_prime,
)

from reference import ref_is_prime, ref_padic_abs

P2 = PAdicContext(2)
P3 = PAdicContext(3)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def random_point(rng: random.Random) -> ProjPoint:
    if rng.random() < 0.12:
        return INFINITY
    return ProjPoint.of(Fraction(rng.randint(-60, 60), rng.randint(1, 24)))


def random_ball(rng: random.Random) -> Ball:
    return Ball(random_point(rng), Fraction(rng.randint(0, 16), 16))


# -- p-adic absolute value ----------------------------------------------------

def test_padic_abs_worked():
    assert padic_abs(12, P2) == Fraction(1, 4)
    assert padic_abs(12, P3) == Fraction(1, 3)
    assert padic_abs(0, P2) == 0


def test_padic_context_rejects_composite():
    # 561 is a Carmichael number; 3215031751 a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (6, 561, 3_215_031_751):
        with pytest.raises(InvariantError, match="not prime"):
            PAdicContext(n)


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == [n for n in range(20_000) if ref_is_prime(n)]


@given(rationals)
def test_padic_abs_matches_reference(x):
    for ctx in (P2, P3, PAdicContext(5)):
        assert padic_abs(x, ctx) == ref_padic_abs(Fraction(x), ctx.prime)


@given(rationals, rationals)
def test_padic_abs_multiplicative(x, y):
    assert padic_abs(Fraction(x) * Fraction(y), P3) == padic_abs(x, P3) * padic_abs(y, P3)


@given(rationals, rationals)
def test_padic_abs_ultrametric(x, y):
    s = Fraction(x) + Fraction(y)
    assert padic_abs(s, P2) <= max(padic_abs(x, P2), padic_abs(y, P2))


# -- projective-line distance -----------------------------------------------------

def test_proj_distance_identity():
    x = ProjPoint.of(Fraction(3, 7))
    assert proj_distance(x, x, P2) == 0
    assert proj_distance(INFINITY, INFINITY, P2) == 0


def test_proj_distance_worked():
    assert proj_distance(ProjPoint.of(2), ProjPoint.of(Fraction(1, 2)), P2) == 1
    assert proj_distance(ProjPoint.of(Fraction(1, 2)), INFINITY, P2) == Fraction(1, 2)


def test_proj_distance_symmetric_bounded(rng):
    for _ in range(300):
        x, y = random_point(rng), random_point(rng)
        for ctx in (P2, P3):
            d = proj_distance(x, y, ctx)
            assert d == proj_distance(y, x, ctx)
            assert 0 <= d <= 1
            if d == 0:
                assert x == y


def test_proj_distance_triangle(rng):
    for _ in range(300):
        x, y, z = (random_point(rng) for _ in range(3))
        d = lambda a, b: proj_distance(a, b, P2)
        assert d(x, z) <= d(x, y) + d(y, z)


# -- ball sort -----------------------------------------------------------------------

def test_ball_distance_same_center():
    a = ProjPoint.of(Fraction(1, 3))
    assert ball_distance(Ball(a, Fraction(1, 4)), Ball(a, Fraction(3, 4)), P2) == Fraction(1, 2)


def test_ball_distance_zero_radii():
    x, y = ProjPoint.of(2), ProjPoint.of(Fraction(1, 2))
    assert ball_distance(Ball(x, Fraction(0)), Ball(y, Fraction(0)), P2) == proj_distance(x, y, P2)


def test_ball_distance_unit_radii_collapse(rng):
    for _ in range(50):
        a, b = random_ball(rng), random_ball(rng)
        one = Fraction(1)
        assert ball_distance(Ball(a.center, one), Ball(b.center, one), P2) == 0


def test_ball_radius_invariant():
    with pytest.raises(InvariantError):
        Ball(ProjPoint.of(0), Fraction(3, 2))


def test_ball_distance_symmetric(rng):
    for _ in range(200):
        a, b = random_ball(rng), random_ball(rng)
        assert ball_distance(a, b, P3) == ball_distance(b, a, P3)


def test_ball_triangle_sample(rng):
    balls = [random_ball(rng) for _ in range(40)]
    dist = [[ball_distance(x, y, P2) for y in balls] for x in balls]
    for i, j, k in combinations(range(len(balls)), 3):
        assert dist[i][k] <= dist[i][j] + dist[j][k]
        assert dist[i][j] <= dist[i][k] + dist[k][j]
        assert dist[j][k] <= dist[j][i] + dist[i][k]


# -- distance to a ball ----------------------------------------------------------------

def phi_ball(x: ProjPoint, a: Ball, ctx: PAdicContext) -> Fraction:
    """Distance from a point to the closed ball: (d(x, center) - radius)+."""
    return _dotminus(proj_distance(x, a.center, ctx), a.radius)


def test_phi_ball_center_inside():
    a = Ball(ProjPoint.of(Fraction(1, 2)), Fraction(1, 2))
    assert phi_ball(a.center, a, P2) == 0


def test_phi_ball_inside_region():
    a = Ball(ProjPoint.of(0), Fraction(1, 4))
    assert phi_ball(ProjPoint.of(4), a, P2) == 0  # |4|_2 = 1/4 <= r


def test_phi_ball_worked():
    a = Ball(ProjPoint.of(Fraction(1, 2)), Fraction(1, 2))
    assert phi_ball(ProjPoint.of(2), a, P2) == Fraction(1, 2)


def test_phi_ball_lipschitz(rng):
    for _ in range(200):
        x, y = random_point(rng), random_point(rng)
        ball = random_ball(rng)
        gap = abs(phi_ball(x, ball, P3) - phi_ball(y, ball, P3))
        assert gap <= proj_distance(x, y, P3)


# -- the sup formula --------------------------------------------------------------------

def sup_formula_check(
    a: Ball, b: Ball, witnesses: list[ProjPoint], ctx: PAdicContext
) -> tuple[Fraction, Fraction]:
    """The supremum over the witnesses of |phi(x, a) - phi(x, b)| together
    with the ball distance. Each witness gives a lower bound; including both
    centers plus a point far from both attains the distance exactly."""
    if not witnesses:
        raise InvariantError("the witness list must be nonempty")
    sup = max(abs(phi_ball(x, a, ctx) - phi_ball(x, b, ctx)) for x in witnesses)
    return sup, ball_distance(a, b, ctx)


def far_witness(a: Ball, b: Ball, ctx: PAdicContext) -> ProjPoint:
    """A point at projective distance one from both centers: infinity when
    both centers are integral-size, zero when both are large; a mixed pair is
    already at distance one, where the centers themselves suffice."""
    zero = ProjPoint.of(0)

    def small(pt: ProjPoint) -> bool:
        return pt.is_infinity or padic_abs(pt.value, ctx) <= 1

    if small(a.center) and small(b.center):
        return INFINITY if not (a.center.is_infinity or b.center.is_infinity) else zero
    return zero


def test_sup_single_witness_lower_bound(rng):
    for _ in range(100):
        a, b = random_ball(rng), random_ball(rng)
        sup, dist = sup_formula_check(a, b, [a.center], P2)
        assert sup <= dist


def test_sup_equal_centers():
    a = ProjPoint.of(Fraction(2, 3))
    ball_a, ball_b = Ball(a, Fraction(1, 4)), Ball(a, Fraction(5, 8))
    sup, dist = sup_formula_check(ball_a, ball_b, [a], P2)
    assert sup == 0
    witnesses = [a, far_witness(ball_a, ball_b, P2)]
    sup, dist = sup_formula_check(ball_a, ball_b, witnesses, P2)
    assert sup == dist == Fraction(3, 8)


def test_sup_attained_with_centers_and_far_point(rng):
    for ctx in (P2, P3):
        for _ in range(200):
            a, b = random_ball(rng), random_ball(rng)
            witnesses = [a.center, b.center, far_witness(a, b, ctx)]
            witnesses += [random_point(rng) for _ in range(10)]
            sup, dist = sup_formula_check(a, b, witnesses, ctx)
            assert sup == dist


def test_sup_rejects_empty_witness_list():
    with pytest.raises(InvariantError):
        sup_formula_check(random_ball(random.Random(0)), random_ball(random.Random(1)), [], P2)


# -- ball equality -----------------------------------------------------------------------

def ball_equal(a: Ball, b: Ball, ctx: PAdicContext) -> bool:
    """Zero distance; equivalently equal radii with d(centers) <= radius."""
    return ball_distance(a, b, ctx) == 0


def test_ball_equal_reflexive():
    a = Ball(ProjPoint.of(Fraction(5, 4)), Fraction(1, 8))
    assert ball_equal(a, a, P2)


def test_ball_equal_needs_equal_radii():
    a = ProjPoint.of(0)
    assert not ball_equal(Ball(a, Fraction(1, 4)), Ball(a, Fraction(1, 2)), P2)


def test_ball_equal_worked():
    a = Ball(ProjPoint.of(0), Fraction(1, 4))
    b = Ball(ProjPoint.of(4), Fraction(1, 4))
    assert ball_equal(a, b, P2)  # |0 - 4|_2 = 1/4 <= 1/4


def test_ball_equal_iff_zero_distance(rng):
    for _ in range(500):
        a = random_ball(rng)
        if rng.random() < 0.5:
            b = random_ball(rng)
        else:
            # a genuinely equal ball: nudge the center within the radius
            shift = Fraction(rng.randint(-8, 8), 1)
            center = a.center
            if not center.is_infinity and a.radius > 0:
                # choose a shift with p-adic size <= r when possible
                shift = Fraction(2, 1) ** (rng.randint(2, 6))
                candidate = ProjPoint.of(center.value + shift)
                b = Ball(candidate, a.radius)
            else:
                b = Ball(center, a.radius)
        equal = ball_equal(a, b, P2)
        assert equal == (ball_distance(a, b, P2) == 0)
        assert equal == (
            a.radius == b.radius and proj_distance(a.center, b.center, P2) <= a.radius
        )


@pytest.mark.parametrize("prime, message", [(7.9, "prime: must be an integer, got 7.9"),
                                            ("7", "prime: must be an integer, got '7'"),
                                            (1, "prime: must be >= 2, got 1")])
def test_padic_context_refuses_a_prime_that_is_not_an_integer(prime, message):
    with pytest.raises(InvariantError) as err:
        PAdicContext(prime)
    assert str(err.value) == message
