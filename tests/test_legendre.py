import math
import random

import pytest

from canonbase_lab.errors import InvariantError
from canonbase_lab.legendre import (
    PLConvexFn,
    conjugate,
    fn_from_dict,
    fn_to_dict,
)
from canonbase_lab.rules import TOL, close

from reference import ref_conjugate_value

INF = math.inf

ABS = PLConvexFn(-INF, INF, (0.0,), (-1.0, 1.0), 0.0, 0.0)
# the shortfall instance 0.5*(3x+2)^+ + 0.5*(3x-4)^+
SHORTFALL = PLConvexFn(-INF, INF, (-2 / 3, 4 / 3), (0.0, 1.5, 3.0), -2 / 3, 0.0)


def dyadic_plfn(rng: random.Random) -> PLConvexFn:
    k = rng.randint(0, 4)
    breaks = sorted(rng.sample([i / 4 for i in range(-16, 17)], k))
    slopes = sorted(rng.sample([i / 4 for i in range(-20, 21)], k + 1))
    lo_choice, hi_choice = rng.random() < 0.5, rng.random() < 0.5
    lo = (breaks[0] if breaks else 0.0) - rng.randint(1, 8) / 4 if lo_choice else -INF
    hi = (breaks[-1] if breaks else 0.0) + rng.randint(1, 8) / 4 if hi_choice else INF
    anchor_x = breaks[0] if breaks else (lo if lo_choice else (hi if hi_choice else 0.0))
    anchor_y = rng.randint(-16, 16) / 4
    return PLConvexFn(lo, hi, tuple(breaks), tuple(slopes), anchor_x, anchor_y)


def domain_samples(phi: PLConvexFn, rng: random.Random) -> list[float]:
    pts = list(phi.breakpoints)
    lo = phi.lo if math.isfinite(phi.lo) else (pts[0] if pts else 0.0) - 2.0
    hi = phi.hi if math.isfinite(phi.hi) else (pts[-1] if pts else 0.0) + 2.0
    pts += [lo, hi]
    for _ in range(3):
        pts.append(lo + (hi - lo) * rng.randint(0, 16) / 16)
    return sorted(set(pts))


# -- construction ------------------------------------------------------------

def test_merges_tied_slopes():
    phi = PLConvexFn(-INF, INF, (0.0, 1.0), (1.0, 1.0, 2.0), 0.0, 0.0)
    assert phi.breakpoints == (1.0,)
    assert phi.slopes == (1.0, 2.0)


def test_merges_a_slope_tied_up_to_rounding_near_zero():
    # 0.0 after 1e-17 is a tie on the scale of the slopes, not a decrease
    phi = PLConvexFn(-1.0, 1.0, (0.0, 0.5), (-1.0, 1e-17, 0.0), 0.0, 0.0)
    assert phi.breakpoints == (0.0,)
    assert phi.slopes == (-1.0, 1e-17)


def test_rejects_decreasing_slopes():
    with pytest.raises(InvariantError):
        PLConvexFn(-INF, INF, (0.0,), (1.0, 0.5), 0.0, 0.0)


def test_rejects_unordered_breakpoints():
    with pytest.raises(InvariantError):
        PLConvexFn(-INF, INF, (1.0, 0.0), (0.0, 1.0, 2.0), 0.0, 0.0)


def test_rejects_breakpoint_outside_domain():
    with pytest.raises(InvariantError):
        PLConvexFn(0.0, 1.0, (2.0,), (0.0, 1.0), 0.5, 0.0)


def test_dict_roundtrip():
    doc = fn_to_dict(SHORTFALL)
    back = fn_from_dict(doc)
    assert back.breakpoints == SHORTFALL.breakpoints
    assert back.slopes == SHORTFALL.slopes
    assert back.lo == SHORTFALL.lo and back.hi == SHORTFALL.hi


# -- evaluation and derivatives ------------------------------------------------

def test_abs_evaluation():
    assert ABS.evaluate(0.0) == 0.0
    assert ABS.evaluate(-3.0) == 3.0
    assert ABS.evaluate(2.5) == 2.5


def test_one_sided_derivs_abs():
    assert ABS.one_sided_derivs(0.0) == (-1.0, 1.0)
    assert ABS.one_sided_derivs(2.0) == (1.0, 1.0)


def test_one_sided_derivs_shortfall_breakpoint():
    assert SHORTFALL.one_sided_derivs(-2 / 3) == (0.0, 1.5)


def test_one_sided_derivs_domain_endpoints():
    phi = PLConvexFn(0.0, 1.0, (), (2.0,), 0.0, 0.0)
    assert phi.one_sided_derivs(0.0) == (-INF, 2.0)
    assert phi.one_sided_derivs(1.0) == (2.0, INF)
    with pytest.raises(InvariantError):
        phi.one_sided_derivs(2.0)


# -- conjugation ----------------------------------------------------------------

def test_one_sided_derivs_snap_near_zero_on_the_domain_scale():
    phi = PLConvexFn(0.0, 1.0, (0.5,), (1.0, 2.0), 0.0, 0.0)
    assert phi.one_sided_derivs(-1e-17) == (-INF, 1.0)
    kink = PLConvexFn(-1.0, 1.0, (0.0,), (-1.0, 1.0), 0.0, 0.0)
    assert kink.one_sided_derivs(1e-17) == (-1.0, 1.0)
    # |x| has no scale but 0, so a point next to 0 is not at 0
    assert ABS.one_sided_derivs(1e-17) == (1.0, 1.0)


def test_conjugate_abs_is_indicator():
    star = conjugate(ABS)
    assert (star.lo, star.hi) == (-1.0, 1.0)
    assert star.evaluate(0.5) == 0.0
    assert star.evaluate(-1.0) == 0.0
    assert star.evaluate(1.5) == INF


def test_conjugate_shortfall_at_mid_slope():
    star = conjugate(SHORTFALL)
    oracle = ref_conjugate_value(SHORTFALL.evaluate, [-2 / 3, 4 / 3], 1.5)
    assert oracle == -1.0
    assert star.evaluate(1.5) == pytest.approx(-1.0, abs=1e-12)


def test_conjugate_linear_is_point():
    phi = PLConvexFn(-INF, INF, (), (2.0,), 0.0, 1.0)
    star = conjugate(phi)
    assert star.is_point() and star.lo == 2.0
    assert star.evaluate(2.0) == -1.0
    assert star.evaluate(2.1) == INF


def test_biconjugate_abs():
    back = conjugate(conjugate(ABS))
    assert back.breakpoints == ABS.breakpoints
    assert back.slopes == ABS.slopes
    for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert back.evaluate(x) == ABS.evaluate(x)


def test_biconjugate_shortfall_exact_at_breakpoints():
    back = conjugate(conjugate(SHORTFALL))
    assert back.breakpoints == SHORTFALL.breakpoints
    assert back.slopes == SHORTFALL.slopes
    for b in SHORTFALL.breakpoints:
        assert abs(back.evaluate(b) - SHORTFALL.evaluate(b)) <= 1e-12


def test_biconjugate_linear():
    phi = PLConvexFn(-INF, INF, (), (-1.5,), 1.0, 0.25)
    back = conjugate(conjugate(phi))
    for x in (-2.0, 0.0, 1.0, 4.0):
        assert back.evaluate(x) == pytest.approx(phi.evaluate(x), abs=1e-12)


def test_biconjugate_random_instances():
    rng = random.Random(1)
    for _ in range(300):
        phi = dyadic_plfn(rng)
        back = conjugate(conjugate(phi))
        assert back.breakpoints == phi.breakpoints
        assert back.slopes == phi.slopes
        for b in phi.breakpoints:
            assert abs(back.evaluate(b) - phi.evaluate(b)) <= 1e-12


def test_conjugate_monotone_under_constant_shift():
    star = conjugate(SHORTFALL)
    shifted_star = conjugate(PLConvexFn(-INF, INF, (-2 / 3, 4 / 3), (0.0, 1.5, 3.0), -2 / 3, 0.75))
    for t in (0.0, 0.5, 1.5, 3.0):
        assert shifted_star.evaluate(t) == pytest.approx(star.evaluate(t) - 0.75, abs=1e-12)


def test_conjugate_antitone_in_argument():
    # 2|x| >= |x| pointwise, so its conjugate is pointwise smaller
    double = PLConvexFn(-INF, INF, (0.0,), (-2.0, 2.0), 0.0, 0.0)
    star_small = conjugate(ABS)
    star_big = conjugate(double)
    for t in (-1.5, -1.0, 0.0, 0.7, 1.0, 1.5):
        assert star_big.evaluate(t) <= star_small.evaluate(t)


def test_fenchel_young_random():
    rng = random.Random(2)
    for _ in range(200):
        phi = dyadic_plfn(rng)
        star = conjugate(phi)
        xs = domain_samples(phi, rng)
        ts = domain_samples(star, rng)
        for x in xs:
            fx = phi.evaluate(x)
            if not math.isfinite(fx):
                continue
            for t in ts:
                ft = star.evaluate(t)
                if not math.isfinite(ft):
                    continue
                assert fx + ft >= t * x - 1e-9


# -- attainment -------------------------------------------------------------------

def attainment_check(
    phi: PLConvexFn, x: float, t: float, tol: float = TOL
) -> tuple[bool, bool, bool]:
    """Evaluate the three equivalent attainment conditions independently.

    Returns (value equality phi(x) + phi*(t) == t*x, derivative bracket of
    phi* at t containing x, derivative bracket of phi at x containing t).
    The contract is that all three always agree. Each test holds up to
    ``close`` with ``tol`` on the scale of its terms: phi(x), phi*(t) and t*x;
    x and phi's positions; t and phi's slopes.
    """
    x, t = float(x), float(t)
    star = conjugate(phi)
    fx = phi.evaluate(x)
    ft = star.evaluate(t)
    if not (math.isfinite(fx) and math.isfinite(ft)):
        raise InvariantError("attainment_check needs x in dom(phi) and t in dom(phi*)")

    def within(bracket: tuple[float, float], v: float, scale: float) -> bool:
        lo, hi = bracket
        return all(a <= b or close((a, scale), (b, scale), tol) for a, b in ((lo, v), (v, hi)))

    eq = close((fx + ft, fx, ft), (t * x, fx, ft), tol)
    xs = max(abs(v) for v in (x, phi.lo, phi.hi, *phi.breakpoints) if math.isfinite(v))
    ts = max([abs(t), *map(abs, phi.slopes)])
    return eq, within(star.one_sided_derivs(t), x, xs), within(phi.one_sided_derivs(x), t, ts)


def test_attainment_worked_triples():
    assert attainment_check(ABS, 0.0, 0.5) == (True, True, True)
    assert attainment_check(ABS, 2.0, 0.5) == (False, False, False)
    assert attainment_check(ABS, 2.0, 1.0) == (True, True, True)


def test_attainment_requires_domain():
    star_domain_outside = 2.0  # conj of |x| lives on [-1, 1]
    with pytest.raises(InvariantError):
        attainment_check(ABS, 0.0, star_domain_outside)


def test_attainment_conditions_agree_random():
    rng = random.Random(3)
    for _ in range(500):
        phi = dyadic_plfn(rng)
        star = conjugate(phi)
        xs = [x for x in domain_samples(phi, rng) if math.isfinite(phi.evaluate(x))]
        ts = [t for t in domain_samples(star, rng) if math.isfinite(star.evaluate(t))]
        if not xs or not ts:
            continue
        x = rng.choice(xs)
        t = rng.choice(ts)
        eq, bracket_star, bracket = attainment_check(phi, x, t, tol=0.0)
        assert eq == bracket_star == bracket


def test_attainment_conditions_agree_when_the_value_sum_cancels():
    # |x - 0.1| + 0.2 at x = 0.1, t = 0: phi(x) + phi*(t) is 0.2 plus
    # -0.20000000000000004, one rounding away from t*x = 0
    phi = PLConvexFn(-INF, INF, (0.1,), (-1.0, 1.0), 0.1, 0.2)
    assert attainment_check(phi, 0.1, 0.0) == (True, True, True)
    assert attainment_check(phi, 0.1, 1.0) == (True, True, True)
    assert attainment_check(phi, 0.3, 0.0) == (False, False, False)


def test_attainment_conditions_agree_at_the_default_tol_off_the_dyadic_grid():
    # positions over 3, 7, 1e3 or 1e-3 and slopes over 3, 7 or 10 are not
    # exact floats, so the value equality cancels up to rounding error
    rng = random.Random(5)
    for _ in range(1000):
        phi = dyadic_plfn(rng)
        d, e = rng.choice([3, 7, 1e3, 1e-3]), rng.choice([3, 7, 10])
        phi = PLConvexFn(
            phi.lo / d,
            phi.hi / d,
            tuple(b / d for b in phi.breakpoints),
            tuple(s / e for s in phi.slopes),
            phi.anchor_x / d,
            phi.anchor_y / 10,
        )
        star = conjugate(phi)
        xs = [x for x in domain_samples(phi, rng) if math.isfinite(phi.evaluate(x))]
        ts = [t for t in domain_samples(star, rng) if math.isfinite(star.evaluate(t))]
        if not xs or not ts:
            continue
        eq, bracket_star, bracket = attainment_check(phi, rng.choice(xs), rng.choice(ts))
        assert eq == bracket_star == bracket
