import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError, SpaceMismatchError
from canonbase_lab.legendre import conjugate
from canonbase_lab.lp_canon import (
    _orthogonal_rows,
    _part_norms,
    canonical_base_1type,
    f_zero,
    p1_counterexample,
    partial_cond_exp,
    psi,
    remark_counterexample,
    slices,
)
from canonbase_lab.measure_core import (
    ExtensionPair,
    LatticeElement,
    check_p,
    integral,
    lp_norm,
    pos_part,
)
from canonbase_lab.oracle import type_equal_1
from conftest import random_element, random_pair

from reference import (_partial_from_family, canonical_base_ntype, dotminus, ref_partial_prefix, ref_slice,
                       signed_power, spow_deviation_bound)


def interval_cond_exp(f: LatticeElement, pair: ExtensionPair, t: float, s: float) -> LatticeElement:
    """E_[t,s] = E_s - E_t; additive over adjacent intervals."""
    t, s = float(t), float(s)
    if not (0.0 <= t < s <= 1.0):
        raise InvariantError(f"need 0 <= t < s <= 1, got t={t}, s={s}")
    fam = slices(f, pair)
    return fam.partial_at(s) - fam.partial_at(t)



def _orthogonal_norms(f: LatticeElement, pair: ExtensionPair, p: float) -> tuple[float, float]:
    """The p-norms of the plus and minus parts of f's orthogonal part, (0, 0)
    when the pair has none."""
    return _part_norms(_orthogonal_rows(f, pair), [1.0 / pair.n], p)


def increasing_realisation(f: LatticeElement, pair: ExtensionPair, p: float) -> LatticeElement:
    """The canonical type-preserving rearrangement: each base fiber sorted
    ascending, and the orthogonal part replaced by the signed constants
    +|f+ restricted to the orthogonal part| and -|f- restricted|."""
    p = check_p(p)
    plus_c, minus_c = _orthogonal_norms(f, pair, p)
    n, rows = pair.n, slices(f, pair).sorted_rows
    return pair.element([rows[i * n : (i + 1) * n] for i in range(pair.m)], plus=[plus_c] * n, minus=[-minus_c] * n)



def lq_transport(f: LatticeElement, p: float, q: float) -> LatticeElement:
    """The carrier bijection between the p- and q-structures: atomwise signed
    power v -> v^(p/q); transports the norm via ||f||_p^(p/q)."""
    p, q = check_p(p), check_p(q)
    if p == q:
        return f
    return signed_power(f, p / q)



UNIT2 = ExtensionPair((1.0,), 2)
F24 = UNIT2.element([[-2.0, 4.0]])


def instances(seed, count, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        pair = random_pair(rng, **kw)
        yield rng, pair, random_element(rng, pair)


# -- f_zero -------------------------------------------------------------------

def test_f_zero_nonnegative_embedded():
    pair = ExtensionPair((1.0, 2.0), 3)
    g = LatticeElement(pair.base_space(), (1.5, 0.25))
    assert f_zero(pair.embed(g), pair).array.tolist() == [1.5, 0.25]


def test_f_zero_worked():
    assert f_zero(F24, UNIT2).array.tolist() == [3.0]


def test_f_zero_orthogonal_only():
    pair = ExtensionPair((1.0,), 2, True)
    f = pair.element([[0.0, 0.0]], plus=[1.0, 1.0], minus=[-0.5, 0.0])
    assert f_zero(f, pair).array.tolist() == [0.0]


# -- the shortfall family ----------------------------------------------------------

def test_psi_worked_instance():
    fam = psi(F24, UNIT2)
    fn = fam.fibers[0]
    for x in (-3.0, -2 / 3, 0.0, 1.0, 4 / 3, 2.0):
        expected = 0.5 * max(3 * x + 2, 0.0) + 0.5 * max(3 * x - 4, 0.0)
        assert fn.evaluate(x) == pytest.approx(expected, abs=1e-12)


def test_psi_constant_fiber():
    pair = ExtensionPair((1.0,), 4)
    f = pair.element([[2.5] * 4])
    fn = psi(f, pair).fibers[0]
    for x in (-1.0, 0.5, 1.0, 1.5, 3.0):
        assert fn.evaluate(x) == pytest.approx(2.5 * max(x - 1.0, 0.0), abs=1e-12)


def test_psi_zero_element():
    pair = ExtensionPair((1.0, 1.0), 4)
    fam = psi(pair.element([[0.0] * 4] * 2), pair)
    assert all(fn.evaluate(x) == 0.0 for fn in fam.fibers for x in (-2.0, 0.0, 2.0))


def test_psi_envelope_property(rng):
    for _, pair, f in instances(10, 30):
        fam = psi(f, pair)
        xs = [-4.0, -1.0, 0.0, 0.5, 2.0, 5.0]
        for x, y in zip(xs, xs[1:]):
            vx, vy = ([fn.evaluate(v) for fn in fam.fibers] for v in (x, y))
            for a, b, f0 in zip(vx, vy, fam.f0.array.tolist()):
                assert a <= b + 1e-12
                assert b <= a + (y - x) * f0 + 1e-9


def test_psi_biconjugate_exact(rng):
    for _, pair, f in instances(11, 30):
        for fn in psi(f, pair).fibers:
            back = conjugate(conjugate(fn))
            assert back.breakpoints == fn.breakpoints
            assert back.slopes == fn.slopes
            for b in fn.breakpoints:
                assert abs(back.evaluate(b) - fn.evaluate(b)) <= 1e-12


def test_psi_cdf_identity(rng):
    for _, pair, f in instances(12, 30):
        fam = psi(f, pair)
        rows = [row.tolist() for row in pair.fibers(f)]
        for fn, f0, row in zip(fam.fibers, fam.f0.array.tolist(), rows):
            if f0 == 0.0:
                continue
            probe = list(fn.breakpoints) + [-5.0, 0.3, 7.0]
            for x in probe:
                _, d_plus = fn.one_sided_derivs(x)
                frac = sum(1 for v in row if v <= x * f0 + 1e-12) / pair.n
                assert d_plus == pytest.approx(f0 * frac, abs=1e-9)


# -- partial conditional expectations ------------------------------------------------

def test_partial_endpoints():
    assert partial_cond_exp(F24, UNIT2, 0.0).array.tolist() == [0.0]
    assert partial_cond_exp(F24, UNIT2, 1.0).array.tolist() == [1.0]


def test_partial_linear_on_embedded_nonnegative():
    pair = ExtensionPair((1.0, 1.0), 4)
    g = LatticeElement(pair.base_space(), (2.0, 0.5))
    f = pair.embed(g)
    for t in (0.25, 0.5, 0.9):
        expected = tuple(t * v for v in g.array.tolist())
        assert partial_cond_exp(f, pair, t).approx_equal(
            LatticeElement(pair.base_space(), expected), tol=1e-12
        )


def test_partial_worked_half():
    assert partial_cond_exp(F24, UNIT2, 0.5).array.tolist() == [-1.0]


def test_partial_rejects_outside_unit_interval():
    with pytest.raises(InvariantError):
        partial_cond_exp(F24, UNIT2, 1.5)


def test_partial_matches_prefix_oracle(rng):
    for r, pair, f in instances(13, 40):
        t = r.randint(1, 15) / 16 if r.random() < 0.5 else r.random()
        got = partial_cond_exp(f, pair, t)
        rows = [row.tolist() for row in pair.fibers(f)]
        for value, row in zip(got.array.tolist(), rows):
            assert value == pytest.approx(ref_partial_prefix(row, t), abs=1e-9)


def test_partial_prefix_identity_exact(rng):
    for _, pair, f in instances(14, 20):
        n = pair.n
        rows = [sorted(row) for row in pair.fibers(f)]
        for k in (1, n // 2, n):
            got = partial_cond_exp(f, pair, k / n)
            for value, row in zip(got.array.tolist(), rows):
                assert value == pytest.approx(sum(row[:k]) / n, abs=1e-12)


def test_partial_convex_in_t(rng):
    ts = [k / 8 for k in range(9)]
    for _, pair, f in instances(15, 20):
        curves = [partial_cond_exp(f, pair, t).array.tolist() for t in ts]
        e1 = curves[-1]
        for i in range(pair.m):
            seq = [c[i] for c in curves]
            for a, b, c in zip(seq, seq[1:], seq[2:]):
                assert c - 2 * b + a >= -1e-9  # convexity
            for t, v in zip(ts, seq):
                assert v <= t * e1[i] + 1e-9


def test_partial_prefix_matches_conjugation():
    # the prefix kernel against exact conjugation of each shortfall function,
    # on zero, constant and random fibers, at every t = k/n, just below it,
    # and at random t inside the cells
    kinds_seen = set()
    for n in (16, 7):
        for r, pair, f in instances(30 + n, 10, n=n):
            rows = [row.tolist() for row in pair.fibers(f)]
            for row in rows:
                kind = r.choice(["zero", "constant", "random", "random"])
                kinds_seen.add(kind)
                if kind == "zero":
                    row[:] = [0.0] * n
                elif kind == "constant":
                    row[:] = [row[0]] * n
            orth = pair.orthogonal_part(f)
            plus, minus = (None, None) if orth is None else (orth.array[:n], orth.array[n:])
            f = pair.element(rows, plus, minus)
            ts = [k / n for k in range(n + 1)]
            ts += [math.nextafter(k / n, 0.0) for k in range(1, n + 1)]
            ts += [r.random() for _ in range(4)]
            fam = psi(f, pair)
            for t in ts:
                got = partial_cond_exp(f, pair, t).array.tolist()
                want = _partial_from_family(fam, t).array.tolist()
                for a, b, row in zip(got, want, rows):
                    assert abs(a - b) <= 1e-9 * (1 + max(abs(v) for v in row)), (t, row)
    assert kinds_seen == {"zero", "constant", "random"}


_CELLS = st.one_of(st.integers(-128, 128).map(lambda k: k / 16), st.floats(-8, 8))


@st.composite
def _fiber_rows(draw, m, n):
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "constant", "random"]))
        if kind == "zero":
            rows.append([0.0] * n)
        elif kind == "constant":
            rows.append([draw(_CELLS)] * n)
        else:
            rows.append(draw(st.lists(_CELLS, min_size=n, max_size=n)))
    return rows


@given(
    m=st.integers(1, 6),
    n=st.integers(1, 12),
    orth=st.booleans(),
    data=st.data(),
)
def test_partial_prefix_matches_conjugation_under_hypothesis(m, n, orth, data):
    # the seeded cross-check above, with the sizes, fibers and t drawn:
    # t on the grid k/n, one ulp either side of it, or anywhere in [0, 1]
    weights = data.draw(st.lists(st.integers(1, 8).map(lambda k: k / 4), min_size=m, max_size=m))
    pair = ExtensionPair(weights, n, orth)
    rows = data.draw(_fiber_rows(m, n))
    side = st.lists(_CELLS, min_size=n, max_size=n) if orth else st.none()
    f = pair.element(rows, data.draw(side), data.draw(side))
    on_grid = st.integers(0, n).map(lambda k: k / n)
    t_values = st.one_of(
        on_grid,
        on_grid.map(lambda t: math.nextafter(t, 0.0)),
        on_grid.map(lambda t: math.nextafter(t, 1.0)),
        st.floats(0.0, 1.0),
    )
    fam = psi(f, pair)
    for t in data.draw(st.lists(t_values, min_size=1, max_size=6)):
        got = partial_cond_exp(f, pair, t).array.tolist()
        want = _partial_from_family(fam, t).array.tolist()
        for a, b, row in zip(got, want, rows):
            assert abs(a - b) <= 1e-9 * (1 + max(abs(v) for v in row)), (t, row)


def test_remark_phi_attainment(rng):
    # the slice at t attains the conjugate: t*g - E[(g - f)^+ | base] = E_t for g = f_t
    for r, pair, f in instances(16, 30):
        t = r.choice([0.2, 0.5, 0.8, r.random() or 0.3])
        g = slices(f, pair).slice_at(t)
        lhs = t * g - pair.cond_exp_base(dotminus(pair.embed(g), f))
        rhs = partial_cond_exp(f, pair, t)
        assert lhs.approx_equal(rhs, tol=1e-9)


# -- intervals ---------------------------------------------------------------------

def test_interval_full_range_is_cond_exp():
    assert interval_cond_exp(F24, UNIT2, 0.0, 1.0).array.tolist() == [1.0]


def test_interval_worked():
    assert interval_cond_exp(F24, UNIT2, 0.5, 1.0).array.tolist() == [2.0]


def test_interval_embedded_scaling():
    pair = ExtensionPair((1.0,), 4)
    f = pair.embed(LatticeElement(pair.base_space(), (2.0,)))
    out = interval_cond_exp(f, pair, 0.25, 0.75)
    assert out.array.tolist() == pytest.approx([1.0], abs=1e-12)


def test_interval_rejects_bad_order():
    with pytest.raises(InvariantError):
        interval_cond_exp(F24, UNIT2, 0.5, 0.5)


def test_interval_additivity(rng):
    for _, pair, f in instances(17, 20):
        a = interval_cond_exp(f, pair, 0.1, 0.4)
        b = interval_cond_exp(f, pair, 0.4, 0.9)
        c = interval_cond_exp(f, pair, 0.1, 0.9)
        assert (a + b).approx_equal(c, tol=1e-9)


# -- slices and the increasing realisation -----------------------------------------

def test_slices_order_statistics():
    fam = slices(F24, UNIT2)
    assert fam.slice_at(0.25).array.tolist() == [-2.0]
    assert fam.slice_at(0.75).array.tolist() == [4.0]


def test_slices_embedded_fixed():
    pair = ExtensionPair((1.0, 1.0), 4)
    g = LatticeElement(pair.base_space(), (1.0, -2.0))
    fam = slices(pair.embed(g), pair)
    for t in (0.1, 0.5, 0.999, 1.0):
        assert fam.slice_at(t).array.tolist() == g.array.tolist()


def test_slices_nondecreasing(rng):
    for _, pair, f in instances(18, 20):
        fam = slices(f, pair)
        prev = fam.slice_at(1 / 64)
        for t in (0.25, 0.5, 0.75, 1.0):
            cur = fam.slice_at(t)
            assert all(a <= b + 1e-12 for a, b in zip(prev.array.tolist(), cur.array.tolist()))
            prev = cur


def test_slices_match_reference(rng):
    for r, pair, f in instances(19, 30):
        fam = slices(f, pair)
        rows = [row.tolist() for row in pair.fibers(f)]
        t = r.random() or 0.5
        got = fam.slice_at(t)
        for value, row in zip(got.array.tolist(), rows):
            assert value == pytest.approx(ref_slice(row, t), abs=1e-12)


def test_increasing_realisation_sorts_rows():
    pair = ExtensionPair((1.0,), 2, True)
    f = pair.element([[4.0, -2.0]])
    fhat = increasing_realisation(f, pair, 1)
    assert [row.tolist() for row in pair.fibers(fhat)] == [[-2.0, 4.0]]
    assert pair.orthogonal_part(fhat).array[: pair.n].tolist() == [0.0, 0.0]


def test_increasing_realisation_fixed_point():
    pair = ExtensionPair((1.0,), 2, True)
    f = pair.element([[-2.0, 4.0]], plus=[1.5, 1.5], minus=[-0.5, -0.5])
    fhat = increasing_realisation(f, pair, 1)
    assert fhat.array.tolist() == f.array.tolist()


def test_increasing_realisation_preserves_type(rng):
    for _, pair, f in instances(20, 60, orth=True):
        fhat = increasing_realisation(f, pair, 1)
        assert type_equal_1(f, fhat, pair, 1)
        # the plus fiber carries all positive orthogonal mass
        plus_minus = pair.orthogonal_part(fhat).array.tolist()
        assert all(v >= 0 for v in plus_minus[: pair.n])
        assert all(v <= 0 for v in plus_minus[pair.n :])


# -- slice norm bound ---------------------------------------------------------------

def slice_norm_bound_check(
    f: LatticeElement, pair: ExtensionPair, p: float, t: float
) -> tuple[float, float]:
    """Returns (||f_t||_p over the base, ||f||_p / (t - t^2)^(1/p))."""
    p = check_p(p)
    t = float(t)
    if not 0.0 < t < 1.0:
        raise InvariantError(f"the slice bound needs t in (0, 1), got {t}")
    lhs = lp_norm(slices(f, pair).slice_at(t), p)
    rhs = lp_norm(f, p) / (t - t * t) ** (1.0 / p)
    return lhs, rhs


def test_slice_norm_bound_worked():
    lhs, rhs = slice_norm_bound_check(F24, UNIT2, 1, 0.5)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(12.0, abs=1e-12)


def test_slice_norm_bound_embedded():
    pair = ExtensionPair((1.0,), 4)
    f = pair.embed(LatticeElement(pair.base_space(), (3.0,)))
    lhs, rhs = slice_norm_bound_check(f, pair, 1, 0.5)
    assert lhs == pytest.approx(3.0, abs=1e-12)
    assert rhs == pytest.approx(12.0, abs=1e-12)


def test_slice_norm_bound_random():
    rng = random.Random(21)
    for _ in range(200):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        p = rng.choice([1.0, 1.5, 2.0, 3.0])
        t = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        lhs, rhs = slice_norm_bound_check(f, pair, p, t)
        assert lhs <= rhs + 1e-9


# -- grid approximation -------------------------------------------------------------

def _grid_approx_by_psi(f, pair, t, bound, grid_n):
    # g and h read off each atom's exact shortfall function
    fam = psi(f, pair)
    g_vals, h_vals = [], []
    for fn, f0w in zip(fam.fibers, fam.f0.array.tolist()):
        grid = [bound * k / grid_n for k in range(-grid_n, grid_n + 1)]
        g_vals.append(max(t * x * f0w - fn.evaluate(x) for x in grid))
        candidates = [-bound, bound] + [b for b in fn.breakpoints if -bound < b < bound]
        h_vals.append(max(t * x * f0w - fn.evaluate(x) for x in candidates))
    return g_vals, h_vals


def test_grid_approx_worked():
    g, h = _grid_approx_by_psi(F24, UNIT2, 0.5, 4.0, 8)
    assert h == pytest.approx([-1.0], abs=1e-12)


def test_grid_approx_sandwich_and_agreement(rng):
    for r, pair, f in instances(22, 40):
        t = r.choice([0.25, 0.5, 0.75])
        bound = r.choice([1.0, 2.0, 4.0, 8.0])
        grid_n = r.choice([4, 8, 16])
        g, h = _grid_approx_by_psi(f, pair, t, bound, grid_n)
        f0 = f_zero(f, pair).array.tolist()
        et = partial_cond_exp(f, pair, t).array.tolist()
        ft = slices(f, pair).slice_at(t).array.tolist()
        e1 = partial_cond_exp(f, pair, 1.0).array.tolist()
        for i in range(pair.m):
            gap = h[i] - g[i]
            assert -1e-9 <= gap <= 2 * bound * f0[i] / grid_n + 1e-9
            if abs(ft[i]) <= bound:
                assert h[i] == pytest.approx(et[i], abs=1e-9)
            # envelope chain
            assert -f0[i] - 1e-9 <= h[i] <= et[i] + 1e-9
            assert et[i] <= t * e1[i] + 1e-9
            assert t * e1[i] <= f0[i] + 1e-9


# -- transport -----------------------------------------------------------------------

def test_transport_identity_when_equal_exponents():
    assert lq_transport(F24, 2, 2) is F24


def test_transport_worked():
    out = lq_transport(F24, 1, 2)
    assert out.array.tolist() == pytest.approx([-math.sqrt(2), 2.0], abs=1e-12)
    assert lp_norm(out, 2) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert lp_norm(out, 2) == pytest.approx(lp_norm(F24, 1) ** 0.5, abs=1e-12)


def test_transport_isometry_random(rng):
    for r, pair, f in instances(23, 40):
        p = r.choice([1.0, 1.5, 2.0, 3.0])
        q = r.choice([1.0, 1.5, 2.0, 3.0])
        out = lq_transport(f, p, q)
        assert lp_norm(out, q) == pytest.approx(lp_norm(f, p) ** (p / q), abs=1e-9)


def duality_pairing(f: LatticeElement, g: LatticeElement, p: float, q: float) -> float:
    """Pairing of the transported elements f^(p/q) and g^(p/q'), computed
    through the kernel (f^(1/q) g^(1/q'))^p inside the integral."""
    p = check_p(p)
    q = float(q)
    if not q > 1.0:
        raise InvariantError("the duality pairing needs q > 1 (conjugate exponent defined)")
    qc = q / (q - 1.0)
    kernel = signed_power(f, 1.0 / q) * signed_power(g, 1.0 / qc)
    return integral(signed_power(kernel, p))


def test_duality_pairing_trivial():
    pair = ExtensionPair((1.0,), 1)
    one = pair.element([[1.0]])
    zero = pair.element([[0.0]])
    assert duality_pairing(one, one, 2, 2) == pytest.approx(1.0, abs=1e-12)
    assert duality_pairing(one, zero, 2, 2) == 0.0


def test_duality_pairing_two_routes(rng):
    for r, pair, f in instances(24, 30):
        g = random_element(r, pair)
        p = r.choice([1.0, 2.0, 3.0])
        q = r.choice([1.5, 2.0, 3.0])
        qc = q / (q - 1.0)
        lhs = duality_pairing(f, g, p, q)
        theta_f = lq_transport(f, p, q)
        theta_g = lq_transport(g, p, qc)
        direct = sum(
            w * a * b
            for w, a, b in zip(f.space.weight_array.tolist(), theta_f.array.tolist(), theta_g.array.tolist())
        )
        assert lhs == pytest.approx(direct, abs=1e-9 * (1 + abs(direct)))


def test_duality_pairing_rejects_q_one():
    with pytest.raises(InvariantError):
        duality_pairing(F24, F24, 1, 1)


# -- pairing characterisation of the conditional expectation -------------------------

def cond_exp_pairing_check(
    f: LatticeElement, pair: ExtensionPair, p: float, h: LatticeElement
) -> tuple[float, float]:
    """Both sides of the pairing identity int f h^(p-1) = int E[f|base] h^(p-1).

    The left integral runs over the total space with h lifted fiber-constant;
    the right over the base. Requires p > 1 (the identity still holds at
    p = 1 but no longer characterises the conditional expectation there).
    """
    p = check_p(p)
    if p == 1.0:
        raise InvariantError("the pairing characterisation needs p > 1")
    pair.require(f)
    if h.space != pair.base_space():
        raise SpaceMismatchError("h must live on the base space")
    lhs = integral(f * signed_power(pair.embed(h), p - 1.0))
    rhs = integral(pair.cond_exp_base(f) * signed_power(h, p - 1.0))
    return lhs, rhs


def test_pairing_check_zero_h():
    h = LatticeElement(UNIT2.base_space(), (0.0,))
    assert cond_exp_pairing_check(F24, UNIT2, 2, h) == (0.0, 0.0)


def test_pairing_check_embedded():
    pair = ExtensionPair((1.0, 0.5), 4)
    g = LatticeElement(pair.base_space(), (1.5, -1.0))
    h = LatticeElement(pair.base_space(), (0.5, 2.0))
    lhs, rhs = cond_exp_pairing_check(pair.embed(g), pair, 2, h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pairing_check_random(rng):
    for r, pair, f in instances(25, 40):
        h = LatticeElement(
            pair.base_space(), tuple(r.randint(-32, 32) / 8 for _ in range(pair.m))
        )
        lhs, rhs = cond_exp_pairing_check(f, pair, 2.0, h)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_pairing_check_rejects_p_one():
    with pytest.raises(InvariantError):
        cond_exp_pairing_check(F24, UNIT2, 1, LatticeElement(UNIT2.base_space(), (0.0,)))


# -- transported interval convergence -------------------------------------------------

def transported_interval_convergence(
    f: LatticeElement,
    pair: ExtensionPair,
    t: float,
    s: float,
    q_list: Sequence[float],
) -> list[float]:
    """For each q, the sup-deviation between E_[t,s] of f and the q-th signed
    power of E_[t,s] of f^(1/q). The q-structure enters only through
    ``lq_transport``, which carries f to f^(1/q); E_[t,s] itself does not
    depend on the exponent."""
    t, s = float(t), float(s)
    if not (0.0 < t < s < 1.0):
        raise InvariantError(f"need 0 < t < s < 1, got t={t}, s={s}")
    reference = interval_cond_exp(f, pair, t, s)
    deviations = []
    for q in q_list:
        q = float(q)
        if not q > 1.0:
            raise InvariantError(f"transport exponents must exceed 1, got {q}")
        transported = interval_cond_exp(lq_transport(f, 1.0, q), pair, t, s)
        deviations.append(float(np.abs((signed_power(transported, q) - reference).array).max()))
    return deviations


def test_transported_interval_worked_sequence():
    devs = transported_interval_convergence(F24, UNIT2, 0.25, 0.75, [2.0, 1.5, 1.1, 1.01])
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_transported_interval_bound(rng):
    t, s = 0.25, 0.75
    for r, pair, f in instances(26, 20, orth=False):
        # positive profiles: the deviation bound is taken per normalized fiber
        f = abs(f)
        f0 = f_zero(f, pair)
        for q in (2.0, 1.5, 1.1):
            dev = transported_interval_convergence(f, pair, t, s, [q])[0]
            envelope = max(f0.array.tolist())
            assert dev <= spow_deviation_bound(t, s, q) * envelope + 1e-9


def test_transported_interval_rejects_bad_q():
    with pytest.raises(InvariantError):
        transported_interval_convergence(F24, UNIT2, 0.25, 0.75, [1.0])


# -- canonical bases -----------------------------------------------------------------

def test_base_worked_single_point_grid():
    cb = canonical_base_1type(F24, UNIT2, 1, [0.5])
    assert cb.pos_norm == pytest.approx(2.0, abs=1e-12)
    assert cb.neg_norm == pytest.approx(1.0, abs=1e-12)
    assert cb.grid == (0.5,) and cb.rows[0].tolist() == [-1.0]


def test_base_zero_element():
    zero = UNIT2.element([[0.0, 0.0]])
    cb = canonical_base_1type(zero, UNIT2, 1, [0.25, 0.5, 1.0])
    assert cb.pos_norm == 0.0 and cb.neg_norm == 0.0
    assert all(v == 0.0 for row in cb.rows for v in row)


def test_base_norms_are_the_norms_of_the_parts(rng):
    # each within a few units in the last place of lp_norm of its part; the
    # orthogonal norms likewise on the orthogonal part, and signed zeros add nothing
    for _ in range(60):
        pair = random_pair(rng, n=rng.randint(1, 9))
        f = random_element(rng, pair) * rng.choice([1e-200, 1.0, 3.7, 1e150])
        orth = pair.orthogonal_part(f)
        for p in (1.0, 1.5, 2.0, 3.0):
            cb = canonical_base_1type(f, pair, p, [1.0])
            assert cb.pos_norm == pytest.approx(lp_norm(pos_part(f), p), rel=1e-15, abs=0.0)
            assert cb.neg_norm == pytest.approx(lp_norm(pos_part(-f), p), rel=1e-15, abs=0.0)
            if orth is None:
                assert cb.orthogonal_norms == (0.0, 0.0)
            else:
                expected = (lp_norm(pos_part(orth), p), lp_norm(pos_part(-orth), p))
                assert cb.orthogonal_norms == pytest.approx(expected, rel=1e-15, abs=0.0)
    pair = ExtensionPair((1.0,), 4, True)
    f = pair.element([[-0.0, 0.0, -0.0, 0.0]], plus=[-0.0] * 4, minus=[0.0] * 4)
    cb = canonical_base_1type(f, pair, 2, [1.0])
    assert (cb.pos_norm, cb.neg_norm, cb.orthogonal_norms) == (0.0, 0.0, (0.0, 0.0))


def test_base_reconstruction_worked():
    grid = [0.5, 1.0]
    cb = canonical_base_1type(F24, UNIT2, 1, grid)
    assert cb.reconstruct_sorted_rows(2) == [[-2.0, 4.0]]


def test_base_reconstruction_random(rng):
    for _, pair, f in instances(27, 30):
        n = pair.n
        grid = [k / n for k in range(1, n + 1)]
        cb = canonical_base_1type(f, pair, 1, grid)
        rows = cb.reconstruct_sorted_rows(n)
        expected = [sorted(row) for row in pair.fibers(f)]
        for got, want in zip(rows, expected):
            assert got == pytest.approx(want, abs=1e-9)


def test_base_interval_variant_reconstruction(rng):
    for _, pair, f in instances(28, 15):
        n = pair.n
        grid = [k / n for k in range(n + 1)]
        cb = canonical_base_1type(f, pair, 1, grid, intervals=True)
        rows = cb.reconstruct_sorted_rows(n)
        expected = [sorted(row) for row in pair.fibers(f)]
        for got, want in zip(rows, expected):
            assert got == pytest.approx(want, abs=1e-9)


def test_base_equality_iff_type_small(rng):
    rng = random.Random(29)
    pair = ExtensionPair((0.5, 0.5), 4, False)
    grid = [k / 4 for k in range(1, 5)]
    f = pair.element([[1.0, 2.0, 0.0, -1.0], [3.0, 3.0, 0.5, 0.5]])
    g = pair.element([[2.0, -1.0, 1.0, 0.0], [0.5, 3.0, 0.5, 3.0]])  # rearranged
    h = pair.element([[1.0, 2.0, 0.0, -1.0], [3.0, 2.5, 0.5, 0.5]])  # one value off
    cb = lambda e: canonical_base_1type(e, pair, 1, grid)
    assert cb(f).approx_equal(cb(g)) and type_equal_1(f, g, pair, 1)
    assert not cb(f).approx_equal(cb(h)) and not type_equal_1(f, h, pair, 1)


def test_base_equality_sees_a_small_orthogonal_part():
    # next to fibers near 1, a plus fiber of 1e-6 enters ||f+||_2 at relative
    # size 1e-12, below TOL: only the orthogonal norms on their own scale
    # separate 1e-6 from 1.01e-6, as the oracle does
    pair = ExtensionPair((1, 2), 4, True)
    rows = [[1.0, 1.1, 0.9, 1.2], [0.8, 1.0, 1.3, 1.05]]
    f, g = (pair.element(rows, plus=[c] * 4) for c in (1e-6, 1.01e-6))
    grid = [k / 4 for k in range(1, 5)]
    cb = lambda e: canonical_base_1type(e, pair, 2, grid)
    assert not type_equal_1(f, g, pair, 2)
    assert not cb(f).approx_equal(cb(g))
    shuffled = pair.element([row[::-1] for row in rows], plus=[1e-6] * 4)
    assert type_equal_1(f, shuffled, pair, 2) and cb(f).approx_equal(cb(shuffled))


def test_base_detects_top_slice_trade():
    # equal on every slice below the top and equal total norms, but different
    # top-slice distributions across atoms: the endpoint entry must separate
    pair = ExtensionPair((0.5, 0.5), 2, False)
    f = pair.element([[1.0, 2.0], [1.0, 4.0]])
    g = pair.element([[1.0, 3.0], [1.0, 3.0]])
    grid_inner = [0.5]
    cb_inner = lambda e: canonical_base_1type(e, pair, 1, grid_inner)
    assert cb_inner(f).approx_equal(cb_inner(g))  # interior grid cannot separate
    grid_full = [0.5, 1.0]
    cb_full = lambda e: canonical_base_1type(e, pair, 1, grid_full)
    assert not cb_full(f).approx_equal(cb_full(g))
    assert not type_equal_1(f, g, pair, 1)


def test_base_rejects_empty_or_bad_grid():
    with pytest.raises(InvariantError):
        canonical_base_1type(F24, UNIT2, 1, [])
    with pytest.raises(InvariantError):
        canonical_base_1type(F24, UNIT2, 1, [0.5, 0.5])
    with pytest.raises(InvariantError):
        canonical_base_1type(F24, UNIT2, 1, [0.5, 1.5])


def test_ntype_single_reduces_to_multiples():
    nt = canonical_base_ntype([F24], UNIT2, 1, [0.5, 1.0], k_max=2)
    for k in (-2, -1, 0, 1, 2):
        direct = canonical_base_1type(float(k) * F24, UNIT2, 1, [0.5, 1.0])
        assert nt.bases[(k,)].approx_equal(direct)


def test_ntype_diagonal_pair_collapses():
    nt = canonical_base_ntype([F24, F24], UNIT2, 1, [0.5, 1.0], k_max=1)
    for k in (-1, 0, 1):
        for l in (-1, 0, 1):
            direct = canonical_base_1type(float(k + l) * F24, UNIT2, 1, [0.5, 1.0])
            assert nt.bases[(k, l)].approx_equal(direct)


def test_ntype_distinguishes_remark_pair():
    pair = ExtensionPair((1.0, 1.0, 1.0), 1, False)
    g = pair.element([[1.0], [-1.0], [0.0]])
    h = pair.element([[1.0], [1.0], [-2.0]])
    nt_gh = canonical_base_ntype([g, h], pair, 1, [0.5, 1.0], k_max=1)
    nt_gnh = canonical_base_ntype([g, -h], pair, 1, [0.5, 1.0], k_max=1)
    assert not nt_gh.absolute_summary.approx_equal(nt_gnh.absolute_summary)


# -- counterexample families -----------------------------------------------------------

def test_p1_family_norms():
    for eps in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        rep = p1_counterexample(eps, 1.0)
        assert rep.f_norm == 1.0
        assert rep.partial_norm == 1.0
        assert all(v == -1.0 for v in rep.partial.array.tolist())


def test_p2_family_decays():
    norms = [p1_counterexample(Fraction(1, m), 2.0).partial_norm for m in (4, 16, 64)]
    for eps, norm in zip((0.25, 1 / 16, 1 / 64), norms):
        assert norm == pytest.approx(eps**0.5, abs=1e-9)
    assert norms[0] > norms[1] > norms[2]


def test_p1_rejects_bad_eps():
    with pytest.raises(InvariantError):
        p1_counterexample(Fraction(2, 5), 1.0)


def test_remark_report():
    rep = remark_counterexample()
    assert rep.single_types_all_equal
    assert not rep.joint_types_equal
    assert rep.witness_with_h == pytest.approx(1.0, abs=1e-12)
    assert rep.witness_with_minus_h == pytest.approx(0.0, abs=1e-12)


# -- consistency of signed powers used in transport ------------------------------------

def test_signed_power_consistency_with_transport():
    out = lq_transport(F24, 1, 2)
    assert out.array.tolist()[0] == signed_power(-2.0, 0.5)


# -- integer arguments go through the integer rule ---------------------------------------

def test_integer_arguments_are_refused_not_truncated():
    pair = ExtensionPair((1.0,), 4)
    f = pair.element([[3.0, -1.0, 0.5, 2.0]])
    cb = canonical_base_1type(f, pair, 2, [0.25, 0.5, 0.75, 1.0])
    assert cb.reconstruct_sorted_rows(4) == [[-1.0, 0.5, 2.0, 3.0]]
    cases = [
        (lambda: cb.reconstruct_sorted_rows(4.0001), "fiber_cells: must be an integer, got 4.0001"),
        (lambda: canonical_base_ntype([f], pair, 2, [0.5, 1.0], k_max=1.9), "k_max: must be an integer, got 1.9"),
        (lambda: canonical_base_ntype([f], pair, 2, [0.5, 1.0], k_max=0), "k_max: must be >= 1, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(InvariantError) as err:
            call()
        assert str(err.value) == message


def test_grid_points_outside_the_unit_interval_are_refused_once():
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(InvariantError, match=r"^t must lie in \[0, 1\]"):
            canonical_base_1type(F24, UNIT2, 2, [0.5, t] if t > 1 else [t, 0.5])


def test_duality_pairing_needs_one_space():
    other = ExtensionPair((1.0, 1.0), 2).element([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(SpaceMismatchError):
        duality_pairing(F24, other, 2, 2)
