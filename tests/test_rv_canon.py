import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError, SpaceMismatchError
from canonbase_lab.measure_core import (
    LatticeElement,
    MeasureSpace,
    SubStructure,
    block_means,
    cond_exp,
    integral,
    join,
    meet,
)
from canonbase_lab.rules import close
from canonbase_lab.rv_canon import (
    _monomials,
    apr_cb,
    cond_moment,
    validate_rv,
)

from reference import (InsufficientMomentsError, is_block_measurable, lift_event, moments_determine_check, ref_apr_cb,
                       ref_block_distribution)

UNIFORM4 = MeasureSpace((0.25, 0.25, 0.25, 0.25))
TWO_BLOCKS = SubStructure(((0, 1), (2, 3)))
SINGLETONS = SubStructure(((0,), (1,), (2,), (3,)))


def rv(*values, space=None):
    space = space or MeasureSpace((1.0 / len(values),) * len(values))
    x = LatticeElement(space, values)
    validate_rv(x)
    return x


def random_rv(rng, space):
    return LatticeElement(space, tuple(rng.randint(0, 16) / 16 for _ in range(len(space))))


def random_partition(rng, count):
    indices = list(range(count))
    rng.shuffle(indices)
    blocks = []
    while indices:
        size = rng.randint(1, min(3, len(indices)))
        blocks.append(tuple(indices[:size]))
        indices = indices[size:]
    return SubStructure(tuple(blocks))


# -- operations -------------------------------------------------------------

@dataclass(frozen=True)
class EventAlgebra:
    """A probability space (total mass one) with a conditioning partition."""

    space: MeasureSpace
    algebra: SubStructure

    def __post_init__(self):
        mass = math.fsum(self.space.weights)
        if not close(mass, 1.0):
            raise InvariantError(f"probability space must have total mass 1, got {mass}")
        self.algebra.validate_for(self.space)


def rv_op(op: str, x: LatticeElement, y: LatticeElement | None = None) -> LatticeElement:
    """The random-variable operations: not (1 - X), half, join, meet."""
    validate_rv(x)
    if op == "not":
        return LatticeElement(x.space, [1.0] * len(x.space)) - x
    if op == "half":
        return 0.5 * x
    if op in ("join", "meet"):
        if y is None:
            raise InvariantError(f"operation {op!r} needs two random variables")
        validate_rv(y)
        return (join if op == "join" else meet)(x, y)
    raise InvariantError(f"unknown random-variable operation {op!r}")


def test_not_involution():
    x = rv(0.2, 0.8, 0.5, 1.0)
    assert rv_op("not", rv_op("not", x)).approx_equal(x, tol=1e-15)


def test_half_of_one():
    x = rv(1.0, 1.0, 1.0, 1.0)
    assert rv_op("half", x).array.tolist() == [0.5] * 4


def test_join_with_zero():
    x = rv(0.2, 0.8, 0.5, 0.0)
    zero = LatticeElement(x.space, [0.0] * len(x.space))
    assert rv_op("join", x, zero).array.tolist() == x.array.tolist()


def test_rv_range_violation():
    bad = LatticeElement(UNIFORM4, (0.5, 1.2, 0.0, 0.0))
    with pytest.raises(InvariantError):
        rv_op("not", bad)


def test_expectation_is_distance_to_zero():
    x = rv(0.2, 0.8, 0.5, 0.1)
    assert integral(x) == pytest.approx(0.4, abs=1e-12)


def test_event_algebra_requires_probability():
    with pytest.raises(InvariantError):
        EventAlgebra(MeasureSpace((0.5, 0.6)), SubStructure(((0, 1),)))
    EventAlgebra(UNIFORM4, TWO_BLOCKS)


# -- conditional moments --------------------------------------------------------

def test_moment_zero_exponent_is_one():
    x = rv(0.2, 0.8, 0.5, 0.3)
    out = cond_moment([x], [0], TWO_BLOCKS)
    assert out.array.tolist() == [1.0] * 4


def test_moment_worked_values():
    space = MeasureSpace((0.5, 0.5))
    x = LatticeElement(space, (0.2, 0.8))
    block = SubStructure(((0, 1),))
    assert cond_moment([x], [1], block).array.tolist() == [0.5, 0.5]
    assert cond_moment([x], [2], block).array.tolist() == pytest.approx([0.34, 0.34], abs=1e-12)


def test_moment_block_constant_power():
    x = rv(0.5, 0.5, 0.25, 0.25)
    out = cond_moment([x], [2], TWO_BLOCKS)
    assert out.array.tolist() == pytest.approx([0.25, 0.25, 0.0625, 0.0625], abs=1e-12)


def test_moment_range_and_monotone(rng):
    for _ in range(30):
        space = MeasureSpace(tuple(rng.randint(1, 4) / 16 for _ in range(8)))
        space = MeasureSpace(tuple(w / math.fsum(space.weights) for w in space.weight_array.tolist()))
        x = random_rv(rng, space)
        s = random_partition(rng, 8)
        prev = None
        for k in range(0, 5):
            out = cond_moment([x], [k], s)
            assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in out.array.tolist())
            if prev is not None:
                assert all(b <= a + 1e-12 for a, b in zip(prev.array.tolist(), out.array.tolist()))
            prev = out


def test_moment_tower_property(rng):
    space = MeasureSpace((0.125,) * 8)
    x = random_rv(rng, space)
    fine = SubStructure(((0, 1), (2, 3), (4, 5), (6, 7)))
    coarse = SubStructure(((0, 1, 2, 3), (4, 5, 6, 7)))
    fine_then_coarse = cond_exp(cond_moment([x], [2], fine), coarse)
    direct = cond_moment([x], [2], coarse)
    assert fine_then_coarse.approx_equal(direct, tol=1e-12)


# -- least squares ----------------------------------------------------------------

def least_squares_check(x: LatticeElement, k: int, s: SubStructure) -> bool:
    """Verify that the conditional moment minimises the L_2 distance to X^k
    among block-constant candidates, at 21 evenly spaced constants in [0, 1]."""
    target = _monomials([x], [[k]])[0]
    y_star = cond_moment([x], [k], s).array
    ys = np.linspace(0.0, 1.0, 21)
    rows = np.vstack([target, (target - y_star) ** 2, (target - ys[:, None]) ** 2])
    means = block_means(rows, s, x.space)[0][:, :-1]
    mean, d_star, d = means[0], means[1], means[2:]
    # per block, the mean squared gap to y must follow the variance
    # decomposition, so it is least at the conditional moment; means of
    # squared gaps of [0, 1]-valued variables are at most 1, which sets the scale
    return close(np.append(d, 1.0), np.append(d_star + (ys[:, None] - mean) ** 2, 1.0))


def test_least_squares_single_block():
    x = rv(0.1, 0.9, 0.4, 0.6)
    assert least_squares_check(x, 1, SubStructure([range(4)]))


def test_least_squares_block_constant():
    x = rv(0.5, 0.5, 0.25, 0.25)
    assert least_squares_check(x, 3, TWO_BLOCKS)


def test_least_squares_constant_variable():
    # the optimum sits on the grid, where both squared gaps are rounding noise
    space = MeasureSpace((0.1, 0.2, 0.3, 0.4))
    for c in (0.45, 0.9):
        assert least_squares_check(rv(c, c, c, c, space=space), 1, SubStructure([range(4)]))


def test_least_squares_random(rng):
    for _ in range(25):
        space = MeasureSpace((0.125,) * 8)
        x = random_rv(rng, space)
        s = random_partition(rng, 8)
        assert least_squares_check(x, rng.randint(1, 3), s)


# -- product formula ----------------------------------------------------------------

def _monomial(xs: Sequence[LatticeElement], ks: Sequence[int]) -> LatticeElement:
    return LatticeElement(xs[0].space, _monomials(xs, [ks])[0])


def product_formula_check(
    xs: Sequence[LatticeElement],
    ks: Sequence[int],
    ys: Sequence[LatticeElement],
    ls: Sequence[int],
    s: SubStructure,
) -> tuple[float, float]:
    """Both sides of E[X^k Y^l] = E[E[X^k | blocks] Y^l] for block-measurable Y."""
    for y in ys:
        validate_rv(y)
        if not is_block_measurable(y, s):
            raise InvariantError("every Y must be measurable for the conditioning blocks")
    xk = _monomial(xs, ks)
    yl = _monomial(ys, ls) if ys else LatticeElement(xs[0].space, [1.0] * len(xs[0].space))
    return integral(xk * yl), integral(cond_exp(xk, s) * yl)


def test_product_formula_trivial_exponents():
    x = rv(0.2, 0.8, 0.5, 0.3)
    lhs, rhs = product_formula_check([x], [2], [], [], TWO_BLOCKS)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(integral(cond_moment([x], [2], TWO_BLOCKS)), abs=1e-12)


def test_product_formula_measurable_tautology():
    x = rv(0.5, 0.5, 0.25, 0.25)  # block-measurable
    y = rv(0.3, 0.3, 0.9, 0.9)
    lhs, rhs = product_formula_check([x], [2], [y], [1], TWO_BLOCKS)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_formula_random(rng):
    for _ in range(40):
        space = MeasureSpace((0.125,) * 8)
        s = random_partition(rng, 8)
        x1, x2 = random_rv(rng, space), random_rv(rng, space)
        base = random_rv(rng, space)
        y = cond_exp(base, s)  # block-measurable by construction
        lhs, rhs = product_formula_check(
            [x1, x2], [rng.randint(0, 2), rng.randint(0, 2)], [y], [rng.randint(0, 2)], s
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_product_formula_rejects_nonmeasurable():
    x = rv(0.2, 0.8, 0.5, 0.3)
    y = rv(0.3, 0.4, 0.9, 0.9)
    with pytest.raises(InvariantError):
        product_formula_check([x], [1], [y], [1], TWO_BLOCKS)


# -- event canonical base -------------------------------------------------------------

def test_apr_single_event():
    a = rv(1.0, 0.0, 1.0, 0.0)
    out = apr_cb([a], TWO_BLOCKS)
    assert out[frozenset({0})].approx_equal(cond_exp(a, TWO_BLOCKS), tol=0.0)


def test_apr_duplicate_events_collapse():
    a = rv(1.0, 0.0, 1.0, 0.0)
    out = apr_cb([a, a], TWO_BLOCKS)
    assert out[frozenset({0})].array.tolist() == out[frozenset({1})].array.tolist()
    assert out[frozenset({0})].array.tolist() == out[frozenset({0, 1})].array.tolist()


def test_apr_disjoint_meet_vanishes():
    a = rv(1.0, 0.0, 1.0, 0.0)
    b = rv(0.0, 1.0, 0.0, 1.0)
    out = apr_cb([a, b], TWO_BLOCKS)
    assert out[frozenset({0, 1})].array.tolist() == [0.0] * 4


def test_apr_inclusion_exclusion_bound(rng):
    for _ in range(20):
        space = MeasureSpace((0.125,) * 8)
        s = random_partition(rng, 8)
        events = [
            LatticeElement(space, tuple(float(rng.randint(0, 1)) for _ in range(8)))
            for _ in range(3)
        ]
        out = apr_cb(events, s)
        for subset, val in out.items():
            for j in subset:
                single = out[frozenset({j})]
                assert all(a <= b + 1e-12 for a, b in zip(val.array.tolist(), single.array.tolist()))


@st.composite
def _event_bases(draw):
    # random weights, a partition that may leave atoms off the support, k <= 6 events
    n = draw(st.integers(1, 10))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))  # -1 is off the support
    blocks = [tuple(i for i in range(n) if labels[i] == b) for b in range(4) if b in labels]
    k = draw(st.integers(1, 6))
    events = draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
                           min_size=k, max_size=k))
    return MeasureSpace(tuple(weights)), SubStructure(tuple(blocks)), events


@given(_event_bases())
def test_apr_block_path_matches_the_brute_force_meets(base):
    space, s, events = base
    out = apr_cb([LatticeElement(space, e) for e in events], s)
    want = ref_apr_cb(space.weight_array.tolist(), events, s.blocks)
    assert len(out) == len(want) == 2 ** len(events) - 1
    assert all(close(out[subset].array, values) for subset, values in want.items())
    if len(events) == 1:  # one event: the block path is cond_exp, bit for bit
        assert out[frozenset({0})] == cond_exp(LatticeElement(space, events[0]), s)


def test_apr_rejects_non_indicator():
    with pytest.raises(InvariantError):
        apr_cb([rv(0.5, 0.0, 1.0, 0.0)], TWO_BLOCKS)


# -- event lifting ----------------------------------------------------------------------

def test_lift_zero_and_one():
    zero = rv(0.0, 0.0, 0.0, 0.0)
    one = rv(1.0, 1.0, 1.0, 1.0)
    s = SINGLETONS
    lifted = lift_event(zero, s, 5)
    assert all(v == 0.0 for v in lifted.indicator.array.tolist())
    lifted = lift_event(one, s, 5)
    assert all(v == 1.0 for v in lifted.indicator.array.tolist())


def test_lift_constant_two_fifths():
    x = rv(0.4, 0.4, 0.4, 0.4)
    lifted = lift_event(x, SINGLETONS, 5)
    rows = [row.tolist() for row in lifted.pair.fibers(lifted.indicator)]
    assert all(sum(row) == 2.0 for row in rows)
    assert lifted.conditional_probability().array.tolist() == [0.4] * 4
    assert not lifted.was_rounded


def test_lift_roundtrip_exact_on_grid(rng):
    for _ in range(30):
        n = rng.choice([4, 5, 8])
        space = MeasureSpace((0.25,) * 4)
        x = LatticeElement(space, tuple(rng.randint(0, n) / n for _ in range(4)))
        lifted = lift_event(x, SINGLETONS, n)
        assert not lifted.was_rounded
        assert lifted.conditional_probability().array.tolist() == x.array.tolist()


def test_lift_reports_rounding():
    x = rv(0.3, 0.3, 0.3, 0.3)
    lifted = lift_event(x, SINGLETONS, 4)
    assert lifted.was_rounded
    assert lifted.snapped.array.tolist() == [0.25] * 4


# -- moment determinacy -------------------------------------------------------------------

def test_moments_determine_bernoulli():
    space = MeasureSpace((0.25,) * 4)
    x = LatticeElement(space, (0.0, 1.0, 0.0, 1.0))
    y = LatticeElement(space, (1.0, 0.0, 1.0, 0.0))
    s = SubStructure(((0, 1), (2, 3)))
    assert moments_determine_check(x, y, s, max_k=1)


def test_moments_determine_reflexive():
    x = rv(0.25, 0.5, 0.75, 1.0)
    assert moments_determine_check(x, x, TWO_BLOCKS, max_k=1)


def test_moments_insufficient_raises():
    space = MeasureSpace((0.25,) * 4)
    # one block with supports {0, 1} vs {0, 1/2, 1}: union has 3 values > max_k+1 = 2
    x = LatticeElement(space, (0.0, 1.0, 1.0, 0.0))
    y = LatticeElement(space, (0.0, 0.5, 1.0, 0.5))
    s = SubStructure([range(4)])
    with pytest.raises(InsufficientMomentsError):
        moments_determine_check(x, y, s, max_k=1)


def test_moments_values_one_rounding_apart_count_as_one():
    # the two values round to neighbouring multiples of 1e-9, the grid at
    # joint sup norm 1, yet differ only in the last bit
    space = MeasureSpace((0.5, 0.5))
    x = LatticeElement(space, (1.0, 0.2500000005))
    y = LatticeElement(space, (1.0, 0.25000000050000004))
    assert moments_determine_check(x, y, SubStructure([range(2)]), max_k=1)


def test_moments_determine_random(rng):
    grid_vals = [0.0, 0.25, 0.5, 1.0]
    for _ in range(30):
        space = MeasureSpace((0.125,) * 8)
        s = random_partition(rng, 8)
        x = LatticeElement(space, tuple(rng.choice(grid_vals) for _ in range(8)))
        if rng.random() < 0.5:
            perm_vals = list(x.array.tolist())
            for block in s.blocks:
                sub = [perm_vals[i] for i in block]
                rng.shuffle(sub)
                for i, v in zip(block, sub):
                    perm_vals[i] = v
            y = LatticeElement(space, tuple(perm_vals))
        else:
            y = LatticeElement(space, tuple(rng.choice(grid_vals) for _ in range(8)))
        assert moments_determine_check(x, y, s, max_k=3)


def test_block_distribution_reference_consistency(rng):
    space = MeasureSpace((0.3, 0.2, 0.4, 0.1))
    x = LatticeElement(space, (0.5, 0.5, 0.25, 1.0))
    dist = ref_block_distribution(space.weight_array.tolist(), x.array.tolist(), (0, 1, 2, 3))
    assert dist[0] == (0.25, pytest.approx(0.4))
    assert dist[1] == (0.5, pytest.approx(0.5))


# -- monomial rows ----------------------------------------------------------------------

@given(
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=3),
    st.data(),
)
def test_monomial_rows_are_the_products_of_the_nonzero_powers(values, data):
    # bit for bit, with no factor for a zero exponent: an all-zero tuple gives ones
    xs = [LatticeElement(MeasureSpace((1.0,) * 3), v) for v in values]
    exponents = st.lists(st.integers(0, 3), min_size=len(xs), max_size=len(xs))
    kss = data.draw(st.lists(exponents, min_size=1, max_size=6)) + [[0] * len(xs)]
    for row, ks in zip(_monomials(xs, kss), kss):
        want = np.ones(3)
        for x, k in zip(xs, ks):
            if k:
                want = want * x.array**k
        assert row.tobytes() == want.tobytes()


# -- integer arguments go through the integer rule ---------------------------------------

@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: cond_moment([x], [1.5], TWO_BLOCKS), "exponents/0/0: must be an integer, got 1.5"),
        (lambda x: cond_moment([x], [True], TWO_BLOCKS), "exponents/0/0: must be an integer, got True"),
        (lambda x: cond_moment([x], ["2"], TWO_BLOCKS), "exponents/0/0: must be an integer, got '2'"),
        (lambda x: cond_moment([x, x], [1, -1], TWO_BLOCKS), "exponents/0/1: must be >= 0, got -1"),
        (lambda x: cond_moment([x, x], [1, False], TWO_BLOCKS), "exponents/0/1: must be an integer, got False"),
        (lambda x: lift_event(x, TWO_BLOCKS, 2.5), "fiber_cells: must be an integer, got 2.5"),
        (lambda x: lift_event(x, TWO_BLOCKS, 0), "fiber_cells: must be >= 1, got 0"),
        (lambda x: moments_determine_check(x, x, TWO_BLOCKS, 3.5), "max_k: must be an integer, got 3.5"),
        (lambda x: least_squares_check(x, 0.5, TWO_BLOCKS), "exponents/0/0: must be an integer, got 0.5"),
    ],
)
def test_integer_arguments_are_refused_not_truncated(call, message):
    x = rv(0.5, 0.5, 0.25, 0.25)
    with pytest.raises(InvariantError) as err:
        call(x)
    assert str(err.value) == message


def test_variables_on_two_spaces_are_named_by_position():
    x, other = rv(0.5, 0.5, 0.25, 0.25), rv(0.5, 0.5)
    with pytest.raises(SpaceMismatchError, match=r"^variables/1: lives on another space than variables/0$"):
        cond_moment([x, other], [1, 1], TWO_BLOCKS)
    with pytest.raises(SpaceMismatchError, match=r"^variables/1: "):
        moments_determine_check(x, other, TWO_BLOCKS, 1)
    with pytest.raises(SpaceMismatchError, match=r"^events/1: lives on another space than events/0$"):
        apr_cb([x, other], TWO_BLOCKS)
    with pytest.raises(InvariantError, match=r"^events: need at least one element$"):
        apr_cb([], TWO_BLOCKS)
