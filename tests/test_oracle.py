import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError
from canonbase_lab.lp_canon import canonical_base_1type
from canonbase_lab.measure_core import ExtensionPair, LatticeElement, MeasureSpace
from canonbase_lab.oracle import (
    DirectionalMass,
    absolute_type_equal,
    type_equal_1,
    type_equal_n,
)
from conftest import random_element, random_pair, rearranged_copy
from reference import moments_determine_check


def test_type_equal_reflexive(rng):
    for _ in range(20):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        assert type_equal_1(f, f, pair, 1)


def test_type_equal_sorted_copy(rng):
    for _ in range(40):
        pair = random_pair(rng, orth=True)
        f = random_element(rng, pair)
        assert type_equal_1(f, rearranged_copy(rng, pair, f), pair, 2)


def test_type_equal_distinct_multisets():
    pair = ExtensionPair((1.0,), 2)
    f = pair.element([[-2.0, 4.0]])
    g = pair.element([[-2.0, 5.0]])
    assert not type_equal_1(f, g, pair, 1)


def test_type_equal_sees_orthogonal_norms():
    pair = ExtensionPair((1.0,), 2, True)
    f = pair.element([[1.0, 2.0]], plus=[1.0, 1.0])
    g = pair.element([[1.0, 2.0]], plus=[2.0, 0.0])
    # same fiber rows; plus-part one-norms differ (1 vs 2^p-average)
    assert not type_equal_1(f, g, pair, 2)
    # but with p = 1 the masses coincide: 1 = (2+0)/2
    assert type_equal_1(f, g, pair, 1)


def test_type_equal_n_joint_permutation(rng):
    for _ in range(30):
        pair = random_pair(rng, orth=True)
        f1, f2 = random_element(rng, pair), random_element(rng, pair)
        # one shared cell permutation applied jointly to both elements
        perm = {
            i: rng.sample(range(pair.n), pair.n) for i in range(pair.m)
        }
        orth_perm = rng.sample(range(2 * pair.n), 2 * pair.n)

        def permute(f):
            rows = pair.fibers(f).tolist()
            new_rows = [[rows[i][j] for j in perm[i]] for i in range(pair.m)]
            orth = pair.orthogonal_part(f).array.tolist()
            new_orth = [orth[j] for j in orth_perm]
            return pair.element(new_rows, new_orth[: pair.n], new_orth[pair.n :])

        assert type_equal_n([f1, f2], [permute(f1), permute(f2)], pair, 1)


def test_type_equal_n_remark_pair():
    pair = ExtensionPair((1.0, 1.0, 1.0), 1)
    g = pair.element([[1.0], [-1.0], [0.0]])
    h = pair.element([[1.0], [1.0], [-2.0]])
    assert not type_equal_n([g, h], [g, -h], pair, 1)
    assert type_equal_n([g, h], [g, h], pair, 1)


def test_type_equal_n_length_mismatch():
    pair = ExtensionPair((1.0,), 1)
    f = pair.element([[1.0]])
    with pytest.raises(InvariantError):
        type_equal_n([f], [f, f], pair, 1)


def test_absolute_type_mass_invariance():
    # spread one atom of weight 1, value 2 into two atoms of weight 1 value 1 each (p = 1)
    a = LatticeElement(MeasureSpace((1.0,)), (2.0,))
    b = LatticeElement(MeasureSpace((1.0, 1.0)), (1.0, 1.0))
    assert absolute_type_equal([a], [b], 1)
    assert not absolute_type_equal([a], [b], 2)


def test_absolute_type_single_elements_pm_norms():
    space = MeasureSpace((1.0, 1.0, 1.0))
    h = LatticeElement(space, (1.0, 1.0, -2.0))
    # h and -h share the positive/negative one-norms (both are 2)
    assert absolute_type_equal([h], [-h], 1)
    assert not absolute_type_equal([h], [-h], 2)


def test_absolute_type_permutation_invariance(rng):
    for _ in range(20):
        space = MeasureSpace((0.5, 1.0, 0.25, 1.5))
        vals = tuple(rng.randint(-16, 16) / 4 for _ in range(4))
        f = LatticeElement(space, vals)
        perm = rng.sample(range(4), 4)
        g = LatticeElement(
            MeasureSpace(space.weight_array[perm]),
            tuple(vals[i] for i in perm),
        )
        assert absolute_type_equal([f], [g], 1.5)


def test_absolute_type_is_equivalence(rng):
    space = MeasureSpace((1.0, 2.0))
    elems = [
        LatticeElement(space, (1.0, -1.0)),
        LatticeElement(space, (1.0, -1.0)),
        LatticeElement(space, (2.0, 1.0)),
    ]
    for f in elems:
        assert absolute_type_equal([f], [f], 2)
    a, b = elems[0], elems[1]
    assert absolute_type_equal([a], [b], 2) == absolute_type_equal([b], [a], 2)


def test_directional_mass_merges_proportional_vectors():
    space = MeasureSpace((1.0, 1.0))
    f = LatticeElement(space, (1.0, 2.0))
    g = LatticeElement(space, (3.0, 6.0))
    mass = DirectionalMass.from_elements([f, g], 1)
    assert len(mass.entries) == 1  # both atoms point along (1/3, 1)


def test_directional_mass_keeps_a_direction_whole_across_a_rounding_boundary():
    # the second coordinates round to neighbouring multiples of TOL yet
    # differ only in the last bit
    space = MeasureSpace((1.0, 1.0))
    f = LatticeElement(space, (1.0, 1.0))
    g = LatticeElement(space, (0.2500000005, 0.25000000050000004))
    assert len(DirectionalMass.from_elements([f, g], 1).entries) == 1
    lone = MeasureSpace((2.0,))
    assert absolute_type_equal([f, g], [LatticeElement(lone, (1.0,)), LatticeElement(lone, (0.2500000005,))], 1)


def test_oracle_consistency_with_base(rng):
    for _ in range(25):
        pair = random_pair(rng, max_m=4, n=8)
        f = random_element(rng, pair)
        g = rearranged_copy(rng, pair, f)
        h = random_element(rng, pair)
        grid = [k / 8 for k in range(1, 9)]
        cb = lambda e: canonical_base_1type(e, pair, 1, grid)
        assert cb(f).approx_equal(cb(g)) == type_equal_1(f, g, pair, 1)
        assert cb(f).approx_equal(cb(h)) == type_equal_1(f, h, pair, 1)


@st.composite
def _shuffled_pairs(draw):
    """A pair with an orthogonal part, a nonzero dyadic element f on it, and
    a measure-preserving rearrangement of f."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    pair = ExtensionPair(tuple(w / 4 for w in weights), n, True)
    cells = st.lists(st.integers(-128, 128), min_size=(m + 2) * n, max_size=(m + 2) * n)
    values = [v / 16 for v in draw(cells.filter(any))]
    f = pair.element(
        [values[i * n : (i + 1) * n] for i in range(m)], values[m * n : (m + 1) * n], values[(m + 1) * n :]
    )
    return pair, f, rearranged_copy(draw(st.randoms()), pair, f)


@given(_shuffled_pairs(), st.integers(-12, 12), st.sampled_from([1.0, 1.5, 2.0]))
def test_verdicts_do_not_depend_on_units(data, k, p):
    pair, f, g = data
    grid = [j / pair.n for j in range(1, pair.n + 1)]

    def verdicts(c):
        out = []
        for a, b in ((f, g), (f, (1 + 1e-6) * f)):
            a, b = c * a, c * b
            one = type_equal_1(a, b, pair, p)
            base = canonical_base_1type(a, pair, p, grid).approx_equal(canonical_base_1type(b, pair, p, grid))
            assert base == one
            out.append((one, type_equal_n([a], [b], pair, p), absolute_type_equal([a], [b], p)))
        return out

    expected = [(True, True, True), (False, False, False)]
    assert verdicts(1.0) == expected
    assert verdicts(10.0**k) == expected
    if k <= 0:
        # [0, 1]-valued variables on the total space, conditioned on the base fibers
        top = float(abs(f.array).max())
        x, y = abs(f) * (10.0**k / top), abs(g) * (10.0**k / top)
        blocks, max_k = pair.base_substructure(), 2 * pair.n - 1
        assert moments_determine_check(x, y, blocks, max_k)
        assert moments_determine_check(x, (1 - 1e-6) * x, blocks, max_k)
