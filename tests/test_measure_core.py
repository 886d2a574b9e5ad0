import math
import pickle
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError, SpaceMismatchError
from canonbase_lab.measure_core import (
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    SubStructure,
    cond_exp,
    group,
    join,
    lp_norm,
    meet,
    pos_part,
    same_space,
    sort_order,
)
from canonbase_lab.rules import MAX_ENTRIES, TOL, check_count, check_entries, close, integer
from conftest import random_element, random_pair

from reference import (dotminus, ref_cond_exp, ref_group, ref_lp_norm, ref_sort_order, ref_space, ref_substructure,
                       signed_power)

HALVES = MeasureSpace((0.5, 0.5))


def distance(f: LatticeElement, g: LatticeElement, p: float) -> float:
    """The lattice-structure metric d(f, g) = || (f - g)/2 ||_p."""
    return lp_norm((f - g) * 0.5, p)



def band_decompose(f: LatticeElement, s: SubStructure) -> tuple[LatticeElement, LatticeElement]:
    """Split f into its part over the support and the orthogonal remainder."""
    inside = s._labels(f.space) < len(s)
    return (
        LatticeElement(f.space, np.where(inside, f.array, 0.0)),
        LatticeElement(f.space, np.where(inside, 0.0, f.array)),
    )



def orthogonal(f: LatticeElement, g: LatticeElement, tol: float = TOL) -> bool:
    """True iff |f| ^ |g| is the zero element, tested as |f + g| = |f - g|."""
    same_space((f, g), "operands")
    return close(np.abs(f.array + g.array), np.abs(f.array - g.array), tol)


def elem(*values, space=None):
    space = space or MeasureSpace((1.0,) * len(values))
    return LatticeElement(space, values)


# -- construction invariants -------------------------------------------------

def test_space_rejects_zero_weight():
    with pytest.raises(InvariantError):
        MeasureSpace((1.0, 0.0))


def test_space_rejects_empty():
    with pytest.raises(InvariantError):
        MeasureSpace(())


def test_element_length_mismatch():
    with pytest.raises(InvariantError):
        LatticeElement(HALVES, (1.0,))


def test_element_rejects_nonfinite():
    with pytest.raises(InvariantError):
        LatticeElement(HALVES, (1.0, math.inf))


def test_substructure_rejects_empty_block():
    with pytest.raises(InvariantError):
        SubStructure(((),))


def test_substructure_rejects_overlap():
    with pytest.raises(InvariantError):
        SubStructure(((0, 1), (1, 2)))


def test_substructure_support():
    s = SubStructure(((0, 2), (3,)))
    assert set(chain.from_iterable(s.blocks)) == {0, 2, 3}


# -- norms -------------------------------------------------------------------

def test_lp_norm_zero_element():
    assert lp_norm(LatticeElement(HALVES, (0.0, 0.0)), 1) == 0.0


def test_lp_norm_worked_values():
    f = LatticeElement(HALVES, (-2.0, 4.0))
    assert lp_norm(f, 1) == pytest.approx(3.0, abs=1e-12)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_lp_norm_rejects_small_exponent():
    with pytest.raises(InvariantError):
        lp_norm(elem(1.0), 0.5)


def test_distance_uses_halving():
    f = LatticeElement(HALVES, (-2.0, 4.0))
    g = LatticeElement(HALVES, (0.0, 0.0))
    assert distance(f, g, 1) == pytest.approx(1.5)


@given(st.lists(st.floats(-8, 8), min_size=1, max_size=6), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lp_norm_matches_reference(values, p):
    space = MeasureSpace((0.25,) * len(values))
    f = LatticeElement(space, tuple(values))
    assert lp_norm(f, p) == pytest.approx(ref_lp_norm(space.weight_array.tolist(), values, p), abs=1e-12)


# -- lattice operations --------------------------------------------------------

def test_abs_pointwise():
    assert abs(elem(-3.0, 2.0)).array.tolist() == [3.0, 2.0]


def test_dotminus():
    assert dotminus(elem(1.0, 5.0), elem(3.0, 2.0)).array.tolist() == [0.0, 3.0]


def test_join_idempotent():
    f = elem(1.0, -2.0, 0.5)
    assert join(f, f).array.tolist() == f.array.tolist()


def test_binary_requires_same_space():
    with pytest.raises(SpaceMismatchError):
        join(elem(1.0), LatticeElement(HALVES, (1.0, 2.0)))


def test_scale_accepts_fraction():
    from fractions import Fraction

    assert (Fraction(3, 2) * elem(2.0)).array.tolist() == [3.0]


@given(
    st.lists(st.floats(-8, 8), min_size=3, max_size=3),
    st.lists(st.floats(-8, 8), min_size=3, max_size=3),
    st.lists(st.floats(-8, 8), min_size=3, max_size=3),
)
def test_lattice_axioms(a, b, c):
    space = MeasureSpace((1.0, 1.0, 1.0))
    f, g, h = (LatticeElement(space, tuple(v)) for v in (a, b, c))
    # absorption
    assert join(f, meet(f, g)).array.tolist() == f.array.tolist()
    assert meet(f, join(f, g)).array.tolist() == f.array.tolist()
    # commutativity / associativity
    assert join(f, g).array.tolist() == join(g, f).array.tolist()
    assert join(join(f, g), h).array.tolist() == join(f, join(g, h)).array.tolist()


@given(st.lists(st.floats(-8, 8), min_size=2, max_size=2), st.floats(0.01, 4))
def test_positive_scaling_distributes_over_join(a, c):
    f = LatticeElement(HALVES, tuple(a))
    g = LatticeElement(HALVES, (1.0, -1.0))
    lhs = c * join(f, g)
    rhs = join(c * f, c * g)
    assert lhs.approx_equal(rhs, tol=1e-9)


# -- signed powers --------------------------------------------------------------

def test_signed_power_odd_reflection():
    assert signed_power(-7.0, 2.0) == -49.0


def test_signed_power_positive_branch():
    assert signed_power(4.0, 0.5) == 2.0


def test_signed_power_zero():
    assert signed_power(0.0, 3.7) == 0.0


def test_signed_power_rejects_nonpositive_exponent():
    with pytest.raises(InvariantError):
        signed_power(2.0, 0.0)


# -- conditional expectation ------------------------------------------------------

def test_cond_exp_fixes_block_constant():
    space = MeasureSpace((1.0, 2.0, 1.0))
    s = SubStructure(((0, 1), (2,)))
    f = LatticeElement(space, (3.0, 3.0, -1.0))
    assert cond_exp(f, s).array.tolist() == f.array.tolist()


def test_cond_exp_weighted_mean():
    space = MeasureSpace((1.0, 3.0))
    f = LatticeElement(space, (4.0, 0.0))
    assert cond_exp(f, SubStructure(((0, 1),))).array.tolist() == [1.0, 1.0]


def test_cond_exp_equal_weights_mean():
    f = LatticeElement(HALVES, (-2.0, 4.0))
    assert cond_exp(f, SubStructure(((0, 1),))).array.tolist() == [1.0, 1.0]


def test_cond_exp_zero_off_support():
    space = MeasureSpace((1.0, 1.0, 1.0))
    f = LatticeElement(space, (5.0, 5.0, 7.0))
    out = cond_exp(f, SubStructure(((0, 1),)))
    assert out.array.tolist() == [5.0, 5.0, 0.0]


def test_cond_exp_averaging_identity(rng):
    for _ in range(50):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        s = pair.base_substructure()
        out = cond_exp(f, s)
        w, got, values = f.space.weight_array.tolist(), out.array.tolist(), f.array.tolist()
        for block in s.blocks:
            lhs = sum(w[i] * got[i] for i in block)
            rhs = sum(w[i] * values[i] for i in block)
            assert abs(lhs - rhs) <= 1e-9


def test_cond_exp_jensen_contraction(rng):
    for _ in range(30):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        s = pair.base_substructure()
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_norm(cond_exp(f, s), p) <= lp_norm(f, p) + 1e-9


def test_cond_exp_matches_reference(rng):
    for _ in range(30):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        s = pair.base_substructure()
        expected = ref_cond_exp(f.space.weight_array.tolist(), f.array.tolist(), s.blocks)
        assert cond_exp(f, s).approx_equal(
            LatticeElement(f.space, tuple(expected)), tol=1e-12
        )


# -- band decomposition ----------------------------------------------------------

def test_band_inside():
    space = MeasureSpace((1.0, 1.0))
    f = LatticeElement(space, (1.0, 2.0))
    fe, fperp = band_decompose(f, SubStructure(((0, 1),)))
    assert fe.array.tolist() == f.array.tolist() and fperp.array.tolist() == [0.0, 0.0]


def test_band_outside():
    space = MeasureSpace((1.0, 1.0))
    f = LatticeElement(space, (0.0, 2.0))
    fe, fperp = band_decompose(f, SubStructure(((0,),)))
    assert fe.array.tolist() == [0.0, 0.0] and fperp.array.tolist() == [0.0, 2.0]


def test_band_coordinate_split():
    space = MeasureSpace((1.0, 1.0, 1.0))
    f = LatticeElement(space, (1.0, 2.0, 3.0))
    fe, fperp = band_decompose(f, SubStructure(((0, 1),)))
    assert fe.array.tolist() == [1.0, 2.0, 0.0]
    assert fperp.array.tolist() == [0.0, 0.0, 3.0]


def test_band_parts_orthogonal_and_sum_exactly(rng):
    for _ in range(30):
        pair = random_pair(rng, orth=True)
        f = random_element(rng, pair)
        s = pair.base_substructure()
        fe, fperp = band_decompose(f, s)
        assert orthogonal(fe, fperp, tol=0.0)
        assert (fe + fperp).array.tolist() == f.array.tolist()


# -- orthogonality ------------------------------------------------------------------

def test_orthogonal_examples():
    space = MeasureSpace((1.0, 1.0))
    assert orthogonal(LatticeElement(space, (1.0, 0.0)), LatticeElement(space, (0.0, 1.0)))
    assert not orthogonal(LatticeElement(space, (1.0, 1.0)), LatticeElement(space, (0.0, 1.0)))
    f = LatticeElement(space, (3.0, -2.0))
    assert orthogonal(f, LatticeElement(space, (0.0, 0.0)))


# -- the fibered extension -----------------------------------------------------------

def test_pair_total_space_geometry():
    pair = ExtensionPair((2.0, 1.0), 4, True)
    total = pair.total_space()
    assert len(total) == (2 + 2) * 4
    assert total.weight_array.tolist()[:4] == [0.5] * 4
    assert total.weight_array.tolist()[4:8] == [0.25] * 4
    assert total.weight_array.tolist()[8:] == [0.25] * 8


def test_pair_embed_is_fiber_constant():
    pair = ExtensionPair((1.0, 2.0), 3, True)
    g = LatticeElement(pair.base_space(), (1.5, -2.0))
    lifted = pair.embed(g)
    assert pair.is_embedded(lifted)
    assert [row.tolist() for row in pair.fibers(lifted)] == [[1.5] * 3, [-2.0] * 3]
    assert pair.orthogonal_part(lifted).array[: pair.n].tolist() == [0.0] * 3


def test_pair_cond_exp_two_routes(rng):
    # block means through the generic machinery agree with fiber means
    for _ in range(20):
        pair = random_pair(rng)
        f = random_element(rng, pair)
        via_blocks = cond_exp(f, pair.base_substructure())
        via_pair = pair.embed(pair.cond_exp_base(f))
        assert via_blocks.approx_equal(via_pair, tol=1e-12)


def test_pair_element_shape_errors():
    pair = ExtensionPair((1.0,), 2)
    with pytest.raises(InvariantError):
        pair.element([[1.0]])
    with pytest.raises(InvariantError):
        pair.element([[1.0, 2.0]], plus=[1.0, 0.0])


# -- the array contract ----------------------------------------------------------------

def test_element_array_is_read_only_float64():
    f = elem(1, -2.5, 3)
    assert f.array.dtype == np.float64
    with pytest.raises(ValueError):
        f.array[0] = 7.0
    assert f.array.tolist() == [1.0, -2.5, 3.0]


def test_array_views_share_the_stored_buffer():
    # one copy of each datum: the numpy views are read-only float64 views of
    # the read-only standard-library buffers, built on each read
    pair = ExtensionPair((1.0, 2.0), 2, True)
    f = pair.element([[1.0, -2.0], [0.5, 0.0]], plus=[3.0, 0.0], minus=[0.0, -1.0])
    for buffer, view in [(f.values, f.array), *((s.weights, s.weight_array) for s in
                                                (f.space, pair.base_space(), HALVES))]:
        assert isinstance(buffer, memoryview) and buffer.readonly and buffer.format == "d"
        assert view.dtype == np.float64 and not view.flags.writeable
        assert np.shares_memory(view, np.asarray(buffer)) and view.tolist() == buffer.tolist()
        with pytest.raises(TypeError):
            buffer[0] = 7.0
    assert f.space is pair.total_space()


def test_records_over_buffers_compare_hash_pickle_and_show_their_values():
    space = MeasureSpace([1.0, 2.0])
    f, g = LatticeElement(space, [-0.0, 3.0]), LatticeElement(MeasureSpace((1, 2)), (0.0, 3))
    assert f == g and hash(f) == hash(g)
    assert f != LatticeElement(space, [0.0, 3.5]) and f != space
    assert repr(f) == "LatticeElement(MeasureSpace([1.0, 2.0]), [-0.0, 3.0])"
    assert eval(repr(f)) == f
    clone = pickle.loads(pickle.dumps(f))
    assert clone == f and hash(clone) == hash(f) and clone.values.tolist() == [-0.0, 3.0]
    pair = ExtensionPair([0.5], 3, True)
    assert repr(pair) == "ExtensionPair([0.5], 3, True)" and eval(repr(pair)) == pair


def test_a_cell_weight_that_underflows_is_named_as_before():
    # the total space is taken unchecked unless a cell weight w/n can underflow
    for weights, message in (([1.0, 5e-324], "weights/3: must be positive, got 0.0"),
                             ([5e-324], "weights/0: must be positive, got 0.0")):
        with pytest.raises(InvariantError) as caught:
            ExtensionPair(weights, 3, True)
        assert str(caught.value) == message
    pair = ExtensionPair([5e-324, 2.0], 1)
    assert pair.total_space().weights.tolist() == [5e-324, 2.0]


def test_non_numeric_input_raises_invariant_error():
    with pytest.raises(InvariantError):
        LatticeElement(HALVES, ("x", 1.0))
    with pytest.raises(InvariantError):
        LatticeElement(MeasureSpace((1.0,)), ("x",))
    with pytest.raises(InvariantError):
        ExtensionPair(("x",), 2)


def test_pair_builds_its_spaces_once_and_exposes_read_only_fibers(rng):
    pair = random_pair(rng, orth=True)
    assert pair.total_space() is pair.total_space()
    assert pair.base_space() is pair.base_space()
    f = random_element(rng, pair)
    fibers = pair.fibers(f)
    assert [len(row) for row in fibers] == [pair.n] * pair.m
    cells = f.array.tolist()
    assert [row.tolist() for row in fibers] == [cells[i * pair.n : (i + 1) * pair.n] for i in range(pair.m)]
    assert all(np.shares_memory(np.asarray(row), f.array) for row in fibers)  # views of f's buffer
    with pytest.raises(TypeError):
        fibers[0][0] = 1.0
    orth = pair.orthogonal_part(f)
    assert orth.array.tolist() == cells[pair.m * pair.n :]


def test_cond_exp_sums_in_atom_order_like_the_reference(rng):
    # atoms outside the support stay zero; the block means equal the loop's exactly
    for _ in range(30):
        space = MeasureSpace(tuple(rng.randint(1, 9) / 7 for _ in range(rng.randint(2, 12))))
        atoms = list(range(len(space)))
        rng.shuffle(atoms)
        inside = atoms[: rng.randint(1, len(atoms) - 1)]
        blocks, start = [], 0
        while start < len(inside):
            size = rng.randint(1, 3)
            blocks.append(tuple(inside[start : start + size]))
            start += size
        s = SubStructure(tuple(blocks))
        f = LatticeElement(space, tuple(rng.uniform(-5, 5) for _ in atoms))
        want = ref_cond_exp(space.weight_array.tolist(), f.array.tolist(), s.blocks)
        assert cond_exp(f, s).array.tolist() == want


def test_entry_cap_admits_2_to_the_24_entries_and_no_more():
    check_entries(2**12 - 1, 4096, "events")  # 12 events on 4,096 atoms
    check_entries(1, MAX_ENTRIES, "dim")
    with pytest.raises(InvariantError, match=r"^events: 16781310 entries exceed the cap of 16777216"):
        check_entries(2**12 - 1, 4098, "events")
    with pytest.raises(InvariantError, match=r"^dim: 16777217 entries"):
        check_entries(1, MAX_ENTRIES + 1, "dim")
    with pytest.raises(InvariantError, match=r"^fiber_cells: more than 2\*\*99 entries"):
        ExtensionPair((1.0,), 10**30)


def test_count_cap_names_the_count_and_the_cap():
    check_count(2**14, 2**14, "--grid", "keys")
    with pytest.raises(InvariantError, match=r"^--grid: 16385 keys exceed the cap of 16384 \(2\*\*14\)$"):
        check_count(2**14 + 1, 2**14, "--grid", "keys")
    with pytest.raises(InvariantError, match=r"^--k-max: more than 2\*\*99 keys exceed the cap of 16384"):
        check_count(10**30, 2**14, "--k-max", "keys")


@pytest.mark.parametrize(
    "value, least, message",
    [
        (2.5, 1, "n: must be an integer, got 2.5"),
        (True, 0, "n: must be an integer, got True"),
        ("2", 0, "n: must be an integer, got '2'"),
        (math.inf, 0, "n: must be an integer, got inf"),
        (None, 0, "n: must be an integer, got None"),
        (0, 1, "n: must be >= 1, got 0"),
        (-3.0, 0, "n: must be >= 0, got -3.0"),
    ],
)
def test_integer_rule_reports_its_two_failures_apart(value, least, message):
    with pytest.raises(InvariantError) as err:
        integer(value, "n", least)
    assert str(err.value) == message


def test_integer_rule_accepts_integral_values():
    assert integer(3, "n", 1) == 3 and integer(4.0, "n", 0) == 4 and integer(np.int64(7), "n", 7) == 7
    assert type(integer(4.0, "n", 0)) is int


def test_same_space_names_the_first_element_on_another_space():
    f, g = elem(1.0), LatticeElement(HALVES, (1.0, 2.0))
    assert same_space([f], "args") == f.space
    assert same_space((f, f, f), "args") == f.space
    with pytest.raises(InvariantError, match=r"^args: need at least one element$"):
        same_space([], "args")
    with pytest.raises(SpaceMismatchError, match=r"^args/2: lives on another space than args/0$"):
        same_space([f, f, g, g], "args")
    with pytest.raises(SpaceMismatchError, match=r"^operands/1: lives on another space than operands/0$"):
        f + g


# -- the array-backed classes against their tuple reference ---------------------

_WEIGHTS = st.lists(st.sampled_from([0.25, 0.5, 1, 2.0, 1e-300, 1e300]), min_size=1, max_size=4)


@st.composite
def _blocks(draw):
    """Disjoint blocks of atoms 0..5, in a drawn block order, each listed in a drawn order."""
    labels = draw(st.lists(st.integers(-1, 2), max_size=6))
    order = draw(st.permutations(range(len(labels))))
    blocks = ([i for i in order if labels[i] == k] for k in draw(st.permutations(range(3))))
    return [block for block in blocks if block]


def _compare_as_references(a, b, ref_a, ref_b):
    """a and b are equal exactly when their references are, hash alike when
    equal, and come back equal, with the same hash, from a pickle round trip."""
    assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    if a == b:
        assert hash(a) == hash(b)
    for x in (a, b):
        clone = pickle.loads(pickle.dumps(x))
        assert clone == x and hash(clone) == hash(x)


@given(_WEIGHTS, _WEIGHTS)
def test_space_behaves_as_its_tuple_reference(w1, w2):
    a, b = MeasureSpace(w1), MeasureSpace(w2)
    assert a.weight_array.tolist() == list(ref_space(w1)) and len(a) == len(w1)
    assert pickle.loads(pickle.dumps(a)).weight_array.tolist() == list(ref_space(w1))
    _compare_as_references(a, b, ref_space(w1), ref_space(w2))
    with pytest.raises(AttributeError, match="^MeasureSpace is immutable"):
        a.weight_array = b.weight_array
    with pytest.raises(ValueError):
        a.weight_array[0] = 1.0


@given(_blocks(), _blocks())
def test_substructure_behaves_as_its_tuple_reference(b1, b2):
    s, t = SubStructure(b1), SubStructure(b2)
    ref = ref_substructure(b1)
    assert s.blocks == ref and len(s) == len(ref)
    assert all(type(i) is int for i in chain.from_iterable(s.blocks))
    assert pickle.loads(pickle.dumps(s)).blocks == ref
    _compare_as_references(s, t, ref, ref_substructure(b2))
    with pytest.raises(AttributeError, match="^SubStructure is immutable"):
        s.blocks = ()


@given(_WEIGHTS, _WEIGHTS, st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans())
def test_pair_behaves_as_its_tuple_reference(w1, w2, n1, n2, o1, o2):
    p, q = ExtensionPair(w1, n1, o1), ExtensionPair(w2, n2, o2)
    assert p.base_space().weight_array.tolist() == list(ref_space(w1))
    assert (p.m, p.n, p.has_orthogonal) == (len(w1), n1, o1)
    _compare_as_references(p, q, (ref_space(w1), n1, o1), (ref_space(w2), n2, o2))
    assert pickle.loads(pickle.dumps(p)).total_space() == p.total_space()


@given(*[st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=2, max_size=2)] * 2)
def test_element_equality_and_hash_follow_the_values(v1, v2):
    f, g = LatticeElement(HALVES, v1), LatticeElement(MeasureSpace((0.5, 0.5)), v2)
    _compare_as_references(f, g, (HALVES.weight_array.tolist(), v1), (HALVES.weight_array.tolist(), v2))


@given(st.integers(1, 4), st.integers(1, 3), st.booleans())
def test_derived_substructures_match_their_tuple_reference(m, n, orth):
    fibers = ref_substructure(range(i * n, (i + 1) * n) for i in range(m))
    base = ExtensionPair((1.0,) * m, n, orth).base_substructure()
    assert base.blocks == fibers and base == SubStructure(fibers) and hash(base) == hash(SubStructure(fibers))
    assert SubStructure([range(m * n - 1, -1, -1)]) == SubStructure([range(m * n)])


def test_space_and_substructure_keep_only_their_arrays():
    # The inputs are built before tracing starts, so what stays traced is
    # what the objects hold. As arrays, their per-atom data takes 40 bytes an
    # atom: a weight, an index, a value, and a pair's base and total weights
    # (one fiber cell an atom); a tuple or list copy of any of them adds 32
    # more, a float object and a pointer each. Comparing, hashing and
    # pickling an object leaves no such copy behind.
    n = 10**5
    weights = [1.0 + i / n for i in range(n)]
    blocks = [list(range(k, n, 1000)) for k in range(1000)]
    values = np.linspace(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        space, s = MeasureSpace(weights), SubStructure(blocks)
        f, pair = LatticeElement(space, values), ExtensionPair(weights, 1)
        for x in (space, s, f, pair):
            clone = pickle.loads(pickle.dumps(x))
            assert clone == x and hash(clone) == hash(x)
        del weights, blocks, values, clone
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 48 * n
    assert len(space) == n and len(s) == 1000 and len(f.array) == n and pair.m == n


# coordinates on a coarse grid, so that ties, near-ties and signed zeros occur
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 4e-10, 1.0 - 6e-10, 2.5, 1e-10, -3e-10])


@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.tuples(*[_COORDS] * d), max_size=12).map(
    lambda vectors: [[v[j] for v in vectors] for j in range(d)])), st.sampled_from([1e-9, 1e-3, 1.0]))
def test_sort_order_and_group_follow_the_numpy_rule(columns, quantum):
    # the stable sort per coordinate gives lexsort's order, ties and signed zeros included
    order = sort_order(columns, quantum)
    labels, firsts = group(columns, quantum)
    if not columns[0]:
        assert order == [] and labels == [] and firsts == []
        return
    arr = np.array(columns).T
    ref_labels, ref_firsts = ref_group(arr, quantum)
    assert order == ref_sort_order(arr, quantum).tolist()
    assert labels == ref_labels.tolist() and firsts == ref_firsts.tolist()


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e300, -1e-300])


@given(st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=6), _SIGNED)
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.0, 1.0)], -0.0)
def test_element_operations_give_numpys_bits(pairs, c):
    # signed zeros included: join and meet keep their second operand on a tie, as numpy's maximum and minimum do
    space = MeasureSpace([1.0] * len(pairs))
    f, g = (LatticeElement(space, [p[k] for p in pairs]) for k in (0, 1))
    a, b = f.array, g.array
    with np.errstate(over="ignore"):
        expected = [(lambda: join(f, g), np.maximum(a, b)), (lambda: meet(f, g), np.minimum(a, b)),
                    (lambda: pos_part(f), np.maximum(a, 0.0)), (lambda: abs(f), np.abs(a)), (lambda: -f, -a),
                    (lambda: f + g, a + b), (lambda: f - g, a - b), (lambda: f * g, a * b), (lambda: c * f, c * a)]
    for op, want in expected:
        if np.isfinite(want).all():  # an overflow is refused as a non-finite value
            assert op().array.tobytes() == want.tobytes()
        else:
            with pytest.raises(InvariantError, match="must be finite, got"):
                op()
