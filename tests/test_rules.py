"""The scalar rules: ``close`` gives one verdict on Python floats and on
arrays, and ``real_array`` and the short-list ``reals`` read input as the
numpy rule they replaced (``ref_array_reals``) read it, with the same
messages."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canonbase_lab.errors import InvariantError
from canonbase_lab.rules import TOL, close, real_array, reals
from reference import ref_array_reals as array_reals

_ENTRIES = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
# each entry of b is a relative nudge of a's entry, or an entry of its own
_NUDGES = st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, 1e-6, -1.0])
_SCALES = st.sampled_from([10.0 ** k for k in range(-12, 13)])


def _verdicts(a: list, b: list, tol: float) -> set:
    verdicts = {close(a, b, tol), close(tuple(a), tuple(b), tol)}
    if len(a) == 1:
        verdicts.add(close(a[0], b[0], tol))
    assert verdicts <= {True, False}
    return verdicts


@given(st.lists(st.tuples(_ENTRIES, _NUDGES, st.none() | _ENTRIES), max_size=6), _SCALES,
       st.sampled_from([TOL, 0.0, 1e-3]))
@example([], 1.0, TOL)
@example([(math.inf, 0.0, None)], 1e12, TOL)
@example([(math.nan, 0.0, None)], 1.0, TOL)
@example([(-0.0, 0.0, 0.0)], 1e-12, TOL)
@example([(1.0, 0.0, math.nan), (math.inf, 0.0, None)], 1.0, TOL)
def test_close_gives_one_verdict_on_floats_and_arrays(entries, scale, tol):
    a = [scale * x for x, _, _ in entries]
    b = [scale * (x * (1.0 + d) if y is None else y) for x, d, y in entries]
    assert _verdicts(a, b, tol) == {close(np.array(a), np.array(b), tol)}


@pytest.mark.parametrize("a, b, verdict", [
    ([], [], True),
    ([math.inf], [math.inf], True),
    ([math.inf, 1.0], [math.inf, 1.0 + 1e-12], False),
    ([math.inf], [-math.inf], False),
    ([math.nan], [math.nan], False),
    ([math.nan, math.inf], [math.nan, math.inf], False),
    ([1.0, math.nan], [1.0, 1.0], False),
    ([-0.0], [0.0], True),
    ([-0.0, 0.0], [0.0, -0.0], True),
    ([1.0, 2.0], [1.0 + 1e-9, 2.0], True),
    ([1.0, 2.0], [1.0 + 3e-9, 2.0], False),
    ([1e301], [1e301 * (1.0 + 5e-10)], True),
])
def test_close_edge_cases(a, b, verdict):
    assert _verdicts(a, b, TOL) == {verdict}  # one NaN object on both sides too
    for scale in (1e-12, 1.0, 1e12):
        xs, ys = [scale * x for x in a], [scale * y for y in b]
        assert _verdicts(xs, ys, TOL) == {close(np.array(xs), np.array(ys))} == {verdict}


@pytest.mark.parametrize("values", [
    [1, 2.5, -0.0], [], [10**400], [1.0, math.inf], [math.nan], [[1.0], [2.0]], "1.5", "abc",
    None, [None, 1.0], [True, 2], ["1", "2"], [{}, 1], 5, [[]],
])
def test_reals_reads_lists_as_the_array_rule_does(values):
    try:
        expected = array_reals(values, "/x")
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            reals(values, "/x")
        assert str(got.value) == str(exc)
        return
    if expected.ndim != 1:
        with pytest.raises(InvariantError, match="^/x: expected a list of any number of reals$"):
            reals(values, "/x")
    else:
        assert reals(values, "/x") == expected.tolist()


def test_reals_checks_the_length():
    assert reals([1, 2], "/anchor", 2) == [1.0, 2.0]
    with pytest.raises(InvariantError, match="^/anchor: expected a list of 2 reals$"):
        reals([1.0], "/anchor", 2)


@pytest.mark.parametrize("values", [
    [1, 2.5, -0.0], [], [10**400], [1.0, math.inf], [math.nan], [[1.0], [2.0]], "1.5", "abc", None,
    [None, 1.0], [True, 2], ["1", "2"], [{}, 1], 5, [[]], [[1.0, 2.0], [3.0]], [[1, 2], [3, [4]]],
    [[1, 2], "ab"], [[1, "a"], [2]], [[], [1]], [1, [2]], [[1.0, math.inf], [2.0, 3.0]], [[1, 2], [3, None]],
    [[[1.0], [2.0]], [[3.0], [-math.inf]]], ((1.0, 2.0), (3.0, 4.0)), [(1, 2), [3, 4]], range(3), [[1e308, 1e308]],
    np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3).T, np.arange(3), [np.arange(2.0), np.arange(2.0)],
    [np.float64(1.5), np.array(2.0)], np.array([1.0, np.inf]), [[1, 2], [3, 10**400]], [[1, 2], [3, "x"]],
])
def test_real_array_reads_input_as_the_array_rule_does(values):
    # the message of each refusal, the shape and every bit of the values
    try:
        expected = array_reals(values, "rows")
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            real_array(values, "rows")
        assert str(got.value) == str(exc)
        return
    cells, shape = real_array(values, "rows")
    assert shape == expected.shape and cells.tobytes() == expected.tobytes()
