import heapq
import math
import random
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonbase_lab import krivine
from canonbase_lab.errors import InvariantError, SpaceMismatchError, TermSyntaxError
from canonbase_lab.krivine import (
    HomogeneousFn,
    _evaluate,
    approximate_on_sphere,
    eval_array,
    interpolating_term,
    registry_function,
)
from canonbase_lab.rules import close
from canonbase_lab.terms import (
    Abs,
    HalfSum,
    Join,
    LatticeTerm,
    Meet,
    Neg,
    Scale,
    Var,
    Zero,
    _arity,
    _fold,
    _walk,
    eval_scalar,
    parse_term,
    term_lipschitz_bound,
    to_text,
)
from canonbase_lab.measure_core import LatticeElement, MeasureSpace
from reference import ref_covers, ref_dominating, ref_max_min, ref_sphere_error


def eval_element(term: LatticeTerm, args: Sequence[LatticeElement]) -> LatticeElement:
    """Apply the term atom by atom to lattice elements on a common space."""
    from canonbase_lab.measure_core import LatticeElement, same_space
    space = same_space(args, "args")
    return LatticeElement(space, _evaluate(_walk(term), np.array([g.array for g in args])))


def term_arity(term: LatticeTerm) -> int:
    """1 + the largest variable index used (0 for variable-free terms)."""
    return _arity(_walk(term))


# Values are intervals (lo, hi); Var reads the box, so each box adds its own Var rule.
_INTERVAL = {
    Zero: lambda t, a, b: (0.0, 0.0),
    Neg: lambda t, a, b: (-a[1], -a[0]),
    Abs: lambda t, a, b: (0.0 if a[0] <= 0.0 <= a[1] else min(map(abs, a)), max(map(abs, a))),
    HalfSum: lambda t, a, b: ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0),
    Join: lambda t, a, b: (max(a[0], b[0]), max(a[1], b[1])),
    Meet: lambda t, a, b: (min(a[0], b[0]), min(a[1], b[1])),
    Scale: lambda t, a, b: tuple(sorted(float(t.factor) * v for v in a)),
}


def term_sup_norm(term: LatticeTerm) -> float:
    """Supremum of |t| over the unit cube [-1, 1]^n.

    Arity one is exact by homogeneity (the endpoints suffice); otherwise a
    branch-and-bound over interval bounds certifies the value up to
    ``close``, or, after 100,000 boxes, returns its upper bound.
    The term is walked once; every box and point reuses that walk.
    """
    walk = _walk(term)
    n = _arity(walk)

    def largest_at(points: list[list[float]]) -> float:
        return float(np.abs(_evaluate(walk, np.array(points).T)).max())

    if n <= 1:
        return largest_at([[1.0] * n, [-1.0] * n])

    def abs_bounds(box):
        lo, hi = _fold(walk, {**_INTERVAL, Var: lambda t, a, b: box[t.index]})
        return max(abs(lo), abs(hi))

    start = [(-1.0, 1.0)] * n
    # seed the lower bound with the cube corners and center
    corners = [[(1.0 if (c >> i) & 1 else -1.0) for i in range(n)] for c in range(2 ** min(n, 12))]
    best_lb = max(0.0, largest_at(corners + [[0.0] * n]))
    counter = 0
    heap = [(-abs_bounds(start), counter, start)]
    processed = 0
    while heap and processed < 100_000:
        ub_neg, _, box = heapq.heappop(heap)
        ub = -ub_neg
        if ub <= best_lb or close(ub, best_lb):
            return ub
        processed += 1
        widths = [hi - lo for lo, hi in box]
        split = widths.index(max(widths))
        lo, hi = box[split]
        mid = (lo + hi) / 2.0
        children = [box[:split] + [part] + box[split + 1 :] for part in ((lo, mid), (mid, hi))]
        centres = [[(clo + chi) / 2.0 for clo, chi in child] for child in children]
        best_lb = max(best_lb, largest_at(centres))
        for child in children:
            counter += 1
            heapq.heappush(heap, (-abs_bounds(child), counter, child))
    return -heap[0][0] if heap else best_lb


def terms(max_arity=3):
    scalars = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    leaves = st.one_of(
        st.builds(Zero),
        st.builds(Var, st.integers(0, max_arity - 1)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Abs, inner),
            st.builds(HalfSum, inner, inner),
            st.builds(Join, inner, inner),
            st.builds(Meet, inner, inner),
            st.builds(Scale, scalars, inner),
        ),
        max_leaves=24,
    )


# -- parsing ----------------------------------------------------------------

def test_parse_abs():
    assert parse_term("abs(x0)", 1) == Abs(Var(0))


def test_parse_join():
    assert parse_term("x0 \\/ x1", 2) == Join(Var(0), Var(1))


def test_parse_scaled_halfsum():
    expected = Scale(Fraction(2), HalfSum(Var(0), Neg(Var(1))))
    assert parse_term("2*avg(x0, neg(x1))", 2) == expected


def test_parse_meet_and_parens():
    assert parse_term("(x0 /\\ x1) \\/ 0", 2) == Join(Meet(Var(0), Var(1)), Zero())


def test_parse_rational_scale():
    assert parse_term("-3/4*x0", 1) == Scale(Fraction(-3, 4), Var(0))


def test_parse_reports_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("x0 \\/ ?", 2)
    assert err.value.position == 6


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(TermSyntaxError):
        parse_term("x2", 2)


def test_parse_rejects_bare_number():
    with pytest.raises(TermSyntaxError):
        parse_term("3", 1)


def test_parse_rejects_trailing_input():
    with pytest.raises(TermSyntaxError):
        parse_term("x0 x1", 2)


@given(terms())
def test_parse_print_identity(term):
    arity = max(term_arity(term), 1)
    assert parse_term(to_text(term), arity) == term


# -- evaluation ----------------------------------------------------------------

def test_eval_scalar_examples():
    assert eval_scalar(Abs(Var(0)), (-3.0,)) == 3.0
    assert eval_scalar(Join(Var(0), Var(1)), (1.0, 2.0)) == 2.0


def test_eval_split_case_formula():
    term = interpolating_term((-1.0,), (1.0,), 2.0, 3.0)
    assert eval_scalar(term, (-1.0,)) == pytest.approx(2.0, abs=1e-12)
    assert eval_scalar(term, (1.0,)) == pytest.approx(3.0, abs=1e-12)


def test_eval_element_examples():
    space = MeasureSpace((1.0, 1.0))
    f = LatticeElement(space, (1.0, 0.0))
    g = LatticeElement(space, (0.0, 1.0))
    assert eval_element(Var(0), [f]).array.tolist() == f.array.tolist()
    assert eval_element(Join(Var(0), Var(1)), [f, g]).array.tolist() == [1.0, 1.0]
    assert eval_element(Abs(Var(0)), [LatticeElement(space, (-2.0, 4.0))]).array.tolist() == [2.0, 4.0]


def test_eval_element_space_mismatch():
    f = LatticeElement(MeasureSpace((1.0,)), (1.0,))
    g = LatticeElement(MeasureSpace((2.0,)), (1.0,))
    with pytest.raises(SpaceMismatchError):
        eval_element(Join(Var(0), Var(1)), [f, g])


def test_eval_arity_mismatch():
    with pytest.raises(InvariantError):
        eval_scalar(Var(2), (1.0, 2.0))


def _bits(x: float) -> bytes:
    """The bytes of a double, with every NaN as one value."""
    return b"nan" if math.isnan(x) else struct.pack("d", x)


_COORDS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@given(terms(), st.lists(st.lists(_COORDS, min_size=3, max_size=3), min_size=1, max_size=24))
def test_eval_scalar_equals_eval_array_bit_for_bit(term, points):
    # many columns at once, so numpy's vector loops of maximum and minimum run
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the test
        values = eval_array(term, np.array(points).T).tolist()
    assert [_bits(eval_scalar(term, p)) for p in points] == list(map(_bits, values))


@pytest.mark.parametrize("term", [
    Join(Var(0), Var(1)),
    Meet(Var(0), Var(1)),
    Scale(Fraction(1, 3), Join(Neg(Var(0)), HalfSum(Var(1), Var(0)))),
    Scale(Fraction(-2, 7), Meet(Abs(Var(1)), Var(0))),
])
@pytest.mark.parametrize("point", [(-0.0, 0.0), (0.0, -0.0), (1 / 3, -2.0), (math.nan, 1.0), (1.0, math.nan),
                                   (math.inf, -math.inf)])
def test_eval_scalar_takes_numpys_rule_for_signed_zeros_and_nan(term, point):
    with np.errstate(all="ignore"):
        column = eval_array(term, np.array(point).reshape(2, 1))
    assert _bits(eval_scalar(term, point)) == _bits(float(column[0]))


def test_join_and_meet_of_signed_zeros_give_the_second_operand():
    # np.maximum(-0.0, 0.0) is 0.0, where Python's max(-0.0, 0.0) is -0.0
    for op in (Join, Meet):
        assert _bits(eval_scalar(op(Var(0), Var(1)), (-0.0, 0.0))) == _bits(0.0)
        assert _bits(eval_scalar(op(Var(0), Var(1)), (0.0, -0.0))) == _bits(-0.0)


@given(terms(), st.lists(st.floats(-8, 8), min_size=3, max_size=3), st.floats(0, 4))
def test_positive_homogeneity(term, point, alpha):
    lhs = eval_scalar(term, [alpha * c for c in point])
    rhs = alpha * eval_scalar(term, point)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(terms())
def test_domination_bound(term):
    space = MeasureSpace((0.5, 1.5, 1.0))
    fs = [
        LatticeElement(space, (0.5, -2.0, 1.0)),
        LatticeElement(space, (3.0, 0.25, -1.0)),
        LatticeElement(space, (-0.5, 1.0, 2.0)),
    ]
    sup = term_sup_norm(term)
    out = eval_element(term, fs)
    envelope = [max(abs(v) for v in column) for column in zip(*(f.array.tolist() for f in fs))]
    for value, bound in zip(out.array.tolist(), envelope):
        assert abs(value) <= sup * bound + 1e-9


# -- shared subterms -------------------------------------------------------------

@st.composite
def shared_terms(draw):
    """Terms grown from a pool of earlier nodes, so that subterms are shared;
    the unshared tree stays under 100 nodes."""
    scalars = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    pool = [(Var(0), 1), (Var(1), 1), (Zero(), 1)]  # (node, size as a tree)

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from([Neg, Abs, Scale, HalfSum, Join, Meet]))
        a, size = pick()
        if kind is Scale:
            node = Scale(draw(scalars), a)
        elif kind in (Neg, Abs):
            node = kind(a)
        else:
            b, b_size = pick()
            node, size = kind(a, b), size + b_size
        if size < 100:
            pool.append((node, size + 1))
    return pool[-1][0]


@given(shared_terms())
@settings(max_examples=40)
def test_every_fold_agrees_on_a_dag_and_its_unshared_tree(term):
    tree = parse_term(to_text(term), 2)
    points = np.random.default_rng(11).uniform(-2.0, 2.0, (2, 64))
    assert eval_array(term, points).tobytes() == eval_array(tree, points).tobytes()
    assert to_text(term) == to_text(tree)
    assert term_arity(term) == term_arity(tree)
    assert term_lipschitz_bound(term) == term_lipschitz_bound(tree)
    assert term_sup_norm(term) == term_sup_norm(tree)


def test_every_fold_walks_a_deep_chain_that_shares_one_piece():
    piece = HalfSum(Var(0), Neg(Var(1)))  # read by each of the 10,000 joins
    term = Var(0)
    for _ in range(10_000):
        term = Join(term, piece)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 50))
    want = np.maximum(points[0], (points[0] + -points[1]) * 0.5)
    assert eval_array(term, points).tobytes() == want.tobytes()
    assert eval_scalar(term, (0.0, 1.0)) == 0.0
    space = MeasureSpace((1.0, 1.0))
    args = [LatticeElement(space, (1.0, -1.0)), LatticeElement(space, (-1.0, -1.0))]
    assert eval_element(term, args).array.tolist() == [1.0, 0.0]
    assert to_text(term) == "(" * 10_000 + "x0" + " \\/ avg(x0, neg(x1)))" * 10_000
    assert term_arity(term) == 2
    assert term_lipschitz_bound(term) == 1.0
    assert term_sup_norm(term) == 1.0


def test_eval_array_memory_stays_bounded_on_a_shared_max_min_term():
    term, _ = approximate_on_sphere(registry_function("geomean(1/2)"), 0.01)
    # count the distinct readers of each node: the pieces are read by many meets
    parents, seen, stack = Counter(), set(), [term]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            kids = {id(k): k for k in map(node.__getattribute__, node.__slots__) if isinstance(k, LatticeTerm)}
            parents.update(kids.keys())
            stack += kids.values()
    assert sum(count > 1 for count in parents.values()) >= 100
    points = np.random.default_rng(2).standard_normal((2, 1 << 17))
    tracemalloc.start()
    try:
        eval_array(term, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# -- interpolation ------------------------------------------------------------

def test_interpolating_term_axis_pair():
    term = interpolating_term((1.0, 0.0), (0.0, 1.0), 1.0, 0.0)
    assert eval_scalar(term, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert eval_scalar(term, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_interpolating_term_zero_targets():
    term = interpolating_term((0.6, 0.8), (0.8, 0.6), 0.0, 0.0)
    assert eval_scalar(term, (0.6, 0.8)) == pytest.approx(0.0, abs=1e-12)
    assert eval_scalar(term, (0.8, 0.6)) == pytest.approx(0.0, abs=1e-12)


def test_interpolating_term_rejects_equal_points():
    with pytest.raises(InvariantError):
        interpolating_term((1.0, 0.0), (1.0, 0.0), 1.0, 2.0)


def test_interpolating_term_random_pairs():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [rng.gauss(0, 1) for _ in range(n)]
        if n == 1:
            x, y = [1.0], [-1.0]
        nx = math.sqrt(sum(c * c for c in x)) or 1.0
        ny = math.sqrt(sum(c * c for c in y)) or 1.0
        x = [c / nx for c in x]
        y = [c / ny for c in y]
        if x == y:
            continue
        a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
        term = interpolating_term(x, y, a, b)
        assert eval_scalar(term, x) == pytest.approx(a, abs=1e-12)
        assert eval_scalar(term, y) == pytest.approx(b, abs=1e-12)


# -- sup norm -------------------------------------------------------------------

def test_sup_norm_examples():
    assert term_sup_norm(Var(0)) == 1.0
    assert term_sup_norm(Join(Var(0), Var(1))) == 1.0
    assert term_sup_norm(Scale(Fraction(3), Abs(Var(0)))) == 3.0
    # (x0 - |x1|)+ is 0 at every corner and at the centre, so the lower bound
    # starts at 0 and the branch-and-bound splits boxes until it finds 1 at (1, 0)
    assert term_sup_norm(parse_term("(2*avg(x0, neg(abs(x1))) \\/ 0)", 2)) == 1.0


@given(terms(max_arity=2))
@settings(max_examples=40)
def test_sup_norm_brackets_dense_grid(term):
    sup = term_sup_norm(term)
    grid = np.linspace(-1.0, 1.0, 41)
    points = np.stack(np.meshgrid(grid, grid)).reshape(2, -1)
    dense = float(np.abs(eval_array(term, points)).max())
    lip = term_lipschitz_bound(term)
    h = math.sqrt(2) * (2.0 / 40.0)
    assert dense <= sup + 1e-9
    assert sup <= dense + lip * h + 1e-9


# -- sphere approximation ----------------------------------------------------------

def test_approximate_identity_on_line():
    fn = HomogeneousFn("id", 1, lambda pts: pts[0], lambda d: d)
    term, err = approximate_on_sphere(fn, 0.01)
    assert term == Var(0)
    assert err == 0.0


def test_octagon_support_error_bound():
    # join of 8 equiangular tangent lines under-approximates the circle norm
    pieces = []
    for j in range(8):
        ang = 2 * math.pi * j / 8
        pieces.append(
            Scale(Fraction(2), HalfSum(Scale(Fraction(math.cos(ang)), Var(0)),
                                       Scale(Fraction(math.sin(ang)), Var(1))))
        )
    term = pieces[0]
    for p in pieces[1:]:
        term = Join(term, p)
    angs = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    points = np.stack([np.cos(angs), np.sin(angs)])
    vals = eval_array(term, points)
    err = np.abs(vals - 1.0).max()
    expected = 1.0 - math.cos(math.pi / 8)
    assert err <= expected + 1e-9
    assert err >= expected - 1e-3


def test_approximate_euclid_reaches_eps():
    fn = registry_function("euclid")
    term, cert = approximate_on_sphere(fn, 0.05, 64)
    assert cert <= 0.05
    # spot check the actual term
    assert abs(eval_scalar(term, (1.0, 0.0)) - 1.0) <= cert


def test_approximate_geomean_certificate_transfers():
    fn = registry_function("geomean(1/2)")
    term, cert = approximate_on_sphere(fn, 0.05, 64)
    assert cert <= 0.05
    rng = np.random.default_rng(5)
    angs = rng.uniform(0, 2 * math.pi, 2000)
    pts = np.stack([np.cos(angs), np.sin(angs)])
    measured = np.abs(eval_array(term, pts) - fn.fn(pts)).max()
    assert measured <= cert + 1e-12


def test_certificate_survives_finer_grid():
    for spec in ("euclid", "geomean(1/2)"):
        fn = registry_function(spec)
        term, cert = approximate_on_sphere(fn, 0.3, 32)
        fine = 10 * 32
        angs = np.linspace(0, 2 * math.pi, fine, endpoint=False)
        pts = np.stack([np.cos(angs), np.sin(angs)])
        measured = float(np.abs(eval_array(term, pts) - fn.fn(pts)).max())
        assert measured <= 2 * cert + 1e-12


@pytest.mark.parametrize(
    "spec, eps, grid",
    [
        ("euclid(3)", 0.05, 16),
        ("euclid(3)", 0.01, 64),
        ("euclid(4)", 0.5, 16),
        ("geomean(1/2)", 0.01, 64),
        ("power(3,3/2)", 0.05, 64),
        ("power(3,3/2)", 0.01, 64),
        ("halfsum_pq(1,2)", 0.05, 64),
    ],
)
def test_certificate_reaches_eps_and_bounds_the_error(spec, eps, grid):
    fn = registry_function(spec)
    term, cert = approximate_on_sphere(fn, eps, grid)
    assert cert <= eps
    pts = np.random.default_rng(17).standard_normal((fn.arity, 20_000))
    pts /= np.linalg.norm(pts, axis=0)
    assert ref_sphere_error(term, fn, pts) <= cert


@pytest.mark.parametrize(
    "spec, eps, grid",
    [
        ("euclid", 0.05, 16),
        ("euclid(3)", 0.2, 16),
        ("geomean(1/2)", 0.05, 16),
        ("geomean(1/3)", 0.1, 8),
        ("power(3,3/2)", 0.1, 16),
        ("halfsum_pq(1,2)", 0.1, 16),
        ("halfsum_pq(3,2)", 0.1, 8),
    ],
)
def test_cover_meets_give_the_full_max_min_form(monkeypatch, spec, eps, grid):
    # each meet is a covering subset of the dominating pieces, and the term
    # agrees with the max-min form that takes every dominating piece
    seen = []
    assemble = krivine._max_min_ast
    monkeypatch.setattr(krivine, "_max_min_ast", lambda *args: seen.append(args) or assemble(*args))
    fn = registry_function(spec)
    term, _ = approximate_on_sphere(fn, eps, grid)
    rays, cones, coeffs = seen[0][:3]
    dominating, covers = ref_dominating(rays, cones, coeffs), ref_covers(rays, cones, coeffs)
    members, uncovered = krivine._meet_members(rays, cones, coeffs)
    assert uncovered == [[] for _ in cones]
    for i, chosen in enumerate(members):
        assert i in chosen and set(chosen) <= set(dominating[i])
        assert all(any(covers[j][c] for j in chosen) for c in range(len(cones)))
    sphere = np.random.default_rng(23).standard_normal((fn.arity, 20_000))
    sphere /= np.linalg.norm(sphere, axis=0)
    for points in (rays.T, rays[cones].sum(axis=1).T, sphere):
        want = ref_max_min(rays, cones, coeffs, points)
        assert np.abs(eval_array(term, points) - want).max() <= 1e-9 * (1.0 + np.abs(want).max())


def test_where_a_meet_leaves_a_cone_uncovered_the_term_is_certified_there(monkeypatch):
    # on this fan some meets fall back to every dominating piece, and one of
    # them lies above the interpolant at a cone centre
    calls = []
    members = krivine._meet_members
    monkeypatch.setattr(krivine, "_meet_members", lambda *args: calls.append(args) or members(*args))
    fn = registry_function("euclid(4)")
    term, cert = approximate_on_sphere(fn, 0.12, 16)
    assert len(calls) == 1  # one table for the assembly and the certificate
    rays, cones, coeffs = calls[0]
    assert any(members(rays, cones, coeffs)[1])
    centres = rays[cones].sum(axis=1)
    assert (eval_array(term, centres.T) - (centres * coeffs).sum(axis=1)).max() > 1e-4
    pts = np.random.default_rng(29).standard_normal((4, 4_000))
    pts /= np.linalg.norm(pts, axis=0)
    assert ref_sphere_error(term, fn, pts) <= cert <= 0.12


def test_the_geomean_term_stays_compact():
    term, cert = approximate_on_sphere(registry_function("geomean(1/2)"), 0.01, 64)
    assert cert <= 0.01
    assert len(to_text(term)) <= 100_000


def test_certificate_is_for_the_returned_term(monkeypatch):
    # an assembly that disagrees with the interpolant: the term is certified itself
    monkeypatch.setattr(krivine, "_max_min_ast", lambda *_: Scale(Fraction(1, 2), Abs(Var(0))))
    fn = registry_function("euclid")
    term, cert = approximate_on_sphere(fn, 0.05, 16)
    angs = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    assert cert >= ref_sphere_error(term, fn, np.stack([np.cos(angs), np.sin(angs)])) >= 1.0


def test_approximate_rejects_inhomogeneous():
    bad = HomogeneousFn("affine", 1, lambda pts: pts[0] + 1.0, lambda d: d)
    with pytest.raises(InvariantError):
        approximate_on_sphere(bad, 0.1)


@pytest.mark.parametrize(
    "spec",
    ["euclid", *(f"euclid({n})" for n in range(1, 7)), "geomean(1/2)", "geomean(1/3)",
     "geomean(1/100)", "geomean(99/100)", "power(2,2)", "power(3,3/2)", "power(3/2,3)",
     "halfsum_pq(1,1)", "halfsum_pq(1,2)", "halfsum_pq(3,2)", "halfsum_pq(2,2)", "halfsum_pq(7,1)"],
)
def test_every_registry_form_passes_the_homogeneity_check(spec):
    registry_function(spec).spot_check_homogeneous()


@pytest.mark.parametrize(
    "fn",
    [
        HomogeneousFn("affine", 2, lambda pts: pts[0] - 2.0 * pts[1] + 0.25, lambda d: 3.0 * d),
        HomogeneousFn("degree two", 2, lambda pts: pts[0] * pts[1], lambda d: 2.0 * d),
        HomogeneousFn("offset", 3, lambda pts: np.sqrt((pts**2).sum(axis=0)) + 1e-3, lambda d: d),
    ],
    ids=lambda fn: fn.name,
)
def test_the_homogeneity_check_rejects_inhomogeneous_functions(fn):
    with pytest.raises(InvariantError, match=f"^{fn.name} is not positively homogeneous of degree one$"):
        fn.spot_check_homogeneous()


def test_registry_rejects_bad_specs():
    with pytest.raises(InvariantError):
        registry_function("geomean(2)")
    with pytest.raises(InvariantError):
        registry_function("power(2,3)")
    with pytest.raises(InvariantError):
        registry_function("nope")


def test_registry_halfsum_pq_is_homogeneous():
    fn = registry_function("halfsum_pq(1,2)")
    fn.spot_check_homogeneous()
    # at p = q the transported half-sum is the plain half-sum
    same = registry_function("halfsum_pq(2,2)")
    pts = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert np.allclose(same.fn(pts), 0.5 * (pts[0] + pts[1]))


# -- integer arguments go through the integer rule ---------------------------------------

@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_term("x0", 1.5), "arity: must be an integer, got 1.5"),
        (lambda: parse_term("x0", -1), "arity: must be >= 0, got -1"),
        (lambda: approximate_on_sphere(registry_function("euclid"), 0.1, 2.5), "grid: must be an integer, got 2.5"),
        (lambda: approximate_on_sphere(registry_function("euclid"), 0.1, 0), "grid: must be >= 1, got 0"),
        (lambda: registry_function("euclid(2.5)"), "'euclid(2.5)': n: must be an integer, got 2.5"),
        (lambda: eval_element(Var(0), []), "args: need at least one element"),
    ],
)
def test_integer_arguments_are_refused_not_truncated(call, message):
    with pytest.raises(InvariantError) as err:
        call()
    assert str(err.value) == message
