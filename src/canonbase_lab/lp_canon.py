"""Partial conditional expectations over a fibered extension, together with
slices and the canonical base tuples built from them.

Everything here works per base atom through one kernel, ``SliceFamily``: the
sorted fiber values and their prefix sums. The slice at t is an order
statistic, and E_t, the integral of the sorted fiber profile from 0 to t, is a
prefix sum plus a fraction of the next cell. The kernel runs on the standard
library: each fiber is sorted once with ``sorted``, its prefix sums come from
``itertools.accumulate``, left to right as ``np.cumsum`` adds, and the
partials at t are read off them column by column, as (prefix + fraction *
next cell) / n, into float64 ``array('d')`` rows. The norms of f+ and f- come
from the same sorted fibers, whose negative cells come first and positive
cells last, each sum correctly rounded by ``math.fsum``. So ``lp-cb`` and the
demos never load numpy, whose import is about 70 ms of a call on a small
pair; on 1024 x 2048 cells the Python sort makes a call 1.2 to 1.3 times as
long as numpy's kernels would (Python 3.11 on a shared 2-core Xeon host).
E_t is also the conjugate at slope t*f0 of the piecewise-linear shortfall
function ``psi``; the tests use that exact route as a cross-check of the
prefix kernel, so ``legendre`` loads only when it runs. Likewise ``oracle``
loads only for the remark, and ``fractions`` only for ``p1_counterexample``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, combinations, repeat
from operator import sub
from typing import TYPE_CHECKING, Sequence

from .errors import InvariantError
from .measure_core import (
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    _stored,
    check_p,
    integral,
    lp_norm,
    meet,
    nonnegative_sum,
    pos_part,
)
from .records import Record
from .rules import close, integer

if TYPE_CHECKING:
    from fractions import Fraction

    from .legendre import PLConvexFn

_INF = math.inf


# ---------------------------------------------------------------------------
# The shortfall transform and its conjugate
# ---------------------------------------------------------------------------

def f_zero(f: LatticeElement, pair: ExtensionPair) -> LatticeElement:
    """Conditional expectation of |f| onto the base, as a base-space element."""
    return pair.cond_exp_base(abs(f))


# no CLI call runs this; it stays because perfbench's tracer patches it here
def conjugate(fn: PLConvexFn) -> PLConvexFn:
    """``legendre.conjugate``, imported at the call, so loading ``lp_canon``
    does not load ``legendre``."""
    from .legendre import conjugate
    return conjugate(fn)


# stays for psi, which perfbench's tracer patches
def _fiber_psi(values: Sequence[float], f0: float, n: int) -> PLConvexFn:
    """The convex function x -> mean_j (x*f0 - v_j)^+ for one fiber."""
    from .legendre import PLConvexFn

    if f0 == 0.0:
        return PLConvexFn(-_INF, _INF, (), (0.0,), 0.0, 0.0)
    breaks: list[float] = []
    slopes: list[float] = [0.0]
    cum = 0
    for v in sorted(values):
        b = v / f0
        cum += 1
        if breaks and b <= breaks[-1]:
            slopes[-1] = cum * f0 / n
        else:
            breaks.append(b)
            slopes.append(cum * f0 / n)
    return PLConvexFn(-_INF, _INF, tuple(breaks), tuple(slopes), breaks[0], 0.0)


# stays for psi, which perfbench's tracer patches
class PsiFamily(Record):
    """Per base atom, the piecewise-linear shortfall function, plus the
    envelope element f0 = E[|f| | base]. ``fibers`` is a tuple of
    ``PLConvexFn``, one per base atom."""

    __slots__ = ("pair", "fibers", "f0")


# no CLI call runs this; it stays because perfbench's tracer patches it here
def psi(f: LatticeElement, pair: ExtensionPair) -> PsiFamily:
    """The shortfall family x -> E[(x*f0 - f)^+ | base], exact and PL per atom."""
    f0 = f_zero(f, pair)
    n = pair.n
    fibers = tuple(_fiber_psi(row, f0w, n) for row, f0w in zip(pair.fibers(f), f0.values))
    return PsiFamily(pair, fibers, f0)


def partial_cond_exp(f: LatticeElement, pair: ExtensionPair, t: float) -> LatticeElement:
    """E_t: per atom, the integral of the sorted fiber profile from 0 to t,
    read off the prefix sums, so E_0 = 0 and E_1 is the full conditional
    expectation. Checked against the conjugate of the shortfall function at
    slope t*f0 (``_partial_from_family`` in ``tests/reference.py``)."""
    return slices(f, pair).partial_at(t)


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------

class SliceFamily(Record, eq=False):
    """Per base atom, the nondecreasing rearrangement of the fiber values and
    its prefix sums with a leading 0.0: ``sorted_rows`` and ``prefix`` are
    read-only float64 buffers of m*n and m*(n + 1) values, atom after atom.
    The slice at t is the ceil(t*n)-th order statistic and E_t the integral
    of the row up to t."""

    __slots__ = ("pair", "sorted_rows", "prefix")

    def slice_at(self, t: float) -> LatticeElement:
        t = float(t)
        n = self.pair.n
        if not 0.0 < t <= 1.0:
            raise InvariantError(f"slices are defined for t in (0, 1], got {t}")
        k = min(n, max(1, math.ceil(t * n)))
        return LatticeElement(self.pair.base_space(), self.sorted_rows[k - 1 :: n])

    def partials_at(self, ts: Sequence[float]) -> list[memoryview]:
        """E_t for each t of ``ts``, as a read-only float64 buffer of m values
        each: per atom, the sum of the k = floor(t*n) smallest cells plus the
        fraction t*n - k of the next one (none at k = n), divided by n."""
        ts = [float(t) for t in ts]
        for t in ts:
            if not 0.0 <= t <= 1.0:
                raise InvariantError(f"t must lie in [0, 1], got {t}")
        n = self.pair.n
        rows = []
        for t in ts:
            k = min(math.floor(t * n), n)
            sums = self.prefix[k :: n + 1].tolist()  # column k, one value per atom
            if k < n:
                frac = t * n - k
                row = [(s + frac * x) / n for s, x in zip(sums, self.sorted_rows[k::n].tolist())]
            else:
                row = [s / n for s in sums]
            rows.append(_stored(array("d", row)))
        return rows

    def partial_at(self, t: float) -> LatticeElement:
        """E_t as a base-space element."""
        return LatticeElement(self.pair.base_space(), self.partials_at([t])[0])


def slices(f: LatticeElement, pair: ExtensionPair) -> SliceFamily:
    """Sort the fibers of f over the base once and take their prefix sums."""
    rows, prefix = array("d"), array("d")
    for fiber in pair.fibers(f):
        row = sorted(fiber)
        rows.fromlist(row)
        prefix.fromlist([0.0, *accumulate(row)])
    return SliceFamily(pair, _stored(rows), _stored(prefix))


# ---------------------------------------------------------------------------
# Canonical base tuples
# ---------------------------------------------------------------------------

class LpCanonicalBase(Record, eq=False):
    """The tuple (||f+||, ||f-||, partials over a grid) or its interval form,
    whose entries are E_b - E_a for grid points a < b. ``rows`` holds, for
    each t of ``grid``, E_t over the base ``space`` as a read-only float64
    buffer of one value per atom; ``orthogonal_norms`` are those of f's
    orthogonal part.

    On the full grid {k/n : k = 1..n} (right endpoint included, standing in
    for the endpoint limit over a dense grid) the partials determine the
    sorted fiber values exactly via first differences.
    """

    __slots__ = ("p", "pos_norm", "neg_norm", "grid", "space", "rows", "interval_form", "orthogonal_norms")

    def entries(self) -> list[memoryview]:
        """The entries of the base, one read-only float64 buffer each:
        ``rows``, or in the interval form E_b - E_a for each pair of grid
        points a < b, in ``itertools.combinations`` order."""
        if not self.interval_form:
            return self.rows
        return [_stored(array("d", map(sub, b, a))) for a, b in combinations(self.rows, 2)]

    def _values(self) -> list[float]:
        """The norms followed by the entries of the base."""
        return [self.pos_norm, self.neg_norm, *chain.from_iterable(self.entries())]

    def approx_equal(self, other: "LpCanonicalBase") -> bool:
        """Same p, form, grid and base space; the norms and entries close as
        one vector, and the orthogonal norms close on their own scale."""
        same = (self.p, self.interval_form, self.grid, self.space)
        if same != (other.p, other.interval_form, other.grid, other.space):
            return False
        return close(self._values(), other._values()) and close(self.orthogonal_norms, other.orthogonal_norms)

    def reconstruct_sorted_rows(self, fiber_cells: int) -> list[list[float]]:
        """Invert the prefix sums: the k-th sorted fiber value per atom is
        n*(E_{k/n} - E_{(k-1)/n}), or n*E_[(k-1)/n, k/n] in the interval form.
        Requires the full grid, {k/n : k = 1..n} or {k/n : k = 0..n}."""
        n = integer(fiber_cells, "fiber_cells", 1)
        first = 0 if self.interval_form else 1
        if len(self.grid) != n + 1 - first or not close(self.grid, [k / n for k in range(first, n + 1)]):
            raise InvariantError(f"reconstruction needs the grid {{k/n : k = {first}..n}}")
        rows = [[0.0] * len(self.space)] * first + self.rows
        steps = (map(sub, b, a) for a, b in zip(rows, rows[1:]))
        return [[n * x for x in column] for column in zip(*steps)]


def _part_norms(rows: Sequence[Sequence[float]], weights: Sequence[float], p: float) -> tuple[float, float]:
    """The L_p norms of the positive and of the negative part of the cells of
    the nondecreasing ``rows``, each cell weighing its row's weight: per
    sign, the sum over the rows of the weight times the sum of |v|^p over the
    row's cells of that sign, which the sort puts at the row's ends. Each sum
    is correctly rounded, so the norms agree with ``lp_norm`` of each part to
    within a few units in the last place, and read inf where a sum overflows."""
    plus = nonnegative_sum(
        w * math.fsum(map(pow, row[bisect_right(row, 0.0) :], repeat(p))) for w, row in zip(weights, rows)
    )
    minus = nonnegative_sum(
        w * math.fsum(map(pow, map(abs, row[: bisect_left(row, 0.0)]), repeat(p))) for w, row in zip(weights, rows)
    )
    return plus ** (1.0 / p), minus ** (1.0 / p)


def _orthogonal_rows(f: LatticeElement, pair: ExtensionPair) -> list[list[float]]:
    """The cells of f's orthogonal part, sorted, as one row of cells of
    weight 1/n; no row when the pair has none."""
    orth = pair.orthogonal_part(f)
    return [] if orth is None else [sorted(orth.values)]


def canonical_base_1type(
    f: LatticeElement,
    pair: ExtensionPair,
    p: float,
    grid: Sequence[float],
    intervals: bool = False,
) -> LpCanonicalBase:
    """Assemble the canonical base tuple of f over the given grid.

    Grid points lie in [0, 1] (``SliceFamily.partials_at`` refuses any
    other); the endpoints stand in for the limits over a dense grid (E_0 = 0
    and E_1 = the full conditional expectation, both exact here).
    """
    p = check_p(p)
    pair.require(f)
    pts = tuple(float(t) for t in grid)
    if not pts:
        raise InvariantError("the grid must be nonempty")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise InvariantError("grid points must be strictly increasing")
    fam, n = slices(f, pair), pair.n
    rows = fam.partials_at(pts)
    # the norms of f+ and f- over the total space, from its sorted fibers and orthogonal cells
    orth = _orthogonal_rows(f, pair)
    fibers = [fam.sorted_rows[i * n : (i + 1) * n] for i in range(pair.m)]
    weights = [w / n for w in pair.base_space().weights] + [1.0 / n] * len(orth)
    pos_norm, neg_norm = _part_norms(fibers + orth, weights, p)
    return LpCanonicalBase(
        p, pos_norm, neg_norm, pts, pair.base_space(), rows, bool(intervals), _part_norms(orth, [1.0 / n], p)
    )


# ---------------------------------------------------------------------------
# Worked counterexample families
# ---------------------------------------------------------------------------

class P1Report(Record):
    """Norms of the concentrated family f_eps and of its partial E_eps."""

    __slots__ = ("eps", "p", "f_norm", "partial", "partial_norm")


def p1_counterexample(eps: Fraction | float, p: float) -> P1Report:
    """The unit-norm family on one base atom of mass one, concentrated on the
    first cell of a fiber of 1/eps cells, with value -eps^(-1/p); its partial
    at t = eps has norm eps^(1 - 1/p), which stays at 1 when p = 1."""
    from fractions import Fraction

    p = check_p(p)
    eps = Fraction(eps).limit_denominator(10**9) if not isinstance(eps, Fraction) else eps
    if not (0 < eps < 1) or eps.numerator != 1:
        raise InvariantError(f"eps must be of the form 1/m, got {eps}")
    n = eps.denominator
    pair = ExtensionPair((1.0,), n)
    f = pair.element([[-(float(eps) ** (-1.0 / p))] + [0.0] * (n - 1)])
    partial = partial_cond_exp(f, pair, float(eps))
    return P1Report(
        eps=eps,
        p=p,
        f_norm=lp_norm(f, p),
        partial=partial,
        partial_norm=lp_norm(partial, p),
    )


class RemarkReport(Record):
    """Outcome of the joint-type counterexample on three unit atoms."""

    __slots__ = ("k_bound", "single_types_all_equal", "joint_types_equal", "witness_with_h",
                 "witness_with_minus_h")


def remark_counterexample() -> RemarkReport:
    """On atoms of weight one, g = (1,-1,0) and h = (1,1,-2): every integer
    combination k*g + l*h with |k|, |l| <= 5 has the same absolute type as
    k*g - l*h, yet the joint types of (g, h) and (g, -h) differ; the term
    (x ^ y)+ integrates to 1 against (g, h) and to 0 against (g, -h); the
    witness is evaluated with the element operations ``meet`` and ``pos_part``."""
    from .oracle import absolute_type_equal

    k_bound = 5
    space = MeasureSpace((1.0, 1.0, 1.0))
    g = LatticeElement(space, (1.0, -1.0, 0.0))
    h = LatticeElement(space, (1.0, 1.0, -2.0))
    all_equal = True
    for k in range(-k_bound, k_bound + 1):
        for l in range(-k_bound, k_bound + 1):
            plus = float(k) * g + float(l) * h
            minus = float(k) * g - float(l) * h
            if not absolute_type_equal([plus], [minus], 1.0):
                all_equal = False
    joint_equal = absolute_type_equal([g, h], [g, -h], 1.0)
    return RemarkReport(
        k_bound=k_bound,
        single_types_all_equal=all_equal,
        joint_types_equal=joint_equal,
        witness_with_h=integral(pos_part(meet(g, h))),
        witness_with_minus_h=integral(pos_part(meet(g, -h))),
    )
