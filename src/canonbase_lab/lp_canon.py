"""Partial conditional expectations over a fibered extension, together with
slices, increasing realisations, L_p <-> L_q transport, and the canonical
base tuples built from them.

Everything here works per base atom through one kernel, ``SliceFamily``: the
sorted fiber values and their prefix sums. The slice at t is an order
statistic, and E_t, the integral of the sorted fiber profile from 0 to t, is a
prefix sum plus a fraction of the next cell. E_t is also the conjugate at
slope t*f0 of the piecewise-linear shortfall function ``psi``; the tests use
that exact route as a cross-check of the prefix kernel, so ``legendre`` loads
only when it runs. Likewise ``oracle`` loads only for ``canonical_base_ntype``
and the remark, and ``fractions`` only for ``p1_counterexample``.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvariantError
from .measure_core import (
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    check_p,
    integral,
    lp_norm,
    meet,
    neg_part,
    pos_part,
    same_space,
    signed_power,
)
from .records import Record
from .rules import close, integer

if TYPE_CHECKING:
    from fractions import Fraction

    from .legendre import PLConvexFn
    from .oracle import DirectionalMass

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

    def value_at(self, x: float) -> LatticeElement:
        return LatticeElement(
            self.pair.base_space(), tuple(fn.evaluate(x) for fn in self.fibers)
        )


# no CLI call runs this; it stays because perfbench's tracer patches it here
def psi(f: LatticeElement, pair: ExtensionPair) -> PsiFamily:
    """The shortfall family x -> E[(x*f0 - f)^+ | base], exact and PL per atom."""
    f0 = f_zero(f, pair)
    n = pair.n
    fibers = tuple(
        _fiber_psi(row, f0w, n) for row, f0w in zip(pair.rows(f), f0.array.tolist())
    )
    return PsiFamily(pair, fibers, f0)


def partial_cond_exp(f: LatticeElement, pair: ExtensionPair, t: float) -> LatticeElement:
    """E_t: per atom, the integral of the sorted fiber profile from 0 to t,
    read off the prefix sums, so E_0 = 0 and E_1 is the full conditional
    expectation. Checked against the conjugate of the shortfall function at
    slope t*f0 (``_partial_from_family`` in ``tests/reference.py``)."""
    return slices(f, pair).partial_at(t)


def interval_cond_exp(f: LatticeElement, pair: ExtensionPair, t: float, s: float) -> LatticeElement:
    """E_[t,s] = E_s - E_t; additive over adjacent intervals."""
    t, s = float(t), float(s)
    if not (0.0 <= t < s <= 1.0):
        raise InvariantError(f"need 0 <= t < s <= 1, got t={t}, s={s}")
    fam = slices(f, pair)
    return fam.partial_at(s) - fam.partial_at(t)


# ---------------------------------------------------------------------------
# Slices and the increasing realisation
# ---------------------------------------------------------------------------

class SliceFamily(Record, eq=False):
    """Per base atom, the nondecreasing rearrangement of the fiber values,
    shape (m, n), and its prefix sums, shape (m, n + 1) with a leading zero
    column; both read-only float64 arrays. The slice at t is the
    ceil(t*n)-th order statistic and E_t the integral of the row up to t."""

    __slots__ = ("pair", "sorted_rows", "prefix")

    def slice_at(self, t: float) -> LatticeElement:
        t = float(t)
        n = self.pair.n
        if not 0.0 < t <= 1.0:
            raise InvariantError(f"slices are defined for t in (0, 1], got {t}")
        k = min(n, max(1, math.ceil(t * n)))
        return LatticeElement(self.pair.base_space(), self.sorted_rows[:, k - 1])

    def partials_at(self, ts: Sequence[float]) -> np.ndarray:
        """E_t for each t of ``ts`` as a read-only (len(ts), m) array: per
        atom, the sum of the k = floor(t*n) smallest cells plus the fraction
        t*n - k of the next one (none at k = n), divided by n."""
        ts = np.array(ts, dtype=np.float64).reshape(-1)
        ok = (0.0 <= ts) & (ts <= 1.0)
        if not ok.all():
            raise InvariantError(f"t must lie in [0, 1], got {ts[~ok][0]}")
        n = self.pair.n
        k = np.minimum(np.floor(ts * n), n).astype(np.intp)
        rows = self.prefix[:, k].T
        inner = np.flatnonzero(k < n)
        rows[inner] += (ts[inner] * n - k[inner])[:, None] * self.sorted_rows[:, k[inner]].T
        rows /= n
        rows.flags.writeable = False
        return rows

    def partial_at(self, t: float) -> LatticeElement:
        """E_t as a base-space element."""
        return LatticeElement(self.pair.base_space(), self.partials_at([t])[0])


def slices(f: LatticeElement, pair: ExtensionPair) -> SliceFamily:
    """Sort the fibers of f over the base once and take their prefix sums."""
    rows = np.sort(pair.fibers(f), axis=1)
    prefix = np.pad(np.cumsum(rows, axis=1), ((0, 0), (1, 0)))
    rows.flags.writeable = prefix.flags.writeable = False
    return SliceFamily(pair, rows, prefix)


def increasing_realisation(f: LatticeElement, pair: ExtensionPair, p: float) -> LatticeElement:
    """The canonical type-preserving rearrangement: each base fiber sorted
    ascending, and the orthogonal part replaced by the signed constants
    +|f+ restricted to the orthogonal part| and -|f- restricted|."""
    p = check_p(p)
    plus_c, minus_c = _orthogonal_norms(f, pair, p)
    return pair.element(slices(f, pair).sorted_rows, plus=[plus_c] * pair.n, minus=[-minus_c] * pair.n)


# ---------------------------------------------------------------------------
# Transport between L_p structures
# ---------------------------------------------------------------------------

def lq_transport(f: LatticeElement, p: float, q: float) -> LatticeElement:
    """The carrier bijection between the p- and q-structures: atomwise signed
    power v -> v^(p/q); transports the norm via ||f||_p^(p/q)."""
    p, q = check_p(p), check_p(q)
    if p == q:
        return f
    return signed_power(f, p / q)


# ---------------------------------------------------------------------------
# Canonical base tuples
# ---------------------------------------------------------------------------

class LpCanonicalBase(Record, eq=False):
    """The tuple (||f+||, ||f-||, partials over a grid) or its interval form,
    whose entries are E_b - E_a for grid points a < b. Row j of the read-only
    (len(grid), m) array ``rows`` is E_t at t = grid[j] over the base
    ``space``; ``orthogonal_norms`` are those of f's orthogonal part.

    On the full grid {k/n : k = 1..n} (right endpoint included, standing in
    for the endpoint limit over a dense grid) the partials determine the
    sorted fiber values exactly via first differences.
    """

    __slots__ = ("p", "pos_norm", "neg_norm", "grid", "space", "rows", "interval_form", "orthogonal_norms")

    @property
    def partials(self) -> dict[float, LatticeElement]:
        """E_t per grid point, as base-space elements."""
        return {t: LatticeElement(self.space, row) for t, row in zip(self.grid, self.rows)}

    def entries(self) -> Sequence[np.ndarray]:
        """The entries of the base, one row each: ``rows``, or in the interval
        form E_b - E_a for each pair of grid points a < b, in
        ``itertools.combinations`` order."""
        if not self.interval_form:
            return self.rows
        return [b - a for a, b in combinations(self.rows, 2)]

    def _values(self) -> np.ndarray:
        """The norms followed by the entries of the base."""
        return np.concatenate([[self.pos_norm, self.neg_norm], *self.entries()])

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
        if len(self.grid) != n + 1 - first or not close(
            self.grid, np.arange(first, n + 1) / n
        ):
            raise InvariantError(f"reconstruction needs the grid {{k/n : k = {first}..n}}")
        steps = np.diff(self.rows, axis=0, prepend=np.zeros((first, self.rows.shape[1])))
        return (n * steps).T.tolist()


def _orthogonal_norms(f: LatticeElement, pair: ExtensionPair, p: float) -> tuple[float, float]:
    """The p-norms of the plus and minus parts of f's orthogonal part, (0, 0)
    when the pair has none."""
    orth = pair.orthogonal_part(f)
    return (0.0, 0.0) if orth is None else (lp_norm(pos_part(orth), p), lp_norm(neg_part(orth), p))


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
    rows = slices(f, pair).partials_at(pts)
    pos_norm, neg_norm = lp_norm(pos_part(f), p), lp_norm(neg_part(f), p)
    return LpCanonicalBase(
        p, pos_norm, neg_norm, pts, pair.base_space(), rows, bool(intervals), _orthogonal_norms(f, pair, p)
    )


class NTypeBase(Record):
    """Canonical bases of all integer combinations k . f over a box, plus the
    directional-mass summary standing in for the absolute joint type.
    ``bases`` maps each coefficient tuple k to its ``LpCanonicalBase``."""

    __slots__ = ("bases", "absolute_summary")


def canonical_base_ntype(
    fs: Sequence[LatticeElement],
    pair: ExtensionPair,
    p: float,
    grid: Sequence[float],
    k_max: int,
) -> NTypeBase:
    from .oracle import DirectionalMass

    p = check_p(p)
    same_space(fs, "elements")
    pair.require(fs[0])
    # the integer box must contain a spanning set
    k_max = integer(k_max, "k_max", 1)
    bases = {}
    for combo in product(range(-k_max, k_max + 1), repeat=len(fs)):
        elem = LatticeElement.zero(pair.total_space())
        for k, g in zip(combo, fs):
            if k:
                elem = elem + float(k) * g
        bases[combo] = canonical_base_1type(elem, pair, p, grid)
    summary = DirectionalMass.from_elements(fs, p)
    return NTypeBase(bases, summary)


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
