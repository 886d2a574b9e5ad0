"""Partial conditional expectations over a fibered extension, together with
slices, increasing realisations, grid approximations, L_p <-> L_q transport,
and the canonical base tuples built from them.

Everything here works per base atom through one kernel, ``SliceFamily``: the
sorted fiber values and their prefix sums. The slice at t is an order
statistic, and E_t, the integral of the sorted fiber profile from 0 to t, is a
prefix sum plus a fraction of the next cell, and the grid approximations read
the shortfall function off the same prefix sums. E_t is also the conjugate at
slope t*f0 of the piecewise-linear shortfall function ``psi``; that exact
route is only a cross-check of the prefix kernel now.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import InvariantError, SpaceMismatchError
from .legendre import PLConvexFn, conjugate
from .measure_core import (
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    check_p,
    close,
    dotminus,
    integral,
    lp_norm,
    neg_part,
    pos_part,
    signed_power,
)
from .oracle import DirectionalMass

_INF = math.inf


def _require_on_pair(f: LatticeElement, pair: ExtensionPair) -> None:
    if f.space != pair.total_space():
        raise SpaceMismatchError("element does not live on the total space of this pair")


# ---------------------------------------------------------------------------
# The shortfall transform and its conjugate
# ---------------------------------------------------------------------------

def f_zero(f: LatticeElement, pair: ExtensionPair, p: float) -> LatticeElement:
    """Conditional expectation of |f| onto the base, as a base-space element."""
    check_p(p)
    _require_on_pair(f, pair)
    return pair.cond_exp_base(abs(f))


def _fiber_psi(values: Sequence[float], f0: float, n: int) -> PLConvexFn:
    """The convex function x -> mean_j (x*f0 - v_j)^+ for one fiber."""
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


@dataclass(frozen=True)
class PsiFamily:
    """Per base atom, the piecewise-linear shortfall function, plus the
    envelope element f0 = E[|f| | base]."""

    pair: ExtensionPair
    fibers: tuple[PLConvexFn, ...]
    f0: LatticeElement

    def value_at(self, x: float) -> LatticeElement:
        return LatticeElement(
            self.pair.base_space(), tuple(fn.evaluate(x) for fn in self.fibers)
        )


def psi(f: LatticeElement, pair: ExtensionPair, p: float) -> PsiFamily:
    """The shortfall family x -> E[(x*f0 - f)^+ | base], exact and PL per atom."""
    check_p(p)
    _require_on_pair(f, pair)
    f0 = f_zero(f, pair, p)
    n = pair.n
    fibers = tuple(
        _fiber_psi(row, f0w, n) for row, f0w in zip(pair.rows(f), f0.array.tolist())
    )
    return PsiFamily(pair, fibers, f0)


def partial_cond_exp(f: LatticeElement, pair: ExtensionPair, p: float, t: float) -> LatticeElement:
    """E_t: per atom, the integral of the sorted fiber profile from 0 to t,
    read off the prefix sums, so E_0 = 0 and E_1 is the full conditional
    expectation. Checked against the conjugate of the shortfall function at
    slope t*f0 (``_partial_from_family``)."""
    return slices(f, pair, p).partial_at(t)


def _partial_from_family(fam: PsiFamily, t: float) -> LatticeElement:
    """E_t by exact conjugation of each atom's shortfall function."""
    out = []
    for fn, f0w in zip(fam.fibers, fam.f0.array.tolist()):
        if f0w == 0.0:
            out.append(0.0)
        else:
            out.append(conjugate(fn).evaluate(t * f0w))
    return LatticeElement(fam.pair.base_space(), tuple(out))


def interval_cond_exp(
    f: LatticeElement, pair: ExtensionPair, p: float, t: float, s: float
) -> LatticeElement:
    """E_[t,s] = E_s - E_t; additive over adjacent intervals."""
    t, s = float(t), float(s)
    if not (0.0 <= t < s <= 1.0):
        raise InvariantError(f"need 0 <= t < s <= 1, got t={t}, s={s}")
    fam = slices(f, pair, p)
    return fam.partial_at(s) - fam.partial_at(t)


# ---------------------------------------------------------------------------
# Slices and the increasing realisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SliceFamily:
    """Per base atom, the nondecreasing rearrangement of the fiber values,
    shape (m, n), and its prefix sums, shape (m, n + 1) with a leading zero
    column; both read-only float64 arrays. The slice at t is the
    ceil(t*n)-th order statistic and E_t the integral of the row up to t."""

    pair: ExtensionPair
    sorted_rows: np.ndarray
    prefix: np.ndarray

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


def slices(f: LatticeElement, pair: ExtensionPair, p: float) -> SliceFamily:
    """Sort the fibers of f over the base once and take their prefix sums."""
    check_p(p)
    _require_on_pair(f, pair)
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
    return pair.element(slices(f, pair, p).sorted_rows, plus=[plus_c] * pair.n, minus=[-minus_c] * pair.n)


def slice_norm_bound_check(
    f: LatticeElement, pair: ExtensionPair, p: float, t: float
) -> tuple[float, float]:
    """Returns (||f_t||_p over the base, ||f||_p / (t - t^2)^(1/p))."""
    p = check_p(p)
    t = float(t)
    if not 0.0 < t < 1.0:
        raise InvariantError(f"the slice bound needs t in (0, 1), got {t}")
    lhs = lp_norm(slices(f, pair, p).slice_at(t), p)
    rhs = lp_norm(f, p) / (t - t * t) ** (1.0 / p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Grid approximation of E_t from finitely many shortfall values
# ---------------------------------------------------------------------------

def grid_approx(
    f: LatticeElement,
    pair: ExtensionPair,
    p: float,
    t: float,
    bound: float,
    grid_n: int,
) -> tuple[LatticeElement, LatticeElement]:
    """The finite join g over the slope grid {bound*k/grid_n : |k| <= grid_n}
    and the exact windowed sup h over [-bound, bound], per atom.

    Atomwise, 0 <= h - g <= 2*bound*f0/grid_n, and h equals E_t wherever the
    slice at t has absolute value at most ``bound``.
    """
    t = float(t)
    bound = float(bound)
    grid_n = int(grid_n)
    if not 0.0 < t < 1.0:
        raise InvariantError(f"grid approximation needs t in (0, 1), got {t}")
    if not (bound > 0 and grid_n >= 1):
        raise InvariantError("need bound > 0 and grid_n >= 1")
    fam = slices(f, pair, p)
    grid = bound * np.arange(-grid_n, grid_n + 1) / grid_n
    g_vals, h_vals = [], []
    for row, prefix, f0w in zip(fam.sorted_rows, fam.prefix, f_zero(f, pair, p).array):
        # psi kinks at v_j / f0 (f0 = 0 only when the row is 0, and then psi is 0)
        kinks = row / f0w if f0w else row[:0]
        x = np.concatenate((grid, [-bound, bound], kinks[(-bound < kinks) & (kinks < bound)]))
        y = x * f0w
        # psi(x) = mean_j (x*f0 - v_j)^+ = (c*x*f0 - prefix[c]) / n with c = #{v_j < x*f0}
        c = np.searchsorted(row, y)
        gain = t * y - (c * y - prefix[c]) / pair.n
        g_vals.append(float(gain[: len(grid)].max()))
        h_vals.append(float(gain[len(grid) :].max()))
    base = pair.base_space()
    return LatticeElement(base, g_vals), LatticeElement(base, h_vals)


# ---------------------------------------------------------------------------
# Transport between L_p structures and the duality pairing
# ---------------------------------------------------------------------------

def lq_transport(f: LatticeElement, p: float, q: float) -> LatticeElement:
    """The carrier bijection between the p- and q-structures: atomwise signed
    power v -> v^(p/q); transports the norm via ||f||_p^(p/q)."""
    p, q = check_p(p), check_p(q)
    if p == q:
        return f
    return signed_power(f, p / q)


def duality_pairing(f: LatticeElement, g: LatticeElement, p: float, q: float) -> float:
    """Pairing of the transported elements f^(p/q) and g^(p/q'), computed
    through the kernel (f^(1/q) g^(1/q'))^p inside the integral."""
    p = check_p(p)
    q = float(q)
    if not q > 1.0:
        raise InvariantError("the duality pairing needs q > 1 (conjugate exponent defined)")
    if f.space != g.space:
        raise SpaceMismatchError("pairing needs elements on one space")
    qc = q / (q - 1.0)
    kernel = signed_power(f, 1.0 / q) * signed_power(g, 1.0 / qc)
    return integral(signed_power(kernel, p))


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
    _require_on_pair(f, pair)
    if h.space != pair.base_space():
        raise SpaceMismatchError("h must live on the base space")
    lhs = integral(f * signed_power(pair.embed(h), p - 1.0))
    rhs = integral(pair.cond_exp_base(f) * signed_power(h, p - 1.0))
    return lhs, rhs


def transported_interval_convergence(
    f: LatticeElement,
    pair: ExtensionPair,
    t: float,
    s: float,
    q_list: Sequence[float],
) -> list[float]:
    """For each q, the sup-deviation between E_[t,s] computed in the ambient
    L_1 structure and the same quantity computed in the q-structure and
    transported back (atomwise q-th signed power of E_[t,s] of f^(1/q))."""
    t, s = float(t), float(s)
    if not (0.0 < t < s < 1.0):
        raise InvariantError(f"need 0 < t < s < 1, got t={t}, s={s}")
    reference = interval_cond_exp(f, pair, 1.0, t, s)
    deviations = []
    for q in q_list:
        q = float(q)
        if not q > 1.0:
            raise InvariantError(f"transport exponents must exceed 1, got {q}")
        transported = interval_cond_exp(lq_transport(f, 1.0, q), pair, q, t, s)
        deviations.append(lp_norm(signed_power(transported, q) - reference, math.inf))
    return deviations


# ---------------------------------------------------------------------------
# Canonical base tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LpCanonicalBase:
    """The tuple (||f+||, ||f-||, partials over a grid) or its interval form,
    whose entries are E_b - E_a for grid points a < b. Row j of the read-only
    (len(grid), m) array ``rows`` is E_t at t = grid[j] over the base
    ``space``; ``orthogonal_norms`` are those of f's orthogonal part.

    On the full grid {k/n : k = 1..n} (right endpoint included, standing in
    for the endpoint limit over a dense grid) the partials determine the
    sorted fiber values exactly via first differences.
    """

    p: float
    pos_norm: float
    neg_norm: float
    grid: tuple[float, ...]
    space: MeasureSpace
    rows: np.ndarray
    interval_form: bool
    orthogonal_norms: tuple[float, float]

    @property
    def partials(self) -> dict[float, LatticeElement]:
        """E_t per grid point, as base-space elements."""
        return {t: LatticeElement(self.space, row) for t, row in zip(self.grid, self.rows)}

    def _values(self) -> np.ndarray:
        """The norms followed by the entries of the base."""
        v = self.rows
        if self.interval_form:
            v = (v[None, :, :] - v[:, None, :])[np.triu_indices(len(v), 1)]
        return np.concatenate([[self.pos_norm, self.neg_norm], v.ravel()])

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
        n = int(fiber_cells)
        first = 0 if self.interval_form else 1
        if n < 1 or len(self.grid) != n + 1 - first or not close(
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

    Grid points lie in [0, 1]; the endpoints stand in for the limits over a
    dense grid (E_0 = 0 and E_1 = the full conditional expectation, both
    exact here).
    """
    p = check_p(p)
    _require_on_pair(f, pair)
    pts = tuple(float(t) for t in grid)
    if not pts:
        raise InvariantError("the grid must be nonempty")
    if any(not 0.0 <= t <= 1.0 for t in pts):
        raise InvariantError("grid points must lie in [0, 1]")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise InvariantError("grid points must be strictly increasing")
    rows = slices(f, pair, p).partials_at(pts)
    pos_norm, neg_norm = lp_norm(pos_part(f), p), lp_norm(neg_part(f), p)
    return LpCanonicalBase(
        p, pos_norm, neg_norm, pts, pair.base_space(), rows, bool(intervals), _orthogonal_norms(f, pair, p)
    )


@dataclass(frozen=True)
class NTypeBase:
    """Canonical bases of all integer combinations k . f over a box, plus the
    directional-mass summary standing in for the absolute joint type."""

    k_max: int
    bases: Mapping[tuple[int, ...], LpCanonicalBase]
    absolute_summary: DirectionalMass


def canonical_base_ntype(
    fs: Sequence[LatticeElement],
    pair: ExtensionPair,
    p: float,
    grid: Sequence[float],
    k_max: int,
) -> NTypeBase:
    p = check_p(p)
    if not fs:
        raise InvariantError("the tuple of elements must be nonempty")
    for g in fs:
        _require_on_pair(g, pair)
    k_max = int(k_max)
    if k_max < 1:
        raise InvariantError("the integer box must contain a spanning set (k_max >= 1)")
    bases = {}
    for combo in product(range(-k_max, k_max + 1), repeat=len(fs)):
        elem = LatticeElement.zero(pair.total_space())
        for k, g in zip(combo, fs):
            if k:
                elem = elem + float(k) * g
        bases[combo] = canonical_base_1type(elem, pair, p, grid)
    summary = DirectionalMass.from_elements(fs, p)
    return NTypeBase(k_max, bases, summary)


# ---------------------------------------------------------------------------
# Worked counterexample families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P1Report:
    """Norms of the concentrated family f_eps and of its partial E_eps."""

    eps: Fraction
    p: float
    fiber_cells: int
    f_norm: float
    partial: LatticeElement
    partial_norm: float


def p1_counterexample(
    eps: Fraction | float,
    p: float,
    fiber_cells: int | None = None,
) -> P1Report:
    """The unit-norm family on one base atom of mass one, concentrated on the
    first eps-fraction of the fiber, with value -eps^(-1/p); its partial at
    t = eps has norm eps^(1 - 1/p), which stays at 1 when p = 1."""
    p = check_p(p)
    eps = Fraction(eps).limit_denominator(10**9) if not isinstance(eps, Fraction) else eps
    if not (0 < eps < 1) or eps.numerator != 1:
        raise InvariantError(f"eps must be of the form 1/m, got {eps}")
    m = eps.denominator
    n = fiber_cells if fiber_cells is not None else m
    if n % m != 0:
        raise InvariantError(f"fiber_cells {n} is not divisible by 1/eps = {m}")
    pair = ExtensionPair((1.0,), n)
    depth = -(float(eps) ** (-1.0 / p))
    cells = n // m
    row = [depth] * cells + [0.0] * (n - cells)
    f = pair.element([row])
    partial = partial_cond_exp(f, pair, p, float(eps))
    return P1Report(
        eps=eps,
        p=p,
        fiber_cells=n,
        f_norm=lp_norm(f, p),
        partial=partial,
        partial_norm=lp_norm(partial, p),
    )


@dataclass(frozen=True)
class RemarkReport:
    """Outcome of the joint-type counterexample on three unit atoms."""

    k_bound: int
    single_types_all_equal: bool
    joint_types_equal: bool
    witness_with_h: float
    witness_with_minus_h: float


def remark_counterexample() -> RemarkReport:
    """On atoms of weight one, g = (1,-1,0) and h = (1,1,-2): every integer
    combination k*g + l*h with |k|, |l| <= 5 has the same absolute type as
    k*g - l*h, yet the joint types of (g, h) and (g, -h) differ; the term
    (x ^ y)+ integrates to 1 against (g, h) and to 0 against (g, -h)."""
    from .krivine import Join as TJoin, Meet as TMeet, Var as TVar, Zero as TZero, eval_element
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
    witness = TJoin(TMeet(TVar(0), TVar(1)), TZero())
    return RemarkReport(
        k_bound=k_bound,
        single_types_all_equal=all_equal,
        joint_types_equal=joint_equal,
        witness_with_h=integral(eval_element(witness, [g, h])),
        witness_with_minus_h=integral(eval_element(witness, [g, -h])),
    )


# ---------------------------------------------------------------------------
# Helper used by attainment-style identities
# ---------------------------------------------------------------------------

def cond_exp_dotminus(g: LatticeElement, f: LatticeElement, pair: ExtensionPair) -> LatticeElement:
    """E[(g - f)^+ | base] for a base element g, as a base-space element."""
    if g.space != pair.base_space():
        raise SpaceMismatchError("g must live on the base space")
    _require_on_pair(f, pair)
    return pair.cond_exp_base(dotminus(pair.embed(g), f))
