"""[0,1]-valued random variables on finite probability spaces: conditional
moments, the least-squares characterisation of conditional expectation, event
canonical bases, the event lifting onto a product space, and moment
determinacy checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InsufficientMomentsError, InvariantError, SpaceMismatchError
from .measure_core import (
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    SubStructure,
    TOL,
    block_integrals,
    cond_exp,
    integral,
    join,
    lp_norm,
    meet,
)


def validate_rv(x: LatticeElement, tol: float = TOL) -> None:
    bad = np.flatnonzero((x.array < -tol) | (x.array > 1.0 + tol))
    if len(bad):
        i = bad[0]
        raise InvariantError(f"atom {i}: random-variable value {x.array[i]} outside [0, 1]")


@dataclass(frozen=True)
class EventAlgebra:
    """A probability space (total mass one) with a conditioning partition."""

    space: MeasureSpace
    algebra: SubStructure

    def __post_init__(self):
        if abs(self.space.total_mass - 1.0) > TOL:
            raise InvariantError(
                f"probability space must have total mass 1, got {self.space.total_mass}"
            )
        self.algebra.validate_for(self.space)


def expectation(x: LatticeElement) -> float:
    return integral(x)


def rv_op(op: str, x: LatticeElement, y: LatticeElement | None = None) -> LatticeElement:
    """The random-variable operations: not (1 - X), half, join, meet."""
    validate_rv(x)
    if op == "not":
        return LatticeElement.constant(x.space, 1.0) - x
    if op == "half":
        return 0.5 * x
    if op in ("join", "meet"):
        if y is None:
            raise InvariantError(f"operation {op!r} needs two random variables")
        validate_rv(y)
        return (join if op == "join" else meet)(x, y)
    raise InvariantError(f"unknown random-variable operation {op!r}")


def _monomial(xs: Sequence[LatticeElement], ks: Sequence[int]) -> LatticeElement:
    if len(xs) != len(ks):
        raise InvariantError("exponent tuple length must match the variable tuple")
    space = xs[0].space
    vals = np.ones(len(space))
    for x, k in zip(xs, ks):
        if x.space != space:
            raise SpaceMismatchError("random variables live on different spaces")
        k = int(k)
        if k < 0:
            raise InvariantError("moment exponents must be nonnegative")
        vals = vals * x.array**k
    return LatticeElement(space, vals)


def cond_moment(
    xs: Sequence[LatticeElement], ks: Sequence[int], s: SubStructure
) -> LatticeElement:
    """E[prod X_i^{k_i} | blocks]; values stay within [0, 1]."""
    for x in xs:
        validate_rv(x)
    return cond_exp(_monomial(xs, ks), s)


def least_squares_check(
    x: LatticeElement, k: int, s: SubStructure, grid_steps: int = 21
) -> bool:
    """Verify that the conditional moment minimises the L_2 distance to X^k
    among block-constant candidates, strictly away from the optimum."""
    validate_rv(x)
    target = _monomial([x], [k])

    def block_sq_dist(y: LatticeElement) -> np.ndarray:
        gap = target - y
        return block_integrals(gap * gap, s)

    mass = block_integrals(LatticeElement.constant(x.space, 1.0), s)
    y_star = block_integrals(target, s) / mass
    d_star = block_sq_dist(cond_exp(target, s))
    for y in np.linspace(0.0, 1.0, grid_steps):
        d = block_sq_dist(LatticeElement.constant(x.space, y))
        if np.any(d < d_star - 1e-12):
            return False
        # strictness: the gap must follow the variance decomposition
        if np.any(np.abs(d - d_star - mass * (y - y_star) ** 2) > 1e-9):
            return False
    return True


def is_block_measurable(y: LatticeElement, s: SubStructure, tol: float = TOL) -> bool:
    """True iff y lies within tol of its conditional expectation at every atom."""
    return lp_norm(y - cond_exp(y, s), math.inf) <= tol


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
    yl = _monomial(ys, ls) if ys else LatticeElement.constant(xs[0].space, 1.0)
    return integral(xk * yl), integral(cond_exp(xk, s) * yl)


def apr_cb(
    events: Sequence[LatticeElement], s: SubStructure, tol: float = TOL
) -> dict[frozenset[int], LatticeElement]:
    """Conditional probabilities of all nonempty intersections of the events,
    indexed by the subset of event indices."""
    if not events:
        raise InvariantError("need at least one event")
    space = events[0].space
    for j, e in enumerate(events):
        if e.space != space:
            raise SpaceMismatchError("events live on different spaces")
        bad = np.flatnonzero(np.minimum(np.abs(e.array), np.abs(e.array - 1.0)) > tol)
        if len(bad):
            i = bad[0]
            raise InvariantError(f"event {j}, atom {i}: indicator value {e.array[i]} is not 0/1")
    indicators = [LatticeElement(space, np.round(e.array)) for e in events]
    # each intersection is the meet of its parent subset's with one more event
    meets: dict[tuple[int, ...], LatticeElement] = {(): LatticeElement.constant(space, 1.0)}
    out: dict[frozenset[int], LatticeElement] = {}
    indices = range(len(events))
    for size in range(1, len(events) + 1):
        for subset in combinations(indices, size):
            meets[subset] = meet(meets[subset[:-1]], indicators[subset[-1]])
            out[frozenset(subset)] = cond_exp(meets[subset], s)
    return out


@dataclass(frozen=True)
class LiftedEvent:
    """The event {(atom, r) : r <= X(atom)} realised on a product space with
    equal fiber cells; its conditional probability over the base is X."""

    pair: ExtensionPair
    indicator: LatticeElement
    snapped: LatticeElement
    was_rounded: bool

    def conditional_probability(self) -> LatticeElement:
        return self.pair.cond_exp_base(self.indicator)


def lift_event(x: LatticeElement, s: SubStructure, fiber_cells: int) -> LiftedEvent:
    """Lift a [0,1]-valued variable to the indicator of its sub-graph event.

    Values are snapped to the grid {k/n}; any rounding actually applied is
    reported on the result.
    """
    validate_rv(x)
    if not is_block_measurable(x, s):
        raise InvariantError("x must be measurable for the conditioning blocks")
    n = int(fiber_cells)
    if n < 1:
        raise InvariantError("fiber_cells must be positive")
    pair = ExtensionPair(x.space.weights, n)
    ks = np.clip(np.floor(x.array * n + 0.5), 0, n)
    snapped = LatticeElement(x.space, ks / n)
    was_rounded = lp_norm(snapped - x, math.inf) > 1e-12
    indicator = pair.element(np.arange(n) < ks[:, None])
    return LiftedEvent(pair, indicator, snapped, was_rounded)


def _block_distribution(
    x: LatticeElement, block: tuple[int, ...], tol: float
) -> list[tuple[float, float]]:
    """Sorted (value, probability-within-block) pairs, tolerance-bucketed."""
    idx = list(block)
    w = x.space.weight_array[idx]
    pairs = sorted(zip(x.array[idx].tolist(), (w / w.sum()).tolist()))
    out: list[tuple[float, float]] = []
    for v, pr in pairs:
        if out and abs(out[-1][0] - v) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + pr)
        else:
            out.append((v, pr))
    return out


def _distributions_equal(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(va - vb) <= tol and abs(pa - pb) <= tol for (va, pa), (vb, pb) in zip(a, b))


def moments_determine_check(
    x: LatticeElement,
    y: LatticeElement,
    s: SubStructure,
    max_k: int,
    tol: float = TOL,
) -> bool:
    """True iff conditional moments up to max_k agree exactly when the
    per-block distributions agree, checked both ways against the raw
    distributions. Requires max_k + 1 to cover the union support per block
    (the moment map is then invertible); anything smaller raises."""
    validate_rv(x)
    validate_rv(y)
    if x.space != y.space:
        raise SpaceMismatchError("variables live on different spaces")
    max_k = int(max_k)
    dists = [(_block_distribution(x, b, tol), _block_distribution(y, b, tol)) for b in s.blocks]
    for dist_x, dist_y in dists:
        union_vals = sorted({v for v, _ in dist_x} | {v for v, _ in dist_y})
        merged: list[float] = []
        for v in union_vals:
            if not merged or v - merged[-1] > tol:
                merged.append(v)
        if len(merged) > max_k + 1:
            raise InsufficientMomentsError(
                f"a block carries {len(merged)} distinct values; "
                f"max_k = {max_k} moments cannot determine them"
            )
    moments_match = all(
        cond_moment([x], [k], s).approx_equal(cond_moment([y], [k], s), tol)
        for k in range(1, max_k + 1)
    )
    dists_match = all(_distributions_equal(dx, dy, tol) for dx, dy in dists)
    return moments_match == dists_match
