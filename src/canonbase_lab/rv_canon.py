"""[0,1]-valued random variables on finite probability spaces: conditional
moments, the least-squares characterisation of conditional expectation, event
canonical bases, the event lifting onto a product space, and moment
determinacy checks."""

from __future__ import annotations

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
    close,
    cond_exp,
    group,
    integral,
    join,
    meet,
)


def validate_rv(x: LatticeElement) -> None:
    """Every value of x lies in [0, 1]; the error begins with the index of
    the first atom outside, as a relative pointer into x."""
    bad = np.flatnonzero((x.array < -TOL) | (x.array > 1.0 + TOL))
    if len(bad):
        i = bad[0]
        raise InvariantError(f"{i}: random-variable value {x.array[i]} outside [0, 1]")


@dataclass(frozen=True)
class EventAlgebra:
    """A probability space (total mass one) with a conditioning partition."""

    space: MeasureSpace
    algebra: SubStructure

    def __post_init__(self):
        if not close(self.space.total_mass, 1.0):
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


def least_squares_check(x: LatticeElement, k: int, s: SubStructure) -> bool:
    """Verify that the conditional moment minimises the L_2 distance to X^k
    among block-constant candidates, at 21 evenly spaced constants in [0, 1]."""
    validate_rv(x)
    target = _monomial([x], [k])

    def block_sq_dist(y: LatticeElement) -> np.ndarray:
        gap = target - y
        return block_integrals(gap * gap, s)

    mass = block_integrals(LatticeElement.constant(x.space, 1.0), s)
    y_star = block_integrals(target, s) / mass
    d_star = block_sq_dist(cond_exp(target, s))
    for y in np.linspace(0.0, 1.0, 21):
        d = block_sq_dist(LatticeElement.constant(x.space, y))
        # the gap to the optimum must follow the variance decomposition, so
        # it is nonnegative and vanishes only at the conditional moment; a
        # squared gap of [0, 1]-valued variables is at most the block mass,
        # which sets the scale
        if not close(np.append(d, mass), np.append(d_star + mass * (y - y_star) ** 2, mass)):
            return False
    return True


def is_block_measurable(y: LatticeElement, s: SubStructure) -> bool:
    """True iff y is close to its conditional expectation."""
    return y.approx_equal(cond_exp(y, s))


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


def apr_cb(events: Sequence[LatticeElement], s: SubStructure) -> dict[frozenset[int], LatticeElement]:
    """Conditional probabilities of all nonempty intersections of the events,
    indexed by the subset of event indices. Errors name the offending entry
    as a pointer relative to the argument (``events/1/4: ...``)."""
    if not events:
        raise InvariantError("events: need at least one event")
    space = events[0].space
    for j, e in enumerate(events):
        if e.space != space:
            raise SpaceMismatchError(f"events/{j}: lives on another space than events/0")
        bad = np.flatnonzero(np.minimum(np.abs(e.array), np.abs(e.array - 1.0)) > TOL)
        if len(bad):
            i = bad[0]
            raise InvariantError(f"events/{j}/{i}: indicator value {e.array[i]} is not 0/1")
    # bit j of an atom's mask says whether the atom lies in event j
    members = np.round([e.array for e in events]).astype(np.int64)
    masks = (members << np.arange(len(events))[:, None]).sum(axis=0)
    out: dict[frozenset[int], LatticeElement] = {}
    indices = range(len(events))
    for size in range(1, len(events) + 1):
        for subset in combinations(indices, size):
            bits = sum(1 << j for j in subset)
            out[frozenset(subset)] = cond_exp(LatticeElement(space, (masks & bits) == bits), s)
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
    was_rounded = not snapped.approx_equal(x)
    indicator = pair.element(np.arange(n) < ks[:, None])
    return LiftedEvent(pair, indicator, snapped, was_rounded)


def _block_masses(
    x: LatticeElement, y: LatticeElement, block: tuple[int, ...], quantum: float
) -> tuple[np.ndarray, np.ndarray]:
    """The values of x and y on the block, sorted together and grouped where
    neighbours lie within ``quantum`` of each other, as the probability that
    x and that y give each group within the block."""
    idx = np.asarray(block)
    w = x.space.weight_array[idx]
    labels, firsts = group(np.concatenate([x.array[idx], y.array[idx]])[:, None], quantum)
    parts = (labels[: len(idx)], labels[len(idx) :])
    return tuple(np.bincount(g, w, len(firsts)) / w.sum() for g in parts)


def moments_determine_check(
    x: LatticeElement, y: LatticeElement, s: SubStructure, max_k: int
) -> bool:
    """True iff conditional moments up to max_k agree exactly when the
    per-block distributions agree, checked both ways against the raw
    distributions. Sorted neighbours no farther apart than TOL times the
    joint sup norm of x and y count as one value. Requires max_k + 1 to cover
    the union support per block (the moment map is then invertible); anything
    smaller raises."""
    validate_rv(x)
    validate_rv(y)
    if x.space != y.space:
        raise SpaceMismatchError("variables live on different spaces")
    max_k = int(max_k)
    quantum = TOL * float(max(np.abs(x.array).max(), np.abs(y.array).max()))
    dists = [_block_masses(x, y, b, quantum) for b in s.blocks]
    for probs_x, _ in dists:
        distinct = len(probs_x)
        if distinct > max_k + 1:
            raise InsufficientMomentsError(
                f"a block carries {distinct} distinct values; "
                f"max_k = {max_k} moments cannot determine them"
            )
    moments_match = all(
        cond_moment([x], [k], s).approx_equal(cond_moment([y], [k], s))
        for k in range(1, max_k + 1)
    )
    dists_match = all(close(probs_x, probs_y) for probs_x, probs_y in dists)
    return moments_match == dists_match
