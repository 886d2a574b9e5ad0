"""[0,1]-valued random variables on finite probability spaces: conditional
moments, the least-squares characterisation of conditional expectation, event
canonical bases, the event lifting onto a product space, and moment
determinacy checks.

Both canonical bases are block-constant, so they are computed per block and
returned as a ``BlockTable``. ``cond_moments`` feeds one monomial per row to
the block kernel ``block_means``. ``apr_cb`` sums the weights per (block,
event mask), an atom's mask holding the events that contain it, and gets the
mass of every meet by the zeta transform over the subset lattice (Bjorklund,
Husfeldt, Kaski and Koivisto, "Fourier meets Mobius", STOC 2007). For k events
on B blocks that costs O(atoms + B * k * 2^k), against O(atoms * 2^k) for one
conditional expectation per meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientMomentsError, InvariantError
from .measure_core import (
    BlockTable,
    ExtensionPair,
    LatticeElement,
    MeasureSpace,
    SubStructure,
    block_means,
    cond_exp,
    group,
    integral,
    join,
    meet,
    same_space,
)
from .rules import MAX_KEYS, TOL, check_count, check_entries, close, integer


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


def _monomials(xs: Sequence[LatticeElement], kss: Sequence[Sequence[int]]) -> np.ndarray:
    """The (len(kss), atoms) array of the products prod_i X_i^{k_i}, one row
    per exponent tuple, multiplied in variable order; each power X_i^k is
    taken once. Exponent i of tuple r is named ``exponents/r/i``."""
    space = same_space(xs, "variables")
    powers: dict[tuple[int, int], np.ndarray] = {}
    rows = np.ones((len(kss), len(space)))
    for r, (row, ks) in enumerate(zip(rows, kss)):
        if len(xs) != len(ks):
            raise InvariantError("exponent tuple length must match the variable tuple")
        for i, (x, k) in enumerate(zip(xs, ks)):
            k = integer(k, f"exponents/{r}/{i}", 0)
            if (i, k) not in powers:
                powers[i, k] = x.array**k
            row *= powers[i, k]
    return rows


def _monomial(xs: Sequence[LatticeElement], ks: Sequence[int]) -> LatticeElement:
    return LatticeElement(xs[0].space, _monomials(xs, [ks])[0])


def cond_moments(
    xs: Sequence[LatticeElement], kss: Sequence[Sequence[int]], s: SubStructure
) -> BlockTable:
    """E[prod X_i^{k_i} | blocks] for each exponent tuple of kss, keyed by
    the tuple; values stay within [0, 1]."""
    for x in xs:
        validate_rv(x)
    kss = [tuple(ks) for ks in kss]
    table, labels = block_means(_monomials(xs, kss), s, xs[0].space)
    return BlockTable(xs[0].space, kss, table, labels)


def cond_moment(
    xs: Sequence[LatticeElement], ks: Sequence[int], s: SubStructure
) -> LatticeElement:
    """E[prod X_i^{k_i} | blocks]; values stay within [0, 1]."""
    return cond_moments(xs, [ks], s)[tuple(ks)]


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


def apr_cb(events: Sequence[LatticeElement], s: SubStructure) -> BlockTable:
    """Conditional probabilities of all nonempty intersections of the events,
    indexed by the subset of event indices. Errors name the offending entry
    as a pointer relative to the argument (``events/1/4: ...``); more than
    ``MAX_ENTRIES`` entries (2^k - 1 meets times the atoms), or more than
    ``MAX_KEYS`` meets, is an error naming ``events``."""
    space = same_space(events, "events")
    for j, e in enumerate(events):
        bad = np.flatnonzero(np.minimum(np.abs(e.array), np.abs(e.array - 1.0)) > TOL)
        if len(bad):
            i = bad[0]
            raise InvariantError(f"events/{j}/{i}: indicator value {e.array[i]} is not 0/1")
    k = len(events)
    check_entries(2**k - 1, len(space), "events")
    check_count(2**k - 1, MAX_KEYS, "events", "keys")
    labels, masses = s.partition(space)
    # bit j of an atom's mask says whether the atom lies in event j
    members = np.round([e.array for e in events]).astype(np.int64)
    masks = (members << np.arange(k)[:, None]).sum(axis=0)
    # the weight per (block, mask), summed in atom-index order
    rows = len(masses) + 1
    table = np.bincount(labels * 2**k + masks, space.weight_array, rows * 2**k).reshape(rows, 2**k)
    for j in range(k):  # superset sums: slot 1 of bit j holds the masks with event j
        view = table.reshape(rows, 2 ** (k - 1 - j), 2, 2**j)
        view[:, :, 0] += view[:, :, 1]
    means = np.zeros((2**k - 1, rows))
    means[:, :-1] = table[:-1, 1:].T / masses
    subsets = [()]  # in mask order
    for j in range(k):
        subsets += [subset + (j,) for subset in subsets]
    return BlockTable(space, map(frozenset, subsets[1:]), means, labels)


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
    pair = ExtensionPair(x.space.weights, fiber_cells)
    n = pair.n
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
    same_space((x, y), "variables")
    max_k = integer(max_k, "max_k", 0)
    quantum = TOL * float(max(np.abs(x.array).max(), np.abs(y.array).max()))
    dists = [_block_masses(x, y, b, quantum) for b in s.blocks]
    for probs_x, _ in dists:
        distinct = len(probs_x)
        if distinct > max_k + 1:
            raise InsufficientMomentsError(
                f"a block carries {distinct} distinct values; "
                f"max_k = {max_k} moments cannot determine them"
            )
    kss = [(k,) for k in range(1, max_k + 1)]
    moments_x, moments_y = (cond_moments([v], kss, s).table for v in (x, y))
    moments_match = all(map(close, moments_x, moments_y))
    dists_match = all(close(probs_x, probs_y) for probs_x, probs_y in dists)
    return moments_match == dists_match
