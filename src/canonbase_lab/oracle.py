"""Brute-force type-equality oracles.

These are the ground truth the canonical-base constructions are tested
against: types over the base are compared through raw conditional
distributions (per-atom multisets of fiber values) plus orthogonal-part data,
and absolute types through the directional mass measure, which records per
ray the total weighted p-th power of the sup norm. Every comparison follows
the relative tolerance policy stated in ``rules``, so the verdicts do
not depend on units. The oracles read the elements' float64 buffers with the
standard library, so ``typeq`` and ``demo remark`` never load numpy.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import mul, truediv
from typing import Sequence

from .errors import InvariantError
from .measure_core import ExtensionPair, LatticeElement, check_p, group, power, same_space, sort_order
from .records import Record
from .rules import TOL, close


class DirectionalMass(Record):
    """Finite measure on rays: directions normalized to sup-norm one (no sign
    flip, since homogeneity is one-sided) with mass = weight * sup-norm^p.
    Directions are grouped by ``measure_core.group`` on the quantum TOL, one
    entry per group, so a rounding boundary does not split a direction.
    ``entries`` is a tuple of (direction tuple, mass) pairs."""

    __slots__ = ("entries",)

    @classmethod
    def from_elements(cls, fs: Sequence[LatticeElement], p: float) -> "DirectionalMass":
        space, p = same_space(fs, "elements"), float(p)
        sups = list(map(abs, fs[0].values))
        for g in fs[1:]:
            sups = list(map(max, map(abs, g.values), sups))
        rays = list(map(bool, sups))  # the atoms where some element is not 0
        sups = list(compress(sups, rays))
        directions = [list(map(truediv, compress(g.values, rays), sups)) for g in fs]
        masses = map(mul, compress(space.weights, rays), map(power, sups, repeat(p)))
        labels, firsts = group(directions, TOL)
        merged = [0.0] * len(firsts)
        for label, mass in zip(labels, masses):  # in atom order
            merged[label] += mass
        return cls(tuple(zip(zip(*(map(d.__getitem__, firsts) for d in directions)), merged)))

    def approx_equal(self, other: "DirectionalMass") -> bool:
        """Rays of the same dimensions, with close directions and close masses."""
        if [len(d) for d, _ in self.entries] != [len(d) for d, _ in other.entries]:
            return False
        dirs_a, dirs_b = ([x for d, _ in m.entries for x in d] for m in (self, other))
        mass_a, mass_b = ([w for _, w in m.entries] for m in (self, other))
        return close(dirs_a, dirs_b) and close(mass_a, mass_b)


# ---------------------------------------------------------------------------
# Type equality over the base
# ---------------------------------------------------------------------------

def type_equal_1(f: LatticeElement, g: LatticeElement, pair: ExtensionPair, p: float) -> bool:
    """Types over the base agree iff every per-atom fiber multiset matches and
    the positive/negative norms of the orthogonal parts match."""
    return type_equal_n([f], [g], pair, p)


def _joint_rows(fs: Sequence[LatticeElement], pair: ExtensionPair, quantum: float) -> list[float]:
    """Per base atom, the fiber cells as value vectors (one coordinate per
    element), in ``measure_core.sort_order`` on ``quantum``: atom after atom,
    each element's cells in that order."""
    out: list[float] = []
    for fibers in zip(*(pair.fibers(g) for g in fs)):  # one fiber per element
        order = sort_order(fibers, quantum)
        for fiber in fibers:
            out += map(fiber.__getitem__, order)
    return out


def type_equal_n(
    fs: Sequence[LatticeElement], gs: Sequence[LatticeElement], pair: ExtensionPair, p: float
) -> bool:
    """Joint types over the base: per-atom multisets of fiber value vectors
    must coincide, and the directional masses of the orthogonal parts too.
    Cells are sorted on a grid of TOL times the joint sup norm of both tuples."""
    p = check_p(p)
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    if not fs:
        raise InvariantError("tuples must be nonempty")
    both = [*fs, *gs]
    for e in both:
        pair.require(e)
    quantum = TOL * max(max(map(abs, row)) for e in both for row in pair.fibers(e)) or 1.0
    if not close(_joint_rows(fs, pair, quantum), _joint_rows(gs, pair, quantum)):
        return False
    if not pair.has_orthogonal:
        return True
    orth = ([pair.orthogonal_part(g) for g in tup] for tup in (fs, gs))
    return absolute_type_equal(*orth, p)


def absolute_type_equal(fs: Sequence[LatticeElement], gs: Sequence[LatticeElement], p: float) -> bool:
    """Parameter-free joint types, possibly over different spaces: equality of
    the directional mass measures."""
    p = check_p(p)
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    mf = DirectionalMass.from_elements(fs, p)
    mg = DirectionalMass.from_elements(gs, p)
    return mf.approx_equal(mg)
