"""Brute-force type-equality oracles.

These are the ground truth the canonical-base constructions are tested
against: types over the base are compared through raw conditional
distributions (per-atom multisets of fiber values) plus orthogonal-part data,
and absolute types through the directional mass measure, which records per
ray the total weighted p-th power of the sup norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError, SpaceMismatchError
from .measure_core import TOL, ExtensionPair, LatticeElement, check_p, lp_norm, neg_part, pos_part


@dataclass(frozen=True)
class DirectionalMass:
    """Finite measure on rays: directions normalized to sup-norm one (no sign
    flip, since homogeneity is one-sided) with mass = weight * sup-norm^p."""

    entries: tuple[tuple[tuple[float, ...], float], ...]

    @classmethod
    def from_elements(cls, fs: Sequence[LatticeElement], p: float) -> "DirectionalMass":
        if not fs:
            raise InvariantError("directional mass needs at least one element")
        space = fs[0].space
        for g in fs[1:]:
            if g.space != space:
                raise SpaceMismatchError("elements must share one measure space")
        vecs = np.stack([g.array for g in fs], axis=1)
        sup = np.abs(vecs).max(axis=1)
        ray = sup != 0.0
        directions = (vecs[ray] / sup[ray, None]).tolist()
        masses = (space.weight_array[ray] * sup[ray] ** float(p)).tolist()
        return cls(_merge(list(zip(map(tuple, directions), masses))))

    def approx_equal(self, other: "DirectionalMass", tol: float = TOL) -> bool:
        if len(self.entries) != len(other.entries):
            return False
        for (da, ma), (db, mb) in zip(self.entries, other.entries):
            if len(da) != len(db) or abs(ma - mb) > tol:
                return False
            if any(abs(x - y) > tol for x, y in zip(da, db)):
                return False
        return True


def _merge(raw: list[tuple[tuple[float, ...], float]], tol: float = TOL) -> tuple:
    raw.sort(key=lambda e: e[0])
    merged: list[tuple[tuple[float, ...], float]] = []
    for direction, mass in raw:
        if merged and all(abs(x - y) <= tol for x, y in zip(merged[-1][0], direction)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mass)
        else:
            merged.append((direction, mass))
    return tuple(merged)


# ---------------------------------------------------------------------------
# Type equality over the base
# ---------------------------------------------------------------------------

def type_equal_1(
    f: LatticeElement,
    g: LatticeElement,
    pair: ExtensionPair,
    p: float,
    tol: float = TOL,
) -> bool:
    """Types over the base agree iff every per-atom fiber multiset matches and
    the positive/negative norms of the orthogonal parts match."""
    p = check_p(p)
    for e in (f, g):
        if e.space != pair.total_space():
            raise SpaceMismatchError("element does not live on the total space of this pair")
    rows_f = np.sort(pair.fibers(f), axis=1)
    rows_g = np.sort(pair.fibers(g), axis=1)
    if np.any(np.abs(rows_f - rows_g) > tol):
        return False
    orth_f, orth_g = pair.orthogonal_part(f), pair.orthogonal_part(g)
    if orth_f is None:
        return True
    return all(
        abs(lp_norm(part(orth_f), p) - lp_norm(part(orth_g), p)) <= tol
        for part in (pos_part, neg_part)
    )


def _joint_rows(fs: Sequence[LatticeElement], pair: ExtensionPair) -> np.ndarray:
    """Per base atom, the fiber cells as value vectors (one coordinate per
    element), sorted by their coordinates rounded to 9 places; (m, n, len(fs))."""
    cells = np.stack([pair.fibers(g) for g in fs], axis=-1).tolist()
    return np.array([sorted(row, key=_rounded) for row in cells])


def _rounded(cell: list[float]) -> tuple[float, ...]:
    return tuple(round(v, 9) for v in cell)


def type_equal_n(
    fs: Sequence[LatticeElement],
    gs: Sequence[LatticeElement],
    pair: ExtensionPair,
    p: float,
    tol: float = TOL,
) -> bool:
    """Joint types over the base: per-atom multisets of fiber value vectors
    must coincide, and the directional masses of the orthogonal parts too."""
    p = check_p(p)
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    if not fs:
        raise InvariantError("tuples must be nonempty")
    for e in list(fs) + list(gs):
        if e.space != pair.total_space():
            raise SpaceMismatchError("all elements must live on the total space")
    if np.any(np.abs(_joint_rows(fs, pair) - _joint_rows(gs, pair)) > tol):
        return False
    if not pair.has_orthogonal:
        return True
    mf = DirectionalMass.from_elements([pair.orthogonal_part(g) for g in fs], p)
    mg = DirectionalMass.from_elements([pair.orthogonal_part(g) for g in gs], p)
    return mf.approx_equal(mg, tol)


def absolute_type_equal(
    fs: Sequence[LatticeElement],
    gs: Sequence[LatticeElement],
    p: float,
    tol: float = TOL,
) -> bool:
    """Parameter-free joint types, possibly over different spaces: equality of
    the directional mass measures."""
    p = check_p(p)
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    if not fs:
        raise InvariantError("tuples must be nonempty")
    mf = DirectionalMass.from_elements(fs, p)
    mg = DirectionalMass.from_elements(gs, p)
    return mf.approx_equal(mg, tol)
