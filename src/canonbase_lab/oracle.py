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

from .errors import InvariantError, SpaceMismatchError
from .measure_core import TOL, ExtensionPair, LatticeElement, MeasureSpace


def _sorted_close(a: Sequence[float], b: Sequence[float], tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b)))


@dataclass(frozen=True)
class ConditionalDistribution:
    """Per base atom, the sorted fiber values; plus the orthogonal cells."""

    sorted_rows: tuple[tuple[float, ...], ...]
    orthogonal_cells: tuple[float, ...]

    @classmethod
    def of(cls, f: LatticeElement, pair: ExtensionPair) -> "ConditionalDistribution":
        if f.space != pair.total_space():
            raise SpaceMismatchError("element does not live on the total space of this pair")
        rows = tuple(tuple(sorted(row)) for row in pair.rows(f))
        orth = tuple(pair.plus_values(f) + pair.minus_values(f))
        return cls(rows, orth)


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
        raw: list[tuple[tuple[float, ...], float]] = []
        for i, w in enumerate(space.weights):
            vec = tuple(g.values[i] for g in fs)
            sup = max(abs(v) for v in vec)
            if sup == 0.0:
                continue
            direction = tuple(v / sup for v in vec)
            raw.append((direction, w * sup ** float(p)))
        return cls(_merge(raw))

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

def _orth_pm_norms(f: LatticeElement, pair: ExtensionPair, p: float) -> tuple[float, float]:
    cells = pair.plus_values(f) + pair.minus_values(f)
    w = 1.0 / pair.n
    plus = sum(w * max(v, 0.0) ** p for v in cells) ** (1.0 / p)
    minus = sum(w * max(-v, 0.0) ** p for v in cells) ** (1.0 / p)
    return plus, minus


def type_equal_1(
    f: LatticeElement,
    g: LatticeElement,
    pair: ExtensionPair,
    p: float,
    tol: float = TOL,
) -> bool:
    """Types over the base agree iff every per-atom fiber multiset matches and
    the positive/negative norms of the orthogonal parts match."""
    p = float(p)
    df = ConditionalDistribution.of(f, pair)
    dg = ConditionalDistribution.of(g, pair)
    for row_f, row_g in zip(df.sorted_rows, dg.sorted_rows):
        if not _sorted_close(row_f, row_g, tol):
            return False
    fp, fm = _orth_pm_norms(f, pair, p)
    gp, gm = _orth_pm_norms(g, pair, p)
    return abs(fp - gp) <= tol and abs(fm - gm) <= tol


def _joint_rows(fs: Sequence[LatticeElement], pair: ExtensionPair) -> list[list[tuple[float, ...]]]:
    per_elem_rows = [pair.rows(g) for g in fs]
    out = []
    for i in range(pair.m):
        cells = list(zip(*(rows[i] for rows in per_elem_rows)))
        out.append(sorted(cells, key=lambda c: tuple(round(v, 9) for v in c)))
    return out


def _orth_space_elements(
    fs: Sequence[LatticeElement], pair: ExtensionPair
) -> list[LatticeElement] | None:
    if not pair.has_orthogonal:
        return None
    space = MeasureSpace((1.0 / pair.n,) * (2 * pair.n))
    return [
        LatticeElement(space, tuple(pair.plus_values(g) + pair.minus_values(g)))
        for g in fs
    ]


def type_equal_n(
    fs: Sequence[LatticeElement],
    gs: Sequence[LatticeElement],
    pair: ExtensionPair,
    p: float,
    tol: float = TOL,
) -> bool:
    """Joint types over the base: per-atom multisets of fiber value vectors
    must coincide, and the directional masses of the orthogonal parts too."""
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    if not fs:
        raise InvariantError("tuples must be nonempty")
    for e in list(fs) + list(gs):
        if e.space != pair.total_space():
            raise SpaceMismatchError("all elements must live on the total space")
    for rows_f, rows_g in zip(_joint_rows(fs, pair), _joint_rows(gs, pair)):
        for cell_f, cell_g in zip(rows_f, rows_g):
            if any(abs(a - b) > tol for a, b in zip(cell_f, cell_g)):
                return False
    orth_f = _orth_space_elements(fs, pair)
    orth_g = _orth_space_elements(gs, pair)
    if orth_f is None:
        return True
    mf = DirectionalMass.from_elements(orth_f, p)
    mg = DirectionalMass.from_elements(orth_g, p)
    return mf.approx_equal(mg, tol)


def absolute_type_equal(
    fs: Sequence[LatticeElement],
    gs: Sequence[LatticeElement],
    p: float,
    tol: float = TOL,
) -> bool:
    """Parameter-free joint types, possibly over different spaces: equality of
    the directional mass measures."""
    if len(fs) != len(gs):
        raise InvariantError("tuples must have equal length")
    if not fs:
        raise InvariantError("tuples must be nonempty")
    mf = DirectionalMass.from_elements(fs, p)
    mg = DirectionalMass.from_elements(gs, p)
    return mf.approx_equal(mg, tol)
