"""Finite measure spaces, lattice elements with L_p structure, and conditional expectation.

Elements are real-valued functions on the atoms of a finite measure space.
Every value here is immutable and every operation is a pure function, so
concurrent use from multiple threads needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InvariantError, SpaceMismatchError

#: Absolute tolerance used for floating-point comparisons throughout.
TOL = 1e-9


@dataclass(frozen=True)
class MeasureSpace:
    """Atoms indexed 0..len-1, each carrying a strictly positive finite weight."""

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        if len(ws) < 1:
            raise InvariantError("a measure space needs at least one atom")
        for i, w in enumerate(ws):
            if not (math.isfinite(w) and w > 0.0):
                raise InvariantError(f"atom {i}: weight must be finite and positive, got {w!r}")
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return sum(self.weights)


@dataclass(frozen=True)
class LatticeElement:
    """One real value per atom of its measure space."""

    space: MeasureSpace
    values: tuple[float, ...]

    def __post_init__(self):
        vs = tuple(float(v) for v in self.values)
        if len(vs) != len(self.space):
            raise InvariantError(
                f"element has {len(vs)} values but the space has {len(self.space)} atoms"
            )
        for i, v in enumerate(vs):
            if not math.isfinite(v):
                raise InvariantError(f"atom {i}: value must be finite, got {v!r}")
        object.__setattr__(self, "values", vs)

    # -- convenience arithmetic (pointwise, same space) -------------------

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        _check_same_space(self, other)
        return LatticeElement(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        _check_same_space(self, other)
        return LatticeElement(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.space, tuple(-a for a in self.values))

    def __abs__(self) -> "LatticeElement":
        return LatticeElement(self.space, tuple(abs(a) for a in self.values))

    def __mul__(self, c) -> "LatticeElement":
        c = float(c)
        return LatticeElement(self.space, tuple(c * a for a in self.values))

    __rmul__ = __mul__

    def map(self, fn: Callable[[float], float]) -> "LatticeElement":
        return LatticeElement(self.space, tuple(fn(a) for a in self.values))

    def approx_equal(self, other: "LatticeElement", tol: float = TOL) -> bool:
        if self.space != other.space:
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))

    @classmethod
    def zero(cls, space: MeasureSpace) -> "LatticeElement":
        return cls(space, (0.0,) * len(space))

    @classmethod
    def constant(cls, space: MeasureSpace, c: float) -> "LatticeElement":
        return cls(space, (float(c),) * len(space))


def _check_same_space(f: LatticeElement, g: LatticeElement) -> None:
    if f.space != g.space:
        raise SpaceMismatchError("elements live on different measure spaces")


# ---------------------------------------------------------------------------
# Vector-lattice operations
# ---------------------------------------------------------------------------

def neg(f: LatticeElement) -> LatticeElement:
    return -f


def absolute(f: LatticeElement) -> LatticeElement:
    return abs(f)


def join(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    _check_same_space(f, g)
    return LatticeElement(f.space, tuple(max(a, b) for a, b in zip(f.values, g.values)))


def meet(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    _check_same_space(f, g)
    return LatticeElement(f.space, tuple(min(a, b) for a, b in zip(f.values, g.values)))


def halfsum(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    _check_same_space(f, g)
    return LatticeElement(f.space, tuple((a + b) / 2.0 for a, b in zip(f.values, g.values)))


def dotminus(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Truncated subtraction, (a - b) v 0, per atom."""
    _check_same_space(f, g)
    return LatticeElement(f.space, tuple(max(a - b, 0.0) for a, b in zip(f.values, g.values)))


def scale(q, f: LatticeElement) -> LatticeElement:
    if isinstance(q, Fraction):
        q = float(q)
    return f * q


def pos_part(f: LatticeElement) -> LatticeElement:
    return LatticeElement(f.space, tuple(max(a, 0.0) for a in f.values))


def neg_part(f: LatticeElement) -> LatticeElement:
    return LatticeElement(f.space, tuple(max(-a, 0.0) for a in f.values))


_UNARY = {"neg": neg, "abs": absolute}
_BINARY = {"join": join, "meet": meet, "halfsum": halfsum, "dotminus": dotminus}


def lattice_op(op: str, f: LatticeElement, g: LatticeElement | None = None, *, scalar=None) -> LatticeElement:
    """Apply a named lattice operation pointwise.

    ``op`` is one of neg, abs, join, meet, halfsum, dotminus, scale; scale
    requires the ``scalar`` keyword (a rational or float), the binary ops a
    second element on the same space.
    """
    if op in _UNARY:
        return _UNARY[op](f)
    if op in _BINARY:
        if g is None:
            raise InvariantError(f"operation {op!r} needs two elements")
        return _BINARY[op](f, g)
    if op == "scale":
        if scalar is None:
            raise InvariantError("scale needs a scalar factor")
        return scale(scalar, f)
    raise InvariantError(f"unknown lattice operation {op!r}")


def signed_power(x: float, alpha: float) -> float:
    """x**alpha extended to negative x by odd reflection, so (-7)**2 -> -49."""
    alpha = float(alpha)
    if not alpha > 0:
        raise InvariantError(f"signed_power needs a positive exponent, got {alpha}")
    x = float(x)
    if x >= 0.0:
        return x ** alpha
    return -((-x) ** alpha)


# ---------------------------------------------------------------------------
# Norms and distance
# ---------------------------------------------------------------------------

def lp_norm(f: LatticeElement, p: float) -> float:
    """Weighted L_p norm (sum_i w_i |v_i|^p)^(1/p); requires p >= 1."""
    p = float(p)
    if not p >= 1.0:
        raise InvariantError(f"L_p exponent must satisfy p >= 1, got {p}")
    total = sum(w * abs(v) ** p for w, v in zip(f.space.weights, f.values))
    return total ** (1.0 / p)


def distance(f: LatticeElement, g: LatticeElement, p: float) -> float:
    """The lattice-structure metric d(f, g) = || (f - g)/2 ||_p."""
    return lp_norm(scale(0.5, f - g), p)


# ---------------------------------------------------------------------------
# Sub-structures, conditional expectation, band decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubStructure:
    """A partition of a subset of atom indices into nonempty blocks.

    The blocks generate the conditioning algebra; atoms outside the support
    are invisible to it.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        seen: set[int] = set()
        for k, block in enumerate(self.blocks):
            idx = tuple(sorted(int(i) for i in block))
            if not idx:
                raise InvariantError(f"block {k} is empty")
            for i in idx:
                if i < 0:
                    raise InvariantError(f"block {k}: negative atom index {i}")
                if i in seen:
                    raise InvariantError(f"atom {i} appears in more than one block")
                seen.add(i)
            canon.append(idx)
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for block in self.blocks for i in block)

    def validate_for(self, space: MeasureSpace) -> None:
        top = max(self.support, default=-1)
        if top >= len(space):
            raise InvariantError(
                f"sub-structure references atom {top} but the space has {len(space)} atoms"
            )

    @classmethod
    def single_block(cls, indices: Iterable[int]) -> "SubStructure":
        return cls((tuple(indices),))

    @classmethod
    def discrete(cls, n: int) -> "SubStructure":
        return cls(tuple((i,) for i in range(n)))


def cond_exp(f: LatticeElement, s: SubStructure) -> LatticeElement:
    """Block-averaging conditional expectation; zero off the support.

    On each block the result is the weighted mean of f, so the integral of
    the result over any block equals the integral of f there.
    """
    s.validate_for(f.space)
    out = [0.0] * len(f.space)
    w = f.space.weights
    for block in s.blocks:
        wsum = sum(w[i] for i in block)
        vsum = sum(w[i] * f.values[i] for i in block)
        mean = vsum / wsum
        for i in block:
            out[i] = mean
    return LatticeElement(f.space, tuple(out))


def band_decompose(f: LatticeElement, s: SubStructure) -> tuple[LatticeElement, LatticeElement]:
    """Split f into its part over the support and the orthogonal remainder."""
    sup = s.support
    fe = LatticeElement(
        f.space, tuple(v if i in sup else 0.0 for i, v in enumerate(f.values))
    )
    fperp = LatticeElement(
        f.space, tuple(0.0 if i in sup else v for i, v in enumerate(f.values))
    )
    return fe, fperp


def orthogonal(f: LatticeElement, g: LatticeElement, tol: float = TOL) -> bool:
    """True iff |f| ^ |g| is the zero element."""
    _check_same_space(f, g)
    return all(min(abs(a), abs(b)) <= tol for a, b in zip(f.values, g.values))


# ---------------------------------------------------------------------------
# The discretized fibered extension E <= E'
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionPair:
    """The base space with each atom split into equal fiber cells, plus an
    optional orthogonal part made of two extra unit-mass fibers ("plus" and
    "minus").

    Atom order of the total space: base atom i occupies cells i*n .. i*n+n-1,
    followed (when present) by the n cells of the plus fiber and then the n
    cells of the minus fiber. The embedded copy of the base lattice consists
    of exactly the elements that are constant along each base fiber and zero
    on the plus/minus part.
    """

    base_weights: tuple[float, ...]
    fiber_cells: int
    has_orthogonal: bool = False

    def __post_init__(self):
        ws = tuple(float(w) for w in self.base_weights)
        if len(ws) < 1:
            raise InvariantError("the base space needs at least one atom")
        for i, w in enumerate(ws):
            if not (math.isfinite(w) and w > 0.0):
                raise InvariantError(f"base atom {i}: weight must be finite and positive")
        if int(self.fiber_cells) < 1:
            raise InvariantError("fiber_cells must be a positive integer")
        object.__setattr__(self, "base_weights", ws)
        object.__setattr__(self, "fiber_cells", int(self.fiber_cells))
        object.__setattr__(self, "has_orthogonal", bool(self.has_orthogonal))

    # -- geometry ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.base_weights)

    @property
    def n(self) -> int:
        return self.fiber_cells

    @property
    def total_atoms(self) -> int:
        return (self.m + (2 if self.has_orthogonal else 0)) * self.n

    @property
    def plus_offset(self) -> int:
        return self.m * self.n

    @property
    def minus_offset(self) -> int:
        return self.m * self.n + self.n

    def base_space(self) -> MeasureSpace:
        return MeasureSpace(self.base_weights)

    def total_space(self) -> MeasureSpace:
        n = self.n
        weights: list[float] = []
        for w in self.base_weights:
            weights.extend([w / n] * n)
        if self.has_orthogonal:
            weights.extend([1.0 / n] * (2 * n))
        return MeasureSpace(tuple(weights))

    # -- element plumbing ----------------------------------------------------

    def element(
        self,
        rows: Sequence[Sequence[float]],
        plus: Sequence[float] | None = None,
        minus: Sequence[float] | None = None,
    ) -> LatticeElement:
        if len(rows) != self.m:
            raise InvariantError(f"expected {self.m} fiber rows, got {len(rows)}")
        values: list[float] = []
        for i, row in enumerate(rows):
            if len(row) != self.n:
                raise InvariantError(f"row {i}: expected {self.n} cells, got {len(row)}")
            values.extend(float(v) for v in row)
        for name, part in (("plus", plus), ("minus", minus)):
            if part is None:
                part = [0.0] * self.n
            elif not self.has_orthogonal:
                if any(float(v) != 0.0 for v in part):
                    raise InvariantError(f"{name} fiber given but the pair has no orthogonal part")
                part = []
            if self.has_orthogonal:
                if len(part) != self.n:
                    raise InvariantError(f"{name} fiber: expected {self.n} cells, got {len(part)}")
                values.extend(float(v) for v in part)
        return LatticeElement(self.total_space(), tuple(values))

    def rows(self, f: LatticeElement) -> list[list[float]]:
        n = self.n
        return [list(f.values[i * n : (i + 1) * n]) for i in range(self.m)]

    def plus_values(self, f: LatticeElement) -> list[float]:
        if not self.has_orthogonal:
            return []
        return list(f.values[self.plus_offset : self.plus_offset + self.n])

    def minus_values(self, f: LatticeElement) -> list[float]:
        if not self.has_orthogonal:
            return []
        return list(f.values[self.minus_offset : self.minus_offset + self.n])

    def embed(self, g: LatticeElement) -> LatticeElement:
        """Lift a base element to the total space: fiber-constant, zero on +/-."""
        if g.space != self.base_space():
            raise SpaceMismatchError("element to embed must live on the base space")
        rows = [[v] * self.n for v in g.values]
        return self.element(rows)

    def is_embedded(self, f: LatticeElement, tol: float = TOL) -> bool:
        rows = self.rows(f)
        if any(abs(v - row[0]) > tol for row in rows for v in row):
            return False
        orth = self.plus_values(f) + self.minus_values(f)
        return all(abs(v) <= tol for v in orth)

    def base_substructure(self) -> SubStructure:
        """The fibers over the base, as blocks of the total space."""
        n = self.n
        return SubStructure(tuple(tuple(range(i * n, (i + 1) * n)) for i in range(self.m)))

    def cond_exp_base(self, f: LatticeElement) -> LatticeElement:
        """Conditional expectation onto the embedded base lattice, returned as
        a base-space element (per base atom, the mean of its fiber cells)."""
        if f.space != self.total_space():
            raise SpaceMismatchError("element must live on the total space of the pair")
        n = self.n
        means = tuple(math.fsum(row) / n for row in self.rows(f))
        return LatticeElement(self.base_space(), means)
