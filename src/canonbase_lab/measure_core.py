"""Finite measure spaces, lattice elements with L_p structure, and conditional expectation.

Elements are real-valued functions on the atoms of a finite measure space.
This module decides how they are stored, how input becomes real numbers and
how the cells of a fibered pair are laid out, and it holds every per-atom
loop, each written as an array expression.

Per-atom data is stored only in arrays marked read-only at construction: an
element's values and a space's weights in float64, a substructure's atoms in
intp. No class keeps a tuple or list copy of them beside the array. So every
value here is immutable, every operation is a pure function, and concurrent
use from multiple threads needs no coordination.
Input is coerced to finite reals once, at construction; the ``InvariantError``
for a bad entry names the argument and the entry as a relative pointer
(``rows/1/3: ...``). Each kind of check has one rule:
``rules.integer`` (cell counts, moment orders, atom indices, a prime, an
arity), ``check_p`` (1 <= p < inf, so ``lp_norm`` is never the sup norm),
``rules.check_entries`` (at most ``MAX_ENTRIES`` entries, rows times atoms,
checked before anything is allocated; ``check_count`` applies another cap
such as ``MAX_KEYS``), ``same_space`` (elements combined live on one space)
and ``ExtensionPair.require`` (an element of a pair's total space, whose cell
order ``ExtensionPair.fibers`` defines). The scalar rules live in ``rules``,
which loads no numpy; this module holds their array work.

Values that are constant on the blocks of a substructure (conditional
expectations and moments, conditional probabilities of events) are computed
by one kernel, ``block_means``, as one number per block, and are carried as a
``BlockTable``: per row the block values, and per atom its block.

Tolerance policy: every verdict on computed floats in this package uses one
rule, ``rules.close``, on floats, sequences and arrays alike. Data a and b
agree when |a - b| <= TOL * s at every entry, where s is the larger sup norm
of a and b. The bound is relative, so scaling both sides by c > 0 keeps the
verdict, as it must, since types over a base do not depend on units; data
that are both zero agree. The two functions that take a ``tol``
(``LatticeElement.approx_equal`` and ``orthogonal``) give it this meaning, and
``tol=0.0`` asks for exact equality. Where the two sides can cancel to about 0
while their terms do not (a value against its expected value, a point against
a breakpoint), the size of the terms goes to ``close`` as one more entry on
both sides, so rounding noise is judged on that size. Where values are sorted
or grouped before a comparison, ``sort_order`` and ``group`` take TOL times the
joint sup norm as the rounding quantum of the sort key and as the gap within
which sorted neighbours join one group, so no rounding boundary splits equal
values. A check against the range [0, 1] uses TOL as an absolute margin, since
the range fixes the scale. The Krivine cone engine's membership slack and structural
check are guards of its own fit, not verdicts on data, and keep their own
constants.
"""

from __future__ import annotations

import math
from contextlib import suppress
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantError, SpaceMismatchError
from .records import Record
from .rules import TOL, check_entries, close, integer


def sort_order(vectors: np.ndarray, quantum: float) -> np.ndarray:
    """Indices sorting ``vectors`` along the second-to-last axis by the
    coordinates on the last, lexicographically; each coordinate but the last is
    rounded to a multiple of ``quantum``, so its noise cannot override the next."""
    coords = np.moveaxis(vectors, -1, 0)
    return np.lexsort([coords[-1], *np.round(coords[-2::-1] / quantum)])  # last key first


def group(vectors: np.ndarray, quantum: float) -> tuple[np.ndarray, np.ndarray]:
    """Group labels of the rows of the (r, d) array ``vectors``, numbered in
    ``sort_order``, where a row within ``quantum`` of the one before it in every
    coordinate joins its group; and the first row of each group."""
    order = sort_order(vectors, quantum)
    starts = np.ones(len(order), bool)
    starts[1:] = np.any(np.abs(np.diff(vectors[order], axis=0)) > quantum, axis=1)
    labels = np.empty(len(order), np.intp)
    labels[order] = np.cumsum(starts) - 1
    return labels, order[starts]


def reals(values, name: str) -> np.ndarray:
    """A fresh float64 array of ``values``; every entry must be a finite real."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"{name}: expected real numbers ({exc})") from None
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        pos = "".join(f"/{k}" for k in bad)
        raise InvariantError(f"{name}{pos}: must be finite, got {float(arr[tuple(bad)])}")
    return arr


def _weights(values, name: str) -> np.ndarray:
    """``reals`` for atom weights: one or more, each strictly positive."""
    arr = reals(values, name)
    if arr.ndim != 1 or len(arr) < 1:
        raise InvariantError(f"{name}: a measure space needs at least one atom")
    bad = np.flatnonzero(arr <= 0.0)
    if len(bad):
        raise InvariantError(f"{name}/{bad[0]}: must be positive, got {float(arr[bad[0]])}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class MeasureSpace(Record):
    """Atoms indexed 0..len-1, each carrying a strictly positive finite weight.

    ``weight_array``, the read-only float64 array of the weights, is the
    storage.
    """

    __slots__ = ("weight_array",)

    def __init__(self, weights):
        super().__init__(_frozen(_weights(weights, "weights")))

    def __len__(self) -> int:
        return len(self.weight_array)

    @property
    def total_mass(self) -> float:
        return float(self.weight_array.sum())


class LatticeElement(Record):
    """One real value per atom of its measure space.

    ``array`` is the read-only float64 array of the values. Equality compares
    the space and the values.
    """

    __slots__ = ("space", "array")

    def __init__(self, space: MeasureSpace, values):
        arr = reals(values, "values")
        if arr.shape != (len(space),):
            raise InvariantError(
                f"values: element has shape {arr.shape} but the space has {len(space)} atoms"
            )
        super().__init__(space, _frozen(arr))

    # -- convenience arithmetic (pointwise, same space) -------------------

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        same_space((self, other), "operands")
        return LatticeElement(self.space, self.array + other.array)

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        same_space((self, other), "operands")
        return LatticeElement(self.space, self.array - other.array)

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.space, -self.array)

    def __abs__(self) -> "LatticeElement":
        return LatticeElement(self.space, np.abs(self.array))

    def __mul__(self, c) -> "LatticeElement":
        """A scalar multiple, or the pointwise product with another element."""
        if isinstance(c, LatticeElement):
            same_space((self, c), "operands")
            return LatticeElement(self.space, self.array * c.array)
        return LatticeElement(self.space, float(c) * self.array)

    __rmul__ = __mul__

    def approx_equal(self, other: "LatticeElement", tol: float = TOL) -> bool:
        return self.space == other.space and close(self.array, other.array, tol)

    @classmethod
    def zero(cls, space: MeasureSpace) -> "LatticeElement":
        return cls(space, np.zeros(len(space)))

    @classmethod
    def constant(cls, space: MeasureSpace, c: float) -> "LatticeElement":
        return cls(space, np.full(len(space), float(c)))


def same_space(elements: Sequence[LatticeElement], name: str) -> MeasureSpace:
    """The one space of ``elements``: ``InvariantError`` if there are none,
    else ``SpaceMismatchError`` naming ``{name}/{j}`` for the first element j
    on another space than ``{name}/0``."""
    if not elements:
        raise InvariantError(f"{name}: need at least one element")
    space = elements[0].space
    for j, e in enumerate(elements):
        if e.space != space:
            raise SpaceMismatchError(f"{name}/{j}: lives on another space than {name}/0")
    return space


# ---------------------------------------------------------------------------
# Vector-lattice operations
# ---------------------------------------------------------------------------

def join(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    same_space((f, g), "operands")
    return LatticeElement(f.space, np.maximum(f.array, g.array))


def meet(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    same_space((f, g), "operands")
    return LatticeElement(f.space, np.minimum(f.array, g.array))


def dotminus(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Truncated subtraction, (a - b) v 0, per atom."""
    same_space((f, g), "operands")
    return LatticeElement(f.space, np.maximum(f.array - g.array, 0.0))


def pos_part(f: LatticeElement) -> LatticeElement:
    return LatticeElement(f.space, np.maximum(f.array, 0.0))


def neg_part(f: LatticeElement) -> LatticeElement:
    return LatticeElement(f.space, np.maximum(-f.array, 0.0))


def signed_power(x, alpha: float):
    """x**alpha extended to negative x by odd reflection, so (-7)**2 -> -49.

    ``x`` is a float, or an element, which is raised atom by atom.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise InvariantError(f"signed_power needs a positive exponent, got {alpha}")
    if isinstance(x, LatticeElement):
        mag = np.abs(x.array) ** alpha
        return LatticeElement(x.space, np.where(x.array >= 0.0, mag, -mag))
    x = float(x)
    if x >= 0.0:
        return x ** alpha
    return -((-x) ** alpha)


# ---------------------------------------------------------------------------
# Norms, integrals and distance
# ---------------------------------------------------------------------------

def check_p(p: float) -> float:
    """``p`` as a float, which must be an L_p exponent: 1 <= p < inf."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise InvariantError(f"L_p exponent must be finite and satisfy p >= 1, got {p}")
    return p


def lp_norm(f: LatticeElement, p: float) -> float:
    """Weighted L_p norm (sum_i w_i |v_i|^p)^(1/p); requires 1 <= p < inf."""
    p = check_p(p)
    return float(np.sum(f.space.weight_array * np.abs(f.array) ** p)) ** (1.0 / p)


def integral(f: LatticeElement) -> float:
    """The weighted sum sum_i w_i v_i."""
    return float(np.sum(f.space.weight_array * f.array))


def distance(f: LatticeElement, g: LatticeElement, p: float) -> float:
    """The lattice-structure metric d(f, g) = || (f - g)/2 ||_p."""
    return lp_norm((f - g) * 0.5, p)


# ---------------------------------------------------------------------------
# Sub-structures, conditional expectation, band decomposition
# ---------------------------------------------------------------------------

class SubStructure(Record):
    """A partition of a subset of atom indices into nonempty blocks.

    The blocks generate the conditioning algebra; atoms outside the support
    are invisible to it. The storage is two read-only intp arrays: ``_atoms``
    holds the atoms block after block, sorted within each block, and block k
    is ``_atoms[_offsets[k]:_offsets[k + 1]]``. ``blocks`` is the same data as
    sorted tuples, built on each read; ``len`` is the number of blocks.
    """

    __slots__ = ("_atoms", "_offsets")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        try:
            blocks = tuple(blocks)
            types = set(map(type, chain.from_iterable(blocks)))
            lengths = np.fromiter(map(len, blocks), np.intp, len(blocks))
        except TypeError as exc:
            raise InvariantError(f"blocks: expected lists of atom indices ({exc})") from None
        atoms = None
        if types <= {int}:  # plain nonnegative ints skip the per-atom call of the integer rule
            with suppress(OverflowError):
                atoms = np.fromiter(chain.from_iterable(blocks), np.intp)
        if atoms is None or (atoms < 0).any():
            blocks = [[integer(i, f"blocks/{k}/{j}", 0) for j, i in enumerate(b)]
                      for k, b in enumerate(blocks)]
            atoms = None
        if not lengths.all():
            raise InvariantError(f"blocks/{lengths.argmin()}: must be nonempty")
        try:
            atoms = np.fromiter(chain.from_iterable(blocks), np.intp) if atoms is None else atoms
        except OverflowError as exc:
            raise InvariantError(f"blocks: atom index out of range ({exc})") from None
        ordered = np.sort(atoms)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise InvariantError(f"blocks: atom {repeated[0]} appears more than once")
        ids = np.repeat(np.arange(len(lengths)), lengths)
        if (np.diff(atoms)[np.diff(ids) == 0] < 0).any():  # a block out of order
            ranks = np.empty_like(atoms)  # the atoms are distinct, so (block, rank) sorts them
            ranks[np.argsort(atoms)] = np.arange(len(atoms))
            atoms = atoms[np.argsort(ids * len(atoms) + ranks)]
        super().__init__(_frozen(atoms), _frozen(np.append(0, np.cumsum(lengths))))

    @classmethod
    def _of(cls, atoms: np.ndarray, offsets: np.ndarray) -> "SubStructure":
        """Blocks ``atoms[offsets[k]:offsets[k + 1]]`` of two intp arrays, taken as nonempty,
        disjoint and sorted."""
        s = object.__new__(cls)
        Record.__init__(s, _frozen(atoms), _frozen(offsets))
        return s

    def __reduce__(self):
        return (SubStructure._of, self._key())

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b.tolist()) for b in np.split(self._atoms, self._offsets[1:])[:-1])

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._atoms.tolist())

    def validate_for(self, space: MeasureSpace) -> None:
        n = len(space)
        over = np.flatnonzero(self._atoms >= n)
        if len(over):
            k, atom = np.searchsorted(self._offsets, over[0], "right") - 1, self._atoms[over[0]]
            raise InvariantError(f"blocks/{k}: references atom {atom} but the space has {n} atoms")

    def _labels(self, space: MeasureSpace) -> np.ndarray:
        """Per atom, the index of its block; len(self) off the support."""
        self.validate_for(space)
        labels = np.full(len(space), len(self), np.intp)
        labels[self._atoms] = np.repeat(np.arange(len(self)), np.diff(self._offsets))
        return labels

    def partition(self, space: MeasureSpace) -> tuple[np.ndarray, np.ndarray]:
        """Per atom, the index of its block (len(self) off the support); and
        per block, its mass, summed in atom-index order."""
        labels = self._labels(space)
        return labels, _block_sums(space.weight_array, labels, len(self))

    @classmethod
    def single_block(cls, indices: Iterable[int]) -> "SubStructure":
        return cls((tuple(indices),))

    @classmethod
    def discrete(cls, n: int) -> "SubStructure":
        atoms = np.arange(len(range(n)))  # no atoms for n <= 0, as range(n)
        return cls._of(atoms, np.append(atoms, len(atoms)))


def _block_sums(x: np.ndarray, labels: np.ndarray, blocks: int) -> np.ndarray:
    """Per block, the sum of x over its atoms, added in atom-index order."""
    return np.bincount(labels, x, blocks + 1)[:blocks]


def block_means(rows: np.ndarray, s: SubStructure, space: MeasureSpace) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel: for the (r, atoms) array ``rows`` of values on
    ``space``, the (r, blocks + 1) table whose row holds the weighted mean of
    its values over each block of s, then 0.0 for the atoms off the support;
    and the atoms' block labels, which index its columns. Both sums of a mean
    run in atom-index order."""
    labels, masses = s.partition(space)
    w = space.weight_array
    table = np.zeros((len(rows), len(masses) + 1))
    for out, x in zip(table, rows):
        out[:-1] = _block_sums(w * x, labels, len(masses)) / masses
    return table, labels


class BlockTable(Mapping):
    """Block-constant elements of one space, one per key, each built only
    when it is read.

    ``table`` is the read-only, C-ordered float64 (len(keys), blocks + 1)
    array of their values, one row per key in key order and one column per
    block, the last for the atoms off the support; ``labels`` gives each atom
    its column, so the element under the r-th key takes the value
    ``table[r, labels[i]]`` at atom i. Keys iterate in row order.
    """

    __slots__ = ("space", "table", "labels", "_rows")

    def __init__(self, space: MeasureSpace, keys: Iterable, table: np.ndarray, labels: np.ndarray):
        self.space, self.table, self.labels = space, _frozen(table), labels
        self._rows = {key: r for r, key in enumerate(keys)}

    def __getitem__(self, key) -> LatticeElement:
        return LatticeElement(self.space, self.table[self._rows[key]][self.labels])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def cond_exp(f: LatticeElement, s: SubStructure) -> LatticeElement:
    """Block-averaging conditional expectation; zero off the support.

    On each block the result is the weighted mean of f, so the integral of
    the result over any block equals the integral of f there. This is the
    one-row case of ``block_means``.
    """
    table, labels = block_means(f.array[None], s, f.space)
    return LatticeElement(f.space, table[0][labels])


def band_decompose(f: LatticeElement, s: SubStructure) -> tuple[LatticeElement, LatticeElement]:
    """Split f into its part over the support and the orthogonal remainder."""
    inside = s._labels(f.space) < len(s)
    return (
        LatticeElement(f.space, np.where(inside, f.array, 0.0)),
        LatticeElement(f.space, np.where(inside, 0.0, f.array)),
    )


def orthogonal(f: LatticeElement, g: LatticeElement, tol: float = TOL) -> bool:
    """True iff |f| ^ |g| is the zero element, tested as |f + g| = |f - g|."""
    same_space((f, g), "operands")
    return close(np.abs(f.array + g.array), np.abs(f.array - g.array), tol)


# ---------------------------------------------------------------------------
# The discretized fibered extension E <= E'
# ---------------------------------------------------------------------------

class ExtensionPair(Record):
    """The base space with each atom split into equal fiber cells, plus an
    optional orthogonal part made of two extra unit-mass fibers ("plus" and
    "minus"). The cell order of the total space is defined on ``fibers``.
    The embedded copy of the base lattice consists of exactly the elements
    that are constant along each base fiber and zero on the plus/minus part.
    The base and total spaces are built once, with the pair, and are its
    storage.
    """

    __slots__ = ("fiber_cells", "has_orthogonal", "_base", "_total", "_orth")

    def __init__(self, base_weights, fiber_cells: int, has_orthogonal: bool = False):
        base = MeasureSpace(_weights(base_weights, "base_weights"))
        n = integer(fiber_cells, "fiber_cells", 1)
        has_orth = bool(has_orthogonal)
        check_entries(len(base) + 2 * has_orth, n, "fiber_cells")
        cells = np.repeat(base.weight_array / n, n)
        if has_orth:
            cells = np.append(cells, np.full(2 * n, 1.0 / n))
        orth = MeasureSpace(np.full(2 * n, 1.0 / n)) if has_orth else None
        super().__init__(n, has_orth, base, MeasureSpace(cells), orth)

    def _key(self) -> tuple:
        return (self._base.weight_array, self.fiber_cells, self.has_orthogonal)

    # -- geometry ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._base)

    @property
    def n(self) -> int:
        return self.fiber_cells

    def base_space(self) -> MeasureSpace:
        return self._base

    def total_space(self) -> MeasureSpace:
        return self._total

    # -- element plumbing ----------------------------------------------------

    def element(
        self,
        rows: Sequence[Sequence[float]],
        plus: Sequence[float] | None = None,
        minus: Sequence[float] | None = None,
    ) -> LatticeElement:
        grid = reals(rows, "rows")
        if grid.shape != (self.m, self.n):
            raise InvariantError(
                f"rows: expected {self.m} fiber rows of {self.n} cells, got shape {grid.shape}"
            )
        parts = [grid.ravel()]
        for name, part in (("plus", plus), ("minus", minus)):
            cells = np.zeros(self.n) if part is None else reals(part, name)
            if not self.has_orthogonal:
                if np.any(cells != 0.0):
                    raise InvariantError(f"{name}: fiber given but the pair has no orthogonal part")
                continue
            if cells.shape != (self.n,):
                raise InvariantError(f"{name}: expected {self.n} cells, got shape {cells.shape}")
            parts.append(cells)
        return LatticeElement(self.total_space(), np.concatenate(parts))

    def require(self, f: LatticeElement) -> None:
        """Raise ``SpaceMismatchError`` unless f lives on the total space."""
        if f.space != self._total:
            raise SpaceMismatchError("element must live on the total space of the pair")

    def fibers(self, f: LatticeElement) -> np.ndarray:
        """The base fibers of f as a read-only (m, n) view: row i holds the
        cells over base atom i.

        This is the one place the cell order of the total space is defined:
        base atom i occupies cells i*n .. i*n+n-1, followed (when present) by
        the n cells of the plus fiber and then the n cells of the minus fiber,
        which ``orthogonal_part`` returns.
        """
        self.require(f)
        return f.array[: self.m * self.n].reshape(self.m, self.n)

    def orthogonal_part(self, f: LatticeElement) -> LatticeElement | None:
        """The plus cells then the minus cells of f, as an element of the
        2n-cell space with cell weight 1/n; None when the pair has no
        orthogonal part."""
        self.require(f)
        if self._orth is None:
            return None
        return LatticeElement(self._orth, f.array[self.m * self.n :])

    def embed(self, g: LatticeElement) -> LatticeElement:
        """Lift a base element to the total space: fiber-constant, zero on +/-."""
        if g.space != self.base_space():
            raise SpaceMismatchError("element to embed must live on the base space")
        return self.element(np.repeat(g.array[:, None], self.n, axis=1))

    def is_embedded(self, f: LatticeElement) -> bool:
        """True iff f is close to the lift of its first fiber cells."""
        lift = self.element(np.repeat(self.fibers(f)[:, :1], self.n, axis=1))
        return close(f.array, lift.array)

    def base_substructure(self) -> SubStructure:
        """The fibers over the base, as blocks of the total space."""
        return SubStructure._of(np.arange(self.m * self.n), np.arange(self.m + 1) * self.n)

    def cond_exp_base(self, f: LatticeElement) -> LatticeElement:
        """Conditional expectation onto the embedded base lattice, returned as
        a base-space element (per base atom, the correctly rounded mean of its
        fiber cells)."""
        n = self.n
        return LatticeElement(self._base, [math.fsum(row) / n for row in self.fibers(f).tolist()])

