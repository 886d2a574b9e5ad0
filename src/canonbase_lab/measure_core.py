"""Finite measure spaces, lattice elements with L_p structure, and conditional expectation.

Elements are real-valued functions on the atoms of a finite measure space.
This module decides how they are stored, how input becomes real numbers and
how the cells of a fibered pair are laid out, and it holds the per-atom
loops of the element algebra; ``lp_canon``'s slice kernel and ``oracle``'s
type checks keep their own, on the same buffers.

Per-atom data is stored once, in a float64 ``array('d')`` of the standard
library behind a read-only ``memoryview``: an element's ``values`` and a
space's ``weights``. No class keeps a second copy of them. The element
operations, ``lp_norm`` and ``integral`` (summed with ``math.fsum``), the
pair's fibers, ``sort_order`` and ``group`` work on these buffers, so the
calls that run only them (``lp-cb``, ``typeq`` and the demos) never load
numpy. A substructure's atoms and block offsets are stored the same way, in
C longs (``array('l')``), and are checked without numpy, so ``rv-cb`` and
``apr-cb`` check every input before they load it. ``array`` and
``weight_array`` are zero-copy read-only numpy views of the float buffers,
built when read, and ``np.frombuffer`` gives such views of the
substructure's; only the bulk kernels read them: ``SubStructure.partition``,
the block kernel ``block_means`` and ``cond_exp`` here, which import numpy
inside their functions, and the kernels of ``rv_canon`` and
``hilbert_canon``. So every value here is immutable, every operation is a
pure function, and concurrent use from multiple threads needs no
coordination.
Input is coerced to finite reals once, at construction, by ``rules.real_array``;
the ``InvariantError`` for a bad entry names the argument and the entry as a
relative pointer (``rows/1/3: ...``). Each kind of check has one rule:
``rules.integer`` (cell counts, moment orders, atom indices, a prime, an
arity), ``check_p`` (1 <= p < inf, so ``lp_norm`` is never the sup norm),
``rules.check_entries`` (at most ``MAX_ENTRIES`` entries, rows times atoms,
checked before anything is allocated; ``check_count`` applies another cap
such as ``MAX_KEYS``), ``same_space`` (elements combined live on one space)
and ``ExtensionPair.require`` (an element of a pair's total space, whose cell
order ``ExtensionPair.fibers`` defines). The scalar rules live in ``rules``.

Values that are constant on the blocks of a substructure (conditional
expectations and moments, conditional probabilities of events) are computed
by one kernel, ``block_means``, as one number per block, and are carried as a
plain ``BlockTable``: per key the block values, and per atom its block.

Tolerance policy: every verdict on computed floats in this package uses one
rule, ``rules.close``, on floats, sequences and arrays alike. Data a and b
agree when |a - b| <= TOL * s at every entry, where s is the larger sup norm
of a and b. The bound is relative, so scaling both sides by c > 0 keeps the
verdict, as it must, since types over a base do not depend on units; data
that are both zero agree. ``LatticeElement.approx_equal`` takes a ``tol`` with
this meaning, and ``tol=0.0`` asks for exact equality. Where the two sides can
cancel to about 0 while their terms do not (a value against its expected
value, a point against a breakpoint), the size of the terms goes to ``close``
as one more entry on both sides, so rounding noise is judged on that size.
Where values are sorted or grouped before a comparison, ``sort_order`` and
``group`` take TOL times the joint sup norm as the rounding quantum of the
sort key and as the gap within which sorted neighbours join one group, so no
rounding boundary splits equal values. A check against the range [0, 1] uses
TOL as an absolute margin, since the range fixes the scale. The Krivine cone
engine's membership slack and structural check are guards of its own fit, not
verdicts on data, and keep their own constants.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from contextlib import suppress
from itertools import accumulate, chain, compress, repeat
from operator import add, gt, mul, neg, or_, sub
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvariantError, SpaceMismatchError
from .records import Record
from .rules import TOL, check_entries, close, integer, real_array

if TYPE_CHECKING:
    import numpy as np


def sort_order(columns: Sequence[Sequence[float]], quantum: float) -> list[int]:
    """Indices sorting the vectors whose coordinates are the ``columns``
    lexicographically, stably; each coordinate but the last is rounded to a
    multiple of ``quantum``, so its noise cannot override the next. As numpy's
    ``lexsort`` does: one stable sort per coordinate, the last one first."""
    *rounded, last = columns
    order = sorted(range(len(last)), key=last.__getitem__)
    for column in reversed(rounded):
        keys = [round(x / quantum) for x in column]
        order.sort(key=keys.__getitem__)
    return order


def group(columns: Sequence[Sequence[float]], quantum: float) -> tuple[list[int], list[int]]:
    """Group labels of the vectors whose coordinates are the ``columns``,
    numbered in ``sort_order``, where a vector within ``quantum`` of the one
    before it in every coordinate joins its group; and the index of the first
    vector of each group."""
    order = sort_order(columns, quantum)
    starts = [not k for k in range(len(order))]  # the first vector starts a group
    for column in columns:
        ordered = list(map(column.__getitem__, order))
        apart = map(gt, map(abs, map(sub, ordered[1:], ordered[:-1])), repeat(quantum))
        starts[1:] = map(or_, starts[1:], apart)
    labels = [0] * len(order)
    for i, count in zip(order, accumulate(starts)):
        labels[i] = count - 1
    return labels, list(compress(order, starts))


def _stored(cells: array) -> memoryview:
    """The read-only view that stores ``cells``, an array that no one else
    holds."""
    return memoryview(cells).toreadonly()


def _numpy_view(buffer: memoryview) -> np.ndarray:
    """The read-only float64 ndarray over ``buffer``, sharing its memory."""
    import numpy as np
    return np.frombuffer(buffer, dtype=np.float64)


def _weights(values, name: str) -> array:
    """``rules.real_array`` for atom weights: one or more, each strictly positive."""
    cells, shape = real_array(values, name)
    if len(shape) != 1 or not cells:
        raise InvariantError(f"{name}: a measure space needs at least one atom")
    if min(cells) <= 0.0:
        i = next(i for i, w in enumerate(cells) if w <= 0.0)
        raise InvariantError(f"{name}/{i}: must be positive, got {cells[i]}")
    return cells


class MeasureSpace(Record):
    """Atoms indexed 0..len-1, each carrying a strictly positive finite weight.

    ``weights``, the read-only float64 buffer of the weights, is the storage;
    ``weight_array`` is a numpy view of it.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        super().__init__(_stored(_weights(weights, "weights")))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def weight_array(self) -> np.ndarray:
        return _numpy_view(self.weights)


class LatticeElement(Record):
    """One real value per atom of its measure space.

    ``values`` is the read-only float64 buffer of the values, and ``array`` a
    numpy view of it. Equality compares the space and the values.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values):
        cells, shape = real_array(values, "values")
        if shape != (len(space),):
            raise InvariantError(f"values: element has shape {shape} but the space has {len(space)} atoms")
        super().__init__(space, _stored(cells))

    @property
    def array(self) -> np.ndarray:
        return _numpy_view(self.values)

    # -- convenience arithmetic (pointwise, same space) -------------------

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        same_space((self, other), "operands")
        return LatticeElement(self.space, array("d", map(add, self.values, other.values)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        same_space((self, other), "operands")
        return LatticeElement(self.space, array("d", map(sub, self.values, other.values)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.space, array("d", map(neg, self.values)))

    def __abs__(self) -> "LatticeElement":
        return LatticeElement(self.space, array("d", map(abs, self.values)))

    def __mul__(self, c) -> "LatticeElement":
        """A scalar multiple, or the pointwise product with another element."""
        if isinstance(c, LatticeElement):
            same_space((self, c), "operands")
            return LatticeElement(self.space, array("d", map(mul, self.values, c.values)))
        return LatticeElement(self.space, array("d", map(mul, repeat(float(c)), self.values)))

    __rmul__ = __mul__

    def approx_equal(self, other: "LatticeElement", tol: float = TOL) -> bool:
        return self.space == other.space and close(self.values, other.values, tol)


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
# Vector-lattice operations; like numpy's maximum and minimum, each keeps its
# second operand on a tie, so 0.0 v -0.0 is -0.0 and (-0.0)+ is 0.0
# ---------------------------------------------------------------------------

def join(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    same_space((f, g), "operands")
    return LatticeElement(f.space, array("d", map(max, g.values, f.values)))


def meet(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    same_space((f, g), "operands")
    return LatticeElement(f.space, array("d", map(min, g.values, f.values)))


def pos_part(f: LatticeElement) -> LatticeElement:
    return LatticeElement(f.space, array("d", map(max, repeat(0.0), f.values)))




# ---------------------------------------------------------------------------
# Norms and integrals
# ---------------------------------------------------------------------------

def check_p(p: float) -> float:
    """``p`` as a float, which must be an L_p exponent: 1 <= p < inf."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise InvariantError(f"L_p exponent must be finite and satisfy p >= 1, got {p}")
    return p


def power(x: float, p: float) -> float:
    """x ** p for x >= 0, or inf where that overflows, as numpy gives it."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def nonnegative_sum(terms: Iterable[float]) -> float:
    """The correctly rounded sum of nonnegative ``terms``, or inf where a term
    or the sum overflows, as numpy gives it."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def lp_norm(f: LatticeElement, p: float) -> float:
    """Weighted L_p norm (sum_i w_i |v_i|^p)^(1/p), the sum correctly
    rounded; requires 1 <= p < inf."""
    p = check_p(p)
    return nonnegative_sum(map(mul, f.space.weights, map(pow, map(abs, f.values), repeat(p)))) ** (1.0 / p)


def integral(f: LatticeElement) -> float:
    """The weighted sum sum_i w_i v_i, correctly rounded."""
    return math.fsum(map(mul, f.space.weights, f.values))


# ---------------------------------------------------------------------------
# Sub-structures and conditional expectation: the bulk kernels, on numpy
# ---------------------------------------------------------------------------

class SubStructure(Record):
    """A partition of a subset of atom indices into nonempty blocks.

    The blocks generate the conditioning algebra; atoms outside the support
    are invisible to it. The storage is two read-only buffers of C longs
    (``array('l')``, whose overflow error is the one numpy's intp gave):
    ``_atoms`` holds the atoms block after block, each block in the order
    given, and block k is ``_atoms[_offsets[k]:_offsets[k + 1]]``. They are
    built and checked without numpy, so a call loads numpy only after its
    inputs are read; the bulk kernels read them through ``np.frombuffer``.
    ``blocks`` is the same data as tuples, each block sorted, built on each
    read; the substructure compares, hashes, pickles and shows as ``blocks``,
    so the order of the atoms within a block does not matter. ``len`` is the
    number of blocks.
    """

    __slots__ = ("_atoms", "_offsets")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        try:
            blocks = tuple(blocks)
            types = set(map(type, chain.from_iterable(blocks)))
            lengths = list(map(len, blocks))
        except TypeError as exc:
            raise InvariantError(f"blocks: expected lists of atom indices ({exc})") from None
        atoms = None
        if types <= {int}:  # plain nonnegative ints skip the per-atom call of the integer rule
            with suppress(OverflowError):
                atoms = array("l", chain.from_iterable(blocks))
        if atoms is None or min(atoms, default=0) < 0:
            blocks = [[integer(i, f"blocks/{k}/{j}", 0) for j, i in enumerate(b)]
                      for k, b in enumerate(blocks)]
            atoms = None
        if 0 in lengths:
            raise InvariantError(f"blocks/{lengths.index(0)}: must be nonempty")
        try:
            atoms = array("l", chain.from_iterable(blocks)) if atoms is None else atoms
        except OverflowError as exc:
            raise InvariantError(f"blocks: atom index out of range ({exc})") from None
        if len(set(chain.from_iterable(blocks))) < len(atoms):
            ordered = sorted(atoms)
            repeated = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise InvariantError(f"blocks: atom {repeated} appears more than once")
        super().__init__(_stored(atoms), _stored(array("l", accumulate(lengths, initial=0))))

    def _key(self) -> tuple:
        return (self.blocks,)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        atoms, offsets = self._atoms, self._offsets
        return tuple(tuple(sorted(atoms[a:b])) for a, b in zip(offsets, offsets[1:]))

    def validate_for(self, space: MeasureSpace) -> None:
        """``InvariantError`` naming the first block that holds an atom the
        space lacks, and the smallest such atom of that block."""
        n = len(space)
        if max(self._atoms, default=-1) >= n:
            i = next(i for i, atom in enumerate(self._atoms) if atom >= n)
            k = bisect_right(self._offsets, i) - 1
            atom = min(a for a in self._atoms[self._offsets[k] : self._offsets[k + 1]] if a >= n)
            raise InvariantError(f"blocks/{k}: references atom {atom} but the space has {n} atoms")

    def _labels(self, space: MeasureSpace) -> np.ndarray:
        """Per atom, the index of its block; len(self) off the support."""
        import numpy as np
        atoms, offsets = np.frombuffer(self._atoms, "l"), np.frombuffer(self._offsets, "l")
        if atoms.max(initial=-1) >= len(space):
            self.validate_for(space)  # which names the block and the atom
        labels = np.full(len(space), len(self), np.intp)
        labels[atoms] = np.repeat(np.arange(len(self)), np.diff(offsets))
        return labels

    def partition(self, space: MeasureSpace) -> tuple[np.ndarray, np.ndarray]:
        """Per atom, the index of its block (len(self) off the support); and
        per block, its mass, summed in atom-index order."""
        labels = self._labels(space)
        return labels, _block_sums(space.weight_array, labels, len(self))


def _block_sums(x: np.ndarray, labels: np.ndarray, blocks: int) -> np.ndarray:
    """Per block, the sum of x over its atoms, added in atom-index order."""
    import numpy as np
    return np.bincount(labels, x, blocks + 1)[:blocks]


def block_means(rows: Iterable[np.ndarray], s: SubStructure, space: MeasureSpace) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel: for the value rows ``rows`` on ``space``, each taken,
    reduced and dropped before the next, the (r, blocks + 1) table whose row
    holds the weighted mean of its values over each block of s, then 0.0 for
    the atoms off the support; and the atoms' block labels, which index its
    columns. Both sums of a mean run in atom-index order."""
    import numpy as np
    labels, masses = s.partition(space)
    w = space.weight_array
    means = [_block_sums(w * x, labels, len(masses)) / masses for x in rows]
    table = np.zeros((len(means), len(masses) + 1))
    table[:, :-1] = np.reshape(means, (len(means), len(masses)))
    return table, labels


class BlockTable(Record, eq=False):
    """Block-constant values of one space: ``table`` is the read-only,
    C-ordered float64 (len(keys), blocks + 1) array with one row per key of
    ``keys`` and one column per block, the last for the atoms off the support;
    ``labels`` gives each atom its column, so the r-th key's value at atom i
    is ``table[r, labels[i]]``. ``len`` is the number of keys."""

    __slots__ = ("keys", "table", "labels")

    def __init__(self, keys: Iterable, table: np.ndarray, labels: np.ndarray):
        table.flags.writeable = False
        super().__init__(tuple(keys), table, labels)

    def __len__(self) -> int:
        return len(self.keys)


def cond_exp(f: LatticeElement, s: SubStructure) -> LatticeElement:
    """Block-averaging conditional expectation; zero off the support.

    On each block the result is the weighted mean of f, so the integral of
    the result over any block equals the integral of f there. This is the
    one-row case of ``block_means``.
    """
    table, labels = block_means([f.array], s, f.space)
    return LatticeElement(f.space, table[0][labels])


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
        base = MeasureSpace._unchecked(_stored(_weights(base_weights, "base_weights")))
        n = integer(fiber_cells, "fiber_cells", 1)
        has_orth = bool(has_orthogonal)
        check_entries(len(base) + 2 * has_orth, n, "fiber_cells")
        cells = array("d")
        for w in base.weights:
            cells += array("d", [w / n]) * n
        orth = array("d", [1.0 / n]) * (2 * n) if has_orth else None
        if has_orth:
            cells += orth
            orth = MeasureSpace._unchecked(_stored(orth))
        # a cell weight w/n is positive unless it underflows, which the check names
        total = MeasureSpace._unchecked(_stored(cells)) if min(base.weights) / n > 0.0 else MeasureSpace(cells)
        super().__init__(n, has_orth, base, total, orth)

    def _key(self) -> tuple:
        return (self._base.weights, self.fiber_cells, self.has_orthogonal)

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
        cells, shape = real_array(rows, "rows")
        if shape != (self.m, self.n):
            raise InvariantError(f"rows: expected {self.m} fiber rows of {self.n} cells, got shape {shape}")
        for name, part in (("plus", plus), ("minus", minus)):
            fiber, shape = (array("d", bytes(8 * self.n)), (self.n,)) if part is None else real_array(part, name)
            if not self.has_orthogonal:
                if any(fiber):
                    raise InvariantError(f"{name}: fiber given but the pair has no orthogonal part")
                continue
            if shape != (self.n,):
                raise InvariantError(f"{name}: expected {self.n} cells, got shape {shape}")
            cells += fiber
        return LatticeElement._unchecked(self.total_space(), _stored(cells))  # each part is checked

    def require(self, f: LatticeElement) -> None:
        """Raise ``SpaceMismatchError`` unless f lives on the total space."""
        if f.space != self._total:
            raise SpaceMismatchError("element must live on the total space of the pair")

    def fibers(self, f: LatticeElement) -> list[memoryview]:
        """The base fibers of f as m read-only float64 views of its buffer:
        row i holds the cells over base atom i.

        This is the one place the cell order of the total space is defined:
        base atom i occupies cells i*n .. i*n+n-1, followed (when present) by
        the n cells of the plus fiber and then the n cells of the minus fiber,
        which ``orthogonal_part`` returns.
        """
        self.require(f)
        n = self.n
        return [f.values[i * n : (i + 1) * n] for i in range(self.m)]

    def orthogonal_part(self, f: LatticeElement) -> LatticeElement | None:
        """The plus cells then the minus cells of f, as an element of the
        2n-cell space with cell weight 1/n; None when the pair has no
        orthogonal part."""
        self.require(f)
        if self._orth is None:
            return None
        return LatticeElement(self._orth, f.values[self.m * self.n :])

    def embed(self, g: LatticeElement) -> LatticeElement:
        """Lift a base element to the total space: fiber-constant, zero on +/-."""
        if g.space != self.base_space():
            raise SpaceMismatchError("element to embed must live on the base space")
        return self.element([[v] * self.n for v in g.values])

    def is_embedded(self, f: LatticeElement) -> bool:
        """True iff f is close to the lift of its first fiber cells."""
        lift = self.element([[row[0]] * self.n for row in self.fibers(f)])
        return close(f.values, lift.values)

    def base_substructure(self) -> SubStructure:
        """The fibers over the base, as blocks of the total space."""
        n = self.n
        return SubStructure(range(i * n, (i + 1) * n) for i in range(self.m))

    def cond_exp_base(self, f: LatticeElement) -> LatticeElement:
        """Conditional expectation onto the embedded base lattice, returned as
        a base-space element (per base atom, the correctly rounded mean of its
        fiber cells)."""
        n = self.n
        return LatticeElement(self._base, [math.fsum(row) / n for row in self.fibers(f)])
