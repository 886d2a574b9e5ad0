"""[0,1]-valued random variables on finite probability spaces: conditional
moments and event canonical bases.

Both canonical bases are block-constant, so they are computed per block and
returned as a ``BlockTable``. ``cond_moments`` feeds the monomials to the
block kernel ``block_means`` one row at a time: each is built, reduced to its
block means and dropped before the next, so the kernel holds one row of
atoms, not one per key. Every exponent is checked before the first row is
built. ``apr_cb`` sums the weights per (block, event mask), an atom's mask
holding the events that contain it, and gets the mass of every meet by the
zeta transform over the subset lattice (Bjorklund, Husfeldt, Kaski and
Koivisto, "Fourier meets Mobius", STOC 2007). For k events on B blocks that
costs O(atoms + B * k * 2^k), against O(atoms * 2^k) for one conditional
expectation per meet.

Numpy is imported inside the functions that use it, never when this module
loads, so ``rv-cb`` and ``apr-cb`` load it only once every input is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InvariantError
from .measure_core import (
    BlockTable,
    LatticeElement,
    SubStructure,
    block_means,
    cond_exp,  # perfbench's tracer also patches it here
    same_space,
)
from .rules import MAX_KEYS, TOL, check_count, check_entries, integer

if TYPE_CHECKING:
    import numpy as np


def validate_rv(x: LatticeElement) -> None:
    """Every value of x lies in [0, 1]; the error begins with the index of
    the first atom outside, as a relative pointer into x."""
    import numpy as np
    bad = np.flatnonzero((x.array < -TOL) | (x.array > 1.0 + TOL))
    if len(bad):
        i = bad[0]
        raise InvariantError(f"{i}: random-variable value {x.array[i]} outside [0, 1]")


def _monomials(xs: Sequence[LatticeElement], kss: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """The products prod_i X_i^{k_i}, one row per exponent tuple, each
    multiplied in variable order and built only when the one before it has
    been taken. Every exponent is checked before the first row is built;
    exponent i of tuple r is named ``exponents/r/i``."""
    space = same_space(xs, "variables")
    checked = []
    for r, ks in enumerate(kss):
        if len(xs) != len(ks):
            raise InvariantError("exponent tuple length must match the variable tuple")
        checked.append([integer(k, f"exponents/{r}/{i}", 0) for i, k in enumerate(ks)])
    return _rows(xs, checked, len(space))


def _rows(xs: Sequence[LatticeElement], kss: list[list[int]], atoms: int) -> Iterator[np.ndarray]:
    """``_monomials`` for exponent tuples already checked."""
    import numpy as np
    for ks in kss:
        row = np.ones(atoms)
        for x, k in zip(xs, ks):
            if k:  # X_i^0 is all ones, and a row times 1.0 is the row
                row *= x.array**k
        yield row


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


# no CLI call runs this; it stays because perfbench's tracer patches it here
def cond_moment(
    xs: Sequence[LatticeElement], ks: Sequence[int], s: SubStructure
) -> LatticeElement:
    """E[prod X_i^{k_i} | blocks]; values stay within [0, 1]."""
    return cond_moments(xs, [ks], s)[tuple(ks)]


def apr_cb(events: Sequence[LatticeElement], s: SubStructure) -> BlockTable:
    """Conditional probabilities of all nonempty intersections of the events,
    indexed by the subset of event indices. Errors name the offending entry
    as a pointer relative to the argument (``events/1/4: ...``); more than
    ``MAX_ENTRIES`` entries (2^k - 1 meets times the atoms), or more than
    ``MAX_KEYS`` meets, is an error naming ``events``."""
    import numpy as np
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
