"""Orthogonal projections and Gram data for inner-product spaces.

The projection of a tuple alone does not pin down squared norms of linear
combinations; adding the Gram matrix does, which is what the quadratic
expansion identity in the tests exercises.

Projection is one product with the basis matrix B, V @ B.T @ B, and every
entry point reads its vectors through ``_vectors``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvariantError
from .records import Record
from .rules import check_entries, close, integer, real_array


def _vectors(values, dim: int, name: str) -> np.ndarray:
    """``values`` as a (k, dim) array of finite reals; an empty list is k = 0."""
    cells, shape = real_array(values, name)
    mat = np.frombuffer(cells, dtype=np.float64).reshape(shape)
    if mat.size == 0 and mat.ndim == 1:
        mat = mat.reshape(0, dim)
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise InvariantError(f"{name}: expected a list of {dim}-vectors, got shape {mat.shape}")
    return mat


class Subspace(Record):
    """A subspace of R^dim given by an orthonormal basis (possibly empty).
    Both arguments are coerced once, here; bad input raises ``InvariantError``
    naming ``dim`` or ``basis``. ``basis_array`` is the read-only (k, dim)
    float64 array of the basis vectors; the subspace compares, hashes, pickles
    and shows as ``dim`` and the basis vectors as tuples."""

    __slots__ = ("dim", "basis_array")

    def __init__(self, dim: int, basis):
        dim = integer(dim, "dim", 0)
        check_entries(1, dim, "dim")  # one vector of R^dim
        mat = _vectors(basis, dim, "basis")
        if not close(mat @ mat.T, np.eye(len(mat))):
            raise InvariantError("basis: not orthonormal")
        mat.flags.writeable = False
        super().__init__(dim, mat)

    def _key(self) -> tuple:
        return (self.dim, tuple(map(tuple, self.basis_array.tolist())))


def _project(mat: np.ndarray, sub: Subspace) -> np.ndarray:
    """The orthogonal projections of the rows of ``mat`` onto the subspace."""
    return mat @ sub.basis_array.T @ sub.basis_array


class HilbertBase(Record, eq=False):
    """The projections, one row per vector, and the Gram matrix, as read-only
    float64 arrays."""

    __slots__ = ("projections", "gram")


def hs_cb(vs: Sequence[Sequence[float]], sub: Subspace) -> HilbertBase:
    """The tuple of projections together with the full Gram matrix; ``vs``
    must be finite ``sub.dim``-vectors, and the Gram matrix within the size
    rule (``InvariantError`` naming ``vectors``)."""
    mat = _vectors(vs, sub.dim, "vectors")
    check_entries(len(mat), len(mat), "vectors")
    projections, gram = _project(mat, sub), mat @ mat.T
    projections.flags.writeable = gram.flags.writeable = False
    return HilbertBase(projections, gram)
