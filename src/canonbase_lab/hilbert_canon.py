"""Orthogonal projections, Gram data, and the quadratic expansion identity
for inner-product spaces.

The projection of a tuple alone does not pin down squared norms of linear
combinations; adding the Gram matrix does, which is exactly what the
expansion identity exercises.

Projection is one product with the basis matrix B, V @ B.T @ B, and every
entry point reads its vectors through ``_vectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .measure_core import check_entries, close, integer, reals


def _vectors(values, dim: int, name: str) -> np.ndarray:
    """``values`` as a (k, dim) array of finite reals; an empty list is k = 0."""
    mat = reals(values, name)
    if mat.size == 0 and mat.ndim == 1:
        mat = mat.reshape(0, dim)
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise InvariantError(f"{name}: expected a list of {dim}-vectors, got shape {mat.shape}")
    return mat


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^dim given by an orthonormal basis (possibly empty).
    Both fields are coerced once, here; bad input raises ``InvariantError``
    naming ``dim`` or ``basis``."""

    dim: int
    basis: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        dim = integer(self.dim, "dim", 0)
        check_entries(1, dim, "dim")  # one vector of R^dim
        mat = _vectors(self.basis, dim, "basis")
        gram = mat @ mat.T
        if not close(gram, np.eye(len(mat))):
            raise InvariantError("basis: not orthonormal")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", tuple(map(tuple, mat.tolist())))

    @classmethod
    def span(cls, dim: int, vectors: Sequence[Sequence[float]]) -> "Subspace":
        """Orthonormalize the given spanning vectors, dropping each that is
        close to its projection onto the span of those before it. The residual's
        rounding error scales with the vector's own norm, so that norm, not the
        largest input's, sets the scale."""
        basis: list[np.ndarray] = []
        for vec in _vectors(vectors, dim, "vectors"):
            v = vec
            for b in basis:
                v = v - (v @ b) * b
            if not close(vec, vec - v):
                basis.append(v / np.linalg.norm(v))
        return cls(dim, tuple(tuple(b) for b in basis))


def _project(mat: np.ndarray, sub: Subspace) -> np.ndarray:
    """The orthogonal projections of the rows of ``mat`` onto the subspace."""
    basis = np.array(sub.basis).reshape(len(sub.basis), sub.dim)
    return mat @ basis.T @ basis


def project(v: Sequence[float], sub: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace; the residual is orthogonal."""
    return _project(_vectors([v], sub.dim, "v"), sub)[0]


@dataclass(frozen=True)
class HilbertBase:
    projections: tuple[tuple[float, ...], ...]
    gram: tuple[tuple[float, ...], ...]


def hs_cb(vs: Sequence[Sequence[float]], sub: Subspace) -> HilbertBase:
    """The tuple of projections together with the full Gram matrix; ``vs``
    must be finite ``sub.dim``-vectors (``InvariantError`` naming ``vectors``)."""
    mat = _vectors(vs, sub.dim, "vectors")
    projections, gram = _project(mat, sub).tolist(), (mat @ mat.T).tolist()
    return HilbertBase(tuple(map(tuple, projections)), tuple(map(tuple, gram)))


def phi_identity_check(
    vs: Sequence[Sequence[float]],
    lambdas: Sequence[float],
    u: Sequence[float],
    sub: Subspace,
) -> tuple[float, float]:
    """Both sides of
    ||sum l_i v_i + u||^2 =
    ||sum l_i v_i||^2 - ||sum l_i P v_i||^2 + ||sum l_i P v_i + u||^2
    for u inside the subspace."""
    mat = _vectors(vs, sub.dim, "vectors")
    lam = reals(lambdas, "lambdas")
    if lam.shape != (len(mat),):
        raise InvariantError("lambdas: one coefficient per vector is required")
    uv = _vectors([u], sub.dim, "u")[0]
    if not close(uv, project(uv, sub)):
        raise InvariantError("u: must belong to the subspace")
    combo = lam @ mat
    proj_combo = lam @ _project(mat, sub)
    lhs = float((combo + uv) @ (combo + uv))
    rhs = float(combo @ combo - proj_combo @ proj_combo + (proj_combo + uv) @ (proj_combo + uv))
    return lhs, rhs


def nonuniform_witness() -> tuple[list[list[float]], list[list[float]], Subspace, list[float]]:
    """Two single-vector tuples with equal projections but different Gram
    matrices, hence different squared norms at lambda = 1 and u = 0."""
    sub = Subspace(3, ((1.0, 0.0, 0.0),))
    first = [[0.0, 1.0, 0.0]]
    second = [[0.0, 0.0, 2.0]]
    return first, second, sub, [1.0]
