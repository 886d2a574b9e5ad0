"""Orthogonal projections, Gram data, and the quadratic expansion identity
for inner-product spaces.

The projection of a tuple alone does not pin down squared norms of linear
combinations; adding the Gram matrix does, which is exactly what the
expansion identity exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .measure_core import close, reals


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
        dim = self.dim
        # integral numbers only: int() would truncate 2.9 and accept "2" or True
        if (
            isinstance(dim, bool)
            or not isinstance(dim, Real)
            or not math.isfinite(dim)
            or dim != int(dim)
            or dim < 0
        ):
            raise InvariantError(f"dim: must be a nonnegative integer, got {dim!r}")
        dim = int(dim)
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


def project(v: Sequence[float], sub: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace; the residual is orthogonal."""
    vec = np.asarray(v, dtype=float)
    if vec.shape != (sub.dim,):
        raise InvariantError(f"expected a vector of dimension {sub.dim}, got shape {vec.shape}")
    out = np.zeros(sub.dim)
    for b in sub.basis:
        bv = np.asarray(b)
        out += (vec @ bv) * bv
    return out


@dataclass(frozen=True)
class HilbertBase:
    projections: tuple[tuple[float, ...], ...]
    gram: tuple[tuple[float, ...], ...]


def hs_cb(vs: Sequence[Sequence[float]], sub: Subspace) -> HilbertBase:
    """The tuple of projections together with the full Gram matrix; ``vs``
    must be finite ``sub.dim``-vectors (``InvariantError`` naming ``vectors``)."""
    mat = _vectors(vs, sub.dim, "vectors")
    projections = tuple(tuple(project(row, sub)) for row in mat)
    gram = mat @ mat.T
    return HilbertBase(projections, tuple(tuple(float(x) for x in row) for row in gram))


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
    mat = np.asarray(vs, dtype=float).reshape(len(vs), sub.dim)
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (len(mat),):
        raise InvariantError("one coefficient per vector is required")
    uv = np.asarray(u, dtype=float)
    if uv.shape != (sub.dim,):
        raise InvariantError(f"u must have dimension {sub.dim}")
    if not close(uv, project(uv, sub)):
        raise InvariantError("u must belong to the subspace")
    combo = lam @ mat
    proj_combo = lam @ np.array([project(row, sub) for row in mat])
    lhs = float(np.dot(combo + uv, combo + uv))
    rhs = float(
        np.dot(combo, combo)
        - np.dot(proj_combo, proj_combo)
        + np.dot(proj_combo + uv, proj_combo + uv)
    )
    return lhs, rhs


def nonuniform_witness() -> tuple[list[list[float]], list[list[float]], Subspace, list[float]]:
    """Two single-vector tuples with equal projections but different Gram
    matrices, hence different squared norms at lambda = 1 and u = 0."""
    sub = Subspace(3, ((1.0, 0.0, 0.0),))
    first = [[0.0, 1.0, 0.0]]
    second = [[0.0, 0.0, 2.0]]
    return first, second, sub, [1.0]
