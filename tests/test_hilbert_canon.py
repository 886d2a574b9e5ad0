import tracemalloc
from typing import Sequence

import numpy as np
import pytest

from canonbase_lab.errors import InvariantError
from canonbase_lab.hilbert_canon import Subspace, _project, _vectors, hs_cb
from canonbase_lab.rules import close, reals


def span(dim: int, vectors: Sequence[Sequence[float]]) -> Subspace:
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
    return Subspace(dim, basis)


E1 = Subspace(3, ((1.0, 0.0, 0.0),))


def project(v: Sequence[float], sub: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace; the residual is orthogonal."""
    return _project(_vectors([v], sub.dim, "v"), sub)[0]


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
    lam = np.array(reals(lambdas, "lambdas"))
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


def random_subspace(rng, dim):
    count = rng.integers(0, dim + 1)
    vecs = rng.standard_normal((max(count, 1), dim))
    return span(dim, vecs[:count]) if count else Subspace(dim, ())


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(InvariantError):
        Subspace(2, ((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(InvariantError):
        Subspace(2, ((2.0, 0.0),))


def test_project_fixes_members():
    v = (3.0, 0.0, 0.0)
    assert np.allclose(project(v, E1), v)


def test_project_kills_orthogonal():
    assert np.allclose(project((0.0, 2.0, -1.0), E1), 0.0)


def test_project_coordinate():
    assert np.allclose(project((1.0, 2.0, 3.0), E1), (1.0, 0.0, 0.0))


def test_projection_idempotent_and_selfadjoint():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        sub = random_subspace(rng, dim)
        v, w = rng.standard_normal(dim), rng.standard_normal(dim)
        pv = project(v, sub)
        assert np.allclose(project(pv, sub), pv, atol=1e-10)
        assert np.dot(pv, w) == pytest.approx(np.dot(v, project(w, sub)), abs=1e-9)


def test_hs_cb_inside_subspace():
    sub = Subspace(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    vs = [(1.0, 2.0, 0.0), (0.0, -1.0, 0.0)]
    base = hs_cb(vs, sub)
    assert np.allclose(base.projections, vs)
    assert np.allclose(base.gram, [[5.0, -2.0], [-2.0, 1.0]])


def test_hs_cb_orthogonal_unit():
    base = hs_cb([(0.0, 1.0, 0.0)], E1)
    assert np.allclose(base.projections, [(0.0, 0.0, 0.0)])
    assert np.allclose(base.gram, [[1.0]])


def test_hs_cb_worked():
    base = hs_cb([(1.0, 2.0, 3.0)], E1)
    assert np.allclose(base.projections, [(1.0, 0.0, 0.0)])
    assert np.allclose(base.gram, [[14.0]])


def test_phi_identity_zero_u():
    vs = [(1.0, 2.0, 3.0)]
    lhs, rhs = phi_identity_check(vs, [1.0], (0.0, 0.0, 0.0), E1)
    assert lhs == pytest.approx(14.0, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phi_identity_worked():
    lhs, rhs = phi_identity_check([(1.0, 2.0, 3.0)], [1.0], (5.0, 0.0, 0.0), E1)
    assert lhs == pytest.approx(49.0, abs=1e-12)
    assert rhs == pytest.approx(14.0 - 1.0 + 36.0, abs=1e-12)


def test_phi_identity_inside_subspace_collapses():
    sub = Subspace(2, ((1.0, 0.0), (0.0, 1.0)))
    vs = [(1.0, 1.0), (2.0, -1.0)]
    lhs, rhs = phi_identity_check(vs, [0.5, 2.0], (1.0, 1.0), sub)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phi_identity_rejects_outside_u():
    with pytest.raises(InvariantError):
        phi_identity_check([(1.0, 2.0, 3.0)], [1.0], (0.0, 1.0, 0.0), E1)


def test_phi_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(1, 11))
        sub = random_subspace(rng, dim)
        count = int(rng.integers(1, 4))
        vs = rng.standard_normal((count, dim))
        lam = rng.standard_normal(count)
        u = project(rng.standard_normal(dim), sub)
        lhs, rhs = phi_identity_check(vs, lam, u, sub)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_equal_base_gives_equal_phi():
    rng = np.random.default_rng(8)
    sub = Subspace(4, ((1.0, 0.0, 0.0, 0.0),))
    # two distinct tuples with identical projections and Gram matrices
    vs_a = [(1.0, 2.0, 0.0, 0.0), (0.5, 0.0, 1.0, 0.0)]
    vs_b = [(1.0, 0.0, 2.0, 0.0), (0.5, 1.0 / np.sqrt(5), 0.0, 2.0 / np.sqrt(5))]
    base_a, base_b = hs_cb(vs_a, sub), hs_cb(vs_b, sub)
    assert np.allclose(base_a.projections, base_b.projections)
    assert np.allclose(base_a.gram, base_b.gram)
    for _ in range(25):
        lam = rng.standard_normal(2)
        u = project(rng.standard_normal(4), sub)
        lhs_a, _ = phi_identity_check(vs_a, lam, u, sub)
        lhs_b, _ = phi_identity_check(vs_b, lam, u, sub)
        assert lhs_a == pytest.approx(lhs_b, abs=1e-9 * (1 + abs(lhs_a)))


def test_nonuniform_witness_separates():
    first, second, sub, lam = nonuniform_witness()
    base_a, base_b = hs_cb(first, sub), hs_cb(second, sub)
    assert np.allclose(base_a.projections, base_b.projections)
    assert not np.allclose(base_a.gram, base_b.gram)
    zero_u = (0.0,) * sub.dim
    lhs_a, _ = phi_identity_check(first, lam, zero_u, sub)
    lhs_b, _ = phi_identity_check(second, lam, zero_u, sub)
    assert abs(lhs_a - lhs_b) > 1e-6


def test_span_keeps_small_vectors_and_drops_near_dependents():
    # a lone small vector spans a line; each vector is judged against its own norm
    assert span(3, [[1e-13, 0.0, 0.0]]).basis_array.tolist() == [[1.0, 0.0, 0.0]]
    sub = span(3, [[1e12, 0.0, 0.0], [2e12, 1e-4, 0.0], [0.0, 0.0, 3.0]])
    assert len(sub.basis_array) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda v: project(v, E1),
        lambda v: hs_cb([v], E1),
        lambda v: phi_identity_check([v], [1.0], (0.0, 0.0, 0.0), E1),
        lambda v: phi_identity_check([(1.0, 2.0, 3.0)], [1.0], v, E1),
    ],
    ids=["project", "hs_cb", "phi_identity_check", "phi_identity_check_u"],
)
@pytest.mark.parametrize("v", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (1.0, 0.0)], ids=["nan", "inf", "dim"])
def test_every_entry_point_rejects_non_finite_and_misshapen_vectors(call, v):
    with pytest.raises(InvariantError):
        call(v)


def test_a_subspace_keeps_its_basis_as_one_read_only_array():
    sub = Subspace(2, [[0.6, 0.8], [-0.8, 0.6]])
    assert sub.basis_array.dtype == np.float64 and not sub.basis_array.flags.writeable
    assert sub.basis_array.tolist() == [[0.6, 0.8], [-0.8, 0.6]]
    assert Subspace(3, ()).basis_array.shape == (0, 3)
    # The input is built before tracing starts, so what stays traced is what
    # the subspace holds: 8 bytes an entry as an array, where a tuple of
    # tuples adds 32 more, a float object and a pointer each.
    k, dim = 64, 1024
    basis = [[float(i == j) for j in range(dim)] for i in range(k)]
    tracemalloc.start()
    try:
        sub = Subspace(dim, basis)
        del basis
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2 * 8 * k * dim
    assert np.array_equal(sub.basis_array, np.eye(k, dim))
