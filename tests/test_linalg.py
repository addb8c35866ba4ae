"""Sparse solver wrappers and the generalized symmetric eigensolver."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from steklov_certify import linalg
from steklov_certify.assembly import assemble_system
from steklov_certify.linalg import (
    CholeskyFactor,
    LinearAlgebraError,
    NotPositiveDefiniteError,
    SaddleFactor,
    SingularSystemError,
    general_sym_eig,
)
from steklov_certify.mesh import Mesh, uniform_lshape_mesh, uniform_square_mesh, validate_mesh
from steklov_certify.steklov import assemble_cr

from oracles import dense_pencil_eigenvalues, kkt_matrix


# --- SPD solves ---------------------------------------------------------


def test_solve_spd_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(CholeskyFactor(sp.eye(3, format="csr")).solve(b), b)


def test_solve_spd_hand_system():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x = CholeskyFactor(a).solve(np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-14)


def test_solve_spd_random_matrix(rng):
    m = rng.standard_normal((50, 50))
    a = sp.csr_matrix(m @ m.T + 50.0 * np.eye(50))
    factor = CholeskyFactor(a)
    for _ in range(4):
        b = rng.standard_normal(50)
        x = factor.solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_spd_multiple_rhs(rng):
    m = rng.standard_normal((20, 20))
    a = sp.csr_matrix(m @ m.T + 20.0 * np.eye(20))
    b = rng.standard_normal((20, 3))
    x = CholeskyFactor(a).solve(b)
    assert x.shape == (20, 3)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


class _SuperLUSpy:
    """Stands in for the SuperLU object of a CholeskyFactor: records the
    width of every solve and adds `error` to one column of its result."""

    def __init__(self, lu, column=0, error=0.0):
        self._lu, self.column, self.error = lu, column, error
        self.widths = []

    def solve(self, b):
        self.widths.append(b.shape[1] if b.ndim == 2 else 1)
        x = self._lu.solve(b)
        x[:, self.column] += self.error
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_solve_in_chunks_matches_single_column_solves(system_square4, rng):
    """Chunking changes no column: 37 right-hand sides at once equal 37
    one-column solves bit for bit, and every input shape is kept."""
    factor = CholeskyFactor(system_square4.stiffness + system_square4.mass)
    n = system_square4.dofs.dim_p1
    b = rng.standard_normal((n, 37))
    x = factor.solve(b)
    assert x.shape == (n, 37)
    assert factor.solve(b[:, 0]).shape == (n,)
    assert factor.solve(b[:, :1]).shape == (n, 1)
    assert np.array_equal(x, np.column_stack([factor.solve(b[:, j]) for j in range(37)]))


def test_solve_is_one_superlu_pass_in_chunks_of_16(system_square4, rng):
    factor = CholeskyFactor(system_square4.stiffness + system_square4.mass)
    spy = factor._lu = _SuperLUSpy(factor._lu)
    factor.solve(rng.standard_normal((system_square4.dofs.dim_p1, 37)))
    assert spy.widths == [16, 16, 5]


@pytest.mark.parametrize("scale, error", [(1e-8, 3e-11), (0.0, 1e-20)])
def test_residual_check_is_per_column(system_square4, rng, scale, error):
    """A column 1e-8 of its neighbour's size with a 1e-3 relative error,
    or a zero column with a nonzero solution, fails the check although
    the residual of the whole block is far below the tolerance."""
    factor = CholeskyFactor(system_square4.stiffness + system_square4.mass)
    b = rng.standard_normal((system_square4.dofs.dim_p1, 2))
    b[:, 1] *= scale
    factor.solve(b)
    factor._lu = _SuperLUSpy(factor._lu, column=1, error=error)
    with pytest.raises(LinearAlgebraError, match="column 1"):
        factor.solve(b)


def test_solve_spd_rejects_indefinite():
    a = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        CholeskyFactor(a)


def test_cholesky_rejects_indefinite_with_positive_diagonal():
    """Every diagonal entry is positive but the determinant is not: a
    pivoted LU would factor this quietly, the inertia check must not."""
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        CholeskyFactor(a)
    # the same block as the interior block of an eigen pencil
    pencil_a = sp.block_diag([a, sp.csr_matrix([[1.0]])], format="csr")
    pencil_b = sp.csr_matrix(np.diag([0.0, 0.0, 1.0]))
    with pytest.raises(NotPositiveDefiniteError, match="interior block"):
        general_sym_eig(pencil_a, pencil_b, k=1)


def test_cholesky_rejects_singular():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        CholeskyFactor(a)


# --- saddle solves ------------------------------------------------------


def test_saddle_toy_system():
    m = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    x = SaddleFactor(m).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)


def test_saddle_zero_rhs():
    m = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(SaddleFactor(m).solve(np.zeros(2)), np.zeros(2))


def test_saddle_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        SaddleFactor(sp.csr_matrix(np.ones((2, 3))))


def test_saddle_singular_reports_deficiency():
    m = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError, match="singular"):
        SaddleFactor(m).solve(np.array([1.0, 0.0]))


def test_saddle_matches_dense_oracle_on_equilibration_system(rng):
    """The sparse factorization reproduces a dense solve of the actual
    constrained flux system assembled on the coarsest square mesh."""
    system = assemble_system(uniform_square_mesh(1))
    p_int = system.dofs.dim_rt_interior
    m_broken = system.dofs.dim_broken
    kkt = kkt_matrix(system)
    factor = SaddleFactor(kkt)
    dense = kkt.toarray()
    assert np.linalg.matrix_rank(dense) == dense.shape[0]
    for _ in range(3):
        b = rng.standard_normal(kkt.shape[0])
        x = factor.solve(b)
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
    assert p_int + 1 + m_broken == kkt.shape[0]


# --- generalized eigenproblems ------------------------------------------


def test_eig_diagonal_full_support():
    a = sp.csr_matrix(np.diag([2.0, 6.0]))
    b = sp.csr_matrix(np.eye(2))
    result = general_sym_eig(a, b, k=2)
    assert np.allclose(result.values, [2.0, 6.0], atol=1e-14)
    assert result.n_finite == 2


def test_eig_semidefinite_b_counts_finite_eigenvalues():
    a = sp.csr_matrix(np.diag([1.0, 2.0]))
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    result = general_sym_eig(a, b, k=1)
    assert result.n_finite == 1
    assert result.values[0] == pytest.approx(1.0, rel=1e-12)


def test_eig_matches_dense_pencil_oracle(rng):
    n = 14
    m = rng.standard_normal((n, n))
    a = sp.csr_matrix(m @ m.T + n * np.eye(n))
    c = rng.standard_normal((n, 5))
    b_dense = np.zeros((n, n))
    b_dense[:5, :5] = (c.T @ c)[:5, :5]
    b = sp.csr_matrix(b_dense)
    result = general_sym_eig(a, b, k=4)
    expected = dense_pencil_eigenvalues(a.toarray(), b_dense)
    assert result.n_finite == 5
    assert np.allclose(result.values, expected[:4], rtol=1e-10)


def test_eig_orthonormality_and_residual(system_square2):
    a = (system_square2.stiffness + system_square2.mass).tocsr()
    b = system_square2.vertex_boundary_mass.tocsr()
    result = general_sym_eig(a, b, k=4)
    v = result.vectors
    gram = v.T @ (b @ v)
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    for j, lam in enumerate(result.values):
        residual = a @ v[:, j] - lam * (b @ v[:, j])
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(a @ v[:, j])
    assert np.all(np.diff(result.values) >= -1e-14)


def test_eig_returns_only_the_selected_vectors():
    """With k given, only k vectors are formed; the finite count and the
    selected pairs are those of the full finite spectrum."""
    stiffness, mass, boundary_form, _ = assemble_cr(uniform_lshape_mesh(4))
    a = stiffness + mass
    every = general_sym_eig(a, boundary_form)
    three = general_sym_eig(a, boundary_form, k=3)
    assert three.vectors.shape == (a.shape[0], 3)
    assert every.vectors.shape == (a.shape[0], every.n_finite)
    assert three.n_finite == every.n_finite
    assert np.array_equal(three.values, every.values[:3])
    assert np.allclose(three.vectors, every.vectors[:, :3], rtol=0.0, atol=1e-13)


def _spy_on_superlu(monkeypatch, spy=_SuperLUSpy):
    """Wrap every SuperLU factor made from here on in a spy."""
    spies = []
    splu = spla.splu

    def spying(*args, **kwargs):
        spies.append(spy(splu(*args, **kwargs)))
        return spies[-1]

    monkeypatch.setattr(linalg.spla, "splu", spying)
    return spies


def test_eig_solves_only_the_selected_columns(monkeypatch):
    """The Schur complement is the trailing block of the one complete
    factorization, so nothing is solved for it: the factor solves the
    k = 3 selected vectors once and refines them once, where the
    streamed route solved twice per support column (2 x 155 columns
    here)."""
    stiffness, mass, boundary_form, _ = assemble_cr(uniform_lshape_mesh(8))
    spies = _spy_on_superlu(monkeypatch)
    result = general_sym_eig(stiffness + mass, boundary_form, k=3)
    assert result.support.size == 155
    assert [spy.widths for spy in spies] == [[3, 3]]


def test_eig_rejects_a_reordered_factor(monkeypatch):
    """The support must stay last in the factor.  No mesh here makes
    SuperLU move a row of the fixed order, so a stand-in factor reports
    every row moved."""

    class Reordered(_SuperLUSpy):
        perm_c = property(lambda spy: spy._lu.perm_c[::-1])
        perm_r = property(lambda spy: spy._lu.perm_r[::-1])

    system = assemble_system(uniform_square_mesh(2))
    spies = _spy_on_superlu(monkeypatch, Reordered)
    with pytest.raises(LinearAlgebraError, match="reordered"):
        general_sym_eig(system.stiffness + system.mass, system.vertex_boundary_mass, k=1)
    assert len(spies) == 1


def test_eigenpair_check_rejects_a_corrupted_pair(monkeypatch):
    """A reduced eigenvector mixed with its neighbour passes every solve
    check, and the per-pair residual check rejects it."""
    system = assemble_system(uniform_square_mesh(4))
    eigh = sla.eigh

    def corrupted(*args, **kwargs):
        mu, y = eigh(*args, **kwargs)
        y[:, -1] += 1e-6 * y[:, -2]
        return mu, y

    monkeypatch.setattr(linalg.sla, "eigh", corrupted)
    with pytest.raises(LinearAlgebraError, match="eigenpair check: .* of column 0"):
        general_sym_eig(system.stiffness + system.mass, system.vertex_boundary_mass, k=2)


def _renumbered(mesh, rng):
    label = rng.permutation(mesh.num_vertices)  # old vertex v becomes label[v]
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    return validate_mesh(
        Mesh(vertices, label[mesh.triangles], label[mesh.boundary_edges],
             mesh.boundary_triangles, domain=mesh.domain)
    )


def _jittered(n, rng):
    mesh = uniform_square_mesh(n)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_edges)
    angle = rng.uniform(0.0, 2.0 * np.pi, interior.size)
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(0.0, 0.2 / n, interior.size)[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)]
    )
    return validate_mesh(
        Mesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_triangles,
             domain=mesh.domain)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: uniform_square_mesh(1),
        lambda rng: uniform_square_mesh(2),
        lambda rng: _renumbered(uniform_square_mesh(8), rng),
        lambda rng: _jittered(8, rng),
    ],
    ids=["square1", "square2", "renumbered8", "jittered8"],
)
def test_eig_keeps_the_support_last_where_a_boundary_vertex_has_no_interior_neighbour(build):
    """On these meshes two corners touch no interior vertex (square
    n = 1 has no interior at all), so the trailing block holds support
    dofs coupled only to each other.  SuperLU keeps the fixed order and
    both pencils match the dense oracle."""
    mesh = build(np.random.default_rng(3))
    system = assemble_system(mesh)
    stiffness, mass, boundary_form, _ = assemble_cr(mesh)
    for a, b in [
        (system.stiffness + system.mass, system.vertex_boundary_mass),
        (stiffness + mass, boundary_form),
    ]:
        result = general_sym_eig(a, b)
        expected = dense_pencil_eigenvalues(a.toarray(), b.toarray())
        assert result.n_finite == len(expected)
        assert np.allclose(result.values, expected, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("method", ["p1", "cr"])
def test_eig_full_support_pencils_match_dense_oracle(method):
    """P1 on square n = 1 and CR on square n = 2 have every dof in the
    support of b: the Schur route runs with an empty interior."""
    if method == "p1":
        system = assemble_system(uniform_square_mesh(1))
        a = system.stiffness + system.mass
        b = system.vertex_boundary_mass
    else:
        stiffness, mass, b, _ = assemble_cr(uniform_square_mesh(2))
        a = stiffness + mass
    result = general_sym_eig(a, b)
    expected = dense_pencil_eigenvalues(a.toarray(), b.toarray())
    assert np.array_equal(result.support, np.arange(a.shape[0]))
    assert result.n_finite == len(expected)
    assert np.allclose(result.values, expected, rtol=1e-10, atol=0.0)


def test_eig_rejects_indefinite_a_with_definite_b():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError, match="Schur complement"):
        general_sym_eig(a, sp.csr_matrix(np.eye(2)), k=1)


def test_eig_error_cases():
    a = sp.csr_matrix(np.eye(2))
    with pytest.raises(LinearAlgebraError, match="zero"):
        general_sym_eig(a, sp.csr_matrix((2, 2)), k=1)
    with pytest.raises(LinearAlgebraError, match="requested"):
        general_sym_eig(a, sp.csr_matrix(np.diag([1.0, 0.0])), k=2)
    indefinite = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(LinearAlgebraError):
        general_sym_eig(a, indefinite, k=1)
    with pytest.raises(NotPositiveDefiniteError):
        general_sym_eig(sp.csr_matrix(np.diag([1.0, -1.0])), sp.csr_matrix(np.diag([1.0, 0.0])), k=1)
    # the error names the block that is not positive definite: an
    # interior block without a diagonal, or the Schur complement of an
    # SPD interior block
    swap = sp.block_diag([sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), sp.eye(1)], format="csr")
    with pytest.raises(NotPositiveDefiniteError, match="interior block"):
        general_sym_eig(swap, sp.csr_matrix(np.diag([0.0, 0.0, 1.0])), k=1)
    with pytest.raises(NotPositiveDefiniteError, match="Schur complement"):
        general_sym_eig(sp.csr_matrix([[2.0, 3.0], [3.0, 2.0]]), sp.csr_matrix(np.diag([0.0, 1.0])), k=1)
