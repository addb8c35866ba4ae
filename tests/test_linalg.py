"""Sparse solver wrappers and the generalized symmetric eigensolver."""

import numpy as np
import pytest
import scipy.sparse as sp

from steklov_certify.assembly import assemble_system
from steklov_certify.linalg import (
    CholeskyFactor,
    LinearAlgebraError,
    NotPositiveDefiniteError,
    SaddleFactor,
    SingularSystemError,
    general_sym_eig,
)
from steklov_certify.mesh import uniform_square_mesh

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


def test_eig_largest_selection():
    a = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    b = sp.csr_matrix(np.eye(3))
    result = general_sym_eig(a, b, k=2, which="largest")
    assert np.allclose(result.values, [3.0, 2.0], atol=1e-14)


def test_eig_error_cases():
    a = sp.csr_matrix(np.eye(2))
    with pytest.raises(LinearAlgebraError, match="zero"):
        general_sym_eig(a, sp.csr_matrix((2, 2)), k=1)
    with pytest.raises(ValueError, match="which"):
        general_sym_eig(a, sp.csr_matrix(np.eye(2)), k=1, which="middle")
    with pytest.raises(LinearAlgebraError, match="requested"):
        general_sym_eig(a, sp.csr_matrix(np.diag([1.0, 0.0])), k=2)
    indefinite = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(LinearAlgebraError):
        general_sym_eig(a, indefinite, k=1)
    with pytest.raises(NotPositiveDefiniteError):
        general_sym_eig(sp.csr_matrix(np.diag([1.0, -1.0])), sp.csr_matrix(np.diag([1.0, 0.0])), k=1)
