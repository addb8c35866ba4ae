"""Sparse direct solvers plus a generalized symmetric eigensolver.

The eigensolver handles pencils (A, B) with A symmetric positive definite
and B symmetric positive semidefinite, the shape of both Steklov
pencils.  The kernel directions of B carry no finite eigenvalues; the
solver eliminates the structural zero rows of B with a Schur complement
of A and solves the reduced reciprocal problem B* w = mu A* w, so the
smallest finite eigenvalues are returned exactly once and with
B-orthonormal eigenvectors.

Factorizations are deterministic sparse direct methods.  A symmetric
SuperLU factor serves every positive definite system: the conforming
matrix, the hybridized edge-multiplier system of the flux equilibration
and the interior block of every eigen pencil.  SaddleFactor, a pivoted
sparse LU of a symmetric indefinite matrix, is not used by the
certification pipeline; it solves the unhybridized flux KKT system that
the test suite keeps as an oracle, and perfbench traces it.  The only
dense matrix is the Schur complement on the support of B, whose size is
the number of boundary dofs; LAPACK eigh runs on it.  Every solution
column is verified against a residual tolerance and rejected loudly
rather than returned silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "CholeskyFactor",
    "EigenResult",
    "LinearAlgebraError",
    "NotPositiveDefiniteError",
    "SaddleFactor",
    "SingularSystemError",
    "general_sym_eig",
]

_RESIDUAL_TOL = 1e-10
_RANK_TOL = 1e-12
# right-hand sides per SuperLU call: its triangular solves slow down per
# column on wide blocks, and every column's result is independent of
# the block it is solved in
_RHS_CHUNK = 16


class LinearAlgebraError(RuntimeError):
    pass


class NotPositiveDefiniteError(LinearAlgebraError):
    """A matrix required to be symmetric positive definite is not."""


class SingularSystemError(LinearAlgebraError):
    """A direct factorization hit an (numerically) singular matrix."""


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def _check_residual(apply_op, x, b, what):
    """Each column's residual against _RESIDUAL_TOL times that column's
    norm, so a small column cannot hide behind large ones; a zero column
    must come back with zero residual."""
    res = np.linalg.norm((apply_op(x) - b).reshape(len(b), -1), axis=0)
    bn = np.linalg.norm(b.reshape(len(b), -1), axis=0)
    bad = np.flatnonzero(~(res <= _RESIDUAL_TOL * bn))
    if bad.size:
        j = bad[0]
        rel = res[j] / bn[j] if bn[j] > 0.0 else np.inf
        raise LinearAlgebraError(
            f"{what}: relative residual {rel:.3e} of column {j} exceeds {_RESIDUAL_TOL:.0e}"
        )


class CholeskyFactor:
    """Sparse factorization of a symmetric positive definite matrix.

    SuperLU runs in symmetric mode: a minimum degree ordering of a + a^T
    applied to rows and columns alike, and diagonal pivots only.  Then
    P a P^T = L U with U = D L^T, so by Sylvester's law of inertia a is
    positive definite exactly when no row was swapped and every pivot
    (diagonal of U) is positive; anything else raises
    NotPositiveDefiniteError.

    A solve is one SuperLU pass, in chunks of _RHS_CHUNK columns, and
    every column's residual is checked.  It takes no refinement step: on
    the edge-multiplier system of the flux equilibration a second pass
    does not lower the residual.  general_sym_eig refines its own
    interior solves, where eigenvector accuracy needs it.
    """

    def __init__(self, a):
        a = sp.csc_matrix(a, dtype=float)
        try:
            lu = spla.splu(
                a,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
        pivots = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0.0)):
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: smallest pivot {pivots.min():.3e}"
            )
        self._lu = lu
        self._a = a.tocsr()

    def solve(self, b):
        b = _dense(b)
        if b.ndim == 1:
            x = self._lu.solve(b)
        else:
            x = np.empty(b.shape)
            for start in range(0, b.shape[1], _RHS_CHUNK):
                cols = slice(start, start + _RHS_CHUNK)
                x[:, cols] = self._lu.solve(b[:, cols])
        _check_residual(lambda v: self._a @ v, x, b, "Cholesky solve")
        return x


class SaddleFactor:
    """Sparse LU of a symmetric indefinite (saddle point) matrix."""

    def __init__(self, m):
        m = sp.csc_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"saddle matrix must be square, got {m.shape}")
        try:
            self._lu = spla.splu(m)
        except RuntimeError as exc:
            deficiency = ""
            if m.shape[0] <= 2000:
                rank = np.linalg.matrix_rank(m.toarray())
                deficiency = f" (rank deficiency {m.shape[0] - rank})"
            raise SingularSystemError(f"saddle matrix is singular{deficiency}: {exc}") from exc
        self._m = m.tocsr()

    def solve(self, b):
        b = _dense(b)
        x = self._lu.solve(b)
        _check_residual(lambda v: self._m @ v, x, b, "saddle solve")
        return x


@dataclass(frozen=True)
class EigenResult:
    """The smallest finite eigenpairs of a symmetric pencil.

    values are ascending; vectors (columns) are B-orthonormal; n_finite
    is the total number of finite eigenvalues of the pencil; support
    lists the dofs where B has a nonzero row.
    """

    values: np.ndarray
    vectors: np.ndarray
    n_finite: int
    support: np.ndarray


def general_sym_eig(a, b, k=None):
    """The k (default: all) smallest finite eigenpairs of a x = lambda b x.

    a is symmetric positive definite and b symmetric positive
    semidefinite.  Structural zero rows of b are eliminated exactly: with
    the dofs split into the support of b and its complement, the Schur
    complement of a on the support block turns the pencil into
    b* w = mu a* w with a* SPD, whose positive mu are the reciprocals of
    the finite lambda.  A b that spans every dof leaves no interior, and
    a* is a itself.

    Only the |support| x |support| blocks are dense: the interior block
    a_ii of a is factored sparsely (CholeskyFactor), the Schur complement
    is built _RHS_CHUNK support columns at a time, and the interior part
    -a_ii^{-1} (a_ib w) is solved for the k selected eigenvectors only.
    These interior solves take one step of iterative refinement, which
    CholeskyFactor.solve leaves out: it keeps each eigenvalue at
    roundoff from the Rayleigh quotient of its own vector.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b_sp = sp.csr_matrix(b)
    b_sp.eliminate_zeros()
    n = b_sp.shape[0]
    support = np.unique(b_sp.indices) if b_sp.nnz else np.array([], dtype=np.int64)
    if support.size == 0:
        raise LinearAlgebraError("b is zero: the pencil has no finite eigenvalues")

    idx_b = support
    interior = np.ones(n, dtype=bool)
    interior[idx_b] = False
    idx_i = np.flatnonzero(interior)
    a_sp = sp.csr_matrix(a, dtype=float)
    a_schur = _dense(a_sp[idx_b][:, idx_b])
    if idx_i.size:
        a_i = a_sp[idx_i]
        a_ib = a_i[:, idx_b]
        a_ii = a_i[:, idx_i]
        try:
            factor = CholeskyFactor(a_ii)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"interior block of a: {exc}") from exc

        def interior_solve(rhs):
            rhs = _dense(rhs)
            x = factor.solve(rhs)
            x += factor.solve(rhs - a_ii @ x)
            return x

        for start in range(0, idx_b.size, _RHS_CHUNK):
            cols = slice(start, start + _RHS_CHUNK)
            a_schur[:, cols] -= a_ib.T @ interior_solve(a_ib[:, cols])
    a_schur = 0.5 * (a_schur + a_schur.T)
    b_bb = _dense(b_sp[idx_b][:, idx_b])

    try:
        mu, w = sla.eigh(b_bb, a_schur, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Schur complement of a is not SPD: {exc}") from exc
    mu_max = mu[-1]
    if mu_max <= 0.0:
        raise LinearAlgebraError("b has no positive directions: no finite eigenvalues")
    if mu[0] < -1e-8 * mu_max:
        raise LinearAlgebraError(f"b is indefinite (most negative direction {mu[0]:.3e})")
    finite = mu > _RANK_TOL * mu_max

    n_finite = int(np.count_nonzero(finite))
    k = n_finite if k is None else k
    if k > n_finite:
        raise LinearAlgebraError(f"requested {k} eigenpairs, pencil has {n_finite} finite ones")
    mu_k = mu[finite][::-1][:k]  # ascending lambda = 1/mu
    values = 1.0 / mu_k
    w_k = w[:, finite][:, ::-1][:, :k] * (1.0 / np.sqrt(mu_k))[None, :]
    vectors = np.zeros((n, w_k.shape[1]))
    vectors[idx_b] = w_k
    if idx_i.size:
        vectors[idx_i] = -interior_solve(a_ib @ w_k)
    return EigenResult(values, vectors, n_finite, support)
