"""Sparse direct solvers plus a generalized symmetric eigensolver.

The eigensolver handles pencils (A, B) with A symmetric positive definite
and B symmetric positive semidefinite, the shape of every pencil in this
package.  When B is only semidefinite its kernel directions carry no
finite eigenvalues; the solver eliminates the structural zero rows of B
with a Schur complement of A and solves the reduced reciprocal problem
B* w = mu A* w, so the finite eigenvalues are returned exactly once and
with B-orthonormal eigenvectors.

Factorizations are deterministic sparse direct methods.  A symmetric
SuperLU factor serves every positive definite system: the conforming
matrix, the hybridized edge-multiplier system of the flux equilibration
and the interior block of every eigen pencil.  SaddleFactor, a pivoted
sparse LU of a symmetric indefinite matrix, is not used by the
certification pipeline; it solves the unhybridized flux KKT system that
the test suite keeps as an oracle, and perfbench traces it.  The only
dense matrices are the Schur complement on the support of B, whose size
is the number of boundary dofs, and the solution block of its |support|
right-hand sides; LAPACK eigh runs on the former.  Solutions are
verified against a residual tolerance and rejected loudly rather than
returned silently wrong.
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


class LinearAlgebraError(RuntimeError):
    pass


class NotPositiveDefiniteError(LinearAlgebraError):
    """A matrix required to be symmetric positive definite is not."""


class SingularSystemError(LinearAlgebraError):
    """A direct factorization hit an (numerically) singular matrix."""


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def _check_residual(apply_op, x, b, what):
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return
    rel = np.linalg.norm(apply_op(x) - b) / bn
    if not rel <= _RESIDUAL_TOL:
        raise LinearAlgebraError(f"{what}: relative residual {rel:.3e} exceeds {_RESIDUAL_TOL:.0e}")


class CholeskyFactor:
    """Sparse factorization of a symmetric positive definite matrix.

    SuperLU runs in symmetric mode: a minimum degree ordering of a + a^T
    applied to rows and columns alike, and diagonal pivots only.  Then
    P a P^T = L U with U = D L^T, so by Sylvester's law of inertia a is
    positive definite exactly when no row was swapped and every pivot
    (diagonal of U) is positive; anything else raises
    NotPositiveDefiniteError.  Each solve takes one step of iterative
    refinement and checks the residual.
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
        x = self._lu.solve(b)
        x += self._lu.solve(b - self._a @ x)
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
    """Selected eigenpairs of a symmetric pencil.

    values are ascending for which="smallest" selections and descending
    for which="largest"; vectors (columns) are B-orthonormal; n_finite is
    the total number of finite eigenvalues of the pencil; support lists
    the dofs where B has a nonzero row.
    """

    values: np.ndarray
    vectors: np.ndarray
    n_finite: int
    support: np.ndarray


def _select(values, vectors, k, which):
    if which == "smallest":
        return values[:k], vectors[:, :k]
    return values[::-1][:k], vectors[:, ::-1][:, :k]


def general_sym_eig(a, b, k=None, which="smallest"):
    """Finite eigenpairs of the symmetric pencil a x = lambda b x.

    Accepts either a positive definite b (a anything symmetric) or a
    positive semidefinite b together with an SPD a.  Structural zero rows
    of b are eliminated exactly: with the dofs split into the support of
    b and its complement, the Schur complement of a on the support block
    turns the pencil into b* w = mu a* w with a* SPD, whose positive mu
    are the reciprocals of the finite lambda; the same reciprocal route
    handles a b that spans every dof but is still singular.  Requesting
    which="largest" selects from the top of the finite spectrum.

    Only the |support| x |support| blocks are dense: the interior block
    of a is factored sparsely (CholeskyFactor) and solved for the
    |support| columns of the coupling block.  The one exception is a b
    whose support is every dof, which is densified whole.
    """
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    b_sp = sp.csr_matrix(b)
    b_sp.eliminate_zeros()
    n = b_sp.shape[0]
    support = np.unique(b_sp.indices) if b_sp.nnz else np.array([], dtype=np.int64)
    if support.size == 0:
        raise LinearAlgebraError("b is zero: the pencil has no finite eigenvalues")

    if support.size == n:
        # full structural support: when b is actually positive definite
        # the pencil is a plain dense problem; a singular b falls through
        # to the reciprocal formulation below, which only needs a SPD.
        try:
            values, vectors = sla.eigh(_dense(a), _dense(b), check_finite=False)
        except sla.LinAlgError:
            pass
        else:
            n_finite = n
            if k is None:
                k = n_finite
            if k > n_finite:
                raise LinearAlgebraError(f"requested {k} eigenpairs, pencil has {n_finite}")
            values, vectors = _select(values, vectors, k, which)
            return EigenResult(values, vectors, n_finite, support)

    idx_b = support
    interior = np.ones(n, dtype=bool)
    interior[idx_b] = False
    idx_i = np.flatnonzero(interior)
    a_sp = sp.csr_matrix(a, dtype=float)
    a_schur = _dense(a_sp[idx_b][:, idx_b])
    if idx_i.size:
        a_i = a_sp[idx_i]
        a_ib = a_i[:, idx_b]
        try:
            factor = CholeskyFactor(a_i[:, idx_i])
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"interior block of a: {exc}") from exc
        x = factor.solve(a_ib)
        a_schur -= a_ib.T @ x
    else:
        x = np.zeros((0, idx_b.size))
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
    n_finite = int(finite.sum())
    if k is None:
        k = n_finite
    if k > n_finite:
        raise LinearAlgebraError(f"requested {k} eigenpairs, pencil has {n_finite} finite ones")

    mu_f = mu[finite][::-1]  # ascending lambda = 1/mu
    w_f = w[:, finite][:, ::-1]
    values = 1.0 / mu_f
    scale = 1.0 / np.sqrt(mu_f)
    vectors = np.zeros((n, len(mu_f)))
    vectors[idx_b] = w_f * scale[None, :]
    vectors[idx_i] = -x @ vectors[idx_b]
    values, vectors = _select(values, vectors, k, which)
    return EigenResult(values, vectors, n_finite, support)
