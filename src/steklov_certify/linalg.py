"""Sparse direct solvers plus a generalized symmetric eigensolver.

The eigensolver handles pencils (A, B) with A symmetric positive definite
and B symmetric positive semidefinite, the shape of both Steklov
pencils.  The kernel directions of B carry no finite eigenvalues; the
solver eliminates the structural zero rows of B with the Schur complement
S of A on the support of B and solves the reduced reciprocal problem
B_bb w = mu S w, so the smallest finite eigenvalues are returned exactly
once and with B-orthonormal eigenvectors.  S is the trailing block of one
sparse factorization of A whose order puts the support of B last.  Each
eigenvalue is the Rayleigh quotient of its returned vector, and each
pair's residual is checked.

Factorizations are deterministic sparse direct methods.  A symmetric
SuperLU factor serves every positive definite system: the conforming
matrix, the hybridized edge-multiplier system of the flux equilibration
and the A of every eigen pencil.  SaddleFactor, a pivoted sparse LU of a
symmetric indefinite matrix, is not used by the certification pipeline;
it solves the unhybridized flux KKT system that the test suite keeps as
an oracle, and perfbench traces it.  The only dense matrices are
|support| x |support|, the size of the boundary dofs: the triangular
factor C of S = C C^T and the reduced pencil, on which LAPACK eigh runs.
Every solution column is verified against a residual tolerance and
rejected loudly rather than returned silently wrong.
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


def _column_norms(m):
    """Euclidean norm of each column of a 2-D array (a third of the time
    of np.linalg.norm(axis=0) on tall, narrow blocks)."""
    return np.sqrt(np.einsum("ij,ij->j", m, m))


def _quadratic_forms(m, x):
    """v^T m v for each column v of x, m symmetric and sparse.

    Summed as sum_i r_i v_i^2 - 1/2 sum_{i != j} m_ij (v_i - v_j)^2, with
    r the row sums of m, which _row_sums keeps accurate.  For a smooth v
    and a discretized Laplacian plus mass, r is small and the differences
    are exact, so this sum has none of the cancellation of v @ (m @ v).
    On the first eigenvector of either pencil at square n = 64 that
    product was up to 1.2e-13 relative off an extended-precision sum,
    this one 4e-16.  Each column is summed by itself, the same way for
    any width of x.
    """
    m = sp.coo_matrix(m)
    off = m.row != m.col
    rows, cols, entries = m.row[off], m.col[off], m.data[off]
    row_sums = _row_sums(m)
    forms = np.empty(x.shape[1])
    for j, v in enumerate(x.T):
        d = v[rows] - v[cols]
        forms[j] = np.sum(row_sums * v * v) - 0.5 * np.sum(entries * d * d)
    return forms


def _row_sums(m):
    """Row sums of a sparse m with Neumaier's compensated summation: a
    stiffness row sums to zero in exact arithmetic, and its plain sum
    would be pure rounding error, larger than the mass part it hides."""
    m = sp.csr_matrix(m)
    first, lengths = m.indptr[:-1], np.diff(m.indptr)
    total = np.zeros(m.shape[0])
    carry = np.zeros(m.shape[0])
    for p in range(lengths.max(initial=0)):
        term = np.where(p < lengths, m.data[np.minimum(first + p, m.nnz - 1)], 0.0)
        new = total + term
        carry += np.where(
            np.abs(total) >= np.abs(term), (total - new) + term, (term - new) + total
        )
        total = new
    return total + carry


def _mmd_order(m):
    """The elimination order (new -> old) that SuperLU's symmetric
    minimum degree ordering gives the sparse square m.

    The order depends on the pattern of m alone, so it is read off an
    incomplete factor of a matrix with that pattern, ones on its
    diagonal and zeros elsewhere, whose pivots are all one.  For the
    interior block at L-shape CR n = 32, a complete factor of m
    allocated 21.7 MB of SuperLU work space and this one 0.9 MB; made
    before the complete factor that general_sym_eig needs next, the
    complete one raised the peak RSS of repeated CR ladders by 6%.  A
    missing diagonal entry raises NotPositiveDefiniteError.
    """
    pattern = sp.csc_matrix(m, dtype=float, copy=True)
    columns = np.repeat(np.arange(m.shape[0]), np.diff(pattern.indptr))
    pattern.data = (pattern.indices == columns).astype(float)
    try:
        ilu = spla.spilu(
            pattern,
            drop_tol=1.0,
            fill_factor=1,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    return np.argsort(ilu.perm_c)


def _check_residual(apply_op, x, b, what):
    """Each column's residual against _RESIDUAL_TOL times that column's
    norm, so a small column cannot hide behind large ones; a zero column
    must come back with zero residual."""
    res = apply_op(x)
    res -= b
    res = _column_norms(res.reshape(len(b), -1))
    bn = _column_norms(b.reshape(len(b), -1))
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

    The private _fixed_order=True keeps the order of a as given
    (NATURAL), so that general_sym_eig can read a Schur complement off
    the trailing block of L and U; a factor that moved any row anyway
    raises LinearAlgebraError.

    A solve is one SuperLU pass, in chunks of _RHS_CHUNK columns, and
    every column's residual is checked.  It takes no refinement step: on
    the edge-multiplier system of the flux equilibration a second pass
    does not lower the residual.  general_sym_eig refines its own
    eigenvector solves, where eigenvector accuracy needs it.

    solve only delegates to _solve, the one implementation.  Worker
    threads call _solve: an outside tracer that wraps solve (as the
    benchmark's per-layer run does) keeps a single-threaded span stack,
    and spans opened on two threads at once would close out of order.
    """

    def __init__(self, a, _fixed_order=False):
        a = sp.csc_matrix(a, dtype=float)
        try:
            lu = spla.splu(
                a,
                permc_spec="NATURAL" if _fixed_order else "MMD_AT_PLUS_A",
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
        # SuperLU may postorder even a NATURAL order along its
        # elimination tree; no pencil in the test suite makes it
        if _fixed_order and not np.array_equal(lu.perm_c, np.arange(a.shape[0])):
            raise LinearAlgebraError("SuperLU reordered a matrix whose elimination order was fixed")
        self._lu = lu
        self._a = a.tocsr()

    def solve(self, b):
        return self._solve(b)

    def _solve(self, b):
        b = _dense(b)
        if b.ndim == 1 or b.shape[1] <= _RHS_CHUNK:
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

    values are ascending (up to roundoff inside a group of equal
    eigenvalues); vectors (columns) are B-orthonormal; n_finite
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
    complement S of a on the support block turns the pencil into
    b_bb w = mu S w with S SPD, whose positive mu are the reciprocals of
    the finite lambda.  A b that spans every dof leaves no interior, and
    S is a itself.

    S is never formed column by column.  The interior dofs take the
    minimum degree order of the interior block a_ii (_mmd_order), the
    support dofs come last, and one symmetric factorization
    P a P^T = L D L^T in that fixed order (CholeskyFactor with its
    inertia check) holds S = C C^T in its trailing block,
    C = L22 D22^{1/2}.  Two triangular solves with C turn the pencil into
    a standard dense eigh of size |support|.  Only the k selected
    eigenvectors y of it are taken back to all dofs, by one solve of the
    whole factor with C y on the support: its back substitution gives
    w = C^{-T} y there and -a_ii^{-1} a_ib w on the interior.  One
    refinement step follows, and each solve keeps its residual check.
    A failed inertia check names the block, interior or Schur
    complement, that is not positive definite.

    Each returned value is the Rayleigh quotient of its returned,
    b-normalized vector, summed free of cancellation by
    _quadratic_forms, and each pair must satisfy
    ||a x - lambda b x|| <= 1e-10 ||a x||, or LinearAlgebraError is
    raised.  Every per-column step is independent of the other columns,
    so the pairs selected with k equal the first k of the full spectrum.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b_sp = sp.csr_matrix(b)
    b_sp.eliminate_zeros()
    n = b_sp.shape[0]
    support = np.unique(b_sp.indices) if b_sp.nnz else np.array([], dtype=np.int64)
    if support.size == 0:
        raise LinearAlgebraError("b is zero: the pencil has no finite eigenvalues")

    a_sp = sp.csr_matrix(a, dtype=float)
    interior = np.ones(n, dtype=bool)
    interior[support] = False
    idx_i = np.flatnonzero(interior)
    a_ii = a_sp[idx_i][:, idx_i]
    try:
        order = support
        if idx_i.size:
            order = np.concatenate([idx_i[_mmd_order(a_ii)], support])
        factor = CholeskyFactor(a_sp[order][:, order], _fixed_order=True)
    except NotPositiveDefiniteError as exc:
        if idx_i.size:
            try:  # name the block that failed
                CholeskyFactor(a_ii)
            except NotPositiveDefiniteError as inner:
                raise NotPositiveDefiniteError(f"interior block of a: {inner}") from inner
        raise NotPositiveDefiniteError(f"Schur complement of a is not SPD: {exc}") from exc
    m = support.size
    l22 = factor._lu.L[-m:, -m:]
    root_d = np.sqrt(factor._lu.U.diagonal()[-m:])
    c = l22.toarray(order="F")
    c *= root_d
    # b_bb w = mu C C^T w becomes reduced y = mu y with y = C^T w.  The
    # triangular solves overwrite their right-hand side and eigh its
    # input (reading one triangle), and c goes before eigh allocates y,
    # so at most two m x m blocks are alive at once
    b_bb = b_sp[support][:, support].toarray(order="F")
    reduced = sla.blas.dtrsm(1.0, c, b_bb, lower=1, overwrite_b=1)
    reduced = sla.blas.dtrsm(1.0, c, reduced, side=1, lower=1, trans_a=1, overwrite_b=1)
    del c
    mu, y = sla.eigh(reduced, overwrite_a=True, check_finite=False)
    mu_max = mu[-1]
    if mu_max <= 0.0:
        raise LinearAlgebraError("b has no positive directions: no finite eigenvalues")
    if mu[0] < -1e-8 * mu_max:
        raise LinearAlgebraError(f"b is indefinite (most negative direction {mu[0]:.3e})")
    n_finite = int(np.count_nonzero(mu > _RANK_TOL * mu_max))
    k = n_finite if k is None else k
    if k > n_finite:
        raise LinearAlgebraError(f"requested {k} eigenpairs, pencil has {n_finite} finite ones")
    # the largest mu are the smallest lambda = 1/mu
    rhs = np.zeros((n, k))
    rhs[-m:] = l22 @ (root_d[:, None] * y[:, ::-1][:, :k])
    x_p = factor.solve(rhs)
    x_p += factor.solve(rhs - factor._a @ x_p)
    vectors = np.empty((n, k), order="F")
    vectors[order] = x_p
    vectors /= np.sqrt(_quadratic_forms(b_sp, vectors))
    values = _quadratic_forms(a_sp, vectors) / _quadratic_forms(b_sp, vectors)
    _check_residual(lambda v: (b_sp @ v) * values, vectors, a_sp @ vectors, "eigenpair check")
    return EigenResult(values, vectors, n_finite, support)
