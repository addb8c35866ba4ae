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

That step, a factor with chosen dofs last whose inertia is checked and
whose trailing root C (S = C C^T) is returned, is one private helper,
_trailing_root.  The flux equilibration uses it too: the Schur
complement of its edge-multiplier system on the boundary edge dofs gives
the half of the projection constant's form that needs no solves.

Factorizations are deterministic sparse direct methods.  A symmetric
SuperLU factor serves every positive definite system: the conforming
matrix, the hybridized edge-multiplier system of the flux equilibration
and the A of every eigen pencil.  SaddleFactor, a pivoted sparse LU of a
symmetric indefinite matrix, is not used by the certification pipeline;
it solves the unhybridized flux KKT system that the test suite keeps as
an oracle, and perfbench traces it.  The only dense matrices are
|support| x |support|, the size of the boundary dofs: the triangular
factor C of S = C C^T and the reduced pencil, which one dsygst (the
reduction step of LAPACK's xSYGV) forms.  Its eigenpairs come from
_top_eigenpairs: one Householder tridiagonalization, every
eigenvalue from it, and inverse iteration for the selected eigenvectors
only, so no |support| x |support| matrix of eigenvectors is formed.  The
projection constant of the flux equilibration reduces its pencil and
takes its top pair the same way.
A factor whose matrix another factor has already proven positive
definite skips the pivot read, so scipy keeps no CSC copies of its L
and U.
Every solution column is verified against a residual tolerance and
rejected loudly rather than returned silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

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
# each of the 406 pencil matrices of the test suite is exactly symmetric;
# 1e-14 of the largest entry leaves room for a pencil formed by products
_SYMMETRY_TOL = 1e-14
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


def _quadratic_form(m):
    """The map x -> v^T m v for each column v of x, m symmetric and sparse.

    Summed as sum_i r_i v_i^2 - 1/2 sum_{i != j} m_ij (v_i - v_j)^2, with
    r the row sums of m, which _row_sums keeps accurate.  For a smooth v
    and a discretized Laplacian plus mass, r is small and the differences
    are exact, so this sum has none of the cancellation of v @ (m @ v).
    On the first eigenvector of either pencil at square n = 64 that
    product was up to 1.2e-13 relative off an extended-precision sum,
    this one 4e-16.  m is split and row-summed once, when the map is
    made; each column is summed by itself, the same way for any width.
    """
    m = sp.coo_matrix(m)
    off = m.row != m.col
    rows, cols, entries = m.row[off], m.col[off], m.data[off]
    row_sums = _row_sums(m)

    def forms(x):
        out = np.empty(x.shape[1])
        for j, v in enumerate(x.T):
            d = v[rows] - v[cols]
            out[j] = np.sum(row_sums * v * v) - 0.5 * np.sum(entries * d * d)
        return out

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


def _symmetric_csr(m, name):
    """m as a float csr matrix; ValueError naming it unless no entry of
    m - m^T exceeds _SYMMETRY_TOL times the largest entry of m."""
    m = sp.csr_matrix(m, dtype=float)
    gap, scale = abs(m - m.T).max(), abs(m).max()
    if not gap <= _SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric: asymmetry {gap:.3e}, largest entry {scale:.3e}")
    return m


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
    (NATURAL), so that _trailing_root can read a Schur complement off
    the trailing block of L and U; a factor that moved any row anyway
    raises LinearAlgebraError.  The private _spd=True is for a matrix
    whose inertia another factor of it has already checked (Sylvester's
    law does not depend on the order): it still rejects a swapped row
    but reads no pivots, since reading U makes scipy keep CSC copies of
    L and U for the factor's lifetime.

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

    def __init__(self, a, _fixed_order=False, _spd=False):
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
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise NotPositiveDefiniteError("matrix is not positive definite: a row was swapped")
        if not _spd:
            pivots = lu.U.diagonal()
            if not np.all(pivots > 0.0):
                raise NotPositiveDefiniteError(
                    f"matrix is not positive definite: smallest pivot {pivots.min():.3e}"
                )
        # SuperLU may postorder even a NATURAL order along its
        # elimination tree; no pencil in the test suite makes it
        if _fixed_order and not np.array_equal(lu.perm_c, np.arange(a.shape[0])):
            raise LinearAlgebraError("SuperLU reordered a matrix whose elimination order was fixed")
        self._lu = lu
        self._a = a

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


def _trailing_root(a, last):
    """(factor, order, root): one symmetric factor of the SPD csr a whose
    order eliminates the dofs `last` last, and the root C of the Schur
    complement S = C C^T of a on `last`.

    The other dofs keep their places in the minimum degree order of all
    of a (_mmd_order) and `last` follows in its given order; order is
    that elimination order (new -> old).  For the pinned edge system at
    square n = 64 this gave 2.28M entries in L and U, against 2.40M for
    the minimum degree order of the other dofs' own block.  The
    factorization P a P^T = L D L^T in that order (CholeskyFactor with
    its inertia check) holds S in its trailing block, and root is the
    sparse lower triangular C = L22 D22^{1/2}.  A failed inertia check
    names the block, interior or Schur complement, that is not positive
    definite.  Reading the pivots makes the factor keep CSC copies of L
    and U, so a caller that needs only C drops the factor at once.
    """
    interior = np.ones(a.shape[0], dtype=bool)
    interior[last] = False
    idx_i = np.flatnonzero(interior)
    try:
        order = last
        if idx_i.size:
            full = _mmd_order(a)
            order = np.concatenate([full[interior[full]], last])
        factor = CholeskyFactor(a[order][:, order].tocsc(), _fixed_order=True)
    except NotPositiveDefiniteError as exc:
        if idx_i.size:
            try:  # name the block that failed
                CholeskyFactor(a[idx_i][:, idx_i])
            except NotPositiveDefiniteError as inner:
                raise NotPositiveDefiniteError(f"interior block of a: {inner}") from inner
        raise NotPositiveDefiniteError(f"Schur complement of a is not SPD: {exc}") from exc
    m = len(last)
    root = factor._lu.L[-m:, -m:] @ sp.diags(np.sqrt(factor._lu.U.diagonal()[-m:]))
    return factor, order, root


def _top_eigenpairs(sym):
    """(mu, top): every eigenvalue mu, ascending, of the symmetric m x m
    F-ordered array sym, and top(k), the orthonormal eigenvectors of the
    k largest as the columns of an m x k array, largest first.  sym is
    overwritten and only its lower triangle is read.

    One Householder tridiagonalization sym = Q T Q^T (dsytrd) serves
    both, the route of LAPACK's xSYEVX: dsterf takes every eigenvalue of
    T, and top(k) runs inverse iteration (dstein) for the k largest only,
    then applies Q by dormqr on the reflectors below the subdiagonal,
    which is LAPACK's lower dormtr.  dstein gets -T with the shifts -mu,
    largest mu first, and computes the vectors in that order, each from
    the next start vector of a generator that every call reseeds and
    reorthogonalized against the earlier vectors of close eigenvalues.
    Q is applied to one vector at a time, so no BLAS blocking over the
    columns enters either.  Hence the first j columns of top(k) never
    depend on k: top(k) is the first k columns of top(m), bit for bit.

    No vector of a smaller eigenvalue is computed, however tightly the
    spectrum clusters below the k-th: the projection constant's form at
    square n = 64 has 256 of its 512 eigenvalues within 1.2e-5 relative
    of its largest.  At L-shape CR n = 32 (m = 635, one BLAS thread) mu
    and top(3) took 29 ms where a full eigh took 101 ms.
    """
    m = sym.shape[0]
    if m == 1:  # dsterf and dstein take no empty off-diagonal
        return sym[0].copy(), lambda k: np.ones((1, 1))
    lwork, _ = lapack.dsytrd_lwork(m, lower=1)
    tri, d, e, tau, _ = lapack.dsytrd(sym, lower=1, lwork=int(lwork), overwrite_a=1)
    mu, info = lapack.dsterf(d, e)
    if info:
        raise LinearAlgebraError(f"dsterf: {info} eigenvalues failed to converge")

    def top(k):
        # T as one block: every shift in block 1, which ends at row m
        blocks, ends = np.ones(m, dtype=np.int32), np.full(m, m, dtype=np.int32)
        z, info = lapack.dstein(-d, -e, -mu[::-1][:k], blocks, ends)
        if info:
            raise LinearAlgebraError(f"dstein: {info} eigenvectors failed to converge")
        # dormqr takes the reflectors as a contiguous array
        reflectors = np.asfortranarray(tri[1:, :-1])
        lwork = int(lapack.dormqr("L", "N", reflectors, tau, z[1:, :1], -1)[1][0])
        for j in range(k):
            z[1:, j] = lapack.dormqr(
                "L", "N", reflectors, tau, z[1:, j : j + 1], lwork, overwrite_c=1
            )[0][:, 0]
        return z

    return mu, top


@dataclass(frozen=True)
class EigenResult:
    """The smallest finite eigenpairs of a symmetric pencil.

    values are ascending (up to roundoff inside a group of equal
    eigenvalues); vectors (columns) are B-orthonormal, each with a
    deterministic sign: its largest-magnitude entry on support is
    positive; n_finite is the total number of finite eigenvalues of the
    pencil; support lists the dofs where B has a nonzero row.
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

    S is never formed column by column: one symmetric factorization of
    a with the support dofs last holds S = C C^T in its trailing block
    (_trailing_root, which also checks the inertia and names the block,
    interior or Schur complement, that is not positive definite).  One
    dsygst with C turns the pencil into a standard symmetric eigenproblem
    of size |support|; it reads one triangle of b_bb, so an asymmetric a
    or b is a ValueError up front.  _top_eigenpairs gives all its
    eigenvalues, which count the finite ones, and only the eigenvectors
    y of the k largest, those of the k selected pairs.  They are taken
    back to all dofs by one solve of the whole factor with C y on the
    support: its back substitution gives w = C^{-T} y there and
    -a_ii^{-1} a_ib w on the interior.  One refinement step follows, and
    each solve keeps its residual check.

    Each vector is b-normalized and given a deterministic sign: its
    largest-magnitude entry on the support is positive.  Each returned
    value is the Rayleigh quotient of its returned vector, summed free
    of cancellation by _quadratic_form, and each pair must satisfy
    ||a x - lambda b x|| <= 1e-10 ||a x||, or LinearAlgebraError is
    raised.  The first k vectors of _top_eigenpairs do not depend on how
    many more are requested, and every later step is per column, so the
    pairs selected with k equal the first k of the full spectrum.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    a_sp, b_sp = _symmetric_csr(a, "a"), _symmetric_csr(b, "b")
    n = b_sp.shape[0]
    # b_sp may share its arrays with the caller's b: read, do not prune
    support = np.unique(b_sp.indices[b_sp.data != 0.0])
    if support.size == 0:
        raise LinearAlgebraError("b is zero: the pencil has no finite eigenvalues")

    factor, order, root = _trailing_root(a_sp, support)
    m = support.size
    # b_bb w = mu C C^T w becomes reduced y = mu y with y = C^T w.  The
    # reduction overwrites b_bb and the tridiagonalization its input;
    # c goes before it, and only the contiguous copy of its reflectors
    # that the back-transformation makes joins it, so at most two m x m
    # blocks are alive at once
    c = root.toarray(order="F")
    b_bb = b_sp[support][:, support].toarray(order="F")
    reduced = lapack.dsygst(b_bb, c, itype=1, lower=1, overwrite_a=1)[0]
    del c
    mu, top = _top_eigenpairs(reduced)
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
    rhs[-m:] = root @ top(k)
    x_p = factor.solve(rhs)
    x_p += factor.solve(rhs - factor._a @ x_p)
    vectors = np.empty((n, k), order="F")
    vectors[order] = x_p
    b_form = _quadratic_form(b_sp)
    vectors /= np.sqrt(b_form(vectors))
    peaks = vectors[support[np.argmax(np.abs(vectors[support]), axis=0)], np.arange(k)]
    vectors *= np.where(peaks < 0.0, -1.0, 1.0)
    values = _quadratic_form(a_sp)(vectors) / b_form(vectors)
    _check_residual(lambda v: (b_sp @ v) * values, vectors, a_sp @ vectors, "eigenpair check")
    return EigenResult(values, vectors, n_finite, support)
