"""Flux equilibration and the computable projection error constant.

For boundary data f in the trace space, the conforming solution u of

    (grad u, grad v) + (u, v) = <f, v> on the boundary   for all v

has an equilibrated companion flux p in the Raviart-Thomas space with
div p = u exactly and normal trace p.n = f on the boundary.  The identity

    |u_exact - u|_{H1}^2 + |grad u_exact - p|^2 <= |grad u - p|^2

(hypercircle, both error terms measured against the continuous solution
of the same data) makes |grad u - p| a guaranteed error bound.  Taken
over all unit boundary data, the worst value of |grad u - p| is an
eigenvalue problem on the trace space; its square root is the projection
error constant used by the certified eigenvalue bounds.

The flux minimizes |grad u - p| subject to the divergence constraint
div p = u - c, enforced with a broken-P1 Lagrange multiplier lam of mean
zero.  For compatible data the scalar mean shift c vanishes, which the
solver checks.

The mixed system is solved by hybridization (Arnold & Brezzi 1985;
Brezzi & Fortin 1991).  The flux is relaxed to a broken Raviart-Thomas
field, and edge multipliers mu, one per RT edge dof, enforce normal
continuity on interior edges and the data p.n = f on the boundary.
Each element's 8 flux dofs and 3 broken multipliers are eliminated with
one batched inverse of the (11, 11) local saddle matrices, which leaves
a symmetric positive semidefinite system for mu and one sparse map from
[mu; loads] to the flux.  The kernel is one constant lam with the
matching mu.  The compatibility condition that belongs to it fixes c in
closed form, c = (int u - int f) / |Omega|, since the interior flux dofs
carry no net divergence and the broken moments sum to |Omega|.  One
multiplier, on the interior edge nearest the vertex centroid, is pinned
to zero in place (its row and column become the unit vector), the system
is factored once, and the pinned equation is the compatibility check.

The constant needs the error form on all s trace directions, but only
s/2 of them reach the conforming problem: the boundary coupling has
nonzero rows at the s/2 boundary vertices alone.  On its kernel the
Neumann solution and the element loads vanish, and the form is the
boundary block of the inverse of the pinned edge system, the inverse of
its Schur complement on the boundary edge dofs (static condensation,
Brezzi & Fortin 1991).  That complement is the trailing block of one
throwaway factor which orders the boundary dofs last; it is made once,
before the kept minimum degree factor that serves the s/2 solved
directions and one cross-check block of the others.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (
    AssembledSystem,
    BoundaryField,
    TRIANGLE_RULE,
    _check_length,
    assemble_rt_elements,
    coefficients_of,
    rt_divergence_vertex_values,
    rt_values_at_quadrature,
    scatter_blocks,
)
from .linalg import (
    _RANK_TOL,
    _RESIDUAL_TOL,
    CholeskyFactor,
    LinearAlgebraError,
    _check_residual,
    _column_norms,
    _top_eigenpairs,
    _trailing_root,
)

__all__ = [
    "EquilibrationSolver",
    "FluxSolution",
    "IncompatibleDataError",
    "NeumannSolution",
    "ProjectionConstant",
]

_ROUTE_TOL = 1e-9
# constant() solves its half of the trace basis, and one cross-check
# block, in blocks of _BLOCK columns on up to _WORKERS threads (SuperLU
# releases the GIL).  The width is fixed whatever the worker count, so
# the quad form is the same bits on any host; at 8, two blocks in flight
# hold the 16 columns of one serial chunk, while two 16-column blocks
# raised peak RSS by over 10%
_BLOCK = 8
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class IncompatibleDataError(ValueError):
    """Boundary data, Neumann solution and flux do not belong together,
    or one of them does not fit the system."""


_checked = functools.partial(_check_length, error=IncompatibleDataError)


@dataclass(frozen=True)
class NeumannSolution:
    """Vertex coefficients of the conforming Neumann solve."""

    coefficients: np.ndarray


@dataclass(frozen=True)
class FluxSolution:
    """Equilibrated flux: coefficients in the full RT dof order
    (interior first, boundary last), the broken-P1 multiplier, and the
    scalar mean shift c (zero for compatible data)."""

    coefficients: np.ndarray
    multipliers: np.ndarray
    mean_shift: float


@dataclass(frozen=True)
class ProjectionConstant:
    """Worst-case error bound constant over unit boundary data.

    value is the constant itself; maximizer attains it; quad_form is the
    (s, s) positive semidefinite matrix whose largest eigenvalue against
    the trace Gram matrix is value**2.
    """

    value: float
    maximizer: BoundaryField
    quad_form: np.ndarray


class EquilibrationSolver:
    """Factor the conforming and the hybridized flux systems of one mesh once.

    All solves against the same mesh share the two factorizations, which
    is what makes the s/2 solves behind the projection constant and the
    repeated draws in the verification suites cheap.
    """

    def __init__(self, system: AssembledSystem):
        self.system = system
        self._p1 = CholeskyFactor(system.stiffness + system.mass)
        mesh, dofs = system.mesh, system.dofs
        s, m = dofs.dim_trace, dofs.dim_broken
        n_edge = 2 * len(mesh.edge_table.edges)
        # element data of its own, gone before the edge factors; an
        # audit builds the system's cached copy
        inv, edge_dof, sign, broken = _local_inverse(mesh, assemble_rt_elements(mesh, dofs))
        edge_block = inv[:, :6, :6] * sign[:, :, None] * sign[:, None, :]
        edge_block = 0.5 * (edge_block + np.swapaxes(edge_block, 1, 2))
        schur = scatter_blocks(edge_dof, edge_dof, edge_block, (n_edge, n_edge))
        # edge right-hand side per element load; its negated transpose
        # gives the broken multiplier per edge multiplier
        load_block = sign[:, :, None] * inv[:, :6, 8:]
        self._load_to_edge = scatter_blocks(edge_dof, broken, load_block, (n_edge, m))
        self._lam_of_load = scatter_blocks(broken, broken, inv[:, 8:, 8:], (m, m))
        del inv, edge_block, load_block

        # outward normal traces of the boundary edges: the trace map's
        # sign is that of the global normal against the outward one, and
        # the multipliers act on outward traces, so the signs cancel
        boundary_dof = (2 * mesh.boundary_edge_index[:, None] + np.arange(2)).ravel()
        place = sp.csr_matrix((np.ones(s), (boundary_dof, np.arange(s))), shape=(n_edge, s))
        self._trace_to_edge = place @ abs(system.trace_map)

        # the constant broken multiplier spans the kernel: pin one edge
        # multiplier in place, its row and column made the unit vector
        # (the assembled system holds no other zero to drop), and
        # keep its equation as a check.  The pin sits on the interior
        # edge nearest the vertex centroid; a boundary pin left residuals
        # near the solve tolerance (7e-11 at square n = 64, against 4e-14
        # here), growing fourfold per refinement
        mids = mesh.vertices[mesh.edge_table.edges].mean(axis=1)
        depth = np.linalg.norm(mids - mesh.vertices.mean(axis=0), axis=1)
        depth[mesh.boundary_edge_index] = np.inf
        pin = self._pin = 2 * int(np.argmin(depth))
        self._pin_row = schur[pin]
        schur.data[schur.indices == pin] = 0.0
        schur.data[schur.indptr[pin] : schur.indptr[pin + 1]] = 0.0
        schur[pin, pin] = 1.0
        schur.eliminate_zeros()
        # the root of the Schur complement of the pinned system on the
        # boundary dofs, in the row order of the trace map, from a
        # throwaway factor that orders them last (1.6 times the fill of
        # the minimum degree factor at square n = 64).  Its inertia proves
        # the matrix positive definite, so the kept factor reads no pivots
        self._boundary_root = _trailing_root(schur, boundary_dof)[2].toarray(order="F")
        self._edges = CholeskyFactor(schur, _spd=True)
        self._area = float(system.broken_moments.sum())

    def _trace_data(self, data):
        return _checked(coefficients_of(data), self.system.dofs.dim_trace, "boundary data")

    def _multipliers(self, loads, traces, solve):
        """Broken multipliers lam (3 nt, k) and edge multipliers mu
        (n_edge, k) of the hybridized flux system, for element loads
        (3 nt, k), the products of the broken hats with u - c, and
        outward normal traces (n_edge, k) on the boundary edges.
        solve is the edge factor's solve or, on a worker thread, _solve.

        Raises LinearAlgebraError when the pinned equation fails against
        the saved rhs[pin], which the solve sees as zero, i.e. when the
        mean shift inside the loads does not make the data compatible.
        """
        rhs = self._load_to_edge @ loads
        rhs -= traces
        scale = _column_norms(rhs)
        pinned = rhs[self._pin].copy()
        rhs[self._pin] = 0.0
        mu = solve(rhs)
        dropped = np.abs(self._pin_row @ mu - pinned).ravel()
        if not np.all(dropped <= _RESIDUAL_TOL * scale):
            worst = float(np.max(dropped / np.maximum(scale, np.finfo(float).tiny)))
            raise LinearAlgebraError(f"flux compatibility residual {worst:.3e}")
        lam = self._lam_of_load @ loads - self._load_to_edge.T @ mu
        return lam, mu

    @functools.cached_property
    def _flux_map(self):
        """Flux dofs as one linear map of [mu; loads], each dof the mean
        of its elements' values.  Built on the first solve_flux, from
        the system's element data: constant() needs none of it."""
        dofs, el = self.system.dofs, self.system.rt_elements
        inv, edge_dof, sign, broken = _local_inverse(self.system.mesh, el)
        # each element's flux dofs from its entries of [mu; loads]
        stack = np.delete(inv[:, :8], [6, 7], axis=2)
        del inv
        stack[:, :, :6] *= -sign[:, None, :]
        n_edge, width = self._load_to_edge.shape[0], sum(self._load_to_edge.shape)
        count = np.bincount(el.gdofs.ravel(), minlength=dofs.dim_rt)
        flux_cols = np.concatenate([edge_dof, n_edge + broken], axis=1)
        stack /= count[el.gdofs][:, :, None]
        return scatter_blocks(el.gdofs, flux_cols, stack, (count.size, width))

    def solve_neumann(self, data):
        """Conforming solution for trace-space boundary data."""
        g = self._trace_data(data)
        y = self._p1.solve(self.system.boundary_coupling @ g)
        return NeumannSolution(y)

    def solve_flux(self, data, neumann):
        """Equilibrated flux for boundary data and its Neumann solution.

        Raises IncompatibleDataError when the data fails the solvability
        check (the volume integral of the solution must equal the
        boundary integral of the data) or has the wrong length.
        """
        sysm = self.system
        g = self._trace_data(data)
        y = _checked(neumann.coefficients, sysm.dofs.dim_p1, "Neumann solution")
        volume = float(np.sum(sysm.mass @ y))
        surface = sysm.boundary_integral(g)
        scale = max(abs(volume), abs(surface), 1.0)
        if abs(volume - surface) > 1e-8 * scale:
            raise IncompatibleDataError(
                f"compatibility residual {abs(volume - surface):.3e} for data scale {scale:.3e}"
            )
        shift = (volume - surface) / self._area
        loads = sysm.broken_coupling @ y - shift * sysm.broken_moments
        lam, mu = self._multipliers(
            loads[:, None], self._trace_to_edge @ g[:, None], self._edges.solve
        )
        x = self._flux_map @ np.concatenate([mu[:, 0], loads])
        x[sysm.dofs.dim_rt_interior :] = sysm.trace_map @ g
        lam = lam[:, 0]
        lam -= (sysm.broken_moments @ lam) / self._area
        return FluxSolution(x, lam, float(shift))

    def error_norm(self, neumann, flux, check_routes=True):
        """The guaranteed error quantity |grad u - p|.

        Always computed from the assembled closed form; with
        check_routes the value is recomputed by direct elementwise
        quadrature and the two must agree to relative 1e-9.  Raises
        IncompatibleDataError when a coefficient vector has the wrong
        length.
        """
        sysm = self.system
        y = _checked(neumann.coefficients, sysm.dofs.dim_p1, "Neumann solution")
        x = _checked(flux.coefficients, sysm.dofs.dim_rt, "flux")
        g = sysm.trace_map.T @ x[sysm.dofs.dim_rt_interior :]
        volume_integral = float(np.sum(sysm.mass @ y))
        closed = (
            -float(g @ (sysm.boundary_coupling.T @ y))
            + float(y @ (sysm.mass @ y))
            - 2.0 * flux.mean_shift * volume_integral
            + float(x @ (sysm.rt_mass @ x))
        )
        closed = max(closed, 0.0)
        if check_routes:
            direct = _direct_error_squared(sysm, y, x)
            scale = max(closed, direct, 1e-30)
            if abs(closed - direct) > _ROUTE_TOL * scale:
                raise LinearAlgebraError(
                    f"error quantity routes disagree: closed {closed:.16e}, direct {direct:.16e}"
                )
        return float(np.sqrt(closed))

    def constant(self):
        """Projection error constant: worst error over unit boundary data.

        Assembles the error quadratic form Q on the trace space and takes
        the largest eigenvalue of Q against the trace Gram matrix G: after
        a Cholesky factor G = L L^T, the top pair of L^{-1} Q L^{-T} from
        _top_eigenpairs, with no other eigenvector formed.  Data
        enter the conforming problem only through C g, C the boundary
        coupling, whose rows at the s/2 boundary vertices form C_b.  A
        complete QR of C_b^T splits the trace space into orthonormal
        bases G_A of its range (rank s/2, checked) and G_N of ker C_b.

        On G_A the conforming and flux problems are solved, in blocks of
        _BLOCK columns b of G_A.  As P1 = stiffness + mass is symmetric,
        the Neumann solution y = P1^{-1} C b enters every product as
        y^T v = b^T C^T P1^{-1} v, so a block adds C^T (z - y) with
        z = P1^{-1} (mass y - broken_coupling^T lam), and no (n_P1, s)
        array is formed.  The flux energy of two data is read off the
        multipliers of one of them as -loads^T lam - traces^T mu.  This
        gives Q G_A.  Every trace datum is compatible in exact
        arithmetic: P1 1 = mass 1, so volumes = C^T 1 are the column sums
        of the boundary mass and each shift is rounding-level.  The shift
        terms stay, as dropping them all tripled the worst compatibility
        residual at square n = 128.

        On G_N the Neumann solution, the loads and the mean shift vanish
        (1^T C is the boundary integral), so G_N^T Q G_N = W^T W with
        W = R^{-1} T G_N: T sends data to the boundary edge multipliers
        and R is the root of the Schur complement S = R R^T of the pinned
        edge system on them, read off in __init__.  Then
        Q = G [[G_A^T Q G_A, .], [G_N^T Q G_A, W^T W]] G^T with G = [G_A |
        G_N] and the upper right block mirrored.  One more block, the
        first _BLOCK columns of G_N, runs through the solves as a cross-
        check: its columns of Q must match the assembled ones to 1e-10
        relative, each column by itself, or LinearAlgebraError is raised.

        The blocks run on a pool of min(_WORKERS, blocks) threads; each
        writes only its own columns and sums nothing across blocks, so Q
        does not depend on the thread count.  Every block keeps the
        per-column residual checks of its solves and the compatibility
        check; the first error raised in a block reaches the caller
        unchanged and the blocks not yet started are cancelled.  Blocks
        call the factors' _solve, which no tracer wraps (see
        CholeskyFactor).  A mesh with no interior edge, one triangle, has
        nowhere to pin and raises LinearAlgebraError.
        """
        sysm = self.system
        if len(sysm.mesh.edge_table.edges) == sysm.mesh.num_boundary_edges:
            raise LinearAlgebraError("projection constant: the mesh has no interior edge to pin")
        s = sysm.dofs.dim_trace
        half = s // 2
        coupling = sysm.boundary_coupling
        rows = np.flatnonzero(np.diff(coupling.indptr))
        basis, r = sla.qr(coupling[rows].T.toarray(), check_finite=False)
        pivots = np.abs(np.diag(r))
        if len(rows) != half or not pivots.min() > _RANK_TOL * pivots.max():
            raise LinearAlgebraError(
                f"boundary coupling: {len(rows)} boundary vertices for {s} trace dofs, "
                "expected full rank s/2"
            )
        volumes = coupling.T @ self._p1.solve(sysm.mass @ np.ones(sysm.dofs.dim_p1))
        shifts = (volumes - np.asarray(sysm.boundary_mass.sum(axis=0)).ravel()) / self._area
        w = sysm.broken_moments
        quad_a = np.empty((s, half))
        width = min(_BLOCK, half)
        check = np.empty((s, width))

        def block(cols, out):
            """Columns Q b of the error form for the basis columns b."""
            y = self._p1._solve(coupling @ cols)
            loads = sysm.broken_coupling @ y
            loads -= np.outer(w, shifts @ cols)
            traces = self._trace_to_edge @ cols
            lam, mu = self._multipliers(loads, traces, self._edges._solve)
            z = self._p1._solve(sysm.mass @ y - sysm.broken_coupling.T @ lam)
            out[:] = (
                coupling.T @ (z - y)
                - np.outer(volumes, shifts @ cols)
                - np.outer(shifts, volumes @ cols - w @ lam)
                - self._trace_to_edge.T @ mu
            )

        starts = range(0, half, _BLOCK)
        # the last G_A block stops at half, short when _BLOCK does not divide it
        columns = [basis[:, i : min(i + _BLOCK, half)] for i in starts]
        columns.append(basis[:, half : half + width])
        outputs = [quad_a[:, i : i + _BLOCK] for i in starts] + [check]
        with ThreadPoolExecutor(min(_WORKERS, len(columns))) as pool:
            # map re-raises a block's error and cancels the pending blocks
            for _ in pool.map(block, columns, outputs):
                pass
        # Q in the coordinates of G: the solved columns, their mirror, and
        # the Schur block W^T W; the solved G_N block must match G form
        form = np.empty((s, s))
        form[:, :half] = basis.T @ quad_a
        form[:half, half:] = form[half:, :half].T
        root_w = sla.blas.dtrsm(
            1.0, self._boundary_root, abs(sysm.trace_map) @ basis[:, half:], lower=1
        )
        form[half:, half:] = root_w.T @ root_w
        _check_residual(
            lambda cols: basis @ cols, form[:, half : half + width], check, "kappa cross-check"
        )
        quad = basis @ form @ basis.T
        norm = np.linalg.norm(quad)
        asym = np.linalg.norm(quad - quad.T)
        if norm > 0 and asym > 1e-8 * norm:
            raise LinearAlgebraError(f"error quadratic form asymmetry {asym / norm:.3e}")
        quad = 0.5 * (quad + quad.T)
        # the top pair of Q x = kappa^2 G x, G = L L^T the trace Gram
        # matrix: the top pair (mu, y) of L^{-1} Q L^{-T}, one dsygst
        # on a copy of Q's lower triangle, gives kappa^2 = mu and the
        # G-normalized maximizer x = L^{-T} y
        root_g = sla.cholesky(sysm.boundary_mass.toarray(), lower=True, check_finite=False)
        mu, top = _top_eigenpairs(sla.lapack.dsygst(quad, root_g, itype=1, lower=1)[0])
        maximizer = sla.blas.dtrsm(1.0, root_g, top(1), lower=1, trans_a=1)
        value = float(np.sqrt(max(mu[-1], 0.0)))
        return ProjectionConstant(value, BoundaryField(maximizer[:, 0]), quad)

    def divergence_gap(self, neumann, flux):
        """Broken L2 norm of div p - u (zero up to roundoff by design).

        Raises IncompatibleDataError when a coefficient vector has the
        wrong length.
        """
        sysm = self.system
        x = _checked(flux.coefficients, sysm.dofs.dim_rt, "flux")
        y = _checked(neumann.coefficients, sysm.dofs.dim_p1, "Neumann solution")
        diff = (rt_divergence_vertex_values(sysm, x) - y[sysm.mesh.triangles]).ravel()
        return float(np.sqrt(max(diff @ (sysm.broken_mass @ diff), 0.0)))


def _local_inverse(mesh, elements):
    """Per element, the inverse of its (11, 11) saddle matrix [[mass,
    div^T], [div, 0]], its edge multipliers (2e + k for the RT dof k of
    edge e), their signs (+1 where the global edge normal is the
    element's outward normal) and its broken dofs."""
    nt = len(elements.gdofs)
    local = np.zeros((nt, 11, 11))
    local[:, :8, :8] = elements.mass
    local[:, :8, 8:] = np.swapaxes(elements.div, 1, 2)
    local[:, 8:, :8] = elements.div
    table = mesh.edge_table
    edge_dof = (2 * table.tri_edges[:, :, None] + np.arange(2)).reshape(nt, 6)
    sign = np.repeat(table.tri_edge_sign, 2, axis=1)
    return np.linalg.inv(local), edge_dof, sign, np.arange(3 * nt).reshape(nt, 3)


def _direct_error_squared(system, y, x):
    """Quadrature route for |grad u - p|^2 (degree-4 integrand, exact rule)
    through the system's cached evaluation operators."""
    _, wq = TRIANGLE_RULE
    mesh = system.mesh
    nt = mesh.num_triangles
    # one row per triangle, (point, component) pairs along it: numpy
    # broadcasts over a length-2 last axis several times slower
    grad_u = np.tile((system._evaluation.gradients @ y).reshape(nt, 2), len(wq))
    diff = rt_values_at_quadrature(system, x).reshape(nt, -1) - grad_u
    return float(mesh.triangle_areas() @ ((diff * diff) @ np.repeat(wq, 2)))

