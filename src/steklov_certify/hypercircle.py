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
a symmetric positive semidefinite system for mu.  Its kernel is one
constant lam with the matching mu.  The compatibility condition that
belongs to it fixes c in closed form, c = (int u - int f) / |Omega|,
since the interior flux dofs carry no net divergence and the broken
moments sum to |Omega|.  One multiplier, on the interior edge nearest
the vertex centroid, is pinned to zero, the remaining positive definite
system is factored once, and the dropped equation is checked as the
compatibility residual.
"""

from __future__ import annotations

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
    _P1_MASS_BLOCK,
    coefficients_of,
    p1_gradients,
    rt_divergence_vertex_values,
    rt_values_at_quadrature,
    scatter_csr,
)
from .linalg import CholeskyFactor, LinearAlgebraError, _column_norms

__all__ = [
    "EquilibrationSolver",
    "FluxSolution",
    "IncompatibleDataError",
    "NeumannSolution",
    "ProjectionConstant",
]

_ROUTE_TOL = 1e-9
_RESIDUAL_TOL = 1e-10
# constant() solves the trace basis in blocks of _BLOCK columns on up to
# _WORKERS threads (SuperLU releases the GIL).  The width is fixed
# whatever the worker count, so the quad form is the same bits on any
# host; at 8, two blocks in flight hold the 16 columns of one serial
# chunk, while two 16-column blocks raised peak RSS by over 10%
_BLOCK = 8
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class IncompatibleDataError(ValueError):
    """Boundary data and Neumann solution do not belong together."""


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
    is what makes the s solves behind the projection constant and the
    repeated draws in the verification suites cheap.
    """

    def __init__(self, system: AssembledSystem):
        self.system = system
        self._p1 = CholeskyFactor(system.stiffness + system.mass)
        mesh, dofs, el = system.mesh, system.dofs, system.rt_elements
        nt = mesh.num_triangles
        s = dofs.dim_trace
        n_edge = 2 * len(dofs.edges)
        # edge multiplier 2e + k belongs to the RT dof k of edge e; sign is
        # +1 where the global edge normal is the element's outward normal
        edge_dof = (2 * dofs.tri_edges[:, :, None] + np.arange(2)).reshape(nt, 6)
        sign = np.repeat(dofs.tri_edge_sign, 2, axis=1)
        broken = np.arange(3 * nt).reshape(nt, 3)

        local = np.zeros((nt, 11, 11))
        local[:, :8, :8] = el.mass
        local[:, :8, 8:] = np.swapaxes(el.div, 1, 2)
        local[:, 8:, :8] = el.div
        inv = np.linalg.inv(local)
        edge_block = inv[:, :6, :6] * sign[:, :, None] * sign[:, None, :]
        schur = scatter_csr(
            np.repeat(edge_dof, 6, axis=1),
            np.tile(edge_dof, (1, 6)),
            0.5 * (edge_block + np.swapaxes(edge_block, 1, 2)),
            (n_edge, n_edge),
        )
        # edge right-hand side per element load; its negated transpose
        # gives the broken multiplier per edge multiplier
        self._load_to_edge = scatter_csr(
            np.broadcast_to(edge_dof[:, :, None], (nt, 6, 3)),
            np.broadcast_to(broken[:, None, :], (nt, 6, 3)),
            sign[:, :, None] * inv[:, :6, 8:],
            (n_edge, 3 * nt),
        )
        self._lam_of_load = scatter_csr(
            np.repeat(broken, 3, axis=1), np.tile(broken, (1, 3)), inv[:, 8:, 8:], (3 * nt, 3 * nt)
        )
        self._flux_of_edge = -inv[:, :8, :6] * sign[:, None, :]
        self._flux_of_load = inv[:, :8, 8:]
        self._edge_dof = edge_dof
        self._dof_count = np.bincount(el.gdofs.ravel(), minlength=dofs.dim_rt_interior + s)

        # outward normal traces of the boundary edges: the trace map's
        # sign is that of the global normal against the outward one, and
        # the multipliers act on outward traces, so the signs cancel
        boundary_dof = (2 * dofs.boundary_edge_index[:, None] + np.arange(2)).ravel()
        trace = abs(system.trace_map).tocoo()
        self._trace_to_edge = sp.csr_matrix(
            (trace.data, (boundary_dof[trace.row], trace.col)), shape=(n_edge, s)
        )

        # the constant broken multiplier spans the kernel: pin one edge
        # multiplier and keep its equation as a check.  The pin sits on
        # the interior edge nearest the vertex centroid; a boundary pin
        # left residuals near the solve tolerance (7e-11 at square n = 64,
        # against 4e-14 here), growing fourfold per refinement
        mids = mesh.vertices[dofs.edges].mean(axis=1)
        depth = np.linalg.norm(mids - mesh.vertices.mean(axis=0), axis=1)
        self._pin = 2 * int(np.argmin(np.where(dofs.edge_is_boundary, np.inf, depth)))
        self._free = np.delete(np.arange(n_edge), self._pin)
        self._pin_row = schur[self._pin]
        self._edges = CholeskyFactor(schur[self._free][:, self._free])
        self._area = float(system.broken_moments.sum())

    def _trace_data(self, data):
        g = coefficients_of(data)
        s = self.system.dofs.dim_trace
        if g.shape != (s,):
            raise IncompatibleDataError(
                f"boundary data has shape {g.shape}, expected length {s} (the trace dofs)"
            )
        return g

    def _multipliers(self, loads, traces, solve):
        """Broken multipliers lam (3 nt, k) and edge multipliers mu
        (n_edge, k) of the hybridized flux system, for element loads
        (3 nt, k), the products of the broken hats with u - c, and
        outward normal traces (n_edge, k) on the boundary edges.
        solve is the edge factor's solve or, on a worker thread, _solve.

        Raises LinearAlgebraError when the dropped equation of the
        pinned multiplier is violated, i.e. when the mean shift inside
        the loads does not make the data compatible.
        """
        rhs = self._load_to_edge @ loads
        rhs -= traces
        mu = np.zeros(rhs.shape)
        mu[self._free] = solve(rhs[self._free])
        dropped = np.abs(self._pin_row @ mu - rhs[self._pin]).ravel()
        scale = _column_norms(rhs)
        if not np.all(dropped <= _RESIDUAL_TOL * scale):
            worst = float(np.max(dropped / np.maximum(scale, np.finfo(float).tiny)))
            raise LinearAlgebraError(f"flux compatibility residual {worst:.3e}")
        lam = self._lam_of_load @ loads - self._load_to_edge.T @ mu
        return lam, mu

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
        y = np.asarray(neumann.coefficients, dtype=float)
        if y.shape != (sysm.dofs.dim_p1,):
            raise IncompatibleDataError(
                f"Neumann solution has shape {y.shape}, expected length {sysm.dofs.dim_p1}"
            )
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
        flux = (
            self._flux_of_edge @ mu[self._edge_dof]
            + self._flux_of_load @ loads.reshape(-1, 3, 1)
        )
        # interior edge dofs: the mean of the two elements' equal values
        x = np.bincount(
            sysm.rt_elements.gdofs.ravel(), flux.ravel(), minlength=self._dof_count.size
        ) / self._dof_count
        x[sysm.dofs.dim_rt_interior :] = sysm.trace_map @ g
        lam = lam[:, 0]
        lam -= (sysm.broken_moments @ lam) / self._area
        return FluxSolution(x, lam, float(shift))

    def error_norm(self, neumann, flux, check_routes=True):
        """The guaranteed error quantity |grad u - p|.

        Always computed from the assembled closed form; with
        check_routes the value is recomputed by direct elementwise
        quadrature and the two must agree to relative 1e-9.
        """
        sysm = self.system
        y = neumann.coefficients
        x = flux.coefficients
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

        Solves the conforming and flux problems for every trace basis
        vector, assembles the error quadratic form B on the trace space
        and takes the largest eigenvalue of B against the trace Gram
        matrix.  The basis runs in blocks of _BLOCK columns c_i of the
        boundary coupling C.  As P1 = stiffness + mass is symmetric, the
        Neumann solution y_i = P1^{-1} c_i enters every product as
        y_i^T v = c_i^T P1^{-1} v, so a block adds C^T (z - y) with
        z = P1^{-1} (mass y - broken_coupling^T lam), and no (n_P1, s)
        array is formed.  The flux energy x_i^T M x_j is read off the
        multipliers of column j as -loads_i^T lam_j - traces_i^T mu_j.

        The blocks run on a pool of min(_WORKERS, blocks) threads; each
        writes only its own columns of B and sums nothing across blocks,
        so B does not depend on the thread count.  Every block keeps the
        per-column residual checks of its solves and the compatibility
        check; the first error raised in a block reaches the caller
        unchanged and the blocks not yet started are cancelled.  Blocks
        call the factors' _solve, which no tracer wraps (see
        CholeskyFactor).
        """
        sysm = self.system
        s = sysm.dofs.dim_trace
        coupling = sysm.boundary_coupling
        volumes = coupling.T @ self._p1.solve(sysm.mass @ np.ones(sysm.dofs.dim_p1))
        shifts = (volumes - np.asarray(sysm.boundary_mass.sum(axis=0)).ravel()) / self._area
        quad = np.empty((s, s))
        w = sysm.broken_moments

        def block(start):
            cols = slice(start, min(start + _BLOCK, s))
            y = self._p1._solve(coupling[:, cols])
            loads = sysm.broken_coupling @ y
            loads -= np.outer(w, shifts[cols])
            traces = self._trace_to_edge[:, cols].toarray()
            lam, mu = self._multipliers(loads, traces, self._edges._solve)
            z = self._p1._solve(sysm.mass @ y - sysm.broken_coupling.T @ lam)
            quad[:, cols] = (
                coupling.T @ (z - y)
                - np.outer(volumes, shifts[cols])
                - np.outer(shifts, volumes[cols] - w @ lam)
                - self._trace_to_edge.T @ mu
            )

        starts = range(0, s, _BLOCK)
        with ThreadPoolExecutor(min(_WORKERS, len(starts))) as pool:
            # map re-raises a block's error and cancels the pending blocks
            for _ in pool.map(block, starts):
                pass
        norm = np.linalg.norm(quad)
        asym = np.linalg.norm(quad - quad.T)
        if norm > 0 and asym > 1e-8 * norm:
            raise LinearAlgebraError(f"error quadratic form asymmetry {asym / norm:.3e}")
        quad = 0.5 * (quad + quad.T)
        values, vectors = sla.eigh(quad, sysm.boundary_mass.toarray(), check_finite=False)
        value = float(np.sqrt(max(values[-1], 0.0)))
        return ProjectionConstant(value, BoundaryField(vectors[:, -1]), quad)

    def divergence_gap(self, neumann, flux):
        """Broken L2 norm of div p - u (zero up to roundoff by design)."""
        sysm = self.system
        diff = rt_divergence_vertex_values(sysm, flux.coefficients) - neumann.coefficients[
            sysm.mesh.triangles
        ]
        areas = sysm.mesh.triangle_areas()
        per_element = np.einsum(
            "ti,ij,tj->t", diff, _P1_MASS_BLOCK, diff
        ) * areas
        return float(np.sqrt(max(per_element.sum(), 0.0)))


def _direct_error_squared(system, y, x):
    """Quadrature route for |grad u - p|^2 (degree-4 integrand, exact rule)."""
    _, wq = TRIANGLE_RULE
    grads = p1_gradients(system.mesh)
    grad_u = np.einsum("tid,ti->td", grads, y[system.mesh.triangles])
    pvals = rt_values_at_quadrature(system, x)
    diff = pvals - grad_u[:, None, :]
    sq = np.einsum("tqd,tqd->tq", diff, diff)
    return float((system.mesh.triangle_areas() * (sq @ wq)).sum())

