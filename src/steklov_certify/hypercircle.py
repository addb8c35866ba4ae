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

The flux minimizes |grad u - p| subject to the divergence constraint,
enforced with a broken-P1 Lagrange multiplier that is itself pinned to
mean zero by one scalar unknown c.  For compatible data c vanishes, which
the solver checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
)
from .linalg import CholeskyFactor, LinearAlgebraError, SaddleFactor, general_sym_eig

__all__ = [
    "EquilibrationSolver",
    "FluxSolution",
    "IncompatibleDataError",
    "NeumannSolution",
    "ProjectionConstant",
]

_ROUTE_TOL = 1e-9


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
    """Factor the conforming and mixed systems of one mesh once.

    All solves against the same mesh share the two factorizations, which
    is what makes the s solves behind the projection constant and the
    repeated draws in the verification suites cheap.
    """

    def __init__(self, system: AssembledSystem):
        self.system = system
        self._p1 = CholeskyFactor(system.stiffness + system.mass)
        dofs = system.dofs
        w_col = sp.csc_matrix(system.broken_moments[:, None])
        self._kkt = SaddleFactor(
            sp.bmat(
                [
                    [system.rt_mass_ii, None, system.div_interior.T],
                    [None, None, w_col.T],
                    [system.div_interior, w_col, None],
                ],
                format="csc",
            )
        )
        self._p_int = dofs.dim_rt_interior

    def solve_neumann(self, data):
        """Conforming solution for trace-space boundary data."""
        g = coefficients_of(data)
        y = self._p1.solve(self.system.boundary_coupling @ g)
        return NeumannSolution(y)

    def solve_flux(self, data, neumann):
        """Equilibrated flux for boundary data and its Neumann solution.

        Raises IncompatibleDataError when the data fails the solvability
        check (the volume integral of the solution must equal the
        boundary integral of the data).
        """
        sysm = self.system
        g = coefficients_of(data)
        y = neumann.coefficients
        volume = float(np.sum(sysm.mass @ y))
        surface = sysm.boundary_integral(g)
        scale = max(abs(volume), abs(surface), 1.0)
        if abs(volume - surface) > 1e-8 * scale:
            raise IncompatibleDataError(
                f"compatibility residual {abs(volume - surface):.3e} for data scale {scale:.3e}"
            )
        x_bnd = sysm.trace_map @ g
        rhs = np.concatenate(
            [
                -(sysm.rt_mass_ib @ x_bnd),
                [0.0],
                sysm.broken_coupling @ y - sysm.div_boundary @ x_bnd,
            ]
        )
        sol = self._kkt.solve(rhs)
        x = np.concatenate([sol[: self._p_int], x_bnd])
        return FluxSolution(x, sol[self._p_int + 1 :], float(sol[self._p_int]))

    def error_norm(self, neumann, flux, check_routes=True):
        """The guaranteed error quantity |grad u - p|.

        Always computed from the assembled closed form; with
        check_routes the value is recomputed by direct elementwise
        quadrature and the two must agree to relative 1e-9.
        """
        sysm = self.system
        y = neumann.coefficients
        x = flux.coefficients
        g = sysm.trace_map.T @ x[self._p_int :]
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
        matrix.
        """
        sysm = self.system
        s = sysm.dofs.dim_trace
        y_all = self._p1.solve(sysm.boundary_coupling)
        x_bnd = sysm.trace_map
        rhs = np.vstack(
            [
                -(sysm.rt_mass_ib @ x_bnd),
                np.zeros((1, s)),
                sysm.broken_coupling @ y_all - sysm.div_boundary @ x_bnd,
            ]
        )
        sol = self._kkt.solve(rhs)
        x_all = np.vstack([sol[: self._p_int], x_bnd])
        shifts = sol[self._p_int]
        volume_integrals = y_all.T @ (sysm.mass @ np.ones(sysm.dofs.dim_p1))
        quad = (
            -sysm.boundary_coupling.T @ y_all
            + y_all.T @ (sysm.mass @ y_all)
            + x_all.T @ (sysm.rt_mass @ x_all)
            - np.outer(volume_integrals, shifts)
            - np.outer(shifts, volume_integrals)
        )
        norm = np.linalg.norm(quad)
        asym = np.linalg.norm(quad - quad.T)
        if norm > 0 and asym > 1e-8 * norm:
            raise LinearAlgebraError(f"error quadratic form asymmetry {asym / norm:.3e}")
        quad = 0.5 * (quad + quad.T)
        top = general_sym_eig(quad, sysm.boundary_mass, k=1, which="largest")
        value = float(np.sqrt(max(top.values[0], 0.0)))
        return ProjectionConstant(value, BoundaryField(top.vectors[:, 0]), quad)

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

