"""Discrete Steklov eigenvalue problems on a mesh.

The continuous problem seeks nonzero u with -div grad u + u = 0 in the
domain and du/dn = lambda u on the boundary; discretely that is the
pencil a(u, v) = lambda b(u, v) with a the H1 product and b the boundary
L2 product.  Two discretizations are provided: the conforming P1 space
(eigenvalues approximate from above) and the nonconforming Crouzeix-
Raviart space with one dof per edge (eigenvalues used by the companion
lower bound).  Only boundary-supported directions carry finite
eigenvalues; the count is reported as n_finite.

Both solvers return the EigenResult of linalg.general_sym_eig, whose
vectors are b-normalized and signed there; degenerate_groups(values)
tags the eigenvalues that agree to relative 1e-9.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    assemble_boundary,
    assemble_p1,
    p1_stiffness_blocks,
    scatter_blocks,
    scatter_csr,
)
from .linalg import general_sym_eig

__all__ = [
    "assemble_cr",
    "degenerate_groups",
    "rayleigh_quotient",
    "solve_steklov_cr",
    "solve_steklov_p1",
]

_GROUP_RTOL = 1e-9


def degenerate_groups(values):
    """Group indices for runs of eigenvalues equal up to _GROUP_RTOL."""
    values = np.asarray(values)
    scale = _GROUP_RTOL * np.maximum(np.abs(values[1:]), np.abs(values[:-1]))
    apart = ~(np.abs(np.diff(values)) <= scale)
    return np.cumsum(np.concatenate([[False], apart]), dtype=np.int64)[: len(values)]


def solve_steklov_p1(mesh, k):
    """The k smallest conforming P1 Steklov eigenvalues of the mesh."""
    stiffness, mass = assemble_p1(mesh)
    boundary = assemble_boundary(mesh).vertex_boundary_mass
    return general_sym_eig(stiffness + mass, boundary, k=k)


def assemble_cr(mesh):
    """Crouzeix-Raviart stiffness, mass and boundary form.

    Dofs sit at edge midpoints, one per edge of mesh.edge_table, in its
    order.  The basis function of edge e on a triangle is 1 - 2*hat_i
    with hat_i the vertex hat opposite e, so the element stiffness is the
    P1 element stiffness times four and the element mass is diagonal.
    The boundary form uses the exact edgewise integrals of the traces,
    which are linear per edge.
    """
    table = mesh.edge_table
    ne = len(table.edges)
    areas = mesh.triangle_areas()

    # edge_of[t, i] is the edge opposite local vertex i
    edge_of = table.tri_edges[:, [1, 2, 0]]
    stiffness = scatter_blocks(edge_of, edge_of, 4.0 * p1_stiffness_blocks(mesh), (ne, ne))
    mass = scatter_csr(edge_of, edge_of, np.repeat(areas / 3.0, 3), (ne, ne))

    # traces[j, p, i]: the CR basis function opposite local vertex i of
    # the triangle owning boundary edge j, at endpoint p of that edge;
    # -1 where the endpoint is vertex i itself, +1 otherwise
    owner = mesh.triangles[mesh.boundary_triangles]
    traces = 1.0 - 2.0 * (owner[:, None, :] == mesh.boundary_edges[:, :, None])
    lengths = mesh.boundary_edge_lengths()
    # integer weights keep each block an exact multiple of |e| / 6
    edge_mass = np.array([[2.0, 1.0], [1.0, 2.0]])
    blocks = (lengths / 6.0)[:, None, None] * np.einsum(
        "jpi,pq,jqk->jik", traces, edge_mass, traces
    )
    b_edges = edge_of[mesh.boundary_triangles]
    boundary_form = scatter_blocks(b_edges, b_edges, blocks, (ne, ne))
    return stiffness, mass, boundary_form


def solve_steklov_cr(mesh, k):
    """The k smallest Crouzeix-Raviart Steklov eigenvalues of the mesh."""
    stiffness, mass, boundary = assemble_cr(mesh)
    return general_sym_eig(stiffness + mass, boundary, k=k)


def rayleigh_quotient(stiffness, mass, boundary_form, v):
    """b(v, v) / a(v, v): the reciprocal Rayleigh quotient of the pencil.

    For a b-normalized eigenvector with eigenvalue lambda this equals
    1 / lambda.  Raises on vectors with (numerically) zero boundary
    trace, which carry no finite eigenvalue.
    """
    v = np.asarray(v)
    a_val = float(v @ ((stiffness + mass) @ v))
    b_val = float(v @ (boundary_form @ v))
    if a_val <= 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    if b_val <= 1e-14 * a_val:
        raise ValueError("vector has (numerically) zero boundary trace")
    return b_val / a_val
