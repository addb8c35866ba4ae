"""Discrete Steklov eigenvalue problems on a mesh.

The continuous problem seeks nonzero u with -div grad u + u = 0 in the
domain and du/dn = lambda u on the boundary; discretely that is the
pencil a(u, v) = lambda b(u, v) with a the H1 product and b the boundary
L2 product.  Two discretizations are provided: the conforming P1 space
(eigenvalues approximate from above) and the nonconforming Crouzeix-
Raviart space with one dof per edge (eigenvalues used by the companion
lower bound).  Only boundary-supported directions carry finite
eigenvalues; the count is reported as n_finite.

Eigenvectors are b-normalized with a deterministic sign: the largest-
magnitude coefficient among the boundary-supported dofs is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_boundary, assemble_p1, build_dof_maps, p1_gradients, scatter_csr
from .linalg import general_sym_eig

__all__ = [
    "SteklovSpectrum",
    "assemble_cr",
    "degenerate_groups",
    "rayleigh_quotient",
    "solve_steklov_cr",
    "solve_steklov_p1",
]

_GROUP_RTOL = 1e-9


@dataclass(frozen=True)
class SteklovSpectrum:
    """The k smallest discrete Steklov eigenvalues of one method.

    values are ascending; vectors (columns, b-normalized) live in the
    method's own dof order (vertices for conforming, edges for CR);
    groups[i] is a multiplicity tag: equal tags mark eigenvalues that
    agree to relative 1e-9 and should be read as one degenerate group.
    """

    method: str
    values: np.ndarray
    vectors: np.ndarray
    n_finite: int
    groups: np.ndarray


def degenerate_groups(values, rtol=_GROUP_RTOL):
    """Group indices for runs of eigenvalues equal up to rtol."""
    values = np.asarray(values)
    groups = np.zeros(len(values), dtype=np.int64)
    for i in range(1, len(values)):
        close = abs(values[i] - values[i - 1]) <= rtol * max(abs(values[i]), abs(values[i - 1]))
        groups[i] = groups[i - 1] + (0 if close else 1)
    return groups


def _fix_signs(vectors, support):
    """Flip columns so the largest-magnitude supported entry is positive."""
    out = vectors.copy()
    block = out[support]
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(block[:, j])))
        if block[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def solve_steklov_p1(mesh, k, operators=None):
    """The k smallest conforming P1 Steklov eigenvalues of the mesh.

    operators may carry the preassembled (stiffness, mass,
    vertex_boundary_mass) matrices to avoid reassembly.
    """
    if operators is None:
        stiffness, mass = assemble_p1(mesh)
        boundary_mass = assemble_boundary(mesh).vertex_boundary_mass
    else:
        stiffness, mass, boundary_mass = operators
    result = general_sym_eig(stiffness + mass, boundary_mass, k=k, which="smallest")
    vectors = _fix_signs(result.vectors, result.support)
    return SteklovSpectrum(
        method="conforming",
        values=result.values,
        vectors=vectors,
        n_finite=result.n_finite,
        groups=degenerate_groups(result.values),
    )


def assemble_cr(mesh):
    """Crouzeix-Raviart stiffness+mass pencil and boundary form.

    Dofs sit at edge midpoints (one per edge of the dof map ordering).
    The basis function of edge e on a triangle is 1 - 2*hat_i with hat_i
    the vertex hat opposite e, so the element stiffness is four times the
    P1 one and the element mass is diagonal.  The boundary form uses the
    exact edgewise integrals of the traces, which are linear per edge.
    """
    dofs = build_dof_maps(mesh)
    ne = len(dofs.edges)
    tris = mesh.triangles
    areas = mesh.triangle_areas()

    # edge_of[t, i] is the edge opposite local vertex i
    edge_of = dofs.tri_edges[:, [1, 2, 0]]

    grads = p1_gradients(mesh)
    s_loc = 4.0 * np.einsum("tie,tje->tij", grads, grads) * areas[:, None, None]
    s_loc = 0.5 * (s_loc + np.transpose(s_loc, (0, 2, 1)))
    rows = np.repeat(edge_of, 3, axis=1)
    cols = np.tile(edge_of, (1, 3))
    stiffness = scatter_csr(rows, cols, s_loc, (ne, ne))
    mass = scatter_csr(edge_of, edge_of, np.repeat(areas / 3.0, 3), (ne, ne))

    # traces[j, p, i]: the CR basis function opposite local vertex i of
    # the triangle owning boundary edge j, at endpoint p of that edge;
    # -1 where the endpoint is vertex i itself, +1 otherwise
    owner = tris[mesh.boundary_triangles]
    traces = 1.0 - 2.0 * (owner[:, None, :] == mesh.boundary_edges[:, :, None])
    lengths = mesh.boundary_edge_lengths()
    # integer weights keep each block an exact multiple of |e| / 6
    edge_mass = np.array([[2.0, 1.0], [1.0, 2.0]])
    blocks = (lengths / 6.0)[:, None, None] * np.einsum(
        "jpi,pq,jqk->jik", traces, edge_mass, traces
    )
    b_edges = edge_of[mesh.boundary_triangles]
    boundary_form = scatter_csr(
        np.repeat(b_edges, 3, axis=1), np.tile(b_edges, (1, 3)), blocks, (ne, ne)
    )
    return stiffness, mass, boundary_form, dofs


def solve_steklov_cr(mesh, k):
    """The k smallest Crouzeix-Raviart Steklov eigenvalues of the mesh."""
    stiffness, mass, boundary_form, dofs = assemble_cr(mesh)
    result = general_sym_eig(stiffness + mass, boundary_form, k=k, which="smallest")
    vectors = _fix_signs(result.vectors, result.support)
    return SteklovSpectrum(
        method="cr",
        values=result.values,
        vectors=vectors,
        n_finite=result.n_finite,
        groups=degenerate_groups(result.values),
    )


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
