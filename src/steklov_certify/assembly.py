"""Finite element spaces and matrix assembly.

Three spaces live on a mesh: the conforming P1 space (one dof per vertex),
the broken P1 space (three dofs per triangle, no continuity), and a
first-order Raviart-Thomas flux space used for equilibration.  The trace
space on the boundary is edgewise linear and discontinuous, two dofs per
boundary edge in loop order (slot 2j = value at the loop-start vertex of
edge j, slot 2j+1 = value at its loop-end vertex).

Raviart-Thomas dofs are, per edge, the two endpoint values of the normal
trace (normal oriented by the global min -> max vertex convention, which
EdgeTable.tri_edge_sign records per triangle edge) and, per triangle, the
two componentwise mean values of the field.  Interior dofs (edge dofs of
interior edges plus all triangle dofs) are numbered first, boundary edge
dofs last in boundary-loop order, so the normal trace on the boundary is
a signed permutation of the trace-space slots.

All assembled integrands are polynomials of degree at most four; the
six-point triangle rule below is exact for them.  Element matrices are
symmetrized before scattering, so assembled matrices are exactly
symmetric.  An assembled system keeps what a certificate reads.  What
only the per-datum flux audit or --dump-matrices reads, the broken mass
matrix, the flux element data and matrices and the sparse maps that
evaluate fluxes and P1 gradients, it builds on first use and caches.  Everything here is
pure, and the cache is a pure function of the system: meshes and
systems can be shared across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "AssembledSystem",
    "BoundaryField",
    "BoundaryOperators",
    "DofMaps",
    "RTElements",
    "TRIANGLE_RULE",
    "assemble_boundary",
    "assemble_p1",
    "assemble_system",
    "boundary_normals",
    "build_dof_maps",
    "edge_gauss_rule",
    "p1_gradients",
    "project_boundary",
    "rt_divergence_vertex_values",
    "rt_values_at_quadrature",
]

# Six-point symmetric rule, exact for degree 4.  Weights sum to one;
# integrals are area * sum(w * f(points)).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRIANGLE_RULE = (
    np.array(
        [
            [1 - 2 * _A1, _A1, _A1],
            [_A1, 1 - 2 * _A1, _A1],
            [_A1, _A1, 1 - 2 * _A1],
            [1 - 2 * _A2, _A2, _A2],
            [_A2, 1 - 2 * _A2, _A2],
            [_A2, _A2, 1 - 2 * _A2],
        ]
    ),
    np.array([_W1, _W1, _W1, _W2, _W2, _W2]),
)

_P1_MASS_BLOCK = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
_EDGE_MASS_BLOCK = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_PROJECT_GAUSS = 10  # Gauss points per edge for callable data in project_boundary


def edge_gauss_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1]; exact for degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def p1_gradients(mesh):
    """Gradients of the three vertex hat functions per triangle, (nt, 3, 2)."""
    p = mesh.vertices[mesh.triangles]
    # grad of hat i is the opposite edge p_{i+2} - p_{i+1} turned a right
    # angle counterclockwise, towards vertex i, scaled by 1/(2A)
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    return np.stack([-e[..., 1], e[..., 0]], axis=2) / (2.0 * mesh.triangle_areas())[:, None, None]


def scatter_csr(rows, cols, data, shape):
    """Sum the entries data at (rows, cols) into a csr matrix; the three
    arrays are read in flattened order and have one size."""
    return sp.coo_matrix((np.ravel(data), (np.ravel(rows), np.ravel(cols))), shape=shape).tocsr()


def scatter_blocks(row_dofs, col_dofs, blocks, shape):
    """Sum the stack of element blocks blocks[t] (r, c) into a csr matrix
    at rows row_dofs[t] (r,) and columns col_dofs[t] (c,)."""
    r, c = blocks.shape[1:]
    return scatter_csr(np.repeat(row_dofs, c, axis=1), np.tile(col_dofs, (1, r)), blocks, shape)


def p1_stiffness_blocks(mesh):
    """Element stiffness matrices of the P1 hats, (nt, 3, 3), symmetrized."""
    grads = p1_gradients(mesh)
    s_loc = np.einsum("tie,tje->tij", grads, grads) * mesh.triangle_areas()[:, None, None]
    return 0.5 * (s_loc + np.transpose(s_loc, (0, 2, 1)))


def _p1_mass_blocks(mesh):
    """Element mass matrices of the P1 hats, (nt, 3, 3)."""
    return _P1_MASS_BLOCK[None, :, :] * mesh.triangle_areas()[:, None, None]


def assemble_p1(mesh):
    """Stiffness and mass matrices of the conforming P1 space, (n, n) csr."""
    n = mesh.num_vertices
    tris = mesh.triangles
    stiffness = scatter_blocks(tris, tris, p1_stiffness_blocks(mesh), (n, n))
    mass = scatter_blocks(tris, tris, _p1_mass_blocks(mesh), (n, n))
    return stiffness, mass


def boundary_normals(mesh):
    """Outward unit normals of the boundary edges, in loop order."""
    d = mesh.vertices[mesh.boundary_edges[:, 1]] - mesh.vertices[mesh.boundary_edges[:, 0]]
    return np.column_stack([d[:, 1], -d[:, 0]]) / mesh.boundary_edge_lengths()[:, None]


@dataclass(frozen=True)
class BoundaryOperators:
    """Boundary forms of the conforming space against the trace space,
    each a csr matrix.

    boundary_coupling : (n, s) products of vertex hats with trace slots,
        two nonzeros per column.
    boundary_mass : (s, s) Gram matrix of the trace space (2x2 blocks).
    vertex_boundary_mass : (n, n) the boundary form on the conforming
        space itself.
    trace_map : (s, s) signed permutation sending trace-slot coefficients
        to boundary Raviart-Thomas dofs (normal-trace endpoint values).
    """

    boundary_coupling: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    vertex_boundary_mass: sp.csr_matrix
    trace_map: sp.csr_matrix


def assemble_boundary(mesh):
    n = mesh.num_vertices
    edges = mesh.boundary_edges
    s = 2 * len(edges)
    slots = np.arange(s).reshape(-1, 2)
    blocks = mesh.boundary_edge_lengths()[:, None, None] * _EDGE_MASS_BLOCK
    # where the loop runs against the global edge orientation, the
    # min-vertex dof reads the slot of b and the normal flips sign
    forward = mesh.edge_table.tri_edge_sign[mesh.boundary_triangles, mesh.boundary_local]
    read = np.where(forward[:, None] > 0, slots, slots[:, ::-1])
    return BoundaryOperators(
        boundary_coupling=scatter_blocks(edges, slots, blocks, (n, s)),
        boundary_mass=scatter_blocks(slots, slots, blocks, (s, s)),
        vertex_boundary_mass=scatter_blocks(edges, edges, blocks, (n, n)),
        trace_map=scatter_csr(slots, read, np.repeat(forward, 2), (s, s)),
    )


@dataclass(frozen=True)
class DofMaps:
    """Dimensions of all spaces on one mesh and the flux dof numbering.

    rt_edge_dofs[e] are the two Raviart-Thomas dofs of edge e of
    mesh.edge_table, at its min and its max vertex, and rt_tri_dofs[t]
    the two of triangle t.  The boundary edge dofs come last, in loop
    order, so dim_rt = dim_rt_interior + dim_trace.  The edges, their
    orientation and the boundary edge numbers are read from the mesh.
    """

    dim_p1: int
    dim_broken: int
    dim_trace: int
    dim_rt_interior: int
    rt_edge_dofs: np.ndarray
    rt_tri_dofs: np.ndarray

    @property
    def dim_rt(self):
        """All Raviart-Thomas dofs, interior and boundary."""
        return self.dim_rt_interior + self.dim_trace


def build_dof_maps(mesh):
    nt = mesh.num_triangles
    nb = mesh.num_boundary_edges
    boundary = mesh.boundary_edge_index
    interior = np.ones(len(mesh.edge_table.edges), dtype=bool)
    interior[boundary] = False

    n_interior_edges = len(interior) - nb
    p_int = 2 * n_interior_edges + 2 * nt
    first = 2 * (np.cumsum(interior) - 1)
    first[boundary] = p_int + 2 * np.arange(nb)
    return DofMaps(
        dim_p1=mesh.num_vertices,
        dim_broken=3 * nt,
        dim_trace=2 * nb,
        dim_rt_interior=p_int,
        rt_edge_dofs=first[:, None] + np.arange(2),
        rt_tri_dofs=2 * n_interior_edges + np.arange(2 * nt).reshape(nt, 2),
    )


@dataclass(frozen=True)
class RTElements:
    """Per-element flux data, in the order of the global dofs gdofs[t].

    The basis on element t is psi_d = sum_mu coeffs[t, mu, d] * m_mu where
    m_mu are the eight monomial fields (1,0), (xi,0), (eta,0), (0,1),
    (0,xi), (0,eta), (xi^2, xi*eta), (xi*eta, eta^2) in the local frame
    xi = (x - centroids[t]) / scales[t].  mass[t] (8, 8) and div[t] (3, 8)
    are the element flux mass matrix and the products of the three
    broken hats with the basis divergences.

    The certificate reads mass and div alone, once, for the flux
    solver's local inverse.  The audit reads gdofs, mass and div for its
    flux map and rt_mass, and coeffs, centroids and scales for its
    evaluation maps; --dump-matrices reads gdofs, mass and div through
    rt_mass and div_coupling.
    """

    gdofs: np.ndarray
    coeffs: np.ndarray
    centroids: np.ndarray
    scales: np.ndarray
    mass: np.ndarray
    div: np.ndarray


def _monomial_values(pts):
    """Monomial flux fields at local points (..., 2), shape (..., 8, 2)."""
    xi, eta = pts[..., 0], pts[..., 1]
    vals = np.zeros(pts.shape[:-1] + (8, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 0] = xi
    vals[..., 2, 0] = eta
    vals[..., 3, 1] = 1.0
    vals[..., 4, 1] = xi
    vals[..., 5, 1] = eta
    vals[..., 6, 0] = xi * xi
    vals[..., 6, 1] = xi * eta
    vals[..., 7, 0] = xi * eta
    vals[..., 7, 1] = eta * eta
    return vals


def _monomial_divergences(pts, scale):
    """Physical divergence of the monomial fields at local points (..., 2),
    shape (..., 8); scale broadcasts against pts[..., 0]."""
    xi, eta = pts[..., 0], pts[..., 1]
    div = np.zeros(pts.shape[:-1] + (8,))
    div[..., 1] = 1.0 / scale
    div[..., 5] = 1.0 / scale
    div[..., 6] = 3.0 * xi / scale
    div[..., 7] = 3.0 * eta / scale
    return div


def _local_vertices(mesh, centroids, scales):
    """Triangle vertices in each element's local frame, (nt, 3, 2)."""
    return (mesh.vertices[mesh.triangles] - centroids[:, None, :]) / scales[:, None, None]


def assemble_rt_elements(mesh, dofs):
    """The flux element data of the mesh, an RTElements."""
    bary, wq = TRIANGLE_RULE
    nt = mesh.num_triangles
    tris = mesh.triangles
    areas = mesh.triangle_areas()
    table = mesh.edge_table

    edge_vec = mesh.vertices[table.edges[:, 1]] - mesh.vertices[table.edges[:, 0]]
    edge_len = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    edge_normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / edge_len[:, None]

    centroids = mesh.vertices[tris].mean(axis=1)
    scales = mesh.edge_lengths_per_triangle().max(axis=1)
    xi = _local_vertices(mesh, centroids, scales)

    # rows 2l and 2l+1 of the Vandermonde: the normal trace on local edge
    # l at its global min and max vertex
    pair = np.array([[0, 1], [1, 2], [2, 0]])
    ends = np.where(table.tri_edge_sign[:, :, None] > 0, pair, pair[:, ::-1])
    ends_xi = xi[np.arange(nt)[:, None, None], ends]
    normals = edge_normal[table.tri_edges][:, :, None, :, None]
    v = np.empty((nt, 8, 8))
    v[:, :6] = (_monomial_values(ends_xi) @ normals).reshape(nt, 6, 8)
    pts = bary @ xi
    mvals = _monomial_values(pts)
    v[:, 6:8] = np.einsum("q,tqmd->tdm", wq, mvals)
    # the stacks go as soon as they are read: a flux audit builds this
    # data beside the factors, and the stacks it kept to the end made
    # the peak RSS of a long audit grow
    c = np.linalg.inv(v)
    del v

    # the monomial mass is x^T x, one row of x per (point, component)
    x = np.swapaxes(np.sqrt(wq)[:, None, None] * mvals, 2, 3).reshape(nt, -1, 8)
    mass_mono = areas[:, None, None] * (np.swapaxes(x, 1, 2) @ x)
    del x, mvals
    mass_elem = np.swapaxes(c, 1, 2) @ mass_mono @ c
    mass_elem = 0.5 * (mass_elem + np.swapaxes(mass_elem, 1, 2))
    div_mono = _monomial_divergences(pts, scales[:, None])
    div_elem = (areas[:, None, None] * np.einsum("q,qi,tqm->tim", wq, bary, div_mono)) @ c

    gdofs = np.concatenate(
        [dofs.rt_edge_dofs[table.tri_edges].reshape(nt, 6), dofs.rt_tri_dofs], axis=1
    )
    return RTElements(gdofs, c, centroids, scales, mass_elem, div_elem)


class _Evaluation(NamedTuple):
    values: sp.csr_matrix
    divergence: sp.csr_matrix
    gradients: sp.csr_matrix


def _rows(blocks, cols, width):
    """csr matrix, int32 indices, with one row per vector blocks[..., :]
    and its entries in columns cols (broadcast, distinct within a row)."""
    indptr = np.arange(0, blocks.size + 1, blocks.shape[-1], dtype=np.int32)
    indices = np.broadcast_to(cols, blocks.shape).astype(np.int32).ravel()
    return sp.csr_matrix((blocks.ravel(), indices, indptr), shape=(len(indptr) - 1, width))


@dataclass(frozen=True)
class AssembledSystem:
    """All operators of one mesh, in a fixed deterministic dof order.

    Every matrix is stored once, as csr; only broken_moments is a
    vector.  The boundary operators are those of BoundaryOperators.
    The certificate reads every field: stiffness, mass and
    vertex_boundary_mass make the conforming pencil, and stiffness +
    mass, the boundary operators and the broken coupling and moments the
    projection constant.  --dump-matrices writes every matrix.

    The broken mass matrix broken_mass (dim_broken, dim_broken), which
    only the audit's divergence gap and --dump-matrices read, and the
    flux space live in cached properties, built on first use.  The
    flux solver assembles its own element data, so a certified level
    builds none of them.  The audit reads the element data rt_elements
    and the flux mass matrix rt_mass (p, p), p = dofs.dim_rt; only
    --dump-matrices and the tests read the divergence coupling
    div_coupling (dim_broken, p).  The two matrices
    number the interior dofs first and the boundary dofs (loop order)
    last, so their interior and boundary blocks are the column slices
    at dofs.dim_rt_interior.
    """

    mesh: Mesh
    dofs: DofMaps
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    boundary_coupling: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    vertex_boundary_mass: sp.csr_matrix
    trace_map: sp.csr_matrix
    broken_coupling: sp.csr_matrix
    broken_moments: np.ndarray

    def boundary_integral(self, g):
        """Integral of a trace-space function over the boundary."""
        return float(np.sum(self.boundary_mass @ np.asarray(g)))

    def boundary_norm(self, g):
        """L2 boundary norm of a trace-space function."""
        g = np.asarray(g)
        return float(np.sqrt(max(g @ (self.boundary_mass @ g), 0.0)))

    @functools.cached_property
    def broken_mass(self):
        m = self.dofs.dim_broken
        ids = np.arange(m).reshape(-1, 3)
        return scatter_blocks(ids, ids, _p1_mass_blocks(self.mesh), (m, m))

    @functools.cached_property
    def rt_elements(self):
        """The flux element data, an RTElements."""
        return assemble_rt_elements(self.mesh, self.dofs)

    @functools.cached_property
    def rt_mass(self):
        el, p = self.rt_elements, self.dofs.dim_rt
        return scatter_blocks(el.gdofs, el.gdofs, el.mass, (p, p))

    @functools.cached_property
    def div_coupling(self):
        el, m, p = self.rt_elements, self.dofs.dim_broken, self.dofs.dim_rt
        return scatter_blocks(np.arange(m).reshape(-1, 3), el.gdofs, el.div, (m, p))

    @functools.cached_property
    def _evaluation(self):
        """Pointwise evaluation as csr maps of the coefficients, built on
        first use: the values of a flux at the triangle-rule points
        (nt*q*2, p), its divergence at the triangle vertices (3 nt, p)
        and the gradient of a P1 function per triangle (2 nt, n)."""
        mesh, el, p = self.mesh, self.rt_elements, self.dofs.dim_rt
        xi = _local_vertices(mesh, el.centroids, el.scales)
        values = np.swapaxes(_monomial_values(TRIANGLE_RULE[0] @ xi), 2, 3) @ el.coeffs[:, None]
        divergence = _monomial_divergences(xi, el.scales[:, None]) @ el.coeffs
        gradients = np.swapaxes(p1_gradients(mesh), 1, 2)
        return _Evaluation(
            values=_rows(values, el.gdofs[:, None, None], p),
            divergence=_rows(divergence, el.gdofs[:, None], p),
            gradients=_rows(gradients, mesh.triangles[:, None], mesh.num_vertices),
        )


def assemble_system(mesh):
    """Assemble every operator the certification pipeline needs."""
    dofs = build_dof_maps(mesh)
    stiffness, mass = assemble_p1(mesh)
    m, n = dofs.dim_broken, dofs.dim_p1
    return AssembledSystem(
        mesh=mesh,
        dofs=dofs,
        stiffness=stiffness,
        mass=mass,
        **vars(assemble_boundary(mesh)),
        broken_coupling=scatter_blocks(
            np.arange(m).reshape(-1, 3), mesh.triangles, _p1_mass_blocks(mesh), (m, n)
        ),
        broken_moments=np.repeat(mesh.triangle_areas() / 3.0, 3),
    )


@dataclass(frozen=True)
class BoundaryField:
    """Coefficients of an edgewise-linear function on the boundary loop."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", arr)


def coefficients_of(data):
    """Accept a BoundaryField or a bare coefficient array."""
    return np.asarray(getattr(data, "coefficients", data), dtype=float)


def project_boundary(mesh, data):
    """L2-project boundary data onto the trace space, edge by edge.

    data is either a callable f(points, normal) -> values, called once
    per edge with its (q, 2) Gauss points and outward unit normal, or an
    (nb, 2) array of endpoint values taken as the trace coefficients
    directly.  The projection is local: each edge solves its own 2x2 Gram
    system, so jumps at vertices are allowed.  Non-finite data raises
    ValueError on either path.
    """
    nb = mesh.num_boundary_edges
    if not callable(data):
        g = np.asarray(data, dtype=float)
        if g.shape != (nb, 2):
            raise ValueError(f"expected ({nb}, 2) endpoint values, got {g.shape}")
        g = g.ravel()
    else:
        snodes, sweights = edge_gauss_rule(_PROJECT_GAUSS)
        pa, pb = mesh.vertices[mesh.boundary_edges.T]
        points = pa[:, None, :] + snodes[:, None] * (pb - pa)[:, None, :]
        normals = boundary_normals(mesh)
        vals = [np.asarray(data(pts, normal), dtype=float) for pts, normal in zip(points, normals)]
        if any(v.shape != snodes.shape for v in vals):
            raise ValueError("boundary data callable must return one value per point")
        # the hat moments on [0, 1] times the inverse [[4, -2], [-2, 4]]
        # of the unit edge Gram block: |e| cancels between the two
        moments = np.array(vals) @ (sweights[:, None] * np.column_stack([1.0 - snodes, snodes]))
        g = (moments @ np.array([[4.0, -2.0], [-2.0, 4.0]])).ravel()
    if not np.all(np.isfinite(g)):
        raise ValueError("boundary data produced non-finite projection coefficients")
    return BoundaryField(g)


def _check_length(values, length, what, error=ValueError):
    """values as a float vector; error unless it has length entries."""
    values = np.asarray(values, dtype=float)
    if values.shape != (length,):
        raise error(f"{what} has shape {values.shape}, expected length {length}")
    return values


def rt_values_at_quadrature(system, x):
    """Flux field values at the triangle-rule points, (nt, q, 2).

    Raises ValueError unless x has one entry per Raviart-Thomas dof.
    """
    values = system._evaluation.values @ _check_length(x, system.dofs.dim_rt, "flux")
    return values.reshape(system.mesh.num_triangles, -1, 2)


def rt_divergence_vertex_values(system, x):
    """div of a flux field at each triangle's vertices, (nt, 3).

    The divergence is linear per element, so vertex values determine it.
    Raises ValueError unless x has one entry per Raviart-Thomas dof.
    """
    divergence = system._evaluation.divergence @ _check_length(x, system.dofs.dim_rt, "flux")
    return divergence.reshape(-1, 3)
