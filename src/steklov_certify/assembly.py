"""Finite element spaces and matrix assembly.

Three spaces live on a mesh: the conforming P1 space (one dof per vertex),
the broken P1 space (three dofs per triangle, no continuity), and a
first-order Raviart-Thomas flux space used for equilibration.  The trace
space on the boundary is edgewise linear and discontinuous, two dofs per
boundary edge in loop order (slot 2j = value at the loop-start vertex of
edge j, slot 2j+1 = value at its loop-end vertex).

Raviart-Thomas dofs are, per edge, the two endpoint values of the normal
trace (normal oriented by the global min -> max vertex convention, which
DofMaps.tri_edge_sign records per triangle edge) and, per triangle, the
two componentwise mean values of the field.  Interior dofs (edge dofs of
interior edges plus all triangle dofs) are numbered first, boundary edge
dofs last in boundary-loop order, so the normal trace on the boundary is
a signed permutation of the trace-space slots.

All assembled integrands are polynomials of degree at most four; the
six-point triangle rule below is exact for them.  Element matrices are
symmetrized before scattering, so assembled matrices are exactly
symmetric.  Everything here is pure: meshes and systems can be shared
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, boundary_local_edges

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


def edge_gauss_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1]; exact for degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def p1_gradients(mesh):
    """Gradients of the three vertex hat functions per triangle, (nt, 3, 2)."""
    p = mesh.vertices[mesh.triangles]
    areas = mesh.triangle_areas()
    # grad of hat i is perpendicular to the opposite edge, scaled by 1/(2A)
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1
    )
    return np.stack([b, c], axis=2) / (2.0 * areas)[:, None, None]


def scatter_csr(rows, cols, data, shape):
    """Sum the entries data at (rows, cols) into a csr matrix; the three
    arrays are read in flattened order and have one size."""
    return sp.coo_matrix((np.ravel(data), (np.ravel(rows), np.ravel(cols))), shape=shape).tocsr()


def assemble_p1(mesh):
    """Stiffness and mass matrices of the conforming P1 space, (n, n) csr."""
    n = mesh.num_vertices
    tris = mesh.triangles
    areas = mesh.triangle_areas()
    grads = p1_gradients(mesh)
    s_loc = np.einsum("tie,tje->tij", grads, grads) * areas[:, None, None]
    s_loc = 0.5 * (s_loc + np.transpose(s_loc, (0, 2, 1)))
    m_loc = _P1_MASS_BLOCK[None, :, :] * areas[:, None, None]
    rows = np.repeat(tris, 3, axis=1)
    cols = np.tile(tris, (1, 3))
    stiffness = scatter_csr(rows, cols, s_loc, (n, n))
    mass = scatter_csr(rows, cols, m_loc, (n, n))
    return stiffness, mass


def boundary_normals(mesh):
    """Outward unit normals of the boundary edges, in loop order."""
    d = mesh.vertices[mesh.boundary_edges[:, 1]] - mesh.vertices[mesh.boundary_edges[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    return np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]


def _orientation(a, b):
    """+1 where edge a -> b runs from the min to the max global vertex."""
    return np.where(a < b, 1.0, -1.0)


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

    def block_scatter(rows, cols, shape):
        return scatter_csr(np.repeat(rows, 2, axis=1), np.tile(cols, (1, 2)), blocks, shape)

    # where the loop runs against the global edge orientation, the
    # min-vertex dof reads the slot of b and the normal flips sign
    forward = _orientation(edges[:, 0], edges[:, 1])
    read = np.where(forward[:, None] > 0, slots, slots[:, ::-1])
    return BoundaryOperators(
        boundary_coupling=block_scatter(edges, slots, (n, s)),
        boundary_mass=block_scatter(slots, slots, (s, s)),
        vertex_boundary_mass=block_scatter(edges, edges, (n, n)),
        trace_map=scatter_csr(slots, read, np.repeat(forward, 2), (s, s)),
    )


@dataclass(frozen=True)
class DofMaps:
    """Dimensions and index tables of all spaces on one mesh.

    The invariants are dim_rt_interior + dim_rt_boundary =
    2*len(edges) + 2*num_triangles and dim_rt_boundary = dim_trace.
    tri_edges[t, l] is the number of the edge from local vertex l to
    local vertex l + 1 (mod 3) of triangle t, and tri_edge_sign[t, l] is
    +1 where that edge runs from its global min to its max vertex (the
    orientation of the edge's Raviart-Thomas normal), -1 otherwise.
    """

    dim_p1: int
    dim_broken: int
    dim_trace: int
    dim_rt_interior: int
    dim_rt_boundary: int
    edges: np.ndarray
    edge_is_boundary: np.ndarray
    boundary_edge_index: np.ndarray
    rt_edge_dofs: np.ndarray
    rt_tri_dofs: np.ndarray
    tri_edges: np.ndarray
    tri_edge_sign: np.ndarray


def build_dof_maps(mesh):
    nt = mesh.num_triangles
    nb = mesh.num_boundary_edges
    tris = mesh.triangles
    pairs = np.sort(
        np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=0), axis=1
    )
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(3, nt).T
    boundary_edge_index = tri_edges[mesh.boundary_triangles, boundary_local_edges(mesh)]
    edge_is_boundary = np.zeros(len(edges), dtype=bool)
    edge_is_boundary[boundary_edge_index] = True

    n_interior_edges = len(edges) - nb
    p_int = 2 * n_interior_edges + 2 * nt
    first = 2 * (np.cumsum(~edge_is_boundary) - 1)
    first[boundary_edge_index] = p_int + 2 * np.arange(nb)
    rt_edge_dofs = first[:, None] + np.arange(2)
    rt_tri_dofs = 2 * n_interior_edges + np.arange(2 * nt).reshape(nt, 2)

    return DofMaps(
        dim_p1=mesh.num_vertices,
        dim_broken=3 * nt,
        dim_trace=2 * nb,
        dim_rt_interior=p_int,
        dim_rt_boundary=2 * nb,
        edges=edges,
        edge_is_boundary=edge_is_boundary,
        boundary_edge_index=boundary_edge_index,
        rt_edge_dofs=rt_edge_dofs,
        rt_tri_dofs=rt_tri_dofs,
        tri_edges=tri_edges,
        tri_edge_sign=_orientation(tris, np.roll(tris, -1, axis=1)),
    )


@dataclass(frozen=True)
class RTElements:
    """Per-element flux basis data for pointwise evaluation.

    The basis on element t is psi_d = sum_mu coeffs[t, mu, d] * m_mu where
    m_mu are the eight monomial fields (1,0), (xi,0), (eta,0), (0,1),
    (0,xi), (0,eta), (xi^2, xi*eta), (xi*eta, eta^2) in the local frame
    xi = (x - centroid[t]) / scale[t].  mass[t] (8, 8) and div[t] (3, 8)
    are the element flux mass matrix and the products of the three
    broken hats with the basis divergences, in the local dof order of
    gdofs[t].
    """

    gdofs: np.ndarray
    coeffs: np.ndarray
    centroids: np.ndarray
    scales: np.ndarray
    areas: np.ndarray
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


def assemble_rt1(mesh, dofs):
    """Flux mass matrix, divergence coupling and element data.

    Returns (rt_mass, div_coupling, elements) with rt_mass of size
    (p, p), p = dim_rt_interior + dim_rt_boundary, and div_coupling of
    size (dim_broken, p) holding products of broken hats with divergences.
    """
    bary, wq = TRIANGLE_RULE
    nt = mesh.num_triangles
    p_total = dofs.dim_rt_interior + dofs.dim_rt_boundary
    tris = mesh.triangles
    areas = mesh.triangle_areas()

    edge_vec = mesh.vertices[dofs.edges[:, 1]] - mesh.vertices[dofs.edges[:, 0]]
    edge_len = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    edge_normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / edge_len[:, None]

    centroids = mesh.vertices[tris].mean(axis=1)
    scales = mesh.edge_lengths_per_triangle().max(axis=1)
    xi = _local_vertices(mesh, centroids, scales)

    # rows 2l and 2l+1 of the Vandermonde: the normal trace on local edge
    # l at its global min and max vertex
    pair = np.array([[0, 1], [1, 2], [2, 0]])
    ends = np.where(dofs.tri_edge_sign[:, :, None] > 0, pair, pair[:, ::-1])
    ends_xi = xi[np.arange(nt)[:, None, None], ends]
    normals = edge_normal[dofs.tri_edges][:, :, None, :, None]
    v = np.empty((nt, 8, 8))
    v[:, :6] = (_monomial_values(ends_xi) @ normals).reshape(nt, 6, 8)
    pts = bary @ xi
    mvals = _monomial_values(pts)
    v[:, 6:8] = np.einsum("q,tqmd->tdm", wq, mvals)
    c = np.linalg.inv(v)

    mass_mono = areas[:, None, None] * np.einsum("q,tqmd,tqnd->tmn", wq, mvals, mvals)
    mass_elem = np.swapaxes(c, 1, 2) @ mass_mono @ c
    mass_elem = 0.5 * (mass_elem + np.swapaxes(mass_elem, 1, 2))
    div_mono = _monomial_divergences(pts, scales[:, None])
    div_elem = (areas[:, None, None] * np.einsum("q,qi,tqm->tim", wq, bary, div_mono)) @ c

    gdofs = np.concatenate(
        [dofs.rt_edge_dofs[dofs.tri_edges].reshape(nt, 6), dofs.rt_tri_dofs], axis=1
    )
    rt_mass = scatter_csr(
        np.repeat(gdofs, 8, axis=1), np.tile(gdofs, (1, 8)), mass_elem, (p_total, p_total)
    )
    div_coupling = scatter_csr(
        np.repeat(np.arange(3 * nt), 8), np.tile(gdofs, (1, 3)), div_elem, (3 * nt, p_total)
    )
    elements = RTElements(gdofs, c, centroids, scales, areas, mass_elem, div_elem)
    return rt_mass, div_coupling, elements


def assemble_broken(mesh):
    """Broken P1 mass, coupling with the conforming space, and moments."""
    nt = mesh.num_triangles
    n = mesh.num_vertices
    m = 3 * nt
    areas = mesh.triangle_areas()
    blocks = _P1_MASS_BLOCK[None, :, :] * areas[:, None, None]
    broken_ids = (3 * np.arange(nt))[:, None] + np.arange(3)[None, :]
    rows = np.repeat(broken_ids, 3, axis=1)
    broken_mass = scatter_csr(rows, np.tile(broken_ids, (1, 3)), blocks, (m, m))
    broken_coupling = scatter_csr(rows, np.tile(mesh.triangles, (1, 3)), blocks, (m, n))
    moments = np.repeat(areas / 3.0, 3)
    return broken_mass, broken_coupling, moments


@dataclass(frozen=True)
class AssembledSystem:
    """All operators of one mesh, in a fixed deterministic dof order.

    Every matrix is stored once, as csr; only broken_moments is a
    vector.  The boundary operators are those of BoundaryOperators.
    Flux matrices (rt_mass (p, p) and div_coupling (dim_broken, p))
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
    broken_mass: sp.csr_matrix
    broken_coupling: sp.csr_matrix
    broken_moments: np.ndarray
    rt_mass: sp.csr_matrix
    div_coupling: sp.csr_matrix
    rt_elements: RTElements

    def boundary_integral(self, g):
        """Integral of a trace-space function over the boundary."""
        return float(np.sum(self.boundary_mass @ np.asarray(g)))

    def boundary_norm(self, g):
        """L2 boundary norm of a trace-space function."""
        g = np.asarray(g)
        return float(np.sqrt(max(g @ (self.boundary_mass @ g), 0.0)))


def assemble_system(mesh):
    """Assemble every operator the certification pipeline needs."""
    dofs = build_dof_maps(mesh)
    stiffness, mass = assemble_p1(mesh)
    boundary = assemble_boundary(mesh)
    broken_mass, broken_coupling, moments = assemble_broken(mesh)
    rt_mass, div_coupling, elements = assemble_rt1(mesh, dofs)
    return AssembledSystem(
        mesh=mesh,
        dofs=dofs,
        stiffness=stiffness,
        mass=mass,
        boundary_coupling=boundary.boundary_coupling,
        boundary_mass=boundary.boundary_mass,
        vertex_boundary_mass=boundary.vertex_boundary_mass,
        trace_map=boundary.trace_map,
        broken_mass=broken_mass,
        broken_coupling=broken_coupling,
        broken_moments=moments,
        rt_mass=rt_mass,
        div_coupling=div_coupling,
        rt_elements=elements,
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


def project_boundary(mesh, data, n_gauss=10):
    """L2-project boundary data onto the trace space, edge by edge.

    data is either a callable f(points, normal) -> values, evaluated with
    the outward unit normal of each edge, or an (nb, 2) array of endpoint
    values taken as the trace coefficients directly.  The projection is
    local: each edge solves its own 2x2 Gram system, so jumps at vertices
    are allowed.  Non-finite data raises ValueError on either path.
    """
    nb = mesh.num_boundary_edges
    if not callable(data):
        g = np.asarray(data, dtype=float)
        if g.shape != (nb, 2):
            raise ValueError(f"expected ({nb}, 2) endpoint values, got {g.shape}")
        g = g.ravel()
    else:
        snodes, sweights = edge_gauss_rule(n_gauss)
        normals = boundary_normals(mesh)
        lengths = mesh.boundary_edge_lengths()
        g = np.empty(2 * nb)
        inv_block = np.array([[2.0, -1.0], [-1.0, 2.0]]) * 2.0
        for j in range(nb):
            a, b = mesh.boundary_edges[j]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            pts = pa[None, :] + snodes[:, None] * (pb - pa)[None, :]
            vals = np.asarray(data(pts, normals[j]), dtype=float)
            if vals.shape != snodes.shape:
                raise ValueError("boundary data callable must return one value per point")
            rhs = np.array(
                [
                    lengths[j] * np.sum(sweights * vals * (1.0 - snodes)),
                    lengths[j] * np.sum(sweights * vals * snodes),
                ]
            )
            g[2 * j : 2 * j + 2] = inv_block @ rhs / lengths[j]
    if not np.all(np.isfinite(g)):
        raise ValueError("boundary data produced non-finite projection coefficients")
    return BoundaryField(g)


def _local_coefficients(system, x):
    """Monomial coefficients of a flux field on every element, (nt, 8)."""
    el = system.rt_elements
    return (el.coeffs @ np.asarray(x)[el.gdofs][:, :, None])[:, :, 0]


def rt_values_at_quadrature(system, x):
    """Flux field values at the triangle-rule points, (nt, q, 2)."""
    bary, _ = TRIANGLE_RULE
    el = system.rt_elements
    pts = bary @ _local_vertices(system.mesh, el.centroids, el.scales)
    return np.einsum("tqmd,tm->tqd", _monomial_values(pts), _local_coefficients(system, x))


def rt_divergence_vertex_values(system, x):
    """div of a flux field at each triangle's vertices, (nt, 3).

    The divergence is linear per element, so vertex values determine it.
    """
    el = system.rt_elements
    xi = _local_vertices(system.mesh, el.centroids, el.scales)
    div = _monomial_divergences(xi, el.scales[:, None])
    return np.einsum("tim,tm->ti", div, _local_coefficients(system, x))
