"""Quadrature, P1/boundary/broken/flux assembly and the trace projection."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from steklov_certify.assembly import (
    TRIANGLE_RULE,
    assemble_boundary,
    assemble_p1,
    assemble_system,
    boundary_normals,
    build_dof_maps,
    edge_gauss_rule,
    p1_gradients,
    project_boundary,
    rt_values_at_quadrature,
)
from steklov_certify.mesh import Mesh, MeshError, uniform_lshape_mesh, uniform_square_mesh

from oracles import (
    boundary_distance_to_field,
    gauss_on_edge,
    reference_monomial_integral,
)


# --- quadrature rules -------------------------------------------------


def test_triangle_rule_exact_to_degree_four():
    bary, w = TRIANGLE_RULE
    # reference triangle (0,0), (1,0), (0,1): area 1/2, x = bary1, y = bary2
    x, y = bary[:, 1], bary[:, 2]
    for p in range(5):
        for q in range(5 - p):
            approx = 0.5 * float(w @ (x**p * y**q))
            assert approx == pytest.approx(
                reference_monomial_integral(p, q), rel=1e-13
            ), (p, q)


def test_triangle_rule_basic_shape():
    bary, w = TRIANGLE_RULE
    assert bary.shape == (6, 3)
    assert np.all(bary > 0) and np.all(bary < 1)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_edge_gauss_rule_exactness(n):
    t, w = edge_gauss_rule(n)
    for p in range(2 * n):
        assert float(w @ t**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)


# --- P1 assembly ------------------------------------------------------


def _single_triangle_mesh(p0, p1, p2):
    vertices = np.array([p0, p1, p2], dtype=float)
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    return Mesh(vertices, triangles, edges, np.zeros(3, dtype=np.int64), domain="custom")


def test_p1_element_matrices_hand_values():
    mesh = _single_triangle_mesh((0, 0), (1, 0), (0, 1))
    stiffness, mass = assemble_p1(mesh)
    expected_stiffness = np.array(
        [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
    )
    area = 0.5
    expected_mass = (area / 12.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    assert np.allclose(stiffness.toarray(), expected_stiffness, atol=1e-15)
    assert np.allclose(mass.toarray(), expected_mass, atol=1e-16)


def test_p1_gradients_partition_of_unity():
    mesh = uniform_lshape_mesh(2)
    grads = p1_gradients(mesh)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("gen,n,area", [(uniform_square_mesh, 3, 1.0), (uniform_lshape_mesh, 2, 3.0)])
def test_p1_global_identities(gen, n, area):
    mesh = gen(n)
    stiffness, mass = assemble_p1(mesh)
    ones = np.ones(mesh.num_vertices)
    assert np.linalg.norm(stiffness @ ones) <= 1e-13
    assert ones @ (mass @ ones) == pytest.approx(area, rel=1e-13)
    # row sums of the mass matrix are the vertex patch areas over three
    patch = np.zeros(mesh.num_vertices)
    areas = mesh.triangle_areas()
    for t, tri in enumerate(mesh.triangles):
        patch[tri] += areas[t] / 3.0
    assert np.allclose(np.asarray(mass.sum(axis=1)).ravel(), patch, atol=1e-15)


def test_assembly_element_order_independent():
    """Permuting the element list changes only the accumulation order."""
    mesh = uniform_square_mesh(3)
    rng = np.random.default_rng(7)
    perm = rng.permutation(mesh.num_triangles)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    permuted = Mesh(
        mesh.vertices,
        mesh.triangles[perm],
        mesh.boundary_edges,
        inverse[mesh.boundary_triangles],
        domain=mesh.domain,
    )
    s0, m0 = assemble_p1(mesh)
    s1, m1 = assemble_p1(permuted)
    assert np.allclose(s0.toarray(), s1.toarray(), rtol=1e-13, atol=1e-16)
    assert np.allclose(m0.toarray(), m1.toarray(), rtol=1e-13, atol=1e-16)


def test_assembled_matrices_exactly_symmetric(system_square2):
    for matrix in (system_square2.stiffness, system_square2.mass, system_square2.rt_mass):
        diff = matrix - matrix.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    gram = system_square2.boundary_mass.toarray()
    assert np.array_equal(gram, gram.T)


def test_spd_of_core_matrices(system_lshape2):
    sysm = system_lshape2
    h1 = (sysm.stiffness + sysm.mass).toarray()
    assert np.linalg.eigvalsh(h1).min() > 0.0
    assert np.linalg.eigvalsh(sysm.boundary_mass.toarray()).min() > 0.0
    assert np.linalg.eigvalsh(sysm.rt_mass.toarray()).min() > 0.0


# --- boundary forms ---------------------------------------------------


def test_boundary_gram_blocks():
    mesh = uniform_square_mesh(2)
    ops = assemble_boundary(mesh)
    lengths = mesh.boundary_edge_lengths()
    gram = ops.boundary_mass.toarray()
    expected = np.zeros_like(gram)
    for j, ell in enumerate(lengths):
        expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (ell / 6.0) * np.array(
            [[2.0, 1.0], [1.0, 2.0]]
        )
    assert np.allclose(gram, expected, atol=1e-16)
    ones = np.ones(gram.shape[0])
    assert ones @ (gram @ ones) == pytest.approx(4.0, rel=1e-13)


def test_boundary_coupling_against_quadrature_oracle():
    """Every D entry is an edge integral of hat * slot function."""
    mesh = uniform_lshape_mesh(1)
    ops = assemble_boundary(mesh)
    coupling = ops.boundary_coupling.toarray()
    expected = np.zeros_like(coupling)
    for j, (a, b) in enumerate(mesh.boundary_edges):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        _, w, t = gauss_on_edge(pa, pb, 6)
        # the two slot functions on edge j and the two vertex hats that
        # are nonzero there coincide with the linear parameters below
        expected[a, 2 * j] += float(w @ ((1 - t) * (1 - t)))
        expected[a, 2 * j + 1] += float(w @ ((1 - t) * t))
        expected[b, 2 * j] += float(w @ (t * (1 - t)))
        expected[b, 2 * j + 1] += float(w @ (t * t))
    assert np.allclose(coupling, expected, atol=1e-14)


def test_boundary_coupling_supported_on_boundary_vertices():
    mesh = uniform_square_mesh(3)
    ops = assemble_boundary(mesh)
    interior = np.setdiff1d(
        np.arange(mesh.num_vertices), np.unique(mesh.boundary_edges)
    )
    coupling = ops.boundary_coupling.toarray()
    assert np.all(coupling[interior] == 0.0)
    row_ones = coupling @ np.ones(ops.boundary_mass.shape[0])
    assert row_ones.sum() == pytest.approx(4.0, rel=1e-13)


def test_vertex_boundary_mass_matches_coupling():
    """b(phi_i, phi_j) over the boundary agrees with projecting hats."""
    mesh = uniform_square_mesh(2)
    ops = assemble_boundary(mesh)
    nb = mesh.num_boundary_edges
    # trace coefficients of each vertex hat: hat_i restricted to the loop
    hats = np.zeros((2 * nb, mesh.num_vertices))
    for j, (a, b) in enumerate(mesh.boundary_edges):
        hats[2 * j, a] = 1.0
        hats[2 * j + 1, b] = 1.0
    dense = hats.T @ ops.boundary_mass @ hats
    assert np.allclose(ops.vertex_boundary_mass.toarray(), dense, atol=1e-14)


def test_trace_map_is_signed_permutation():
    mesh = uniform_lshape_mesh(2)
    ops = assemble_boundary(mesh)
    m = ops.trace_map.toarray()
    assert np.allclose(m.T @ m, np.eye(m.shape[0]), atol=0.0)
    assert set(np.abs(m[m != 0.0])) == {1.0}
    assert np.count_nonzero(m) == m.shape[0]


def test_trace_map_signs_follow_edge_orientation():
    mesh = uniform_square_mesh(3)
    ops = assemble_boundary(mesh)
    normals = boundary_normals(mesh)
    for j, (a, b) in enumerate(map(tuple, mesh.boundary_edges)):
        block = ops.trace_map[2 * j : 2 * j + 2, 2 * j : 2 * j + 2].toarray()
        lo, hi = min(a, b), max(a, b)
        d = mesh.vertices[hi] - mesh.vertices[lo]
        global_normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        sign = 1.0 if np.dot(global_normal, normals[j]) > 0 else -1.0
        if a < b:
            assert np.array_equal(block, sign * np.eye(2))
        else:
            assert np.array_equal(block, sign * np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_every_operator_matrix_is_sparse(system_lshape2):
    """Every matrix field of AssembledSystem and BoundaryOperators is
    scipy.sparse; the one dense array field is the vector broken_moments."""
    for record in (system_lshape2, assemble_boundary(system_lshape2.mesh)):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, np.ndarray):
                assert field.name == "broken_moments" and value.ndim == 1
            elif field.name not in ("mesh", "dofs", "rt_elements"):
                assert sp.issparse(value), field.name


def test_boundary_operators_memory_peak_square64():
    """assemble_boundary keeps no dense (n, s) or (s, s) array: its
    traced peak at square n = 64 stays below 1 MB (the dense operators
    needed 20.6 MB)."""
    mesh = uniform_square_mesh(64)
    tracemalloc.start()
    try:
        assemble_boundary(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_outward_normals():
    mesh = uniform_square_mesh(1)
    normals = boundary_normals(mesh)
    assert np.allclose(
        normals, [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], atol=1e-15
    )


# --- dof maps ----------------------------------------------------------


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 3), (uniform_lshape_mesh, 2)])
def test_dof_map_invariants(gen, n):
    mesh = gen(n)
    dofs = build_dof_maps(mesh)
    assert dofs.dim_rt_interior + dofs.dim_rt_boundary == 2 * len(dofs.edges) + 2 * mesh.num_triangles
    assert dofs.dim_rt_boundary == dofs.dim_trace == 2 * mesh.num_boundary_edges
    # every flux dof appears exactly once across the edge and triangle tables
    claimed = np.concatenate([dofs.rt_edge_dofs.ravel(), dofs.rt_tri_dofs.ravel()])
    assert np.array_equal(np.sort(claimed), np.arange(len(claimed)))
    # Euler check for a simply connected planar triangulation
    assert len(dofs.edges) == (3 * mesh.num_triangles + mesh.num_boundary_edges) // 2


@pytest.mark.parametrize("edge", [(0, 8), (1, 0)])
def test_bad_boundary_edge_is_a_mesh_error(edge):
    """A boundary edge that is no edge of the mesh, or one run against
    its triangle, fails with MeshError instead of a KeyError or a
    silently wrong trace space."""
    mesh = uniform_square_mesh(2)
    edges = mesh.boundary_edges.copy()
    edges[0] = edge
    bad = Mesh(mesh.vertices, mesh.triangles, edges, mesh.boundary_triangles)
    with pytest.raises(MeshError, match="boundary edge 0"):
        build_dof_maps(bad)
    with pytest.raises(MeshError, match="boundary edge 0"):
        assemble_system(bad)


def test_boundary_edge_dofs_in_loop_order():
    mesh = uniform_square_mesh(2)
    dofs = build_dof_maps(mesh)
    p_int = dofs.dim_rt_interior
    for j, e in enumerate(dofs.boundary_edge_index):
        assert dofs.edge_is_boundary[e]
        assert tuple(dofs.rt_edge_dofs[e]) == (p_int + 2 * j, p_int + 2 * j + 1)


# --- flux space --------------------------------------------------------


def _interpolate_flux(mesh, system, field):
    """RT interpolant coefficients of a smooth vector field.

    Edge dofs are endpoint values of field . n_e (global min -> max
    normal); triangle dofs are componentwise means, here evaluated with
    the same degree-4 rule the assembly uses (exact for affine fields).
    """
    dofs = system.dofs
    x = np.zeros(dofs.dim_rt_interior + dofs.dim_rt_boundary)
    for e, (lo, hi) in enumerate(dofs.edges):
        d = mesh.vertices[hi] - mesh.vertices[lo]
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        x[dofs.rt_edge_dofs[e, 0]] = field(mesh.vertices[lo]) @ normal
        x[dofs.rt_edge_dofs[e, 1]] = field(mesh.vertices[hi]) @ normal
    bary, w = TRIANGLE_RULE
    for t, tri in enumerate(mesh.triangles):
        pts = bary @ mesh.vertices[tri]
        vals = np.array([field(p) for p in pts])
        x[dofs.rt_tri_dofs[t]] = w @ vals
    return x


def _total_divergence(system, x):
    p_int = system.dofs.dim_rt_interior
    div_interior, div_boundary = system.div_coupling[:, :p_int], system.div_coupling[:, p_int:]
    assert len(x) == p_int + div_boundary.shape[1]
    return float(np.sum(div_interior @ x[:p_int]) + np.sum(div_boundary @ x[p_int:]))


def _boundary_flux(mesh, system, x):
    p_int = system.dofs.dim_rt_interior
    xb = x[p_int:]
    lengths = mesh.boundary_edge_lengths()
    dofs = system.dofs
    total = 0.0
    for j in range(mesh.num_boundary_edges):
        a, b = mesh.boundary_edges[j]
        lo_first = a < b
        e = dofs.boundary_edge_index[j]
        d = mesh.vertices[max(a, b)] - mesh.vertices[min(a, b)]
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        outward = boundary_normals(mesh)[j]
        sign = 1.0 if normal @ outward > 0 else -1.0
        total += sign * lengths[j] * 0.5 * (xb[2 * j] + xb[2 * j + 1])
    return total


def test_flux_interpolation_constant_field(system_square2):
    mesh = system_square2.mesh
    x = _interpolate_flux(mesh, system_square2, lambda p: np.array([1.0, 0.0]))
    # constants are inside the flux space: pointwise reproduction
    vals = rt_values_at_quadrature(system_square2, x)
    assert np.allclose(vals[..., 0], 1.0, atol=1e-12)
    assert np.allclose(vals[..., 1], 0.0, atol=1e-12)
    # divergence-free: all moments against the broken space vanish
    p_int = system_square2.dofs.dim_rt_interior
    div = system_square2.div_coupling
    moments = div[:, :p_int] @ x[:p_int] + div[:, p_int:] @ x[p_int:]
    assert np.abs(moments).max() <= 1e-13
    assert abs(_boundary_flux(mesh, system_square2, x)) <= 1e-13


def test_flux_interpolation_linear_field(system_square2):
    mesh = system_square2.mesh
    x = _interpolate_flux(mesh, system_square2, lambda p: p.astype(float))
    vals = rt_values_at_quadrature(system_square2, x)
    bary, _ = TRIANGLE_RULE
    expected = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    assert np.allclose(vals, expected, atol=1e-12)
    # div (x, y) = 2: moments equal twice the broken moments
    p_int = system_square2.dofs.dim_rt_interior
    div = system_square2.div_coupling
    moments = div[:, :p_int] @ x[:p_int] + div[:, p_int:] @ x[p_int:]
    assert np.allclose(moments, 2.0 * system_square2.broken_moments, atol=1e-13)
    assert _total_divergence(system_square2, x) == pytest.approx(2.0, rel=1e-12)
    assert _boundary_flux(mesh, system_square2, x) == pytest.approx(2.0, rel=1e-12)


def test_divergence_theorem_for_random_flux(system_lshape2, rng):
    """Total divergence equals total boundary flux for any flux vector."""
    sysm = system_lshape2
    for _ in range(5):
        x = rng.standard_normal(sysm.rt_mass.shape[0])
        interior = _total_divergence(sysm, x)
        boundary = _boundary_flux(sysm.mesh, sysm, x)
        assert interior == pytest.approx(boundary, rel=1e-12, abs=1e-12)


# --- every assembled table against the element-loop assembly -----------------

_SYSTEM_SNAPSHOT = Path(__file__).parent / "data" / "system_snapshot.npz"
_SYSTEM_MATRICES = (
    "stiffness",
    "mass",
    "boundary_coupling",
    "boundary_mass",
    "vertex_boundary_mass",
    "trace_map",
    "broken_mass",
    "broken_coupling",
    "broken_moments",
    "rt_mass",
    "rt_mass_ii",
    "rt_mass_ib",
    "div_interior",
    "div_boundary",
)
_DOF_TABLES = (
    "edges",
    "edge_is_boundary",
    "boundary_edge_index",
    "rt_edge_dofs",
    "rt_tri_dofs",
    "tri_edges",
)
_DOF_SIZES = ("dim_p1", "dim_broken", "dim_trace", "dim_rt_interior", "dim_rt_boundary")


def system_arrays(system):
    """Every matrix of an AssembledSystem, the RT element data and the
    DofMaps tables as plain arrays; sparse matrices as COO triplets.
    The interior and boundary blocks of rt_mass and div_coupling, which
    the snapshot records under their own names, are sliced here."""
    p_int = system.dofs.dim_rt_interior
    blocks = {
        "rt_mass_ii": system.rt_mass[:p_int, :p_int],
        "rt_mass_ib": system.rt_mass[:p_int, p_int:],
        "div_interior": system.div_coupling[:, :p_int],
        "div_boundary": system.div_coupling[:, p_int:],
    }
    out = {}
    for name in _SYSTEM_MATRICES:
        value = blocks[name] if name in blocks else getattr(system, name)
        if sp.issparse(value):
            coo = value.tocoo()
            out[f"{name}_row"], out[f"{name}_col"] = coo.row, coo.col
            out[f"{name}_data"], out[f"{name}_shape"] = coo.data, np.array(coo.shape)
        else:
            out[name] = np.asarray(value)
    el = system.rt_elements
    for name in ("gdofs", "coeffs", "centroids", "scales", "areas"):
        out[f"rt_{name}"] = getattr(el, name)
    for name in _DOF_TABLES:
        out[f"dofs_{name}"] = getattr(system.dofs, name)
    out["dofs_sizes"] = np.array([getattr(system.dofs, name) for name in _DOF_SIZES])
    return out


def _as_matrix(arrays, name):
    """csr form of an entry; the snapshot holds the boundary operators
    of the dense-boundary assembly as dense arrays."""
    if f"{name}_data" not in arrays:
        return sp.csr_matrix(np.atleast_2d(arrays[name]))
    return sp.csr_matrix(
        (arrays[f"{name}_data"], (arrays[f"{name}_row"], arrays[f"{name}_col"])),
        shape=tuple(arrays[f"{name}_shape"]),
    )


@pytest.mark.parametrize(
    "gen,n",
    [(uniform_square_mesh, 4), (uniform_square_mesh, 8), (uniform_lshape_mesh, 4), (uniform_lshape_mesh, 8)],
)
def test_system_matches_snapshot(gen, n):
    """assemble_system reproduces the per-element loop assembly it
    replaced: every matrix and the RT element data to 1e-14 relative
    (max-norm), every integer table of DofMaps exactly.  The snapshot in
    tests/data was written by system_arrays from the loop version."""
    snapshot = np.load(_SYSTEM_SNAPSHOT)
    prefix = f"{gen.__name__}_{n}_"
    expected = {k[len(prefix):]: snapshot[k] for k in snapshot.files if k.startswith(prefix)}
    actual = system_arrays(assemble_system(gen(n)))
    for name in _SYSTEM_MATRICES:
        want, got = _as_matrix(expected, name), _as_matrix(actual, name)
        assert got.shape == want.shape, name
        assert abs(got - want).max() <= 1e-14 * abs(want).max(), name
    for name in ("coeffs", "centroids", "scales", "areas"):
        want, got = expected[f"rt_{name}"], actual[f"rt_{name}"]
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
    for name in ["rt_gdofs", "dofs_sizes"] + [f"dofs_{t}" for t in _DOF_TABLES]:
        assert actual[name].dtype.kind == expected[name].dtype.kind, name
        assert np.array_equal(actual[name], expected[name]), name


# --- trace projection --------------------------------------------------


def test_project_constant_data():
    mesh = uniform_lshape_mesh(2)
    field = project_boundary(mesh, lambda pts, normal: np.ones(len(pts)))
    assert np.allclose(field.coefficients, 1.0, atol=1e-13)


def test_project_reproduces_edgewise_linear_data():
    mesh = uniform_square_mesh(2)

    def linear(pts, normal):
        return 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0

    field = project_boundary(mesh, linear)
    expected = np.empty(2 * mesh.num_boundary_edges)
    for j, (a, b) in enumerate(mesh.boundary_edges):
        expected[2 * j] = linear(mesh.vertices[a][None, :], None)[0]
        expected[2 * j + 1] = linear(mesh.vertices[b][None, :], None)[0]
    assert np.allclose(field.coefficients, expected, atol=1e-12)


def test_project_endpoint_array_passthrough():
    mesh = uniform_square_mesh(2)
    values = np.arange(2.0 * mesh.num_boundary_edges).reshape(-1, 2)
    field = project_boundary(mesh, values)
    assert np.array_equal(field.coefficients, values.ravel())
    with pytest.raises(ValueError):
        project_boundary(mesh, values[:3])


def test_project_orthogonality_residual():
    """b(f - pi f, v) = 0 for all trace functions v, by Gauss oracle."""
    mesh = uniform_square_mesh(3)

    def f(pts, normal):
        return np.cosh(pts[:, 0]) * np.sin(3.0 * pts[:, 1]) + pts[:, 1] ** 2

    g = project_boundary(mesh, f).coefficients
    for j, (a, b) in enumerate(mesh.boundary_edges):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        d = pb - pa
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        pts, w, t = gauss_on_edge(pa, pb, 20)
        residual = f(pts, normal) - (g[2 * j] * (1 - t) + g[2 * j + 1] * t)
        assert abs(float(w @ (residual * (1 - t)))) <= 1e-12
        assert abs(float(w @ (residual * t))) <= 1e-12


def test_project_normal_weighted_data_is_exact_on_square():
    """cosh(x) n_x is constant on every edge of the square, so the
    projection reproduces it and the projection error vanishes."""
    mesh = uniform_square_mesh(4)

    def f(pts, normal):
        return np.cosh(pts[:, 0]) * normal[0]

    g = project_boundary(mesh, f).coefficients
    assert boundary_distance_to_field(mesh, g, f) <= 1e-13


def test_projection_error_decreases_at_second_order():
    """Projection error of smooth non-linear data decays like h^2;
    observed orders are accepted anywhere in the bracket 1.4 to 2.4."""

    def f(pts, normal):
        return np.cosh(pts[:, 0]) * np.sin(3.0 * pts[:, 1]) + np.exp(pts[:, 1] / 3.0)

    errors = []
    for n in (2, 4, 8, 16):
        mesh = uniform_square_mesh(n)
        g = project_boundary(mesh, f).coefficients
        errors.append(boundary_distance_to_field(mesh, g, f))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert all(1.4 <= r <= 2.4 for r in rates), rates


def test_project_rejects_non_finite_data():
    mesh = uniform_square_mesh(2)

    def bad(pts, normal):
        out = np.ones(len(pts))
        out[0] = np.nan
        return out

    with pytest.raises(ValueError):
        project_boundary(mesh, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_project_rejects_non_finite_endpoint_values(value):
    """The endpoint-array path rejects non-finite data like the callable
    path does."""
    mesh = uniform_square_mesh(2)
    values = np.ones((mesh.num_boundary_edges, 2))
    values[3, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        project_boundary(mesh, values)
