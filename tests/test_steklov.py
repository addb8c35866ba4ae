"""Conforming and Crouzeix-Raviart Steklov eigenvalue solvers."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from steklov_certify.assembly import assemble_boundary, assemble_p1, assemble_system
from steklov_certify.mesh import uniform_lshape_mesh, uniform_square_mesh
from steklov_certify.steklov import (
    assemble_cr,
    degenerate_groups,
    rayleigh_quotient,
    solve_steklov_cr,
    solve_steklov_p1,
)

from oracles import dense_pencil_eigenvalues


# --- against the dense pencil oracle -------------------------------------


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 2), (uniform_lshape_mesh, 1)])
def test_conforming_matches_dense_oracle(gen, n):
    mesh = gen(n)
    stiffness, mass = assemble_p1(mesh)
    boundary = assemble_boundary(mesh)
    k = 5
    spectrum = solve_steklov_p1(mesh, k)
    expected = dense_pencil_eigenvalues(
        (stiffness + mass).toarray(), boundary.vertex_boundary_mass.toarray()
    )
    assert np.allclose(spectrum.values, expected[:k], rtol=1e-10)
    assert spectrum.n_finite == len(np.unique(mesh.boundary_edges))


@pytest.mark.parametrize(
    "gen,n", [(uniform_square_mesh, 2), (uniform_lshape_mesh, 1), (uniform_lshape_mesh, 4)]
)
def test_cr_matches_dense_oracle(gen, n):
    mesh = gen(n)
    stiffness, mass, boundary_form = assemble_cr(mesh)
    k = 5
    spectrum = solve_steklov_cr(mesh, k)
    expected = dense_pencil_eigenvalues(
        (stiffness + mass).toarray(), boundary_form.toarray()
    )
    assert np.allclose(spectrum.values, expected[:k], rtol=1e-10)
    # the number of finite eigenvalues is the rank of the boundary form
    assert spectrum.n_finite == len(expected)
    assert spectrum.n_finite == np.linalg.matrix_rank(boundary_form.toarray())


def test_conforming_square16_matches_dense_oracle():
    mesh = uniform_square_mesh(16)
    stiffness, mass = assemble_p1(mesh)
    boundary = assemble_boundary(mesh)
    spectrum = solve_steklov_p1(mesh, 3)
    expected = dense_pencil_eigenvalues(
        (stiffness + mass).toarray(), boundary.vertex_boundary_mass.toarray()
    )
    assert np.allclose(spectrum.values, expected[:3], rtol=1e-12, atol=0.0)


def test_cr_lshape16_matches_dense_oracle():
    """The sparse Schur route against a dense symmetric eigh of the whole
    2,368-dof reciprocal pencil B x = mu (K + M) x: mu = 1/lambda on the
    finite modes and mu = 0 on the kernel of B.  QZ, which assumes no
    definiteness, checks the CR pencil up to L-shape n = 4 above."""
    mesh = uniform_lshape_mesh(16)
    stiffness, mass, boundary_form = assemble_cr(mesh)
    spectrum = solve_steklov_cr(mesh, 3)
    mu = sla.eigh(boundary_form.toarray(), (stiffness + mass).toarray(), eigvals_only=True)
    # the kernel's mu are roundoff (about 2e-16 here, the smallest finite one 2e-3)
    expected = np.sort(1.0 / mu[mu > 1e-9 * mu[-1]])
    assert np.allclose(spectrum.values, expected[:3], rtol=1e-12, atol=0.0)
    assert spectrum.n_finite == len(expected)


def test_cr_eigenvalues_equal_their_rayleigh_quotients():
    """Each eigenvalue is the Rayleigh quotient of its own vector, summed
    without cancellation; the plain product form of that quotient stays
    within 5e-14 of it (1.5e-14 at worst here)."""
    mesh = uniform_lshape_mesh(16)
    stiffness, mass, boundary_form = assemble_cr(mesh)
    spectrum = solve_steklov_cr(mesh, 3)
    for value, v in zip(spectrum.values, spectrum.vectors.T):
        quotient = rayleigh_quotient(stiffness, mass, boundary_form, v)
        assert abs(quotient * value - 1.0) <= 5e-14


def test_cr_solve_holds_no_dense_dof_matrix():
    """Peak traced memory of the CR solve stays below one dense copy of
    an ne x ne float64 matrix; the dense Schur route needed about three."""
    mesh = uniform_lshape_mesh(16)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start, _ = tracemalloc.get_traced_memory()
        spectrum = solve_steklov_cr(mesh, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ne = spectrum.vectors.shape[0]
    assert peak - start < 8 * ne**2


def test_cr_solve_streams_the_schur_complement():
    """The CR solve at L-shape n = 32 never holds a dense block over the
    interior and support dofs: its traced peak (17 MB, the Schur
    complement read off the factor's trailing block) stays below one
    dense (n_interior, |support|) float64 block (44 MB); solving that
    whole block at once, as an early route did, peaked at 185 MB."""
    mesh = uniform_lshape_mesh(32)
    boundary_form = assemble_cr(mesh)[2].tocsr()
    boundary_form.eliminate_zeros()
    n_support = np.unique(boundary_form.indices).size
    n_interior = boundary_form.shape[0] - n_support
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start, _ = tracemalloc.get_traced_memory()
        solve_steklov_cr(mesh, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * n_interior * n_support


# --- CR forms against the element-loop assembly ------------------------------

_CR_SNAPSHOT = Path(__file__).parent / "data" / "cr_lshape_snapshot.npz"


@pytest.mark.parametrize("n", [4, 8])
def test_cr_forms_match_snapshot(n):
    """assemble_cr reproduces, to 1e-14 relative, the COO triplets that
    the earlier per-element and per-edge loop assembly produced on the
    L-shape meshes n = 4 and 8 (stored in tests/data)."""
    snapshot = np.load(_CR_SNAPSHOT)
    forms = assemble_cr(uniform_lshape_mesh(n))
    for name, form in zip(("stiffness", "mass", "boundary"), forms):
        key = f"n{n}_{name}"
        expected = sp.csr_matrix(
            (snapshot[f"{key}_data"], (snapshot[f"{key}_row"], snapshot[f"{key}_col"])),
            shape=tuple(snapshot[f"{key}_shape"]),
        )
        assert form.shape == expected.shape
        assert abs(form - expected).max() <= 1e-14 * abs(expected).max(), name


# --- published eigenvalues ------------------------------------------------


def test_conforming_published_square_values():
    for n, expected in [(4, [0.2404841, 1.527151, 1.527151]), (8, [0.2401798, 1.502305, 1.502305])]:
        spectrum = solve_steklov_p1(uniform_square_mesh(n), 3)
        assert np.allclose(spectrum.values, expected, rtol=1e-6), n


def test_conforming_published_lshape_values():
    spectrum = solve_steklov_p1(uniform_lshape_mesh(2), 3)
    assert np.allclose(spectrum.values, [0.3443305, 0.6513041, 1.0278736], rtol=1e-6)


def test_cr_published_square_values():
    spectrum = solve_steklov_cr(uniform_square_mesh(4), 3)
    assert np.allclose(spectrum.values, [0.2404829, 1.460229, 1.460229], rtol=1e-6)


def test_cr_published_lshape_values():
    spectrum = solve_steklov_cr(uniform_lshape_mesh(2), 3)
    assert np.allclose(spectrum.values, [0.3425959, 0.5829704, 0.9608929], rtol=1e-6)


# --- structure of the spectrum --------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8])
def test_square_second_eigenvalue_is_double(n):
    """The mesh keeps the quarter-turn symmetry of the square, so the
    second and third eigenvalues coincide to solver accuracy."""
    spectrum = solve_steklov_p1(uniform_square_mesh(n), 3)
    assert abs(spectrum.values[2] - spectrum.values[1]) <= 1e-9 * spectrum.values[2]
    groups = degenerate_groups(spectrum.values)
    assert groups[1] == groups[2] != groups[0]


def test_eigenvector_orthogonality(square4):
    stiffness, mass = assemble_p1(square4)
    boundary = assemble_boundary(square4)
    spectrum = solve_steklov_p1(square4, 4)
    v = spectrum.vectors
    b_gram = v.T @ (boundary.vertex_boundary_mass @ v)
    assert np.allclose(b_gram, np.eye(4), atol=1e-10)
    a_gram = v.T @ ((stiffness + mass) @ v)
    assert np.allclose(a_gram, np.diag(spectrum.values), atol=1e-9 * spectrum.values[-1])


def test_cr_eigenvector_orthogonality(lshape2):
    stiffness, mass, boundary_form = assemble_cr(lshape2)
    spectrum = solve_steklov_cr(lshape2, 4)
    v = spectrum.vectors
    b_gram = v.T @ (boundary_form @ v)
    assert np.allclose(b_gram, np.eye(4), atol=1e-10)
    a_gram = v.T @ ((stiffness + mass) @ v)
    assert np.allclose(a_gram, np.diag(spectrum.values), atol=1e-9 * spectrum.values[-1])


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
def test_default_path_boundary_form_matches_record(gen):
    """solve_steklov_p1 reads the boundary form of assemble_boundary; the
    assembled system carries it bit for bit."""
    mesh = gen(4)
    record = assemble_system(mesh).vertex_boundary_mass
    alone = assemble_boundary(mesh).vertex_boundary_mass
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(alone, name), getattr(record, name))


@pytest.mark.parametrize("solve", [solve_steklov_p1, solve_steklov_cr])
@pytest.mark.parametrize("k", [-1, 0])
def test_k_below_one_is_rejected(square4, solve, k):
    """k = -1 used to return all but the last eigenvalue, k = 0 none."""
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        solve(square4, k)


def test_solver_is_deterministic(square4):
    a = solve_steklov_p1(square4, 3)
    b = solve_steklov_p1(square4, 3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigenvector_sign_convention(square4):
    spectrum = solve_steklov_p1(square4, 3)
    boundary_set = np.unique(square4.boundary_edges)
    for j in range(3):
        trace = spectrum.vectors[boundary_set, j]
        assert trace[np.argmax(np.abs(trace))] > 0.0


# --- Rayleigh quotients and duality ----------------------------------------


def test_rayleigh_quotient_of_constant_is_perimeter_over_norm(square4):
    stiffness, mass = assemble_p1(square4)
    boundary = assemble_boundary(square4)
    ones = np.ones(square4.num_vertices)
    value = rayleigh_quotient(stiffness, mass, boundary.vertex_boundary_mass, ones)
    # a(1, 1) = area = 1, b(1, 1) = perimeter = 4
    assert value == pytest.approx(4.0, rel=1e-12)


def test_rayleigh_quotient_of_eigenvector(square4):
    stiffness, mass = assemble_p1(square4)
    boundary = assemble_boundary(square4)
    spectrum = solve_steklov_p1(square4, 2)
    for j in range(2):
        value = rayleigh_quotient(
            stiffness, mass, boundary.vertex_boundary_mass, spectrum.vectors[:, j]
        )
        assert value == pytest.approx(1.0 / spectrum.values[j], rel=1e-10)


def test_rayleigh_quotient_rejects_degenerate_vectors(square4):
    stiffness, mass = assemble_p1(square4)
    boundary = assemble_boundary(square4)
    with pytest.raises(ValueError, match="zero vector"):
        rayleigh_quotient(stiffness, mass, boundary.vertex_boundary_mass, np.zeros(square4.num_vertices))
    interior = np.setdiff1d(np.arange(square4.num_vertices), np.unique(square4.boundary_edges))
    hat = np.zeros(square4.num_vertices)
    hat[interior[0]] = 1.0
    with pytest.raises(ValueError, match="boundary trace"):
        rayleigh_quotient(stiffness, mass, boundary.vertex_boundary_mass, hat)


def test_reciprocal_pencil_duality(square4):
    """The largest eigenvalue of b against a, from a dense eigh, is the
    reciprocal of the smallest Steklov eigenvalue."""
    stiffness, mass = assemble_p1(square4)
    boundary = assemble_boundary(square4)
    spectrum = solve_steklov_p1(square4, 1)
    dual = sla.eigh(
        boundary.vertex_boundary_mass.toarray(), (stiffness + mass).toarray(), eigvals_only=True
    )
    assert dual[-1] == pytest.approx(1.0 / spectrum.values[0], rel=1e-10)


# --- degenerate group tagging ----------------------------------------------


def test_degenerate_groups_tagging():
    values = [1.0, 1.0 + 1e-12, 2.0, 2.0, 3.0]
    assert list(degenerate_groups(values)) == [0, 0, 1, 1, 2]
    # the module tolerance, relative 1e-9, from both sides
    assert list(degenerate_groups([1.0, 1.0 + 5e-10, 1.0 + 3e-9])) == [0, 0, 1]


# --- CR space sanity ---------------------------------------------------------


def test_cr_forms_on_simple_functions():
    mesh = uniform_square_mesh(3)
    stiffness, mass, boundary_form = assemble_cr(mesh)
    dofs = mesh.edge_table
    midpoints = 0.5 * (
        mesh.vertices[dofs.edges[:, 0]] + mesh.vertices[dofs.edges[:, 1]]
    )
    ones = np.ones(len(dofs.edges))
    assert np.linalg.norm(stiffness @ ones) <= 1e-13
    assert ones @ (mass @ ones) == pytest.approx(1.0, rel=1e-12)
    assert ones @ (boundary_form @ ones) == pytest.approx(4.0, rel=1e-12)
    # the dof vector of v(x, y) = x carries exact energies: the midpoint
    # rule integrates quadratics exactly and boundary traces are exact
    vx = midpoints[:, 0]
    assert vx @ (stiffness @ vx) == pytest.approx(1.0, rel=1e-12)
    assert vx @ (mass @ vx) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert vx @ (boundary_form @ vx) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_cr_boundary_form_supported_on_boundary_triangles():
    """Traces of all three edge functions of a boundary triangle are
    nonzero along its boundary edge, so the boundary form touches
    exactly the edges of triangles that own a boundary edge."""
    mesh = uniform_lshape_mesh(2)
    stiffness, mass, boundary_form = assemble_cr(mesh)
    dofs = mesh.edge_table
    edge_index = {tuple(sorted(e)): i for i, e in enumerate(map(tuple, dofs.edges))}
    touched = set()
    for t in np.unique(mesh.boundary_triangles):
        tri = mesh.triangles[t]
        for l in range(3):
            touched.add(edge_index[tuple(sorted((tri[l], tri[(l + 1) % 3])))])
    dense = boundary_form.toarray()
    outside = np.setdiff1d(np.arange(len(dofs.edges)), sorted(touched))
    assert np.all(dense[outside] == 0.0)
    assert np.all(dense[:, outside] == 0.0)
    row_norms = np.abs(dense).sum(axis=1)
    assert np.all(row_norms[sorted(touched)] > 0.0)
