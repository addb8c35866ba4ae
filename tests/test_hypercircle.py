"""Equilibrated flux, guaranteed error quantity and projection constant."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from steklov_certify import hypercircle
from steklov_certify.assembly import (
    assemble_system,
    p1_gradients,
    project_boundary,
)
from steklov_certify.hypercircle import (
    EquilibrationSolver,
    IncompatibleDataError,
    NeumannSolution,
)
from steklov_certify.linalg import LinearAlgebraError
from steklov_certify.mesh import uniform_lshape_mesh, uniform_square_mesh

from oracles import kkt_constant, kkt_flux, p1_point_values


@pytest.fixture(scope="module")
def solver_square2(system_square2):
    return EquilibrationSolver(system_square2)


@pytest.fixture(scope="module")
def solver_lshape2(system_lshape2):
    return EquilibrationSolver(system_lshape2)


# --- basic behaviour ----------------------------------------------------


def test_zero_data_gives_zero_everything(solver_square2):
    s = solver_square2.system.dofs.dim_trace
    neumann = solver_square2.solve_neumann(np.zeros(s))
    assert np.allclose(neumann.coefficients, 0.0, atol=1e-14)
    flux = solver_square2.solve_flux(np.zeros(s), neumann)
    assert np.allclose(flux.coefficients, 0.0, atol=1e-12)
    assert flux.mean_shift == pytest.approx(0.0, abs=1e-12)
    assert solver_square2.error_norm(neumann, flux) <= 1e-12


def test_constant_data_compatibility_identity(solver_square2):
    """With f = 1 the volume integral of the solution is the perimeter."""
    sysm = solver_square2.system
    g = np.ones(sysm.dofs.dim_trace)
    neumann = solver_square2.solve_neumann(g)
    volume = float(np.sum(sysm.mass @ neumann.coefficients))
    assert volume == pytest.approx(4.0, rel=1e-12)
    flux = solver_square2.solve_flux(g, neumann)
    assert abs(flux.mean_shift) <= 1e-12


def test_incompatible_data_is_rejected(solver_square2):
    sysm = solver_square2.system
    g = np.ones(sysm.dofs.dim_trace)
    neumann = solver_square2.solve_neumann(g)
    doctored = NeumannSolution(neumann.coefficients + 1.0)
    with pytest.raises(IncompatibleDataError, match="compatibility"):
        solver_square2.solve_flux(g, doctored)


def test_flux_boundary_trace_matches_data(solver_square2, rng):
    """The flux keeps the prescribed normal trace on the boundary."""
    sysm = solver_square2.system
    g = rng.standard_normal(sysm.dofs.dim_trace)
    neumann = solver_square2.solve_neumann(g)
    flux = solver_square2.solve_flux(g, neumann)
    p_int = sysm.dofs.dim_rt_interior
    assert np.array_equal(flux.coefficients[p_int:], sysm.trace_map @ g)


def test_multiplier_has_zero_mean(solver_lshape2, rng):
    sysm = solver_lshape2.system
    g = rng.standard_normal(sysm.dofs.dim_trace)
    neumann = solver_lshape2.solve_neumann(g)
    flux = solver_lshape2.solve_flux(g, neumann)
    scale = np.abs(flux.multipliers).max() + 1.0
    assert abs(sysm.broken_moments @ flux.multipliers) <= 1e-11 * scale


@pytest.mark.parametrize("fixture", ["solver_square2", "solver_lshape2"])
def test_divergence_constraint_holds_exactly(fixture, rng, request):
    solver = request.getfixturevalue(fixture)
    sysm = solver.system
    for _ in range(3):
        g = rng.standard_normal(sysm.dofs.dim_trace)
        neumann = solver.solve_neumann(g)
        flux = solver.solve_flux(g, neumann)
        assert solver.divergence_gap(neumann, flux) <= 1e-10


def test_error_routes_agree_for_random_data(solver_square2, rng):
    """check_routes recomputes the error by direct quadrature; the two
    evaluations must agree, so error_norm simply succeeding is the test."""
    sysm = solver_square2.system
    for _ in range(10):
        g = rng.standard_normal(sysm.dofs.dim_trace)
        neumann = solver_square2.solve_neumann(g)
        flux = solver_square2.solve_flux(g, neumann)
        value = solver_square2.error_norm(neumann, flux, check_routes=True)
        assert np.isfinite(value) and value >= 0.0


def test_error_is_positively_homogeneous(solver_square2, rng):
    sysm = solver_square2.system
    g = rng.standard_normal(sysm.dofs.dim_trace)
    base = _error_of(solver_square2, g)
    for t in (1e-3, 1e3):
        scaled = _error_of(solver_square2, t * g)
        assert scaled == pytest.approx(t * base, rel=1e-9)


def _error_of(solver, g):
    neumann = solver.solve_neumann(g)
    flux = solver.solve_flux(g, neumann)
    return solver.error_norm(neumann, flux)


# --- the projection constant --------------------------------------------


def test_constant_bounds_every_error(solver_square2, rng):
    """kappa is the worst error over unit data, so it dominates the
    error of every draw and the maximizer attains it."""
    sysm = solver_square2.system
    result = solver_square2.constant()
    for _ in range(20):
        g = rng.standard_normal(sysm.dofs.dim_trace)
        err = _error_of(solver_square2, g)
        assert err <= result.value * sysm.boundary_norm(g) * (1.0 + 1e-10)
    attained = _error_of(solver_square2, result.maximizer.coefficients)
    norm = sysm.boundary_norm(result.maximizer.coefficients)
    assert attained == pytest.approx(result.value * norm, rel=1e-10)


def test_quad_form_diagonal_matches_error_route(solver_square2):
    """The assembled quadratic form evaluates the squared error."""
    sysm = solver_square2.system
    result = solver_square2.constant()
    s = sysm.dofs.dim_trace
    for j in range(s):
        g = np.zeros(s)
        g[j] = 1.0
        err = _error_of(solver_square2, g)
        assert result.quad_form[j, j] == pytest.approx(err**2, rel=1e-9, abs=1e-14)


def test_quad_form_is_positive_semidefinite(solver_square2):
    quad = solver_square2.constant().quad_form
    eigenvalues = np.linalg.eigvalsh(quad)
    assert eigenvalues.min() >= -1e-12 * max(eigenvalues.max(), 1.0)


def test_constant_invariant_under_interior_basis_change(system_square2, rng):
    """The KKT route re-run in a randomly transformed interior flux basis
    reproduces the constant (it is a property of the spaces, not of the
    chosen basis)."""
    sysm = system_square2
    p_int = sysm.dofs.dim_rt_interior
    t = rng.standard_normal((p_int, p_int))
    t += p_int * np.eye(p_int)
    value = kkt_constant(sysm, basis=t)
    expected = EquilibrationSolver(sysm).constant().value
    assert value == pytest.approx(expected, rel=1e-9)


# --- the hybridized solver against the KKT route ----------------------------


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_constant_matches_kkt_route(gen, n):
    system = assemble_system(gen(n))
    value = EquilibrationSolver(system).constant().value
    assert value == pytest.approx(kkt_constant(system), rel=1e-10)


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 8), (uniform_lshape_mesh, 4)])
def test_flux_matches_kkt_route(gen, n, rng):
    """Flux coefficients, broken multipliers and mean shift of seeded data
    agree with the unhybridized KKT solve."""
    system = assemble_system(gen(n))
    solver = EquilibrationSolver(system)
    for _ in range(3):
        g = rng.standard_normal(system.dofs.dim_trace)
        neumann = solver.solve_neumann(g)
        flux = solver.solve_flux(g, neumann)
        x, lam, shift = kkt_flux(system, g, neumann.coefficients)
        assert np.abs(flux.coefficients - x).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(flux.multipliers - lam).max() <= 1e-12 * np.abs(lam).max()
        assert abs(flux.mean_shift - shift) <= 1e-13


def test_perturbed_mean_shift_is_rejected(system_square4, rng):
    """The equation dropped by pinning one edge multiplier holds only for
    the compatible mean shift; a shifted right-hand side must be caught
    by its residual check, not solved."""
    sysm = system_square4
    solver = EquilibrationSolver(sysm)
    g = rng.standard_normal(sysm.dofs.dim_trace)
    neumann = solver.solve_neumann(g)
    shift = solver.solve_flux(g, neumann).mean_shift
    traces = solver._trace_to_edge @ g[:, None]

    def loads(c):
        return (sysm.broken_coupling @ neumann.coefficients - c * sysm.broken_moments)[:, None]

    solver._multipliers(loads(shift), traces, solver._edges.solve)
    with pytest.raises(LinearAlgebraError, match="compatibility residual"):
        solver._multipliers(loads(shift + 1e-6), traces, solver._edges.solve)


def test_pinned_edge_system_residual_near_roundoff():
    """Every kappa column solves the pinned edge-multiplier system to a
    relative residual near roundoff.  Pinning a boundary multiplier
    instead gives 1.4e-11 at square n = 32, growing about fourfold per
    refinement towards the 1e-10 check of CholeskyFactor."""
    sysm = assemble_system(uniform_square_mesh(32))
    solver = EquilibrationSolver(sysm)
    y_all = np.linalg.solve(
        (sysm.stiffness + sysm.mass).toarray(), sysm.boundary_coupling.toarray()
    )
    rhs = solver._load_to_edge @ (sysm.broken_coupling @ y_all) - solver._trace_to_edge.toarray()
    rhs = rhs[solver._free]
    x = solver._edges.solve(rhs)
    residual = np.linalg.norm(solver._edges._a @ x - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert residual.max() < 1e-12


def test_constant_memory_peak_square32():
    """constant() keeps no (rows x s) array alive: its traced peak at
    square n = 32 stays below 64 MB (the KKT route needed 129 MB)."""
    solver = EquilibrationSolver(assemble_system(uniform_square_mesh(32)))
    tracemalloc.start()
    try:
        solver.constant()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("gen, n", [(uniform_square_mesh, 16), (uniform_lshape_mesh, 8)])
def test_constant_independent_of_worker_count(gen, n, monkeypatch):
    """Each block writes only its own columns, so one, two and four
    workers give the same bits; four run under a short thread switch
    interval to stress the concurrent column writes."""
    solver = EquilibrationSolver(assemble_system(gen(n)))
    interval = sys.getswitchinterval()
    results = []
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(hypercircle, "_WORKERS", workers)
            sys.setswitchinterval(1e-6 if workers > 2 else interval)
            results.append(solver.constant())
    finally:
        sys.setswitchinterval(interval)
    one = results[0]
    for other in results[1:]:
        assert np.array_equal(one.quad_form, other.quad_form)
        assert one.value == other.value
        assert np.array_equal(one.maximizer.coefficients, other.maximizer.coefficients)


def test_constant_error_in_a_worker_reaches_the_caller(monkeypatch):
    """With a zero tolerance the compatibility check fails inside the
    blocks: the caller gets the worker's LinearAlgebraError itself, and
    the pool's threads are gone when constant() returns."""
    solver = EquilibrationSolver(assemble_system(uniform_square_mesh(8)))
    monkeypatch.setattr(hypercircle, "_WORKERS", 2)
    monkeypatch.setattr(hypercircle, "_RESIDUAL_TOL", 0.0)
    before = threading.active_count()
    with pytest.raises(LinearAlgebraError, match="flux compatibility residual") as caught:
        solver.constant()
    assert type(caught.value) is LinearAlgebraError
    assert threading.active_count() == before


@pytest.mark.parametrize("length", [0, 7, 17])
def test_wrong_length_data_is_rejected(solver_square2, length):
    """Square n = 2 has 16 trace dofs and 9 vertices."""
    with pytest.raises(IncompatibleDataError, match=f"shape \\({length},\\), expected length 16"):
        solver_square2.solve_neumann(np.ones(length))
    g = np.ones(16)
    neumann = solver_square2.solve_neumann(g)
    with pytest.raises(IncompatibleDataError, match="expected length 16"):
        solver_square2.solve_flux(np.ones(length), neumann)
    with pytest.raises(IncompatibleDataError, match="expected length 9"):
        solver_square2.solve_flux(g, NeumannSolution(np.ones(length)))


def test_constant_decreases_under_refinement():
    values = []
    for n in (2, 4, 8):
        system = assemble_system(uniform_square_mesh(n))
        values.append(EquilibrationSolver(system).constant().value)
    assert values[0] > values[1] > values[2]


def test_constant_frozen_values():
    """Regression pins computed once with this code and checked against
    the published table values where available (absolute 2e-4)."""
    cases = [
        (uniform_square_mesh, 2, 0.41163826123681807, None),
        (uniform_square_mesh, 4, 0.2890786028234528, 0.2891),
        (uniform_square_mesh, 8, 0.2041595652570483, 0.2042),
        (uniform_lshape_mesh, 2, 0.5106199983623648, 0.5106),
    ]
    for gen, n, frozen, published in cases:
        system = assemble_system(gen(n))
        value = EquilibrationSolver(system).constant().value
        assert value == pytest.approx(frozen, rel=1e-9), (gen.__name__, n)
        if published is not None:
            assert abs(value - published) <= 2e-4, (gen.__name__, n)


# --- guaranteed bound against a resolved reference -----------------------


def test_error_bound_dominates_reference_gap():
    """The guaranteed quantity bounds the distance between the coarse
    solution and a far more resolved solution of the same data.

    The data cosh(x) n_x is constant on every edge of the square meshes,
    so the coarse and fine trace representations are the same function
    and both discrete problems share one continuous solution.
    """

    def f(pts, normal):
        return np.cosh(pts[:, 0]) * normal[0]

    coarse_mesh = uniform_square_mesh(2)
    coarse = assemble_system(coarse_mesh)
    g_coarse = project_boundary(coarse_mesh, f)
    solver = EquilibrationSolver(coarse)
    neumann = solver.solve_neumann(g_coarse)
    flux = solver.solve_flux(g_coarse, neumann)
    indicator = solver.error_norm(neumann, flux)

    fine_mesh = uniform_square_mesh(16)
    fine = assemble_system(fine_mesh)
    y_fine = EquilibrationSolver(fine).solve_neumann(project_boundary(fine_mesh, f)).coefficients

    interpolated = p1_point_values(coarse_mesh, neumann.coefficients, fine_mesh.vertices)
    diff = y_fine - interpolated
    h1 = (fine.stiffness + fine.mass) @ diff
    gap = float(np.sqrt(diff @ h1))
    assert indicator >= gap - 1e-6
    # the bound is meaningful: same order of magnitude as the gap
    assert indicator <= 10.0 * gap
