"""Equilibrated flux, guaranteed error quantity and projection constant."""

import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from steklov_certify import hypercircle, linalg
from steklov_certify.assembly import (
    TRIANGLE_RULE,
    assemble_system,
    p1_gradients,
    project_boundary,
    rt_divergence_vertex_values,
    rt_values_at_quadrature,
)
from steklov_certify.hypercircle import (
    EquilibrationSolver,
    FluxSolution,
    IncompatibleDataError,
    NeumannSolution,
)
from steklov_certify.linalg import LinearAlgebraError
from steklov_certify.mesh import Mesh, uniform_lshape_mesh, uniform_square_mesh

from oracles import (
    divergence_gap_per_element,
    error_squared_per_element,
    kkt_constant,
    kkt_flux,
    p1_point_values,
    rt_divergence_per_element,
    rt_values_per_element,
)


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


def test_constant_computes_only_the_top_vector(monkeypatch):
    """kappa's pair comes from one inverse iteration with one shift and
    no dense eigh, although the top half of the form's spectrum lies
    within 2.1e-4 relative of its largest at square n = 16.  The
    maximizer is G-normalized and attains kappa^2 in the form."""
    system = assemble_system(uniform_square_mesh(16))
    solver = EquilibrationSolver(system)
    shifts = []
    dstein = hypercircle.sla.lapack.dstein

    def spying(d, e, w, *args):
        shifts.append(w.size)
        return dstein(d, e, w, *args)

    def dense(*args, **kwargs):
        raise AssertionError("a dense eigh ran")

    monkeypatch.setattr(hypercircle.sla.lapack, "dstein", spying)
    monkeypatch.setattr(hypercircle.sla, "eigh", dense)
    result = solver.constant()
    assert shifts == [1]
    x = result.maximizer.coefficients
    assert x @ (system.boundary_mass @ x) == pytest.approx(1.0, rel=1e-12)
    assert x @ (result.quad_form @ x) == pytest.approx(result.value**2, rel=1e-12)


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
    value, _ = kkt_constant(sysm, basis=t)
    expected = EquilibrationSolver(sysm).constant().value
    assert value == pytest.approx(expected, rel=1e-9)


# --- the hybridized solver against the KKT route ----------------------------


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_constant_matches_kkt_route(gen, n):
    system = assemble_system(gen(n))
    value = EquilibrationSolver(system).constant().value
    assert value == pytest.approx(kkt_constant(system)[0], rel=1e-10)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_constant_with_a_short_last_block(n):
    """On the square with odd n, _BLOCK does not divide the s/2 = 4n
    solved columns: the last block stops at s/2, and kappa is the KKT
    route's."""
    system = assemble_system(uniform_square_mesh(n))
    assert (system.dofs.dim_trace // 2) % hypercircle._BLOCK != 0
    value = EquilibrationSolver(system).constant().value
    assert value == pytest.approx(kkt_constant(system)[0], rel=1e-12)


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 8), (uniform_lshape_mesh, 4)])
def test_split_form_matches_the_solved_kkt_form(gen, n):
    """The form assembled from s/2 solved columns and the boundary Schur
    block equals the KKT oracle's form, all s columns of it solved, and
    the boundary coupling that splits the trace space has rank s/2."""
    system = assemble_system(gen(n))
    s = system.dofs.dim_trace
    assert np.linalg.matrix_rank(system.boundary_coupling.toarray()) == s // 2
    quad = EquilibrationSolver(system).constant().quad_form
    _, oracle = kkt_constant(system)
    assert np.abs(quad - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_constant_solves_half_the_trace_columns(system_square4):
    """The edge factor solves s/2 trace columns plus one cross-check
    block of _BLOCK; the parent route solved all s."""
    solver = EquilibrationSolver(system_square4)
    widths = []
    solve = solver._edges._solve

    def counting(b):
        widths.append(b.shape[1])
        return solve(b)

    solver._edges._solve = counting
    solver.constant()
    s = system_square4.dofs.dim_trace
    assert s // 2 > hypercircle._BLOCK
    assert sum(widths) == s // 2 + hypercircle._BLOCK


def test_perturbed_schur_root_fails_the_cross_check(monkeypatch):
    """A Schur root off by one part in a million changes only the
    unsolved block of the form; the cross-check block of solved columns
    catches it."""
    solver = EquilibrationSolver(assemble_system(uniform_square_mesh(8)))
    monkeypatch.setattr(solver, "_boundary_root", solver._boundary_root * (1.0 + 1e-6))
    with pytest.raises(LinearAlgebraError, match="kappa cross-check: .* of column"):
        solver.constant()


def test_kept_edge_factor_reads_no_pivots(monkeypatch):
    """The throwaway boundary-last factor reads its pivots and proves the
    pinned edge system positive definite; the kept edge factor must not
    read L or U, which makes scipy cache CSC copies of both."""
    made = []
    splu = linalg.spla.splu

    class Spy:
        def __init__(self, lu):
            self._lu, self.read = lu, []

        def __getattr__(self, name):
            if name in ("L", "U"):
                self.read.append(name)
            return getattr(self._lu, name)

    def spying(*args, **kwargs):
        made.append(Spy(splu(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(linalg.spla, "splu", spying)
    solver = EquilibrationSolver(assemble_system(uniform_square_mesh(4)))
    assert solver._edges._lu is made[-1]
    assert made[-1].read == []
    assert "U" in made[-2].read
    solver.constant()
    assert made[-1].read == []


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


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 8), (uniform_lshape_mesh, 4)])
def test_pin_in_place_matches_the_deleted_pin(gen, n, rng):
    """The pinned multiplier keeps its number: the kept factor's matrix
    has the unit row and column there, mu is exactly zero there, and the
    other entries match a solve of the edge system with the pin's row and
    column deleted."""
    sysm = assemble_system(gen(n))
    solver = EquilibrationSolver(sysm)
    g = rng.standard_normal(sysm.dofs.dim_trace)
    neumann = solver.solve_neumann(g)
    shift = solver.solve_flux(g, neumann).mean_shift
    loads = (sysm.broken_coupling @ neumann.coefficients - shift * sysm.broken_moments)[:, None]
    traces = solver._trace_to_edge @ g[:, None]
    _, mu = solver._multipliers(loads, traces, solver._edges.solve)

    pin, edges = solver._pin, solver._edges._a.tocsr()
    unit = np.zeros(edges.shape[0])
    unit[pin] = 1.0
    assert edges[pin].nnz == edges[:, pin].nnz == 1
    assert np.array_equal(edges[pin].toarray().ravel(), unit)
    assert np.array_equal(edges[:, pin].toarray().ravel(), unit)
    assert mu[pin, 0] == 0.0

    # the route that deletes the pin, on the same matrix
    free = np.delete(np.arange(edges.shape[0]), pin)
    rhs = solver._load_to_edge @ loads - traces
    oracle = linalg.CholeskyFactor(edges[free][:, free]).solve(rhs[free])
    assert np.abs(mu[free] - oracle).max() <= 1e-13 * np.abs(oracle).max()


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
    rhs[solver._pin] = 0.0
    x = solver._edges.solve(rhs)
    residual = np.linalg.norm(solver._edges._a @ x - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert residual.max() < 1e-12


def test_one_triangle_constant_names_the_missing_pin(rng):
    """One triangle is the one valid mesh with no interior edge: the pin
    falls on a boundary edge, so constant() refuses the mesh by name
    (its Schur block used to fail the kappa cross-check), while the
    single-datum flux audit still works there."""
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)])
    solver = EquilibrationSolver(assemble_system(mesh))
    with pytest.raises(LinearAlgebraError, match="^projection constant: the mesh has no interior edge to pin$"):
        solver.constant()
    g = rng.standard_normal(solver.system.dofs.dim_trace)
    neumann = solver.solve_neumann(g)
    flux = solver.solve_flux(g, neumann)
    assert 0.0 < solver.error_norm(neumann, flux) < np.inf
    assert solver.divergence_gap(neumann, flux) <= 1e-12


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


def test_solver_live_size_after_constant_square64():
    """A certified level holds no flux data the certificate does not
    read: after constant() at square n = 64 the system and its solver
    together keep a traced live size below 17 MB (14.1 MB measured;
    39.0 MB while they held the flux matrices, the element data and the
    flux stack beside its map).  SuperLU's own storage of the factors
    is not traced."""
    mesh = uniform_square_mesh(64)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        solver = EquilibrationSolver(assemble_system(mesh))
        solver.constant()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live - start < 17e6


# the largest n^2 (3 n kappa^2 - 1) measured on the square, 0.0222 at
# n = 8, with 12% to spare; see square_kappa_law
KAPPA_LAW_BOUND = 0.025


def square_kappa_law(n):
    """n^2 (3 n kappa^2 - 1) on the unit square at n.  kappa^2 tends to
    h_e / 3, h_e = 1/n the boundary edge length, from above: measured
    0.0222, 0.0138, 0.0108, 0.0096, 0.0091 and 0.0089 at n = 8..256."""
    kappa = EquilibrationSolver(assemble_system(uniform_square_mesh(n))).constant().value
    return n * n * (3.0 * n * kappa**2 - 1.0)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_square_kappa_law(n):
    """0 < 3 n kappa^2 - 1 <= KAPPA_LAW_BOUND / n^2: a kappa check past
    the paper's four digits, which catches a relative kappa error of
    about 2e-6 at n = 64 (CI runs it at n = 128 too)."""
    assert 0.0 < square_kappa_law(n) <= KAPPA_LAW_BOUND


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


@pytest.mark.parametrize("length", [0, 7, 17, 53])
def test_wrong_length_data_is_rejected(solver_square2, length):
    """Square n = 2 has 16 trace dofs, 9 vertices and 48 flux dofs; 53
    is five entries too many for a flux."""
    with pytest.raises(IncompatibleDataError, match=f"shape \\({length},\\), expected length 16"):
        solver_square2.solve_neumann(np.ones(length))
    g = np.ones(16)
    neumann = solver_square2.solve_neumann(g)
    with pytest.raises(IncompatibleDataError, match="expected length 16"):
        solver_square2.solve_flux(np.ones(length), neumann)
    wrong_neumann = NeumannSolution(np.ones(length))
    with pytest.raises(IncompatibleDataError, match="expected length 9"):
        solver_square2.solve_flux(g, wrong_neumann)
    flux = solver_square2.solve_flux(g, neumann)
    wrong_flux = FluxSolution(np.ones(length), flux.multipliers, flux.mean_shift)
    for method in (solver_square2.divergence_gap, solver_square2.error_norm):
        with pytest.raises(IncompatibleDataError, match="expected length 9"):
            method(wrong_neumann, flux)
        with pytest.raises(IncompatibleDataError, match="expected length 48"):
            method(neumann, wrong_flux)
    for evaluate in (rt_values_at_quadrature, rt_divergence_vertex_values):
        with pytest.raises(ValueError, match=f"shape \\({length},\\), expected length 48"):
            evaluate(solver_square2.system, np.ones(length))


def _jittered_lshape(n, seed):
    """L-shape mesh with each interior vertex moved by at most 0.2/n, a
    fifth of the lattice spacing."""
    mesh = uniform_lshape_mesh(n)
    rng = np.random.default_rng(seed)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_edges)
    angle = rng.uniform(0.0, 2.0 * np.pi, interior.size)
    length = rng.uniform(0.0, 0.2 / n, interior.size)
    vertices = mesh.vertices.copy()
    vertices[interior] += length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return Mesh(vertices, mesh.triangles, mesh.boundary_edges, domain=mesh.domain)


@pytest.mark.parametrize(
    "build",
    [lambda: uniform_square_mesh(4), lambda: _jittered_lshape(4, 0)],
    ids=["square4", "jittered_lshape4"],
)
def test_evaluators_match_the_per_element_oracle(build, rng):
    """The cached evaluation maps against element-by-element contraction
    of the element basis, for random fields (neither equilibrated nor
    related).  The worst disagreement measured over 20 fields on four
    such meshes was 5.8e-15 relative (flux values), so 1e-13 leaves
    more than tenfold room for rounding and none for a wrong entry."""
    system = assemble_system(build())
    solver = EquilibrationSolver(system)
    for _ in range(5):
        x = rng.standard_normal(system.rt_mass.shape[0])
        y = rng.standard_normal(system.dofs.dim_p1)
        values = rt_values_per_element(system, x, TRIANGLE_RULE[0])
        np.testing.assert_allclose(
            rt_values_at_quadrature(system, x), values, rtol=0, atol=1e-13 * np.abs(values).max()
        )
        div = rt_divergence_per_element(system, x)
        np.testing.assert_allclose(
            rt_divergence_vertex_values(system, x), div, rtol=0, atol=1e-13 * np.abs(div).max()
        )
        flux = FluxSolution(x, np.zeros(system.dofs.dim_broken), 0.0)
        assert solver.divergence_gap(NeumannSolution(y), flux) == pytest.approx(
            divergence_gap_per_element(system, y, x), rel=1e-13
        )
        assert hypercircle._direct_error_squared(system, y, x) == pytest.approx(
            error_squared_per_element(system, y, x), rel=1e-13
        )


def _cached(obj):
    """Names of the cached properties already computed on obj."""
    cached = [k for k, v in vars(type(obj)).items() if isinstance(v, functools.cached_property)]
    return set(cached) & set(vars(obj))


def test_constant_builds_no_evaluation_operators(rng):
    """constant(), all a certified table asks of the solver, builds none
    of the operators of the audit: the system's broken mass matrix,
    element data, flux matrices and evaluation maps, and the solver's
    flux map.  The solver assembles element data of its own, so the
    system holds no flux data at all.  One audited datum builds what it
    reads; div_coupling, which no audit reads, stays unbuilt.  A second
    solver on the audited system gives the same kappa."""
    system = assemble_system(uniform_square_mesh(8))
    assert _cached(system) == set()
    solver = EquilibrationSolver(system)
    kappa = solver.constant().value
    assert _cached(system) == set() and _cached(solver) == set()
    g = rng.standard_normal(system.dofs.dim_trace)
    neumann = solver.solve_neumann(g)
    flux = solver.solve_flux(g, neumann)
    solver.divergence_gap(neumann, flux)
    solver.error_norm(neumann, flux, check_routes=True)
    assert _cached(system) == {"broken_mass", "rt_elements", "rt_mass", "_evaluation"}
    assert _cached(solver) == {"_flux_map"}
    assert EquilibrationSolver(system).constant().value == kappa


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
