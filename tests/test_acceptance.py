"""Acceptance gate: one test per release criterion.

Every criterion collects named sub-checks into the shared registry so the
terminal summary prints one PASS/FAIL line per criterion; the test itself
fails if any sub-check fails, quoting the failing names and numbers.
"""

import math
import time

import numpy as np
import pytest

from steklov_certify.assembly import (
    assemble_boundary,
    assemble_p1,
    assemble_system,
    project_boundary,
)
from steklov_certify.bounds import certification_constant, trace_constant_bound
from steklov_certify.cli import certify_level, convergence_orders
from steklov_certify.hypercircle import EquilibrationSolver
from steklov_certify.linalg import SaddleFactor
from steklov_certify.mesh import uniform_lshape_mesh, uniform_square_mesh
from steklov_certify.steklov import assemble_cr, solve_steklov_cr, solve_steklov_p1

from conftest import ACCEPTANCE_RESULTS
from oracles import dense_pencil_eigenvalues, h1_distance_to_function, kkt_flux, kkt_matrix

REF_SQUARE = [0.240079, 1.49230, 1.49230]
REF_LSHAPE = [0.3414160, 0.6168667, 0.9842784]

SQUARE_LEVELS = (4, 8, 16, 32)
LSHAPE_LEVELS = (2, 4, 8, 16)

TABLE_SQUARE_CONF = {
    "kappa": [0.2891, 0.2042, 0.1443, 0.1021],
    "trace": [0.5740, 0.4059, 0.2870, 0.2029],
    "cert": [0.6427, 0.4544, 0.3208, 0.2272],
    "lambda1": [0.2404841, 0.2401798, 0.2401042, 0.2400854],
    "lambda2": [1.527151, 1.502305, 1.494918, 1.492966],
    "lower1": [0.218753, 0.228833, 0.2343144, 0.2371468],
    "lower2": [0.936415, 1.146662, 1.295596, 1.386153],
}

TABLE_LSHAPE_CONF = {
    "kappa": [0.5106, 0.3633, 0.2591, 0.1847],
    "trace": [0.8118, 0.5740, 0.4059, 0.2870],
    "cert": [0.9590, 0.6793, 0.4815, 0.3413],
    "lambda1": [0.3443305, 0.3421498, 0.3416010, 0.3414626],
    "lambda2": [0.6513041, 0.6299816, 0.6217140, 0.6186763],
    "lambda3": [1.0278736, 0.9968693, 0.9876317, 0.9851393],
    "lower1": [0.2615119, 0.2954914, 0.3165279, 0.3283997],
    "lower2": [0.4073133, 0.4880800, 0.5433766, 0.5770854],
    "lower3": [0.5283698, 0.6827630, 0.8035932, 0.8837230],
}

TABLE_SQUARE_CR = {
    "cr_const": [0.6110176, 0.4038323, 0.2714162, 0.1848489],
    "lambda1": [0.2404829, 0.2401793, 0.2401041, 0.2400853],
    "lambda2": [1.460229, 1.483297, 1.489892, 1.491678],
    "lower1": [0.2206705, 0.2311264, 0.235931, 0.2381318],
    "lower2": [0.9450309, 1.19438, 1.342541, 1.419335],
}

TABLE_LSHAPE_CR = {
    "cr_const": [0.8997886, 0.5890361, 0.3928155, 0.2659045],
    "lambda1": [0.3425959, 0.3416846, 0.3414799, 0.3414316],
    "lambda2": [0.5829704, 0.6039094, 0.6120116, 0.6150436],
    "lambda3": [0.9608929, 0.9769290, 0.9821661, 0.9837098],
    "lower1": [0.2682036, 0.3054704, 0.3243874, 0.3333834],
    "lower2": [0.3960439, 0.4992908, 0.5592028, 0.5894119],
    "lower3": [0.5404476, 0.7296185, 0.8529063, 0.9197389],
}


# Cells (column, n) of TABLE_SQUARE_CONF where the paper contradicts its own
# rows.  The paper's bound is lower_k = lambda_k / (1 + M^2 lambda_k) with
# M = sqrt(C^2 + kappa^2); the program is compared here with that formula
# applied to the printed C, kappa and lambda_k, never with program output.
# The check "table self-consistency" demands that this set is exactly the set
# of cells of the table that break the formula.
SQUARE_CONF_ERRATA = frozenset(
    {
        # hypot(0.2870, 0.1443) = 0.321234, but the printed M is 0.3208
        # (|diff| 4.3e-4).  In every other conforming row of both tables the
        # printed M equals hypot(C, kappa) to within 6e-5.  The printed
        # kappa 0.1443 continues the sqrt(2) ratio of its neighbours
        # (0.2042 / sqrt(2) = 0.1444, 0.1021 * sqrt(2) = 0.1444).
        ("cert", 16),
        # The printed 1.295596 inverts to M = 0.3208; with M = 0.321234 the
        # formula gives 1.295128, so the printed bound exceeds what the
        # paper's own constants guarantee (rel 3.6e-4).
        ("lower2", 16),
    }
)

CERT_TOL = 2e-4
LOWER_TOL = 1e-4


def _table_implied(table, column, i):
    """The value the table's own C, kappa and lambda rows imply for a cell."""
    cert = math.hypot(table["trace"][i], table["kappa"][i])
    if column == "cert":
        return cert
    lam = table["lambda" + column.removeprefix("lower")][i]
    return lam / (1.0 + cert**2 * lam)


def _expected(table, errata, column, i, n):
    """Reference value and its source label for one cell of a table."""
    if (column, n) in errata:
        return _table_implied(table, column, i), "table-implied"
    return table[column][i], "table"


def _abs_check(checks, name, got, table, tol, source="table"):
    diff = abs(got - table)
    checks.append(
        (name, diff <= tol, f"got {got:.7g}, {source} {table:.7g}, |diff| {diff:.2e} > {tol:.0e}")
    )


def _rel_check(checks, name, got, table, tol, source="table"):
    rel = abs(got - table) / abs(table)
    checks.append(
        (name, rel <= tol, f"got {got:.8g}, {source} {table:.8g}, rel {rel:.2e} > {tol:.0e}")
    )


def _consistency_check(checks, table, levels, errata):
    """Require the errata to be exactly the cells that break M = hypot(C, kappa)
    or lower_k = lambda_k / (1 + M^2 lambda_k) within the comparison tolerances."""
    broken = {}
    for i, n in enumerate(levels):
        cert = _table_implied(table, "cert", i)
        if abs(table["cert"][i] - cert) > CERT_TOL:
            broken[("cert", n)] = f"printed {table['cert'][i]}, implied {cert:.7g}"
        for column in (c for c in table if c.startswith("lower")):
            lower = _table_implied(table, column, i)
            if abs(table[column][i] - lower) / abs(lower) > LOWER_TOL:
                broken[(column, n)] = f"printed {table[column][i]}, implied {lower:.8g}"
    checks.append(
        (
            "table self-consistency",
            set(broken) == errata,
            f"inconsistent cells {broken}, errata {sorted(errata)}",
        )
    )


def _register(number, title, checks, notes=()):
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    ACCEPTANCE_RESULTS[number] = {
        "title": title,
        "passed": not failed,
        "checks": checks,
        "notes": list(notes),
    }
    assert not failed, (
        f"{len(failed)} of {len(checks)} checks failed: "
        + "; ".join(f"{name}: {detail}" for name, detail in failed)
    )


@pytest.fixture(scope="module")
def square_conforming():
    start = time.perf_counter()
    levels = [
        certify_level(uniform_square_mesh(n), 3, ("conforming",), None, n=n)[0]
        for n in SQUARE_LEVELS
    ]
    return levels, time.perf_counter() - start


@pytest.fixture(scope="module")
def lshape_conforming():
    return [
        certify_level(uniform_lshape_mesh(n), 3, ("conforming",), None, n=n)[0]
        for n in LSHAPE_LEVELS
    ]


@pytest.fixture(scope="module")
def square_cr():
    return [
        certify_level(uniform_square_mesh(n), 3, ("cr",), None, n=n)[0]
        for n in SQUARE_LEVELS
    ]


@pytest.fixture(scope="module")
def lshape_cr():
    return [
        certify_level(uniform_lshape_mesh(n), 3, ("cr",), None, n=n)[0]
        for n in LSHAPE_LEVELS
    ]


def test_criterion_1_square_conforming_table(square_conforming):
    levels, elapsed = square_conforming
    table = TABLE_SQUARE_CONF
    checks = []
    for i, (n, level) in enumerate(zip(SQUARE_LEVELS, levels)):
        c = level.constants
        _abs_check(checks, f"kappa@n={n}", c.proj_const, table["kappa"][i], 2e-4)
        _abs_check(checks, f"trace@n={n}", c.trace_const, table["trace"][i], 1e-4)
        expected, source = _expected(table, SQUARE_CONF_ERRATA, "cert", i, n)
        _abs_check(checks, f"M@n={n}", c.cert_const, expected, CERT_TOL, source)
        _rel_check(checks, f"lambda1@n={n}", level.eigenvalues[0], table["lambda1"][i], 1e-5)
        _rel_check(checks, f"lambda2@n={n}", level.eigenvalues[1], table["lambda2"][i], 1e-5)
        for k in (1, 2):
            expected, source = _expected(table, SQUARE_CONF_ERRATA, f"lower{k}", i, n)
            _rel_check(
                checks, f"lower{k}@n={n}", level.lower_bounds[k - 1], expected, LOWER_TOL, source
            )
    checks.append(
        ("runtime", elapsed < 60.0, f"table computed in {elapsed:.1f}s, limit 60s")
    )
    _consistency_check(checks, table, SQUARE_LEVELS, SQUARE_CONF_ERRATA)
    notes = []
    for column, n in sorted(SQUARE_CONF_ERRATA):
        i = SQUARE_LEVELS.index(n)
        notes.append(
            f"erratum {column}@n={n}: compared with table-implied "
            f"{_table_implied(table, column, i):.8g}, printed {table[column][i]}"
        )
    _register(1, "square conforming table", checks, notes)


def test_criterion_2_lshape_conforming_table(lshape_conforming):
    table = TABLE_LSHAPE_CONF
    checks = []
    for i, (n, level) in enumerate(zip(LSHAPE_LEVELS, lshape_conforming)):
        c = level.constants
        _abs_check(checks, f"kappa@n={n}", c.proj_const, table["kappa"][i], 2e-4)
        _abs_check(checks, f"trace@n={n}", c.trace_const, table["trace"][i], 1e-4)
        _abs_check(checks, f"M@n={n}", c.cert_const, table["cert"][i], CERT_TOL)
        for k in (1, 2, 3):
            _rel_check(
                checks, f"lambda{k}@n={n}", level.eigenvalues[k - 1], table[f"lambda{k}"][i], 1e-5
            )
            _rel_check(
                checks, f"lower{k}@n={n}", level.lower_bounds[k - 1], table[f"lower{k}"][i],
                LOWER_TOL,
            )
    _consistency_check(checks, table, LSHAPE_LEVELS, frozenset())
    _register(2, "L-shape conforming table", checks)


def test_criterion_3_cr_tables(square_cr, lshape_cr):
    checks = []
    plans = [
        ("square", SQUARE_LEVELS, square_cr, TABLE_SQUARE_CR, (1, 2)),
        ("lshape", LSHAPE_LEVELS, lshape_cr, TABLE_LSHAPE_CR, (1, 2, 3)),
    ]
    for tag, ns, levels, table, ks in plans:
        for i, (n, level) in enumerate(zip(ns, levels)):
            _rel_check(
                checks, f"{tag} cr_const@n={n}", level.constants.cr_const,
                table["cr_const"][i], 1e-4,
            )
            for k in ks:
                _rel_check(
                    checks, f"{tag} lambda{k}@n={n}",
                    level.eigenvalues[k - 1], table[f"lambda{k}"][i], 1e-5,
                )
                _rel_check(
                    checks, f"{tag} lower{k}@n={n}",
                    level.lower_bounds[k - 1], table[f"lower{k}"][i], 1e-4,
                )
            if tag == "square":
                split = abs(level.eigenvalues[2] - level.eigenvalues[1])
                checks.append(
                    (
                        f"square lambda2=lambda3@n={n}",
                        split <= 1e-9 * level.eigenvalues[2],
                        f"split {split:.2e}",
                    )
                )
    _register(3, "Crouzeix-Raviart tables", checks)


def test_criterion_4_two_sided_enclosure(
    square_conforming, lshape_conforming, square_cr, lshape_cr
):
    checks = []
    plans = [
        ("square conforming", square_conforming[0], REF_SQUARE, True),
        ("lshape conforming", lshape_conforming, REF_LSHAPE, True),
        ("square cr", square_cr, REF_SQUARE, False),
        ("lshape cr", lshape_cr, REF_LSHAPE, False),
    ]
    violations = 0
    total = 0
    for tag, levels, refs, is_upper in plans:
        for level in levels:
            for k in (1, 2, 3):
                lam = level.eigenvalues[k - 1]
                low = level.lower_bounds[k - 1]
                ref = refs[k - 1]
                total += 1
                ok = low <= ref
                if is_upper:
                    ok = ok and ref <= lam
                if not ok:
                    violations += 1
                    checks.append(
                        (
                            f"{tag} k={k} n={level.n}",
                            False,
                            f"lower {low:.8g}, reference {ref:.8g}, upper {lam:.8g}",
                        )
                    )
    checks.append(
        (
            "enclosures hold",
            violations == 0,
            f"{violations} of {total} (level, index) pairs violated",
        )
    )
    _register(4, "two-sided enclosure of the reference values", checks)


def test_criterion_5_convergence_orders(square_conforming):
    levels, _ = square_conforming
    orders = convergence_orders(levels, REF_SQUARE)
    finest = orders[-1]
    checks = []
    for k in (1, 2, 3):
        upper = finest["upper"][k - 1]
        lower = finest["lower"][k - 1]
        checks.append(
            (
                f"upper order k={k}",
                upper is not None and upper >= 1.8,
                f"observed {upper}",
            )
        )
        checks.append(
            (
                f"lower order k={k}",
                lower is not None and 0.8 <= lower <= 1.2,
                f"observed {lower}",
            )
        )
    _register(5, "convergence orders on the square", checks)


def test_criterion_6_equilibration_verification():
    rng = np.random.default_rng(77003)
    checks = []
    for n, draws in ((2, 50), (4, 50)):
        system = assemble_system(uniform_square_mesh(n))
        solver = EquilibrationSolver(system)
        s = system.dofs.dim_trace
        passed = 0
        worst_shift = worst_gap = worst_compat = 0.0
        for _ in range(draws):
            g = rng.standard_normal(s)
            neumann = solver.solve_neumann(g)
            volume = float(np.sum(system.mass @ neumann.coefficients))
            surface = system.boundary_integral(g)
            compat = abs(volume - surface) / max(abs(volume), abs(surface), 1.0)
            flux = solver.solve_flux(g, neumann)
            shift = abs(flux.mean_shift)
            gap = solver.divergence_gap(neumann, flux)
            err = solver.error_norm(neumann, flux, check_routes=True)
            ok = compat <= 1e-10 and shift <= 1e-10 and gap <= 1e-10 and np.isfinite(err)
            passed += int(ok)
            worst_shift = max(worst_shift, shift)
            worst_gap = max(worst_gap, gap)
            worst_compat = max(worst_compat, compat)
        checks.append(
            (
                f"draws@n={n}",
                passed == draws,
                f"{passed}/{draws} passed; worst shift {worst_shift:.1e}, "
                f"divergence gap {worst_gap:.1e}, compatibility {worst_compat:.1e}",
            )
        )
    _register(6, "flux equilibration verification suite", checks)


def test_criterion_7_guaranteed_error_bound():
    """u = cosh(x) solves the continuous problem with boundary data
    sinh(x) n_x, whose trace norm is sinh(1); the certified constant must
    dominate the true H1 error of the discrete solution of that data."""

    def data(pts, normal):
        return np.sinh(pts[:, 0]) * normal[0]

    def u(points):
        return np.cosh(points[:, 0])

    def grad_u(points):
        out = np.zeros_like(points)
        out[:, 0] = np.sinh(points[:, 0])
        return out

    data_norm = np.sinh(1.0)
    checks = []
    for n in (4, 8, 16):
        mesh = uniform_square_mesh(n)
        system = assemble_system(mesh)
        solver = EquilibrationSolver(system)
        cert = certification_constant(
            trace_constant_bound(mesh), solver.constant().value
        )
        neumann = solver.solve_neumann(project_boundary(mesh, data))
        error = h1_distance_to_function(mesh, neumann.coefficients, u, grad_u, level=2)
        bound = cert * data_norm
        checks.append(
            (
                f"bound@n={n}",
                error <= bound,
                f"true error {error:.6g} vs bound {bound:.6g}",
            )
        )
        checks.append(
            (
                f"bound has teeth@n={n}",
                error >= 0.01 * bound,
                f"true error {error:.6g} vs bound {bound:.6g}",
            )
        )
    _register(7, "guaranteed a priori bound for smooth data", checks)


def test_criterion_8_small_problem_cross_checks():
    rng = np.random.default_rng(40813)
    checks = []
    for gen, n, tag in [
        (uniform_square_mesh, 2, "square2"),
        (uniform_square_mesh, 3, "square3"),
        (uniform_lshape_mesh, 1, "lshape1"),
    ]:
        mesh = gen(n)
        assert mesh.num_vertices <= 200
        stiffness, mass = assemble_p1(mesh)
        boundary = assemble_boundary(mesh)
        spectrum = solve_steklov_p1(mesh, 3)
        oracle = dense_pencil_eigenvalues(
            (stiffness + mass).toarray(), boundary.vertex_boundary_mass.toarray()
        )
        rel = float(np.max(np.abs(spectrum.values - oracle[:3]) / oracle[:3]))
        checks.append(
            (f"p1 pencil {tag}", rel <= 1e-10, f"max rel deviation {rel:.2e}")
        )

        cr_s, cr_m, cr_b = assemble_cr(mesh)
        cr_spec = solve_steklov_cr(mesh, 3)
        cr_oracle = dense_pencil_eigenvalues((cr_s + cr_m).toarray(), cr_b.toarray())
        rel = float(np.max(np.abs(cr_spec.values - cr_oracle[:3]) / cr_oracle[:3]))
        checks.append(
            (f"cr pencil {tag}", rel <= 1e-10, f"max rel deviation {rel:.2e}")
        )

        system = assemble_system(mesh)
        kkt = kkt_matrix(system)
        factor = SaddleFactor(kkt)
        dense = kkt.toarray()
        worst = 0.0
        for _ in range(5):
            rhs = rng.standard_normal(kkt.shape[0])
            sparse_sol = factor.solve(rhs)
            dense_sol = np.linalg.solve(dense, rhs)
            worst = max(
                worst,
                float(
                    np.linalg.norm(sparse_sol - dense_sol) / np.linalg.norm(dense_sol)
                ),
            )
        checks.append(
            (f"flux saddle {tag}", worst <= 1e-10, f"max rel deviation {worst:.2e}")
        )

        solver = EquilibrationSolver(system)
        g = rng.standard_normal(system.dofs.dim_trace)
        neumann = solver.solve_neumann(g)
        flux = solver.solve_flux(g, neumann)
        x, _, _ = kkt_flux(system, g, neumann.coefficients)
        rel = float(np.linalg.norm(flux.coefficients - x) / np.linalg.norm(x))
        checks.append(
            (f"hybrid flux {tag}", rel <= 1e-10, f"rel deviation from KKT {rel:.2e}")
        )
    _register(8, "small-problem solver cross-checks", checks)
