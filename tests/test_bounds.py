"""Certified constants, the lower-bound map and reference data."""

import json
from importlib import resources

import numpy as np
import pytest

from steklov_certify.bounds import (
    CR_GLOBAL_COEFF,
    CR_TRACE_COEFF,
    TRACE_SIMPLE_COEFF,
    certification_constant,
    certified_lower_bound,
    cr_error_constant,
    edge_trace_constant,
    load_references,
    reference_eigenvalues,
    trace_constant_bound,
    trace_constant_simplified,
)
from steklov_certify.mesh import (
    Mesh,
    MeshError,
    element_geometry,
    uniform_lshape_mesh,
    uniform_square_mesh,
)
from steklov_certify.steklov import solve_steklov_cr

from oracles import GAUSS7, gauss_on_edge


def _triangle_mesh(p0, p1, p2):
    vertices = np.array([p0, p1, p2], dtype=float)
    return Mesh(vertices, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))


# --- per-element trace constant -------------------------------------------


def test_edge_trace_constant_hand_values():
    """Right isosceles elements with legs L on the boundary have
    constant 0.574 * 2 * sqrt(L)."""
    for legs in (0.25, 0.125):
        mesh = _triangle_mesh((0, 0), (legs, 0), (0, legs))
        geom = element_geometry(mesh, 0)
        value = edge_trace_constant(geom, 0)
        assert value == pytest.approx(0.574 * 2.0 * np.sqrt(legs), rel=1e-12)


def test_edge_trace_constant_rejects_bad_input():
    mesh = _triangle_mesh((0, 0), (1, 0), (0, 1))
    geom = element_geometry(mesh, 0)
    with pytest.raises(ValueError, match="edge index"):
        edge_trace_constant(geom, 3)


def test_trace_constant_forms_agree(rng):
    """0.574 sqrt(|e|/|K|) h and 0.8118 h / sqrt(H) describe the same
    quantity up to the rounding of the printed coefficients."""
    for _ in range(1000):
        base = rng.uniform(0.3, 2.0)
        apex = np.array([rng.uniform(-1.0, 2.0), rng.uniform(0.2, 2.0)])
        mesh = _triangle_mesh((0, 0), (base, 0), apex)
        geom = element_geometry(mesh, 0)
        edge = int(rng.integers(0, 3))
        value = edge_trace_constant(geom, edge)
        other = 0.8118 * geom.h_max / np.sqrt(geom.heights[edge])
        assert abs(value - other) <= 3e-4 * other


def test_trace_inequality_on_sampled_functions(rng):
    """The certified constant dominates the Rayleigh ratio of randomly
    sampled quadratics with zero mean on the edge (exact quadrature:
    the integrands have degree at most four)."""
    cases = [
        ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (1.5, 0), (0.6, 0.9)),
        ((0, 0), (0.7, 0), (-0.2, 1.3)),
        ((0, 0), (2.0, 0), (1.0, 0.35)),
    ]
    bary, wq = GAUSS7
    worst_fill = 0.0
    for p0, p1, p2 in cases:
        mesh = _triangle_mesh(p0, p1, p2)
        geom = element_geometry(mesh, 0)
        constant = edge_trace_constant(geom, 0)
        corners = np.array([p0, p1, p2], dtype=float)
        quad_pts = bary @ corners
        area = geom.area
        pa, pb = corners[0], corners[1]
        edge_pts, edge_w, _ = gauss_on_edge(pa, pb, 20)
        edge_len = np.linalg.norm(pb - pa)
        for _ in range(50):
            c = rng.standard_normal(6)

            def value(p):
                x, y = p[..., 0], p[..., 1]
                return (
                    c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
                )

            def gradient(p):
                x, y = p[..., 0], p[..., 1]
                gx = c[1] + 2.0 * c[3] * x + c[4] * y
                gy = c[2] + c[4] * x + 2.0 * c[5] * y
                return np.stack([gx, gy], axis=-1)

            c[0] -= float(edge_w @ value(edge_pts)) / edge_len
            trace_sq = float(edge_w @ value(edge_pts) ** 2)
            grads = gradient(quad_pts)
            semi_sq = area * float(wq @ np.einsum("qd,qd->q", grads, grads))
            if semi_sq <= 1e-14:
                continue
            ratio = np.sqrt(trace_sq / semi_sq)
            assert ratio <= constant * (1.0 + 1e-12)
            worst_fill = max(worst_fill, ratio / constant)
    # the samples must actually probe the inequality, not sit at zero
    assert worst_fill >= 0.3


# --- mesh-level constants ---------------------------------------------------


@pytest.mark.parametrize(
    "gen,levels,published",
    [
        (uniform_square_mesh, (4, 8, 16, 32), (0.5740, 0.4059, 0.2870, 0.2029)),
        (uniform_lshape_mesh, (2, 4, 8, 16), (0.8118, 0.5740, 0.4059, 0.2870)),
    ],
)
def test_trace_constant_bound_closed_form(gen, levels, published):
    """All boundary elements of the generated meshes are right isosceles
    with legs 1/n on the boundary, so the bound is 1.148 sqrt(1/n)."""
    for n, table in zip(levels, published):
        mesh = gen(n)
        value = trace_constant_bound(mesh)
        assert value == pytest.approx(1.148 * np.sqrt(1.0 / n), rel=1e-12)
        assert abs(value - table) <= 1e-4


def test_trace_constant_simplified_dominates():
    for gen, n in [(uniform_square_mesh, 4), (uniform_square_mesh, 16), (uniform_lshape_mesh, 4)]:
        mesh = gen(n)
        simple = trace_constant_simplified(mesh)
        assert simple == pytest.approx(0.966 * np.sqrt(mesh.h), rel=1e-12)
        assert trace_constant_bound(mesh) <= simple


def test_corner_triangles_appear_once_per_edge():
    """The two triangles of square n = 1 carry two boundary edges each;
    the bound is the largest of the four (triangle, edge) constants."""
    mesh = uniform_square_mesh(1)
    assert sorted(mesh.boundary_triangles.tolist()) == [0, 0, 1, 1]
    pairs = list(zip(mesh.boundary_triangles.tolist(), mesh.boundary_local.tolist()))
    assert len(set(pairs)) == 4
    values = [edge_trace_constant(element_geometry(mesh, t), l) for t, l in pairs]
    assert trace_constant_bound(mesh) == max(values)


def _loop_constants(mesh, first_cr_eigenvalue):
    """The three mesh constants by a loop over element_geometry."""
    trace = h_boundary = boundary_part = 0.0
    for t, l in zip(mesh.boundary_triangles.tolist(), mesh.boundary_local.tolist()):
        geom = element_geometry(mesh, t)
        trace = max(trace, float(edge_trace_constant(geom, l)))
        h_boundary = max(h_boundary, geom.h_max)
        boundary_part = max(boundary_part, geom.h_max / np.sqrt(geom.heights[l]))
    root = 1.0 / np.sqrt(first_cr_eigenvalue)
    full = CR_TRACE_COEFF * boundary_part + CR_GLOBAL_COEFF * root * mesh.h
    return trace, TRACE_SIMPLE_COEFF * float(np.sqrt(h_boundary)), float(full)


@pytest.mark.parametrize(
    "mesh",
    [
        uniform_square_mesh(2),
        uniform_square_mesh(8),
        uniform_lshape_mesh(2),
        uniform_lshape_mesh(8),
        _triangle_mesh((0, 0), (1.5, 0), (0.3, 0.8)),
    ],
    ids=["square2", "square8", "lshape2", "lshape8", "scalene"],
)
def test_constants_equal_the_element_loop(mesh):
    """The generated meshes repeat one boundary element; the lone
    scalene triangle has three boundary edges with three different
    constants, so it also checks which one the maximum picks."""
    trace, simple, full = _loop_constants(mesh, 0.37)
    assert trace_constant_bound(mesh) == trace
    assert trace_constant_simplified(mesh) == simple
    assert cr_error_constant(mesh, 0.37)[0] == full


@pytest.mark.parametrize("edge", [(0, 8), (1, 0)])
def test_boundary_element_edges_rejects_bad_boundary_edge(edge):
    """A dangling or reversed boundary edge fails with MeshError when the
    mesh is built, so the trace and CR constants never pick a wrong
    boundary element for it."""
    mesh = uniform_square_mesh(2)
    edges = mesh.boundary_edges.copy()
    edges[0] = edge
    with pytest.raises(MeshError, match="boundary edge 0"):
        Mesh(mesh.vertices, mesh.triangles, edges)


# --- combination and the lower-bound map -------------------------------------


def test_certification_constant_examples():
    assert certification_constant(0.4059, 0.2042) == pytest.approx(0.4544, abs=1e-4)
    assert certification_constant(0.0, 0.3) == pytest.approx(0.3, rel=1e-15)
    assert certification_constant(0.4, 0.0) == pytest.approx(0.4, rel=1e-15)
    with pytest.raises(ValueError):
        certification_constant(-0.1, 0.2)
    with pytest.raises(ValueError):
        certification_constant(0.1, -0.2)


def test_certified_lower_bound_examples():
    assert certified_lower_bound(0.2404841, 0.6427) == pytest.approx(0.218753, abs=1e-5)
    assert certified_lower_bound(5.0, 0.0) == 5.0
    with pytest.raises(ValueError, match="positive"):
        certified_lower_bound(0.0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        certified_lower_bound(1.0, -0.5)


def test_certified_lower_bound_reciprocal_identity(rng):
    """1/lower - 1/lam equals the squared constant exactly."""
    for _ in range(200):
        lam = float(rng.uniform(0.05, 20.0))
        constant = float(rng.uniform(0.0, 2.0))
        lower = certified_lower_bound(lam, constant)
        assert 0.0 < lower <= lam
        assert (1.0 / lower - 1.0 / lam) == pytest.approx(constant**2, rel=1e-13, abs=1e-14)


def test_certified_lower_bound_monotonicity():
    values = np.linspace(0.1, 4.0, 25)
    lowers = [certified_lower_bound(v, 0.5) for v in values]
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    constants = np.linspace(0.0, 2.0, 25)
    lowers = [certified_lower_bound(1.0, c) for c in constants]
    assert all(b < a for a, b in zip(lowers, lowers[1:]))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: certified_lower_bound(np.nan, 0.3), "discrete eigenvalue"),
        (lambda: certified_lower_bound(np.inf, 0.3), "discrete eigenvalue"),
        (lambda: certified_lower_bound(1.0, np.nan), "bound constant"),
        (lambda: certified_lower_bound(1.0, np.inf), "bound constant"),
        (lambda: certification_constant(0.3, np.nan), "constants"),
        (lambda: certification_constant(np.nan, 0.3), "constants"),
        (lambda: certification_constant(np.inf, 0.3), "constants"),
        (lambda: cr_error_constant(uniform_square_mesh(2), np.nan), "first CR eigenvalue"),
        (lambda: cr_error_constant(uniform_square_mesh(2), np.inf), "first CR eigenvalue"),
    ],
    ids=[
        "lower-nan-value",
        "lower-inf-value",
        "lower-nan-constant",
        "lower-inf-constant",
        "cert-nan-proj",
        "cert-nan-trace",
        "cert-inf-trace",
        "cr-nan",
        "cr-inf",
    ],
)
def test_bound_formulas_reject_non_finite_input(call, message):
    """NaN fails every ordered comparison, so a guard written as
    value <= 0.0 lets it through to a NaN bound; each guard must reject
    NaN and infinity with a ValueError naming the input."""
    with pytest.raises(ValueError, match=f"{message} must be .* and finite"):
        call()


def test_bound_formulas_keep_their_bits_on_valid_input(rng):
    """The finiteness guards change no valid result: each formula gives
    the same bits as its plain expression, at both ends of the range."""
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    for lam, c in [(5.0, 0.0), (tiny, 0.5), (big, 0.0), (1.0, 1e150)] + [
        (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.0, 2.0))) for _ in range(50)
    ]:
        assert certified_lower_bound(lam, c) == lam / (1.0 + c * c * lam)
        assert certification_constant(c, lam) == float(np.hypot(c, lam))


# --- CR constant --------------------------------------------------------------


def test_cr_error_constant_published_values():
    cases = [
        (uniform_square_mesh, 4, 0.6110176),
        (uniform_square_mesh, 8, 0.4038323),
        (uniform_lshape_mesh, 2, 0.8997886),
    ]
    for gen, n, expected in cases:
        mesh = gen(n)
        first = solve_steklov_cr(mesh, 1).values[0]
        full, simple = cr_error_constant(mesh, first)
        assert full == pytest.approx(expected, rel=1e-6), (gen.__name__, n)
        assert full <= simple


def test_cr_error_constant_structure():
    mesh = uniform_square_mesh(4)
    full, simple = cr_error_constant(mesh, 1.0)
    # with a unit eigenvalue the global term is exactly the coefficient
    # times the mesh size in both forms
    boundary_part = full - CR_GLOBAL_COEFF * mesh.h
    assert boundary_part == pytest.approx(0.6711 * 2.0 ** 0.25 * np.sqrt(mesh.h), rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        cr_error_constant(mesh, 0.0)


# --- reference data -----------------------------------------------------------


def test_shipped_reference_eigenvalues():
    assert reference_eigenvalues("unit_square") == pytest.approx(
        [0.240079, 1.49230, 1.49230], rel=1e-12
    )
    assert reference_eigenvalues("l_shape") == pytest.approx(
        [0.3414160, 0.6168667, 0.9842784], rel=1e-12
    )
    assert reference_eigenvalues("custom") is None


def test_shipped_reference_table_passes_load_references(monkeypatch):
    """reference_eigenvalues reads the shipped table through the checked
    reader, and the table passes its checks."""
    import steklov_certify.bounds as bnd

    shipped = resources.files("steklov_certify") / "data" / "reference_eigenvalues.json"
    table = load_references(shipped)
    assert sorted(table) == ["l_shape", "unit_square"]
    read = []
    monkeypatch.setattr(bnd, "load_references", lambda path: read.append(path) or table)
    for domain, values in table.items():
        assert reference_eigenvalues(domain) == values
    assert read == [shipped, shipped]


def test_load_references_roundtrip(tmp_path):
    doc = {
        "unit_square": {"values": [0.24, 1.49], "note": "test"},
        "other": {"values": [1.0]},
    }
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(doc))
    table = load_references(path)
    assert table == {"unit_square": [0.24, 1.49], "other": [1.0]}


@pytest.mark.parametrize("value", ['"0.24"', "true", "false"])
def test_load_references_accepts_only_json_numbers(tmp_path, value):
    """A string or a boolean among the values is an error naming the file
    and the entry, not a number that float() reads from it."""
    path = tmp_path / "refs.json"
    path.write_text('{"unit_square": {"values": [0.24, %s, 5]}}' % value)
    with pytest.raises(ValueError, match="'unit_square'") as err:
        load_references(path)
    assert str(path) in str(err.value)
