"""Symbolic verification of the flux element on single-triangle meshes.

The oracle rebuilds the degree-of-freedom functionals and the exact
integrals of the eight monomial flux fields with sympy, entirely from
the documented conventions (local frame, min -> max edge normals,
endpoint and mean functionals), then checks the assembled matrices.
"""

import math

import numpy as np
import pytest
import sympy as sp

from steklov_certify.assembly import _monomial_values, assemble_system
from steklov_certify.mesh import Mesh, uniform_square_mesh


def _one_triangle_mesh(points):
    vertices = np.array(points, dtype=float)
    triangles = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    return Mesh(vertices, triangles, edges, np.zeros(3, dtype=np.int64))


RIGHT = [sp.Rational(0), sp.Rational(0)], [sp.Rational(1), sp.Rational(0)], [
    sp.Rational(0),
    sp.Rational(1),
]
SKEWED = [sp.Rational(0), sp.Rational(0)], [
    sp.Rational(13, 10),
    sp.Rational(1, 10),
], [sp.Rational(2, 5), sp.Rational(11, 10)]


def _triangle_integrator(p0, p1, p2):
    """Exact integral over the triangle of a polynomial in x, y."""
    x, y, u, v = sp.symbols("x y u v")
    xu = p0[0] + u * (p1[0] - p0[0]) + v * (p2[0] - p0[0])
    yu = p0[1] + u * (p1[1] - p0[1]) + v * (p2[1] - p0[1])
    two_area = sp.expand(
        (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    )

    def integrate(expr):
        poly = sp.Poly(sp.expand(expr.subs({x: xu, y: yu})), u, v)
        total = sp.Integer(0)
        for (p, q), c in poly.terms():
            total += c * sp.Rational(
                math.factorial(p) * math.factorial(q), math.factorial(p + q + 2)
            )
        return two_area * total

    return x, y, integrate, two_area


def _symbolic_element(points):
    """Functional matrix V, monomial Gram integrals and divergence moments.

    Returns float arrays (v, gram, divmom) where v[i, mu] applies dof i
    to monomial field mu, gram[mu, nu] = integral of m_mu . m_nu over the
    triangle and divmom[i, mu] = integral of hat_i * div m_mu.
    """
    p0, p1, p2 = points
    pts = [sp.Matrix(p) for p in (p0, p1, p2)]
    x, y, integrate, two_area = _triangle_integrator(p0, p1, p2)
    centroid = (pts[0] + pts[1] + pts[2]) / 3
    lengths = [(pts[(l + 1) % 3] - pts[l]).norm() for l in range(3)]
    scale = sp.Max(*lengths)
    xi = (x - centroid[0]) / scale
    eta = (y - centroid[1]) / scale
    monos = [
        (sp.Integer(1), sp.Integer(0)),
        (xi, sp.Integer(0)),
        (eta, sp.Integer(0)),
        (sp.Integer(0), sp.Integer(1)),
        (sp.Integer(0), xi),
        (sp.Integer(0), eta),
        (xi * xi, xi * eta),
        (xi * eta, eta * eta),
    ]

    v = sp.zeros(8, 8)
    for l in range(3):
        a, b = l, (l + 1) % 3
        lo, hi = (a, b) if a < b else (b, a)
        tangent = pts[hi] - pts[lo]
        normal = sp.Matrix([tangent[1], -tangent[0]]) / tangent.norm()
        for mu, (fx, fy) in enumerate(monos):
            trace = fx * normal[0] + fy * normal[1]
            v[2 * l, mu] = trace.subs({x: pts[lo][0], y: pts[lo][1]})
            v[2 * l + 1, mu] = trace.subs({x: pts[hi][0], y: pts[hi][1]})
    area = two_area / 2
    for mu, (fx, fy) in enumerate(monos):
        v[6, mu] = integrate(fx) / area
        v[7, mu] = integrate(fy) / area

    gram = sp.zeros(8, 8)
    for mu in range(8):
        for nu in range(mu + 1):
            fx, fy = monos[mu]
            gx, gy = monos[nu]
            gram[mu, nu] = gram[nu, mu] = integrate(fx * gx + fy * gy)

    hats = _barycentric_coordinates(pts, x, y, two_area)
    divmom = sp.zeros(3, 8)
    for mu, (fx, fy) in enumerate(monos):
        div = sp.diff(fx, x) + sp.diff(fy, y)
        for i in range(3):
            divmom[i, mu] = integrate(hats[i] * div)

    to_array = lambda m: np.array(m.evalf(30), dtype=float)
    return to_array(v), to_array(gram), to_array(divmom)


def _barycentric_coordinates(pts, x, y, two_area):
    hats = []
    for i in range(3):
        a, b = pts[(i + 1) % 3], pts[(i + 2) % 3]
        hats.append(((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])) / two_area)
    return hats


@pytest.fixture(scope="module", params=[RIGHT, SKEWED], ids=["right", "skewed"])
def element_case(request):
    points = request.param
    mesh = _one_triangle_mesh([[float(c) for c in p] for p in points])
    system = assemble_system(mesh)
    v, gram, divmom = _symbolic_element(points)
    return system, v, gram, divmom


def test_dual_basis_property(element_case):
    """Applying each functional to each basis function gives identity."""
    system, v, _, _ = element_case
    coeffs = system.rt_elements.coeffs[0]
    assert np.allclose(v @ coeffs, np.eye(8), atol=1e-12)


def test_flux_mass_matrix_against_symbolic_integrals(element_case):
    system, _, gram, _ = element_case
    coeffs = system.rt_elements.coeffs[0]
    gdofs = system.rt_elements.gdofs[0]
    expected = coeffs.T @ gram @ coeffs
    actual = system.rt_mass.toarray()[np.ix_(gdofs, gdofs)]
    assert np.allclose(actual, expected, rtol=1e-12, atol=1e-14)


def test_divergence_coupling_against_symbolic_integrals(element_case):
    system, _, _, divmom = element_case
    coeffs = system.rt_elements.coeffs[0]
    gdofs = system.rt_elements.gdofs[0]
    expected = divmom @ coeffs
    actual = system.div_coupling.toarray()[:, gdofs]
    assert np.allclose(actual, expected, rtol=1e-12, atol=1e-14)


def test_monomial_gram_is_positive_definite(element_case):
    _, _, gram, _ = element_case
    assert np.all(np.linalg.eigvalsh(gram) > 0.0)


def _flux_values_at(system, x, t, points):
    """Evaluate the flux field of coefficient vector x on triangle t."""
    el = system.rt_elements
    local = el.coeffs[t] @ np.asarray(x)[el.gdofs[t]]
    xi = (np.asarray(points, dtype=float) - el.centroids[t]) / el.scales[t]
    return np.einsum("qmd,m->qd", _monomial_values(xi), local)


def test_normal_trace_continuous_across_shared_edge(rng):
    """Any coefficient vector yields a flux whose normal component
    agrees from both sides of an interior edge (H(div) conformity)."""
    mesh = uniform_square_mesh(1)
    system = assemble_system(mesh)
    dofs = system.dofs
    interior = np.flatnonzero(~dofs.edge_is_boundary)
    assert len(interior) >= 1
    e = interior[0]
    lo, hi = dofs.edges[e]
    pa, pb = mesh.vertices[lo], mesh.vertices[hi]
    d = pb - pa
    normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    sharing = [
        t
        for t, tri in enumerate(mesh.triangles)
        if lo in tri and hi in tri
    ]
    assert len(sharing) == 2
    points = pa + np.array([0.15, 0.5, 0.925])[:, None] * d
    for _ in range(5):
        x = rng.standard_normal(system.rt_mass.shape[0])
        left = _flux_values_at(system, x, sharing[0], points) @ normal
        right = _flux_values_at(system, x, sharing[1], points) @ normal
        assert np.allclose(left, right, atol=1e-12)


def test_normal_trace_linear_along_edges(rng):
    """Edge normal traces are linear, so midpoint values interpolate
    the two endpoint degrees of freedom."""
    mesh = uniform_square_mesh(1)
    system = assemble_system(mesh)
    dofs = system.dofs
    x = rng.standard_normal(system.rt_mass.shape[0])
    for e, (lo, hi) in enumerate(dofs.edges):
        pa, pb = mesh.vertices[lo], mesh.vertices[hi]
        d = pb - pa
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        t = next(t for t, tri in enumerate(mesh.triangles) if lo in tri and hi in tri)
        mid = _flux_values_at(system, x, t, [(pa + pb) / 2.0])[0] @ normal
        endpoints = x[dofs.rt_edge_dofs[e]]
        assert mid == pytest.approx(endpoints.mean(), rel=1e-12, abs=1e-12)
        ends = _flux_values_at(system, x, t, [pa, pb]) @ normal
        assert np.allclose(ends, endpoints, atol=1e-12)
