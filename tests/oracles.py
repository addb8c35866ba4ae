"""Independent reference computations for the test suite.

Everything here is written from first principles and avoids the package's
assembly and solver code paths, so agreement between the two sides is
evidence of correctness rather than a tautology.  The one exception is
the flux oracle at the end: it takes the assembled matrices and solves
the unhybridized KKT system with a pivoted sparse LU, a route the
package's hybridized EquilibrationSolver does not share.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from steklov_certify.linalg import SaddleFactor

# Seven-point symmetric triangle rule, exact for degree 5 (distinct from
# the package's six-point degree-4 rule).  Barycentric points and weights
# summing to one.
_B1 = 0.059715871789770
_A1 = 0.470142064105115
_W1 = 0.132394152788506
_B2 = 0.797426985353087
_A2 = 0.101286507323456
_W2 = 0.125939180544827
GAUSS7 = (
    np.array(
        [
            [1 / 3, 1 / 3, 1 / 3],
            [_B1, _A1, _A1],
            [_A1, _B1, _A1],
            [_A1, _A1, _B1],
            [_B2, _A2, _A2],
            [_A2, _B2, _A2],
            [_A2, _A2, _B2],
        ]
    ),
    np.array([9 / 40, _W1, _W1, _W1, _W2, _W2, _W2]),
)


def reference_monomial_integral(p, q):
    """Exact integral of x^p y^q over the unit reference triangle."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def subdivided_barycentric(level):
    """Corner tables (rows = corners, barycentric) of 4**level subtriangles."""
    tris = [np.eye(3)]
    for _ in range(level):
        finer = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            finer += [
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ]
        tris = finer
    return tris


def triangle_quadrature(level=2):
    """Degree-5 rule composited over a 4**level subdivision.

    Returns barycentric points (q, 3) and weights summing to one; with the
    subdivision the rule integrates smooth non-polynomial factors far below
    the tolerances used in the tests.
    """
    bary7, w7 = GAUSS7
    pts, wts = [], []
    share = 1.0 / 4.0**level
    for corners in subdivided_barycentric(level):
        pts.append(bary7 @ corners)
        wts.append(w7 * share)
    return np.vstack(pts), np.concatenate(wts)


def hat_gradients(p):
    """Gradients of the three P1 hat functions on one triangle (3, 2)."""
    area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (
        p[1, 1] - p[0, 1]
    )
    g = np.array(
        [
            [p[1, 1] - p[2, 1], p[2, 0] - p[1, 0]],
            [p[2, 1] - p[0, 1], p[0, 0] - p[2, 0]],
            [p[0, 1] - p[1, 1], p[1, 0] - p[0, 0]],
        ]
    )
    return g / area2


def h1_distance_to_function(mesh, coeffs, func, grad, level=2):
    """Full H1 norm of (u - u_h) with u smooth and u_h a P1 vertex field.

    func(points) -> values and grad(points) -> (q, 2) describe u; the
    integral uses the composite degree-5 rule per element.
    """
    bary, w = triangle_quadrature(level)
    coeffs = np.asarray(coeffs, dtype=float)
    total = 0.0
    for tri in np.asarray(mesh.triangles):
        p = mesh.vertices[tri]
        c = coeffs[tri]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        )
        pts = bary @ p
        uh = bary @ c
        grad_uh = c @ hat_gradients(p)
        dv = func(pts) - uh
        dg = grad(pts) - grad_uh[None, :]
        total += area * float(w @ (dv * dv + np.einsum("qd,qd->q", dg, dg)))
    return math.sqrt(total)


def gauss_on_edge(a, b, n):
    """Gauss-Legendre points on segment a->b and weights carrying |e|."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    return pts, 0.5 * w * np.linalg.norm(b - a), t


def boundary_norm_of_function(mesh, f, n_gauss=20):
    """L2 boundary norm of f(points, outward_normal) by per-edge Gauss."""
    total = 0.0
    for a_idx, b_idx in mesh.boundary_edges:
        a = mesh.vertices[a_idx]
        b = mesh.vertices[b_idx]
        d = b - a
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        pts, w, _ = gauss_on_edge(a, b, n_gauss)
        vals = f(pts, normal)
        total += float(w @ (vals * vals))
    return math.sqrt(total)


def boundary_distance_to_field(mesh, g, f, n_gauss=20):
    """L2 boundary norm of (f - g_h) with g the trace-space coefficients."""
    g = np.asarray(g, dtype=float)
    total = 0.0
    for j, (a_idx, b_idx) in enumerate(mesh.boundary_edges):
        a = mesh.vertices[a_idx]
        b = mesh.vertices[b_idx]
        d = b - a
        normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        pts, w, t = gauss_on_edge(a, b, n_gauss)
        gh = g[2 * j] * (1.0 - t) + g[2 * j + 1] * t
        diff = f(pts, normal) - gh
        total += float(w @ (diff * diff))
    return math.sqrt(total)


def dense_pencil_eigenvalues(a, b, beta_rtol=1e-9):
    """Finite eigenvalues of the pencil a x = lambda b x by brute-force QZ.

    Infinite modes (beta ~ 0) are deflated by the homogeneous form; the
    remaining eigenvalues are returned sorted ascending.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    alpha, beta = sla.eig(a, b, homogeneous_eigvals=True, right=False)
    beta_scale = np.abs(beta).max()
    finite = np.abs(beta) > beta_rtol * beta_scale
    lam = np.real(alpha[finite] / beta[finite])
    return np.sort(lam)


def p1_point_values(mesh, coeffs, points, tol=1e-12):
    """Evaluate a P1 vertex field at arbitrary points by brute-force lookup."""
    coeffs = np.asarray(coeffs, dtype=float)
    points = np.atleast_2d(points)
    out = np.empty(len(points))
    tris = np.asarray(mesh.triangles)
    corners = mesh.vertices[tris]
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    for i, x in enumerate(points):
        r = x[None, :] - corners[:, 0]
        lam1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
        lam2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -tol) & (lam1 >= -tol) & (lam2 >= -tol)
        t = int(np.argmax(inside))
        if not inside[t]:
            raise ValueError(f"point {x} is outside the mesh")
        bary = np.array([lam0[t], lam1[t], lam2[t]])
        out[i] = bary @ coeffs[tris[t]]
    return out


def kkt_matrix(system, basis=None):
    """The flux saddle matrix of the unhybridized mixed method, csc.

    Unknowns are the interior flux dofs x_i, the mean shift c and the
    broken-P1 multiplier lam:

        [ M_ii  0    D_i^T ] [x_i]
        [ 0     0    w^T   ] [c  ]
        [ D_i   w    0     ] [lam]

    basis, a (p_int, p_int) matrix T, rewrites the system for the
    interior flux basis transformed by x_i = T z.
    """
    p_int = system.dofs.dim_rt_interior
    m_ii, d_i = system.rt_mass[:p_int, :p_int], system.div_coupling[:, :p_int]
    if basis is not None:
        m_ii = basis.T @ (m_ii @ basis)
        d_i = d_i @ basis
    w = system.broken_moments
    return sp.bmat(
        [
            [sp.csc_matrix(m_ii), None, sp.csc_matrix(d_i).T],
            [None, None, sp.csc_matrix(w[None, :])],
            [sp.csc_matrix(d_i), sp.csc_matrix(w[:, None]), None],
        ],
        format="csc",
    )


def _kkt_solve(system, g, y, basis=None):
    """Flux coefficients (p, k), shifts (k,) and multipliers (m, k) of
    the KKT system by a pivoted sparse LU, for trace data g (s, k) and
    Neumann solutions y (n, k)."""
    p_int = system.dofs.dim_rt_interior
    x_bnd = system.trace_map @ g
    m_ib = system.rt_mass[:p_int, p_int:].toarray()
    if basis is not None:
        m_ib = basis.T @ m_ib
    rhs = np.vstack(
        [
            -(m_ib @ x_bnd),
            np.zeros((1, g.shape[1])),
            system.broken_coupling @ y - system.div_coupling[:, p_int:] @ x_bnd,
        ]
    )
    sol = SaddleFactor(kkt_matrix(system, basis)).solve(rhs)
    x_int = sol[:p_int] if basis is None else basis @ sol[:p_int]
    return np.vstack([x_int, x_bnd]), sol[p_int], sol[p_int + 1 :]


def kkt_flux(system, g, y):
    """(flux coefficients, multipliers, mean shift) of one datum."""
    x, c, lam = _kkt_solve(system, np.asarray(g)[:, None], np.asarray(y)[:, None])
    return x[:, 0], lam[:, 0], float(c[0])


def kkt_constant(system, basis=None):
    """Projection error constant through the KKT system: the s-column
    solve, the error quadratic form, and its top eigenvalue against the
    trace Gram matrix by explicit Cholesky reduction."""
    y_all = np.linalg.solve(
        (system.stiffness + system.mass).toarray(), system.boundary_coupling.toarray()
    )
    s = system.dofs.dim_trace
    x_all, shifts, _ = _kkt_solve(system, np.eye(s), y_all, basis)
    volumes = y_all.T @ (system.mass @ np.ones(system.dofs.dim_p1))
    quad = (
        -system.boundary_coupling.T @ y_all
        + y_all.T @ (system.mass @ y_all)
        + x_all.T @ (system.rt_mass @ x_all)
        - np.outer(volumes, shifts)
        - np.outer(shifts, volumes)
    )
    quad = 0.5 * (quad + quad.T)
    l = np.linalg.cholesky(system.boundary_mass.toarray())
    reduced = np.linalg.solve(l, np.linalg.solve(l, quad).T)
    top = np.linalg.eigvalsh(0.5 * (reduced + reduced.T)).max()
    return float(np.sqrt(max(top, 0.0)))
