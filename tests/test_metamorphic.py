"""Exact symmetries of the certified output.

Renumbering the vertices or the triangles, starting each triangle at
another vertex, rotating the mesh by 90 degrees or by 0.3 rad, a
reflection, a translation and a JSON round trip describe the same
discrete problem.  Each must leave the eigenvalues, the lower bounds and
every constant of both methods unchanged to 1e-12 relative.  A jitter
of the interior vertices changes the discrete problem but not the domain,
so both methods must still enclose the reference eigenvalues.  The draws
are seeded, so the suite is deterministic.
"""

import numpy as np
import pytest

from steklov_certify.bounds import reference_eigenvalues
from steklov_certify.cli import certify_level
from steklov_certify.mesh import (
    Mesh,
    read_mesh,
    uniform_lshape_mesh,
    uniform_square_mesh,
    write_mesh,
)

_RTOL = 1e-12
_GENERATORS = {"square": uniform_square_mesh, "lshape": uniform_lshape_mesh}
_CONSTANTS = ("trace_const", "trace_simple", "proj_const", "cert_const", "cr_const", "cr_simple")


def _rebuild(mesh, vertices=None, triangles=None, boundary_edges=None, boundary_triangles=None):
    """The mesh with the given arrays replaced; boundary_triangles, when
    given, is what the constructor must find for the new arrays."""
    rebuilt = Mesh(
        mesh.vertices if vertices is None else vertices,
        mesh.triangles if triangles is None else triangles,
        mesh.boundary_edges if boundary_edges is None else boundary_edges,
        domain=mesh.domain,
    )
    expected = mesh.boundary_triangles if boundary_triangles is None else boundary_triangles
    assert np.array_equal(rebuilt.boundary_triangles, expected)
    return rebuilt


def _permute_vertices(mesh, rng, tmp_path):
    label = rng.permutation(mesh.num_vertices)  # old vertex v becomes label[v]
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    return _rebuild(mesh, vertices, label[mesh.triangles], label[mesh.boundary_edges])


def _permute_triangles(mesh, rng, tmp_path):
    order = rng.permutation(mesh.num_triangles)  # new triangle i is old order[i]
    position = np.argsort(order)
    return _rebuild(
        mesh, triangles=mesh.triangles[order], boundary_triangles=position[mesh.boundary_triangles]
    )


def _shift_triangle_vertices(mesh, rng, tmp_path):
    shift = rng.integers(0, 3, mesh.num_triangles)
    columns = (np.arange(3)[None, :] + shift[:, None]) % 3
    return _rebuild(mesh, triangles=np.take_along_axis(mesh.triangles, columns, axis=1))


def _rotate_quarter_turn(mesh, rng, tmp_path):
    centre = mesh.vertices.mean(axis=0)
    d = mesh.vertices - centre
    return _rebuild(mesh, vertices=centre + np.column_stack([-d[:, 1], d[:, 0]]))


def _rotate_arbitrary_angle(mesh, rng, tmp_path):
    centre = mesh.vertices.mean(axis=0)
    c, s = np.cos(0.3), np.sin(0.3)
    return _rebuild(mesh, vertices=centre + (mesh.vertices - centre) @ np.array([[c, s], [-s, c]]))


def _reflect(mesh, rng, tmp_path):
    """Mirror x about the vertex centroid.  Each triangle swaps two
    vertices to stay counterclockwise, and the boundary loop runs
    backwards."""
    vertices = mesh.vertices.copy()
    vertices[:, 0] = 2.0 * vertices[:, 0].mean() - vertices[:, 0]
    return _rebuild(
        mesh,
        vertices,
        mesh.triangles[:, [0, 2, 1]],
        mesh.boundary_edges[::-1, ::-1],
        mesh.boundary_triangles[::-1],
    )


def _translate(mesh, rng, tmp_path):
    return _rebuild(mesh, vertices=mesh.vertices + np.array([0.3, -1.7]))


def _json_round_trip(mesh, rng, tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    return read_mesh(path)


_TRANSFORMS = {
    "vertex_permutation": _permute_vertices,
    "triangle_permutation": _permute_triangles,
    "cyclic_vertex_shift": _shift_triangle_vertices,
    "quarter_turn": _rotate_quarter_turn,
    "rotation_0.3_rad": _rotate_arbitrary_angle,
    "reflection": _reflect,
    "translation": _translate,
    "json_round_trip": _json_round_trip,
}


def _certify(mesh):
    return certify_level(mesh, 3, ("conforming", "cr"), None)


@pytest.fixture(scope="module")
def baseline():
    cache = {}

    def get(domain, n):
        if (domain, n) not in cache:
            mesh = _GENERATORS[domain](n)
            cache[domain, n] = (mesh, _certify(mesh))
        return cache[domain, n]

    return get


# the n = 8 cases keep their bare domain ids
_LEVELS = [(domain, n) for n in (8, 16) for domain in sorted(_GENERATORS)]


@pytest.mark.parametrize("transform", sorted(_TRANSFORMS))
@pytest.mark.parametrize(
    "domain,n", _LEVELS, ids=[domain if n == 8 else f"{domain}{n}" for domain, n in _LEVELS]
)
def test_certified_output_is_invariant(domain, n, transform, baseline, tmp_path):
    mesh, expected = baseline(domain, n)
    moved = _TRANSFORMS[transform](mesh, np.random.default_rng(0), tmp_path)
    got = _certify(moved)
    assert [r.method for r in got] == [r.method for r in expected] == ["conforming", "cr"]
    for new, old in zip(got, expected):
        assert new.dof == old.dof
        np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=_RTOL, atol=0)
        np.testing.assert_allclose(new.lower_bounds, old.lower_bounds, rtol=_RTOL, atol=0)
        for name in _CONSTANTS:
            value, reference = getattr(new.constants, name), getattr(old.constants, name)
            if reference is None:
                assert value is None, name
            else:
                np.testing.assert_allclose(value, reference, rtol=_RTOL, atol=0, err_msg=name)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [8, 16])
def test_jittered_square_keeps_the_enclosure(n, seed):
    """Each interior vertex moves by at most 0.2/n, a fifth of the
    lattice spacing, so every triangle stays positively oriented."""
    mesh = uniform_square_mesh(n)
    rng = np.random.default_rng(seed)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_edges)
    angle = rng.uniform(0.0, 2.0 * np.pi, interior.size)
    length = rng.uniform(0.0, 0.2 / n, interior.size)
    vertices = mesh.vertices.copy()
    vertices[interior] += length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    jittered = _rebuild(mesh, vertices=vertices)  # runs the Mesh checks
    refs = reference_eigenvalues("unit_square")
    results = certify_level(jittered, 3, ("conforming", "cr"), refs)
    assert [r.method for r in results] == ["conforming", "cr"]
    for result in results:
        assert all(low <= ref for low, ref in zip(result.lower_bounds, refs)), result.method
    assert all(ref <= lam for ref, lam in zip(refs, results[0].eigenvalues))
