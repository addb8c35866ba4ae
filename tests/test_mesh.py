"""Mesh generation, geometry, validation and file round-trips."""

import json

import numpy as np
import pytest

from steklov_certify.mesh import (
    Mesh,
    MeshError,
    boundary_local_edges,
    edge_table,
    element_geometry,
    read_mesh,
    uniform_lshape_mesh,
    uniform_square_mesh,
    validate_mesh,
    write_mesh,
)


def brute_force_counts_square(n):
    """Counting oracle: enumerate the lattice and cells directly."""
    vertices = {(i, j) for i in range(n + 1) for j in range(n + 1)}
    cells = {(i, j) for i in range(n) for j in range(n)}
    boundary = 4 * n
    return len(vertices), 2 * len(cells), boundary


def brute_force_counts_lshape(n):
    """Counting oracle for (0,2)^2 minus [1,2]^2 with spacing 1/n."""
    vertices = {
        (i, j)
        for i in range(2 * n + 1)
        for j in range(2 * n + 1)
        if not (i > n and j > n)
    }
    cells = {
        (i, j) for i in range(2 * n) for j in range(2 * n) if not (i >= n and j >= n)
    }
    return len(vertices), 2 * len(cells), 8 * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_square_counts(n):
    mesh = uniform_square_mesh(n)
    nv, nt, nb = brute_force_counts_square(n)
    assert mesh.num_vertices == nv == (n + 1) ** 2
    assert mesh.num_triangles == nt == 2 * n**2
    assert mesh.num_boundary_edges == nb == 4 * n
    assert mesh.domain == "unit_square"
    assert mesh.h == pytest.approx(np.sqrt(2.0) / n, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_lshape_counts(n):
    mesh = uniform_lshape_mesh(n)
    nv, nt, nb = brute_force_counts_lshape(n)
    assert mesh.num_vertices == nv
    assert mesh.num_triangles == nt == 6 * n**2
    assert mesh.num_boundary_edges == nb == 8 * n
    assert mesh.domain == "l_shape"
    assert mesh.h == pytest.approx(np.sqrt(2.0) / n, rel=1e-14)


def test_lshape_n4_explicit_counts():
    mesh = uniform_lshape_mesh(4)
    assert mesh.num_vertices == 65
    assert mesh.num_triangles == 96
    assert mesh.num_boundary_edges == 32


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
def test_rejects_zero_subdivisions(gen):
    with pytest.raises(MeshError):
        gen(0)


@pytest.mark.parametrize(
    "gen,area,perimeter",
    [(uniform_square_mesh, 1.0, 4.0), (uniform_lshape_mesh, 3.0, 8.0)],
)
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_area_and_perimeter(gen, area, perimeter, n):
    mesh = validate_mesh(gen(n))
    assert mesh.triangle_areas().sum() == pytest.approx(area, rel=1e-12)
    assert mesh.boundary_edge_lengths().sum() == pytest.approx(perimeter, rel=1e-12)


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
def test_all_elements_right_isosceles(gen):
    n = 4
    mesh = gen(n)
    leg = 1.0 / n
    hyp = np.sqrt(2.0) / n
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        assert geom.h_max == pytest.approx(hyp, rel=1e-14)
        assert sorted(geom.edge_lengths) == pytest.approx([leg, leg, hyp], rel=1e-14)
        assert geom.area == pytest.approx(0.5 * leg * leg, rel=1e-14)


def test_element_geometry_identities():
    mesh = uniform_square_mesh(8)
    geom = element_geometry(mesh, 0)
    # closed-form geometry of a right isosceles triangle with legs 1/8
    assert geom.area == pytest.approx(1.0 / 128.0, rel=1e-14)
    assert geom.h_max == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-14)
    for l in range(3):
        # area identity |K| = |e| H_K / 2 for every edge
        assert geom.edge_lengths[l] * geom.heights[l] / 2.0 == pytest.approx(
            geom.area, rel=1e-14
        )
        if geom.edge_lengths[l] == pytest.approx(1.0 / 8.0, rel=1e-12):
            assert geom.heights[l] == pytest.approx(1.0 / 8.0, rel=1e-12)
        else:
            assert geom.heights[l] == pytest.approx(np.sqrt(2.0) / 16.0, rel=1e-12)


def test_uniform_elements_congruent():
    mesh = uniform_square_mesh(8)
    base = element_geometry(mesh, 0)
    for t in range(1, mesh.num_triangles):
        geom = element_geometry(mesh, t)
        assert geom.area == pytest.approx(base.area, rel=1e-12)
        assert geom.h_max == pytest.approx(base.h_max, rel=1e-12)
        assert sorted(geom.edge_lengths) == pytest.approx(
            sorted(base.edge_lengths), rel=1e-12
        )


@pytest.mark.parametrize("gen,n", [(uniform_square_mesh, 3), (uniform_lshape_mesh, 2)])
def test_boundary_loop_structure(gen, n):
    mesh = gen(n)
    heads = mesh.boundary_edges[:, 0]
    tails = mesh.boundary_edges[:, 1]
    # single closed chain, counterclockwise
    assert np.array_equal(tails, np.roll(heads, -1))
    assert len(np.unique(heads)) == len(heads)
    p = mesh.vertices[heads]
    q = mesh.vertices[tails]
    assert np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) > 0.0


def test_boundary_edges_match_their_triangles():
    mesh = uniform_lshape_mesh(2)
    for j in range(mesh.num_boundary_edges):
        a, b = mesh.boundary_edges[j]
        tri = list(mesh.triangles[mesh.boundary_triangles[j]])
        la = tri.index(a)
        assert tri[(la + 1) % 3] == b  # oriented with the triangle (domain left)


def test_mesh_arrays_immutable():
    mesh = uniform_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 0


def test_roundtrip(tmp_path):
    mesh = uniform_square_mesh(2)
    path = tmp_path / "square2.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(back.boundary_triangles, mesh.boundary_triangles)
    assert back.domain == mesh.domain


def test_roundtrip_lshape(tmp_path):
    mesh = uniform_lshape_mesh(3)
    path = tmp_path / "l3.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.domain == "l_shape"


def test_read_builds_the_edge_table_once(tmp_path, monkeypatch):
    """read_mesh locates the boundary edges and validates the mesh with
    one edge table."""
    import steklov_certify.mesh as mesh_module

    calls = []

    def counting(triangles):
        calls.append(len(triangles))
        return edge_table(triangles)

    path = tmp_path / "square4.json"
    write_mesh(uniform_square_mesh(4), path)
    monkeypatch.setattr(mesh_module, "edge_table", counting)
    read_mesh(path)
    assert calls == [32]


def test_read_locates_the_boundary_edges_once(tmp_path, monkeypatch):
    """read_mesh hands the edge numbers it found to the validation
    instead of searching the boundary edges a second time."""
    import steklov_certify.mesh as mesh_module

    calls = []
    locate = mesh_module.EdgeTable.locate

    def counting(table, pairs):
        calls.append(len(pairs))
        return locate(table, pairs)

    path = tmp_path / "square4.json"
    write_mesh(uniform_square_mesh(4), path)
    monkeypatch.setattr(mesh_module.EdgeTable, "locate", counting)
    read_mesh(path)
    assert calls == [16]


def _doc_of(mesh):
    return {
        "domain": mesh.domain,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": mesh.boundary_edges.tolist(),
    }


def test_read_rejects_misoriented_triangle(tmp_path):
    mesh = uniform_square_mesh(2)
    doc = _doc_of(mesh)
    doc["triangles"][3] = doc["triangles"][3][::-1]  # flip orientation
    path = tmp_path / "bad_orientation.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshError, match="3"):
        read_mesh(path)


def test_read_rejects_dangling_boundary_edge(tmp_path):
    """(0, 8) lies in no triangle of square n = 2; (0, 4) is the interior
    diagonal of its first cell."""
    mesh = uniform_square_mesh(2)
    cases = [((0, 8), "belongs to no triangle"), ((0, 4), "is shared by 2 triangles")]
    for edge, message in cases:
        doc = _doc_of(mesh)
        doc["boundary_edges"][0] = list(edge)
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=rf"boundary edge 0 = \({edge[0]}, {edge[1]}\) {message}"):
            read_mesh(path)


def test_read_rejects_malformed_documents(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all {")
    with pytest.raises(MeshError):
        read_mesh(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(MeshError):
        read_mesh(path)
    path.write_text(json.dumps({"vertices": [[0, 0]], "triangles": []}))
    with pytest.raises(MeshError):
        read_mesh(path)
    with pytest.raises(MeshError):
        read_mesh(tmp_path / "missing.json")


def test_read_rejects_out_of_range_indices(tmp_path):
    mesh = uniform_square_mesh(1)
    doc = _doc_of(mesh)
    doc["triangles"][0][0] = 99
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshError):
        read_mesh(path)


def test_validate_rejects_broken_loop():
    mesh = uniform_square_mesh(1)
    edges = mesh.boundary_edges.copy()
    edges[[0, 1]] = edges[[1, 0]]  # out of chain order
    bad = Mesh(
        mesh.vertices,
        mesh.triangles,
        edges,
        mesh.boundary_triangles[[1, 0, 2, 3]],
        domain="custom",
    )
    with pytest.raises(MeshError):
        validate_mesh(bad)


def test_validate_rejects_missing_boundary_edge():
    mesh = uniform_square_mesh(1)
    bad = Mesh(
        mesh.vertices,
        mesh.triangles,
        mesh.boundary_edges[:3],
        mesh.boundary_triangles[:3],
        domain="custom",
    )
    with pytest.raises(MeshError):
        validate_mesh(bad)


def _with_boundary(mesh, edges, triangles, extra_vertices=(), extra_triangles=()):
    return Mesh(
        np.vstack([mesh.vertices, np.reshape(extra_vertices, (-1, 2))]),
        np.vstack([mesh.triangles, np.reshape(extra_triangles, (-1, 3))]),
        edges,
        triangles,
    )


def test_validate_rejects_duplicate_boundary_edge():
    mesh = uniform_square_mesh(2)
    edges, recorded = mesh.boundary_edges.copy(), mesh.boundary_triangles.copy()
    edges[1], recorded[1] = edges[0], recorded[0]
    with pytest.raises(MeshError, match="boundary edge 1 duplicates boundary edge 0"):
        validate_mesh(_with_boundary(mesh, edges, recorded))


def test_validate_rejects_edge_in_three_triangles():
    """Square n = 1 plus a triangle (0, 4, 3) on its diagonal (0, 3)."""
    mesh = uniform_square_mesh(1)
    bad = _with_boundary(
        mesh, mesh.boundary_edges, mesh.boundary_triangles, [2.0, 0.0], [0, 4, 3]
    )
    with pytest.raises(MeshError, match=r"edge \(0, 3\) is shared by 3 > 2 triangles"):
        validate_mesh(bad)


def test_validate_rejects_wrong_recorded_triangle():
    mesh = uniform_square_mesh(2)
    recorded = mesh.boundary_triangles.copy()
    actual = recorded[0]
    recorded[0] = (actual + 1) % mesh.num_triangles
    message = f"boundary edge 0: recorded triangle {recorded[0]}, actual {actual}"
    with pytest.raises(MeshError, match=message):
        validate_mesh(_with_boundary(mesh, mesh.boundary_edges, recorded))


def test_validate_rejects_interior_edge_listed_as_boundary():
    """(0, 3) is the diagonal of square n = 1, inside both triangles."""
    mesh = uniform_square_mesh(1)
    edges = mesh.boundary_edges.copy()
    edges[1] = (0, 3)
    with pytest.raises(MeshError, match=r"boundary edge 1 = \(0, 3\) is shared by 2 triangles"):
        validate_mesh(_with_boundary(mesh, edges, mesh.boundary_triangles))


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
def test_edge_table_matches_sorted_pairs_under_relabelling(gen, rng):
    """The 1-D keys number the edges as np.unique over the sorted vertex
    pairs does, also after a random vertex relabelling."""
    mesh = gen(3)
    for labels in (np.arange(mesh.num_vertices), rng.permutation(mesh.num_vertices)):
        tris = labels[mesh.triangles]
        pairs = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1), axis=-1)
        edges, inverse = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True)
        table = edge_table(tris)
        assert np.array_equal(table.edges, edges)
        assert np.array_equal(table.tri_edges, inverse.reshape(tris.shape))
        found, owners = table.locate(labels[mesh.boundary_edges])
        assert np.array_equal(owners, mesh.boundary_triangles)
        assert np.array_equal(table.edges[found], np.sort(labels[mesh.boundary_edges], axis=1))


@pytest.mark.parametrize("field,width", [("triangles", 4), ("boundary_edges", 3)])
def test_validate_rejects_wrong_array_width(field, width):
    """A fourth triangle column used to be ignored silently."""
    mesh = uniform_square_mesh(1)
    arrays = dict(
        vertices=mesh.vertices,
        triangles=mesh.triangles,
        boundary_edges=mesh.boundary_edges,
        boundary_triangles=mesh.boundary_triangles,
    )
    arrays[field] = np.column_stack([arrays[field], arrays[field][:, :width - arrays[field].shape[1]]])
    with pytest.raises(MeshError, match=rf"{field} must be an \(n., {width - 1}\) array"):
        validate_mesh(Mesh(**arrays))


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_validate_rejects_non_finite_vertex(bad_value):
    """A NaN or inf coordinate slips past the signed-area test (NaN <= 0
    is False), so it needs its own check."""
    mesh = uniform_square_mesh(4)
    vertices = mesh.vertices.copy()
    vertices[7, 1] = bad_value
    bad = Mesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_triangles)
    with pytest.raises(MeshError, match="vertex 7 has non-finite coordinates"):
        validate_mesh(bad)


def test_unknown_domain_tag_rejected():
    mesh = uniform_square_mesh(1)
    with pytest.raises(MeshError):
        Mesh(
            mesh.vertices,
            mesh.triangles,
            mesh.boundary_edges,
            mesh.boundary_triangles,
            domain="hexagon",
        )


def test_boundary_local_edges_finds_each_edge_in_its_triangle():
    for mesh in (uniform_square_mesh(3), uniform_lshape_mesh(2)):
        local = boundary_local_edges(mesh)
        owner = mesh.triangles[mesh.boundary_triangles]
        rows = np.arange(mesh.num_boundary_edges)
        assert np.array_equal(owner[rows, local], mesh.boundary_edges[:, 0])
        assert np.array_equal(owner[rows, (local + 1) % 3], mesh.boundary_edges[:, 1])


@pytest.mark.parametrize("edge", [(0, 8), (1, 0)])
def test_boundary_local_edges_rejects_foreign_and_reversed_edges(edge):
    """(0, 8) is no edge of the square n = 2 mesh; (1, 0) is its first
    boundary edge run clockwise."""
    mesh = uniform_square_mesh(2)
    edges = mesh.boundary_edges.copy()
    edges[0] = edge
    bad = Mesh(mesh.vertices, mesh.triangles, edges, mesh.boundary_triangles)
    with pytest.raises(MeshError, match="boundary edge 0"):
        boundary_local_edges(bad)
