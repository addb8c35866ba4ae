"""Mesh generation, geometry, validation and file round-trips."""

import hashlib
import json
import re

import numpy as np
import pytest

from steklov_certify.mesh import (
    Mesh,
    MeshError,
    edge_table,
    element_geometry,
    read_mesh,
    uniform_lshape_mesh,
    uniform_square_mesh,
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


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
def test_rejects_non_integer_subdivisions(gen, n):
    with pytest.raises(MeshError, match="integer"):
        gen(n)


def _mesh_digest(mesh):
    """SHA-256 over the dtype, shape and bytes of the four mesh arrays."""
    h = hashlib.sha256()
    for name in ("vertices", "triangles", "boundary_edges", "boundary_triangles"):
        a = getattr(mesh, name)
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# recorded from the per-cell loop generators that the lattice builder
# replaced; every certified number downstream depends on these arrays
_MESH_DIGESTS = {
    (uniform_square_mesh, 1): "57d40d1376735935dda38c70f088b4abcd62735a9a2f6e270a0052f6918569c3",
    (uniform_square_mesh, 2): "78921d8e1f449804fbbce4ee6ead8429f1c0a4c94231767720317ebc9136e906",
    (uniform_square_mesh, 3): "8abd2fe175967aabd3570fd3bb725eef7238b68b458771452b32981afa0912cc",
    (uniform_square_mesh, 8): "8c1ed9f56e272505ef7ed3292a88489410ec2783808b16d6d5916e6611718241",
    (uniform_square_mesh, 64): "016c6a871169cacf8efa14b8839d7f15e3d33c23a3204a1b809d12a652a33cf9",
    (uniform_square_mesh, 128): "304fd812231d6ed414f5694f995bde95fbc39996b986e11831a3376989069c34",
    (uniform_lshape_mesh, 1): "697e80330d465269572855c73b3ac4c1156151a7f3191d27f563535629b0bc08",
    (uniform_lshape_mesh, 2): "fdb70728e7c2133e801154c1a385f877b22d9debe5a5d32cde96e5495f6308e5",
    (uniform_lshape_mesh, 3): "ee852386a654f94a8fbba47c7d3fa3e87d63f376bfab157f7cc7c4e5fba413a4",
    (uniform_lshape_mesh, 4): "5603b9e1b93e62bd41ca7040d6dbf14f7fffe8ecc2bbe706b660cf74acac2862",
    (uniform_lshape_mesh, 32): "84dcc06e30c0ca3825609627c1ad57fbe7a10382ab242eaa0e1e601e67ac9ac0",
}


@pytest.mark.parametrize("gen,n", list(_MESH_DIGESTS))
def test_generators_match_snapshot(gen, n):
    mesh = gen(n)
    assert _mesh_digest(mesh) == _MESH_DIGESTS[gen, n]
    for a in (mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_triangles):
        assert not a.flags.writeable


@pytest.mark.parametrize("gen", [uniform_square_mesh, uniform_lshape_mesh])
def test_numpy_integer_subdivisions(gen):
    assert _mesh_digest(gen(np.int32(3))) == _MESH_DIGESTS[gen, 3]


@pytest.mark.parametrize(
    "gen,area,perimeter",
    [(uniform_square_mesh, 1.0, 4.0), (uniform_lshape_mesh, 3.0, 8.0)],
)
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_area_and_perimeter(gen, area, perimeter, n):
    mesh = gen(n)
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


_KEPT_TABLES = {
    "triangle_areas": lambda mesh: mesh.triangle_areas(),
    "edge_lengths_per_triangle": lambda mesh: mesh.edge_lengths_per_triangle(),
    "boundary_local": lambda mesh: mesh.boundary_local,
    "boundary_edge_index": lambda mesh: mesh.boundary_edge_index,
    "tri_edge_sign": lambda mesh: mesh.edge_table.tri_edge_sign,
}


@pytest.mark.parametrize("table", list(_KEPT_TABLES))
def test_mesh_computes_its_tables_once(table):
    """The signed areas, the per-triangle edge lengths, the local edge
    and the edge number of each boundary edge and the edge orientations
    are computed once per mesh and handed out read-only."""
    mesh = uniform_lshape_mesh(3)
    first = _KEPT_TABLES[table](mesh)
    assert _KEPT_TABLES[table](mesh) is first
    with pytest.raises(ValueError):
        first[0] = 1


def test_mesh_keeps_its_edge_table_read_only():
    mesh = uniform_square_mesh(3)
    fresh = edge_table(mesh.triangles)
    for name in ("edges", "tri_edges", "tri_edge_sign"):
        kept = getattr(mesh.edge_table, name)
        assert np.array_equal(kept, getattr(fresh, name))
        with pytest.raises(ValueError):
            kept[0] = 0


def test_edge_sign_marks_the_edges_run_from_min_to_max():
    """tri_edge_sign[t, l] is +1 exactly where local vertex l of
    triangle t is the min vertex of its edge, and every interior edge
    has one +1 and one -1."""
    for mesh in (uniform_square_mesh(3), uniform_lshape_mesh(2)):
        table = mesh.edge_table
        starts_at_min = mesh.triangles == table.edges[table.tri_edges, 0]
        assert np.array_equal(table.tri_edge_sign, np.where(starts_at_min, 1.0, -1.0))
        turns = np.bincount(table.tri_edges.ravel(), table.tri_edge_sign.ravel())
        assert np.array_equal(np.abs(turns), (table.counts == 1).astype(float))


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
    with pytest.raises(MeshError):
        Mesh(mesh.vertices, mesh.triangles, edges, domain="custom")


def test_validate_rejects_missing_boundary_edge():
    mesh = uniform_square_mesh(1)
    with pytest.raises(MeshError):
        Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges[:3], domain="custom")


def _with_boundary(mesh, edges, extra_vertices=(), extra_triangles=()):
    return Mesh(
        np.vstack([mesh.vertices, np.reshape(extra_vertices, (-1, 2))]),
        np.vstack([mesh.triangles, np.reshape(extra_triangles, (-1, 3))]),
        edges,
    )


def test_validate_rejects_duplicate_boundary_edge():
    mesh = uniform_square_mesh(2)
    edges = mesh.boundary_edges.copy()
    edges[1] = edges[0]
    with pytest.raises(MeshError, match="boundary edge 1 duplicates boundary edge 0"):
        _with_boundary(mesh, edges)


def test_validate_rejects_edge_in_three_triangles():
    """Square n = 1 plus a triangle (0, 4, 3) on its diagonal (0, 3)."""
    mesh = uniform_square_mesh(1)
    with pytest.raises(MeshError, match=r"edge \(0, 3\) is shared by 3 > 2 triangles"):
        _with_boundary(mesh, mesh.boundary_edges, [2.0, 0.0], [0, 4, 3])


def test_validate_rejects_interior_edge_listed_as_boundary():
    """(0, 3) is the diagonal of square n = 1, inside both triangles."""
    mesh = uniform_square_mesh(1)
    edges = mesh.boundary_edges.copy()
    edges[1] = (0, 3)
    with pytest.raises(MeshError, match=r"boundary edge 1 = \(0, 3\) is shared by 2 triangles"):
        _with_boundary(mesh, edges)


@pytest.mark.parametrize("field", ["triangles", "boundary_edges"])
def test_fractional_indices_are_rejected(field):
    """A fraction in an index array names the array; numpy used to
    truncate it, giving back the original mesh.  Whole-number floats are
    indices like any other."""
    mesh = uniform_square_mesh(2)
    arrays = dict(vertices=mesh.vertices, triangles=mesh.triangles, boundary_edges=mesh.boundary_edges)
    whole = Mesh(**{**arrays, field: arrays[field].astype(float)})
    assert np.array_equal(getattr(whole, field), arrays[field])
    assert getattr(whole, field).dtype == np.int64
    with pytest.raises(MeshError, match=f"^{field} must hold integers, found 0.4$"):
        Mesh(**{**arrays, field: arrays[field] + 0.4})


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
        found, owners, local = table.locate(labels[mesh.boundary_edges])
        assert np.array_equal(owners, mesh.boundary_triangles)
        assert np.array_equal(local, mesh.boundary_local)
        assert np.array_equal(table.edges[found], np.sort(labels[mesh.boundary_edges], axis=1))


@pytest.mark.parametrize("field,width", [("triangles", 4), ("boundary_edges", 3)])
def test_validate_rejects_wrong_array_width(field, width):
    """A fourth triangle column used to be ignored silently."""
    mesh = uniform_square_mesh(1)
    arrays = dict(vertices=mesh.vertices, triangles=mesh.triangles, boundary_edges=mesh.boundary_edges)
    arrays[field] = np.column_stack([arrays[field], arrays[field][:, :width - arrays[field].shape[1]]])
    with pytest.raises(MeshError, match=rf"{field} must be an \(n., {width - 1}\) array"):
        Mesh(**arrays)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_validate_rejects_non_finite_vertex(bad_value):
    """A NaN or inf coordinate slips past the signed-area test (NaN <= 0
    is False), so it needs its own check."""
    mesh = uniform_square_mesh(4)
    vertices = mesh.vertices.copy()
    vertices[7, 1] = bad_value
    with pytest.raises(MeshError, match="vertex 7 has non-finite coordinates"):
        Mesh(vertices, mesh.triangles, mesh.boundary_edges)


def test_unknown_domain_tag_rejected():
    mesh = uniform_square_mesh(1)
    with pytest.raises(MeshError, match="unknown domain tag 'hexagon'"):
        Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, domain="hexagon")


def test_mesh_equality_and_hash_are_identity():
    """Two meshes built alike are different objects: == compares them
    without raising (the generated == compared arrays and raised
    ValueError), and a mesh hashes, so it can key a dict."""
    a, b = uniform_square_mesh(1), uniform_square_mesh(1)
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a)
    assert {a: "a", b: "b"}[b] == "b"


def test_boundary_local_edges_finds_each_edge_in_its_triangle():
    """Boundary edge j = (a, b) is local edge boundary_local[j] of its
    triangle, run from a to b, and edge boundary_edge_index[j] of the
    edge table."""
    for mesh in (uniform_square_mesh(3), uniform_lshape_mesh(2)):
        local = mesh.boundary_local
        owner = mesh.triangles[mesh.boundary_triangles]
        rows = np.arange(mesh.num_boundary_edges)
        assert np.array_equal(owner[rows, local], mesh.boundary_edges[:, 0])
        assert np.array_equal(owner[rows, (local + 1) % 3], mesh.boundary_edges[:, 1])
        table = mesh.edge_table
        assert np.array_equal(table.tri_edges[mesh.boundary_triangles, local],
                              mesh.boundary_edge_index)
        assert np.array_equal(table.edges[mesh.boundary_edge_index],
                              np.sort(mesh.boundary_edges, axis=1))


@pytest.mark.parametrize("edge", [(0, 8), (1, 0)])
def test_boundary_local_edges_rejects_foreign_and_reversed_edges(edge):
    """(0, 8) is no edge of the square n = 2 mesh; (1, 0) is its first
    boundary edge run clockwise.  Both fail when the mesh is built, so
    no reader of the boundary tables meets either."""
    mesh = uniform_square_mesh(2)
    edges = mesh.boundary_edges.copy()
    edges[0] = edge
    with pytest.raises(MeshError, match="boundary edge 0"):
        Mesh(mesh.vertices, mesh.triangles, edges)


def _put(a, index, value):
    a = a.copy()
    a[index] = value
    return a


def _folded_square():
    """(0, 3)^2 covered twice: by the triangles (0, 1, 2), (0, 2, 3) and by
    a ring of eight triangles around the hole (1, 2)^2.  Every triangle is
    counterclockwise and the sides of the square lie in two triangles each,
    so the one boundary is the rim of the hole, which runs clockwise."""
    vertices = [(0, 0), (3, 0), (3, 3), (0, 3), (1, 1), (2, 1), (2, 2), (1, 2)]
    ring = [(k, (k + 1) % 4, 4 + (k + 1) % 4, k, 4 + (k + 1) % 4, 4 + k) for k in range(4)]
    triangles = np.vstack([[(0, 1, 2), (0, 2, 3)], np.reshape(ring, (-1, 3))])
    return np.array(vertices, dtype=float), triangles, np.array([(5, 4), (4, 7), (7, 6), (6, 5)])


def _doubled_far_triangle():
    """Square n = 1 plus a far triangle (4, 5, 6) listed twice: each of
    its edges lies in two triangles that run it the same way.  Every other
    check passes, and the triangles cover area 2 for a unit square loop."""
    square = uniform_square_mesh(1)
    vertices = np.vstack([square.vertices, [(3.0, 0.0), (4.0, 0.0), (3.0, 1.0)]])
    return vertices, np.vstack([square.triangles, (4, 5, 6), (4, 5, 6)]), square.boundary_edges


# defects of square n = 2 (v, t, e: its vertices, triangles and boundary
# edges) and the start of the message the Mesh constructor gives each
_DEFECTS = {
    "wrong width": (
        lambda v, t, e: (v, np.column_stack([t, t[:, :1]]), e), "triangles must be an (nt, 3) array"),
    "out-of-range index": (
        lambda v, t, e: (v, _put(t, (0, 0), 99), e), "triangle vertex index out of range"),
    "non-finite vertex": (
        lambda v, t, e: (_put(v, (4, 1), np.nan), t, e), "vertex 4 has non-finite coordinates"),
    "clockwise triangle": (
        lambda v, t, e: (v, _put(t, 3, t[3, ::-1]), e), "triangle 3 is degenerate or clockwise"),
    "dangling boundary edge": (
        lambda v, t, e: (v, t, _put(e, 0, (0, 8))), "boundary edge 0 = (0, 8) belongs to no triangle"),
    "duplicate boundary edge": (
        lambda v, t, e: (v, t, _put(e, 1, e[0])), "boundary edge 1 duplicates boundary edge 0"),
    "reversed boundary edge": (
        lambda v, t, e: (v, t, _put(e, 0, e[0, ::-1])), "boundary edge 0 = (1, 0) is not an edge"),
    "edge in three triangles": (
        lambda v, t, e: (np.vstack([v, (1.0, -1.0)]), np.vstack([t, (0, 9, 4)]), e),
        "edge (0, 4) is shared by 3 > 2 triangles"),
    "broken loop": (
        lambda v, t, e: (v, t, e[[1, 0, 2, 3, 4, 5, 6, 7]]), "boundary loop breaks after edge 0"),
    "clockwise loop": (
        lambda v, t, e: _folded_square(), "edge (0, 1) runs the same way in both its triangles"),
    "folded mesh": (
        lambda v, t, e: _doubled_far_triangle(), "edge (4, 5) runs the same way in both its triangles"),
    "unused vertex": (
        lambda v, t, e: (np.vstack([v, (5.0, 5.0)]), t, e), "vertex 9 belongs to no triangle"),
}


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_validate_and_read_give_one_message_per_defect(defect, tmp_path):
    """The Mesh constructor and read_mesh run one set of checks: the same
    defect gets the same message, read_mesh adding only the file path."""
    edit, message = _DEFECTS[defect]
    mesh = uniform_square_mesh(2)
    vertices, triangles, edges = edit(mesh.vertices, mesh.triangles, mesh.boundary_edges)
    with pytest.raises(MeshError) as validated:
        Mesh(vertices, triangles, edges)
    assert str(validated.value).startswith(message)
    path = tmp_path / "bad.json"
    doc = {"vertices": vertices, "triangles": triangles, "boundary_edges": edges}
    path.write_text(json.dumps({key: np.asarray(a).tolist() for key, a in doc.items()}))
    with pytest.raises(MeshError) as read:
        read_mesh(path)
    assert str(read.value) == f"mesh file {path}: {validated.value}"


@pytest.mark.parametrize("field,value,message", [
    ("triangles", 0.4, "triangles must hold integers, found float"),
    ("triangles", "0", "triangles must hold integers, found str"),
    ("boundary_edges", False, "boundary_edges must hold integers, found bool"),
    ("vertices", "0", "vertices must hold numbers, found str"),
])
def test_read_rejects_entries_that_are_not_json_numbers(tmp_path, field, value, message):
    """Each value replaces a 0 in the first row of field; numpy used to
    coerce it back to 0 (0.4 truncated, "0" parsed, false taken as 0)."""
    doc = _doc_of(uniform_square_mesh(2))
    assert doc[field][0][0] == 0
    doc[field][0][0] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshError, match=re.escape(f"mesh file {path}: {message}")):
        read_mesh(path)


def test_generators_run_the_mesh_checks(monkeypatch):
    """A generated mesh passes the checks of a read one: with every signed
    area reported negative, the generator raises."""
    import steklov_certify.mesh as mesh_module

    monkeypatch.setattr(mesh_module, "_signed_areas", lambda v, t: -np.ones(len(t)))
    with pytest.raises(MeshError, match="triangle 0 is degenerate or clockwise"):
        uniform_lshape_mesh(2)
