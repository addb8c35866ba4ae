"""Uniform triangulations of the unit-square and L-shaped model domains.

A mesh is a plain vertex/triangle/boundary-edge table with enough geometry
attached to drive the certified constants: per-element longest edge, area,
and the height with respect to each edge.  Boundary edges are stored as an
oriented loop (counterclockwise, domain on the left) so downstream code can
form outward normals without guessing, and each boundary edge knows the
unique triangle it belongs to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DOMAIN_TAGS",
    "ElementGeometry",
    "Mesh",
    "MeshError",
    "boundary_local_edges",
    "element_geometry",
    "read_mesh",
    "uniform_lshape_mesh",
    "uniform_square_mesh",
    "validate_mesh",
    "write_mesh",
]

DOMAIN_TAGS = ("unit_square", "l_shape", "custom")


class MeshError(ValueError):
    """A mesh file or mesh object violates a structural invariant."""


def _frozen(a, dtype):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Mesh:
    """Triangulation with an oriented boundary loop.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex triples, counterclockwise.
    boundary_edges : (nb, 2) int array
        Boundary edges in loop order; each row (a, b) is oriented so the
        domain lies on the left of a -> b, and consecutive rows chain.
    boundary_triangles : (nb,) int array
        The unique triangle containing each boundary edge.
    domain : str
        One of DOMAIN_TAGS.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_triangles: np.ndarray
    domain: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "vertices", _frozen(self.vertices, float))
        object.__setattr__(self, "triangles", _frozen(self.triangles, np.int64))
        object.__setattr__(self, "boundary_edges", _frozen(self.boundary_edges, np.int64))
        object.__setattr__(self, "boundary_triangles", _frozen(self.boundary_triangles, np.int64))
        if self.domain not in DOMAIN_TAGS:
            raise MeshError(f"unknown domain tag {self.domain!r}")

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    @property
    def boundary_vertices(self):
        """Boundary vertex indices, in loop order (one per boundary edge)."""
        return self.boundary_edges[:, 0]

    def triangle_areas(self):
        """Signed areas of all triangles (positive for valid meshes)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths_per_triangle(self):
        """(nt, 3) lengths of the local edges (v0,v1), (v1,v2), (v2,v0)."""
        p = self.vertices[self.triangles]
        d = np.roll(p, -1, axis=1) - p
        return np.hypot(d[:, :, 0], d[:, :, 1])

    def boundary_edge_lengths(self):
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @property
    def h(self):
        """Mesh size: the longest element edge."""
        return float(self.edge_lengths_per_triangle().max())


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of one triangle, sufficient for the trace constants.

    edge_lengths[l] and heights[l] refer to the local edge
    (v_l, v_{l+1 mod 3}); heights[l] = 2*area/edge_lengths[l] is the
    distance from the opposite vertex to that edge.
    """

    area: float
    h_max: float
    edge_lengths: np.ndarray
    heights: np.ndarray


def element_geometry(mesh, t):
    """Area, longest edge and per-edge heights of triangle t."""
    tri = mesh.triangles[t]
    p = mesh.vertices[tri]
    d1 = p[1] - p[0]
    d2 = p[2] - p[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area <= 0.0:
        raise MeshError(f"triangle {t} is degenerate or misoriented (signed area {area})")
    lengths = np.hypot(*(np.roll(p, -1, axis=0) - p).T)
    return ElementGeometry(
        area=float(area),
        h_max=float(lengths.max()),
        edge_lengths=_frozen(lengths, float),
        heights=_frozen(2.0 * area / lengths, float),
    )


def boundary_local_edges(mesh):
    """Local edge l of each boundary edge (a, b) in its recorded triangle.

    Returns an (nb,) int array with tri[l] == a and tri[(l + 1) % 3] == b
    for tri = triangles[boundary_triangles[j]]; raises MeshError for a
    boundary edge that is not a counterclockwise edge of that triangle.
    """
    owner = mesh.triangles[mesh.boundary_triangles]
    a, b = mesh.boundary_edges[:, :1], mesh.boundary_edges[:, 1:]
    hit = (owner == a) & (np.roll(owner, -1, axis=1) == b)
    bad = np.nonzero(hit.sum(axis=1) != 1)[0]
    if bad.size:
        j = int(bad[0])
        raise MeshError(
            f"boundary edge {j} = ({a[j, 0]}, {b[j, 0]}) is not an edge of triangle "
            f"{mesh.boundary_triangles[j]} in its counterclockwise orientation"
        )
    return hit.argmax(axis=1)


def _split_cell(a, b, c, d, flip):
    """Two counterclockwise triangles of the cell with corners a, b, c, d
    (lower-left, lower-right, upper-right, upper-left).  flip selects the
    diagonal: False is a-c, True is b-d."""
    if flip:
        return [(a, b, d), (b, c, d)]
    return [(a, b, c), (a, c, d)]


def _attach_boundary(vertices, triangles, edges, domain):
    """Find the triangle of each boundary edge and build the mesh."""
    incidence = {}
    for t, tri in enumerate(triangles):
        for l in range(3):
            a, b = tri[l], tri[(l + 1) % 3]
            incidence[(a, b)] = t
    tris = [incidence[(a, b)] for a, b in edges]
    return Mesh(vertices, triangles, edges, tris, domain=domain)


def uniform_square_mesh(n):
    """Uniform n-by-n triangulation of the unit square, mesh size sqrt(2)/n.

    Vertices sit on the lattice (i/n, j/n) and the cells are split along
    alternating diagonals in a checkerboard pattern, so the mesh carries
    the full symmetry of the square and symmetric eigenvalue pairs stay
    exactly degenerate.  The boundary loop starts at the origin and runs
    counterclockwise.
    """
    if n < 1:
        raise MeshError(f"subdivision count must be >= 1, got {n}")
    idx = lambda i, j: j * (n + 1) + i
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([(ii.T / n).ravel(), (jj.T / n).ravel()])

    triangles = []
    for j in range(n):
        for i in range(n):
            triangles += _split_cell(
                idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1), (i + j) % 2 == 1
            )

    edges = []
    for i in range(n):  # bottom, left to right
        edges.append((idx(i, 0), idx(i + 1, 0)))
    for j in range(n):  # right, upward
        edges.append((idx(n, j), idx(n, j + 1)))
    for i in range(n, 0, -1):  # top, right to left
        edges.append((idx(i, n), idx(i - 1, n)))
    for j in range(n, 0, -1):  # left, downward
        edges.append((idx(0, j), idx(0, j - 1)))

    return _attach_boundary(vertices, triangles, edges, "unit_square")


def uniform_lshape_mesh(n):
    """Uniform triangulation of (0,2)^2 minus [1,2]^2, mesh size sqrt(2)/n.

    The lattice spacing is 1/n on the big square; cells with i >= n and
    j >= n (the removed quadrant) are dropped.  Diagonals alternate in
    the same checkerboard pattern as on the square, anchored at the cell
    (0, 0).  The boundary loop runs counterclockwise through (0,0),
    (2,0), (2,1), (1,1), (1,2), (0,2); the reentrant corner is (1,1).
    """
    if n < 1:
        raise MeshError(f"subdivision count must be >= 1, got {n}")
    nn = 2 * n
    vid = -np.ones((nn + 1, nn + 1), dtype=np.int64)
    coords = []
    for j in range(nn + 1):
        for i in range(nn + 1):
            if i > n and j > n:
                continue  # interior of the removed quadrant
            vid[i, j] = len(coords)
            coords.append((i / n, j / n))
    vertices = np.asarray(coords)

    triangles = []
    for j in range(nn):
        for i in range(nn):
            if i >= n and j >= n:
                continue
            triangles += _split_cell(
                vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1], (i + j) % 2 == 1
            )

    edges = []
    for i in range(nn):  # bottom of the big square
        edges.append((vid[i, 0], vid[i + 1, 0]))
    for j in range(n):  # right side, y in (0, 1)
        edges.append((vid[nn, j], vid[nn, j + 1]))
    for i in range(nn, n, -1):  # reentrant horizontal, x from 2 to 1 at y = 1
        edges.append((vid[i, n], vid[i - 1, n]))
    for j in range(n, nn):  # reentrant vertical, x = 1, y from 1 to 2
        edges.append((vid[n, j], vid[n, j + 1]))
    for i in range(n, 0, -1):  # top, x from 1 to 0 at y = 2
        edges.append((vid[i, nn], vid[i - 1, nn]))
    for j in range(nn, 0, -1):  # left side, downward
        edges.append((vid[0, j], vid[0, j - 1]))

    triangles = [tuple(int(v) for v in tri) for tri in triangles]
    edges = [(int(a), int(b)) for a, b in edges]
    return _attach_boundary(vertices, triangles, edges, "l_shape")


def _triangle_edge_set(triangles):
    """Map sorted vertex pair -> list of the triangles containing it."""
    incidence = {}
    for t, tri in enumerate(triangles):
        for l in range(3):
            a, b = int(tri[l]), int(tri[(l + 1) % 3])
            incidence.setdefault((min(a, b), max(a, b)), []).append(t)
    return incidence


def validate_mesh(mesh):
    """Check all structural invariants; raise MeshError naming the offender.

    Verified: finite coordinates, index ranges, positive orientation,
    conforming edge incidence (interior edges in exactly two triangles,
    boundary edges in exactly one, matching the recorded adjacent
    triangle and its orientation), and a single counterclockwise
    boundary loop.
    """
    nv = mesh.num_vertices
    if nv == 0 or mesh.num_triangles == 0:
        raise MeshError("mesh has no vertices or no triangles")
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    bad = np.nonzero(~np.isfinite(mesh.vertices).all(axis=1))[0]
    if bad.size:
        raise MeshError(f"vertex {bad[0]} has non-finite coordinates {mesh.vertices[bad[0]]}")
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= nv:
        raise MeshError("triangle vertex index out of range")
    if mesh.boundary_edges.min(initial=0) < 0 or mesh.boundary_edges.max(initial=-1) >= nv:
        raise MeshError("boundary edge vertex index out of range")
    if mesh.boundary_triangles.shape != (mesh.num_boundary_edges,):
        raise MeshError("boundary_triangles must align with boundary_edges")

    areas = mesh.triangle_areas()
    bad = np.nonzero(areas <= 0.0)[0]
    if bad.size:
        raise MeshError(f"triangle {bad[0]} is degenerate or clockwise (signed area {areas[bad[0]]})")

    incidence = _triangle_edge_set(mesh.triangles)
    listed = {}
    for j, (a, b) in enumerate(mesh.boundary_edges):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key in listed:
            raise MeshError(f"boundary edge {j} duplicates boundary edge {listed[key]}")
        listed[key] = j
        hits = incidence.get(key, [])
        if len(hits) == 0:
            raise MeshError(f"boundary edge {j} = {key} belongs to no triangle (dangling)")
        if len(hits) > 1:
            raise MeshError(f"boundary edge {j} = {key} is shared by {len(hits)} triangles")
        t = hits[0]
        if t != mesh.boundary_triangles[j]:
            raise MeshError(f"boundary edge {j}: recorded triangle {mesh.boundary_triangles[j]}, actual {t}")
    for key, hits in incidence.items():
        if len(hits) == 1 and key not in listed:
            raise MeshError(f"edge {key} lies on the boundary but is missing from boundary_edges")
        if len(hits) > 2:
            raise MeshError(f"edge {key} is shared by {len(hits)} > 2 triangles")
    boundary_local_edges(mesh)

    heads = mesh.boundary_edges[:, 0]
    tails = mesh.boundary_edges[:, 1]
    if not np.array_equal(tails, np.roll(heads, -1)):
        j = int(np.nonzero(tails != np.roll(heads, -1))[0][0])
        raise MeshError(f"boundary loop breaks after edge {j}")
    if len(np.unique(heads)) != len(heads):
        raise MeshError("boundary loop visits a vertex twice (multiple loops?)")
    p = mesh.vertices[heads]
    q = mesh.vertices[tails]
    if np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) <= 0.0:
        raise MeshError("boundary loop is clockwise")
    return mesh


def write_mesh(mesh, path):
    """Serialize a mesh to the JSON interchange format."""
    doc = {
        "domain": mesh.domain,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": mesh.boundary_edges.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def read_mesh(path):
    """Load a mesh from the JSON interchange format and validate it.

    The adjacent triangle of each boundary edge is not stored in the file;
    it is reconstructed from the triangle table.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MeshError(f"mesh file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshError(f"mesh file {path}: top level must be an object")
    for key in ("vertices", "triangles", "boundary_edges"):
        if key not in doc:
            raise MeshError(f"mesh file {path}: missing key {key!r}")
    domain = doc.get("domain", "custom")
    if domain not in DOMAIN_TAGS:
        raise MeshError(f"mesh file {path}: unknown domain tag {domain!r}")
    try:
        vertices = np.asarray(doc["vertices"], dtype=float)
        triangles = np.asarray(doc["triangles"], dtype=np.int64)
        edges = np.asarray(doc["boundary_edges"], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"mesh file {path}: malformed arrays: {exc}") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"mesh file {path}: vertices must be (nv, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError(f"mesh file {path}: triangles must be (nt, 3)")
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise MeshError(f"mesh file {path}: boundary_edges must be (nb, 2)")
    if np.any(triangles < 0) or np.any(triangles >= len(vertices)):
        raise MeshError(f"mesh file {path}: triangle vertex index out of range")
    if np.any(edges < 0) or np.any(edges >= len(vertices)):
        raise MeshError(f"mesh file {path}: boundary edge vertex index out of range")

    incidence = _triangle_edge_set(triangles)
    tris = []
    for j, (a, b) in enumerate(edges):
        hits = incidence.get((min(int(a), int(b)), max(int(a), int(b))), [])
        if len(hits) != 1:
            raise MeshError(f"mesh file {path}: boundary edge {j} belongs to {len(hits)} triangles")
        tris.append(hits[0])

    mesh = Mesh(vertices, triangles, edges, np.asarray(tris), domain=domain)
    return validate_mesh(mesh)
