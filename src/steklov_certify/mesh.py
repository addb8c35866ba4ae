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
    "EdgeTable",
    "ElementGeometry",
    "Mesh",
    "MeshError",
    "boundary_local_edges",
    "edge_table",
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


def _reject(mask, message):
    """Raise MeshError(message(i)) for the first index i where mask holds."""
    bad = np.nonzero(mask)[0]
    if bad.size:
        raise MeshError(message(int(bad[0])))


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
    t = mesh.boundary_triangles
    inside = (t >= 0) & (t < mesh.num_triangles)
    owner = mesh.triangles[np.where(inside, t, 0)]
    a, b = mesh.boundary_edges[:, :1], mesh.boundary_edges[:, 1:]
    hit = (owner == a) & (np.roll(owner, -1, axis=1) == b) & inside[:, None]
    _reject(hit.sum(axis=1) != 1, lambda j: (
        f"boundary edge {j} = ({a[j, 0]}, {b[j, 0]}) is not an edge of triangle {t[j]} "
        "in its counterclockwise orientation"
    ))
    return hit.argmax(axis=1)


def _pair_keys(pairs, base):
    """One integer per unordered vertex pair, min * base + max: for any
    base above every vertex index the keys sort as the (min, max) pairs."""
    return pairs.min(axis=-1) * base + pairs.max(axis=-1)


@dataclass(frozen=True)
class EdgeTable:
    """Every edge of a triangle list once (see edge_table).

    edges (ne, 2) holds each edge as its (min, max) vertex pair, in
    lexicographic order; tri_edges[t, l] is the number of the edge from
    local vertex l to local vertex l + 1 (mod 3) of triangle t.
    """

    edges: np.ndarray
    tri_edges: np.ndarray

    @property
    def counts(self):
        """Number of triangles containing each edge, (ne,)."""
        return np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))

    def locate(self, pairs):
        """Edge number and the one triangle of each boundary edge, two
        (nb,) int arrays.  Raises MeshError naming the first boundary
        edge that lies in no triangle or in more than one."""
        pairs = np.asarray(pairs, dtype=np.int64)
        base = max(self.edges.max(initial=0), pairs.max(initial=0)) + 1
        keys, want = _pair_keys(self.edges, base), _pair_keys(pairs, base)
        found = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hits = np.where(keys[found] == want, self.counts[found], 0)
        _reject(hits != 1, lambda j: f"boundary edge {j} = {tuple(sorted(pairs[j].tolist()))} " + (
            f"is shared by {hits[j]} triangles" if hits[j] else "belongs to no triangle (dangling)"
        ))
        triangle_of = np.empty(len(keys), dtype=np.int64)
        triangle_of[self.tri_edges.ravel()] = np.arange(self.tri_edges.size) // 3
        return found, triangle_of[found]


def edge_table(triangles):
    """The EdgeTable of an (nt, 3) triangle list."""
    tris = np.asarray(triangles, dtype=np.int64)
    base = tris.max(initial=0) + 1
    pairs = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1)
    keys, inverse = np.unique(_pair_keys(pairs, base), return_inverse=True)
    return EdgeTable(np.column_stack(np.divmod(keys, base)), inverse.reshape(tris.shape))


def _split_cell(a, b, c, d, flip):
    """Two counterclockwise triangles of the cell with corners a, b, c, d
    (lower-left, lower-right, upper-right, upper-left).  flip selects the
    diagonal: False is a-c, True is b-d."""
    if flip:
        return [(a, b, d), (b, c, d)]
    return [(a, b, c), (a, c, d)]


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

    return Mesh(vertices, triangles, edges, edge_table(triangles).locate(edges)[1], "unit_square")


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

    return Mesh(vertices, triangles, edges, edge_table(triangles).locate(edges)[1], "l_shape")


def validate_mesh(mesh):
    """Check all structural invariants; raise MeshError naming the offender.

    Verified: finite coordinates, index ranges, positive orientation,
    conforming edge incidence (interior edges in exactly two triangles,
    boundary edges in exactly one, matching the recorded adjacent
    triangle and its orientation), and a single counterclockwise
    boundary loop.
    """
    return _validate(mesh, None)


def _validate(mesh, located):
    """validate_mesh.  located is None, or (table, found) from a caller
    that built the edge table of mesh.triangles, located
    mesh.boundary_edges in it (found: their edge numbers) and took
    mesh.boundary_triangles from that search."""
    nv = mesh.num_vertices
    if nv == 0 or mesh.num_triangles == 0:
        raise MeshError("mesh has no vertices or no triangles")
    shapes = (("vertices", "nv", 2), ("triangles", "nt", 3), ("boundary_edges", "nb", 2))
    for name, rows, width in shapes:
        if getattr(mesh, name).ndim != 2 or getattr(mesh, name).shape[1] != width:
            raise MeshError(f"{name} must be an ({rows}, {width}) array")
    finite = np.isfinite(mesh.vertices).all(axis=1)
    _reject(~finite, lambda v: f"vertex {v} has non-finite coordinates {mesh.vertices[v]}")
    if mesh.triangles.min(initial=0) < 0 or mesh.triangles.max(initial=-1) >= nv:
        raise MeshError("triangle vertex index out of range")
    if mesh.boundary_edges.min(initial=0) < 0 or mesh.boundary_edges.max(initial=-1) >= nv:
        raise MeshError("boundary edge vertex index out of range")
    if mesh.boundary_triangles.shape != (mesh.num_boundary_edges,):
        raise MeshError("boundary_triangles must align with boundary_edges")
    areas = mesh.triangle_areas()
    _reject(areas <= 0.0, lambda t: (
        f"triangle {t} is degenerate or clockwise (signed area {areas[t]})"
    ))

    if located is None:
        table = edge_table(mesh.triangles)
        found, owners = table.locate(mesh.boundary_edges)
    else:
        (table, found), owners = located, mesh.boundary_triangles
    _, first, inverse = np.unique(found, return_index=True, return_inverse=True)
    first, recorded = first[inverse], mesh.boundary_triangles
    repeated = first != np.arange(len(found))
    _reject(repeated, lambda j: f"boundary edge {j} duplicates boundary edge {first[j]}")
    _reject(owners != recorded, lambda j: (
        f"boundary edge {j}: recorded triangle {recorded[j]}, actual {owners[j]}"
    ))
    edges, counts = table.edges, table.counts
    _reject(counts > 2, lambda e: (
        f"edge {tuple(edges[e].tolist())} is shared by {counts[e]} > 2 triangles"
    ))
    counts[found] = 0
    _reject(counts == 1, lambda e: (
        f"edge {tuple(edges[e].tolist())} lies on the boundary but is missing from boundary_edges"
    ))
    boundary_local_edges(mesh)

    heads, tails = mesh.boundary_edges.T
    _reject(tails != np.roll(heads, -1), lambda j: f"boundary loop breaks after edge {j}")
    if len(np.unique(heads)) != len(heads):
        raise MeshError("boundary loop visits a vertex twice (multiple loops?)")
    p, q = mesh.vertices[heads], mesh.vertices[tails]
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

    table = edge_table(triangles)
    try:
        found, owners = table.locate(edges)
    except MeshError as exc:
        raise MeshError(f"mesh file {path}: {exc}") from None
    return _validate(Mesh(vertices, triangles, edges, owners, domain=domain), (table, found))
