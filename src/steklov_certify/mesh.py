"""Uniform triangulations of the unit-square and L-shaped model domains.

Both model meshes come from one lattice builder, _lattice_mesh, given the
integer corners of the domain polygon; it keeps the lattice cells whose
centres lie inside and splits them on alternating diagonals with array
operations, so no mesh code loops over cells or vertices.

A Mesh is checked when it is made: its constructor runs every structural
check and finds the triangle of each boundary edge, so the generators,
read_mesh and a library caller all get a checked mesh or a MeshError.

A mesh is a plain vertex/triangle/boundary-edge table with enough geometry
attached to drive the certified constants: per-element longest edge, area,
and the height with respect to each edge.  Boundary edges are stored as an
oriented loop (counterclockwise, domain on the left) so downstream code can
form outward normals without guessing, and each boundary edge knows its
number in the edge table, the unique triangle it belongs to and its local
edge in that triangle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DOMAIN_TAGS",
    "EdgeTable",
    "ElementGeometry",
    "Mesh",
    "MeshError",
    "edge_table",
    "element_geometry",
    "read_mesh",
    "uniform_lshape_mesh",
    "uniform_square_mesh",
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


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _frozen(a, dtype):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _frozen_indices(a, name):
    """a as a read-only int64 array; raises MeshError for an entry the
    conversion would change (a fraction, a non-finite or too large value)."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64)
    _reject(np.ravel(out != a), lambda i: f"{name} must hold integers, found {a.ravel().tolist()[i]!r}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation with an oriented boundary loop, checked when it is made.

    The constructor raises MeshError naming the first offender.  Checked:
    finite coordinates, integer indices in range, every vertex in some
    triangle, positive orientation, conforming edge incidence (interior
    edges in exactly two triangles and run once each way, boundary edges
    in exactly one, each listed once and counterclockwise in its
    triangle), and a single counterclockwise boundary loop.  A mesh is
    equal only to itself and hashes by identity: the generated == would
    compare arrays, whose elementwise result has no single truth value.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex triples, counterclockwise.
    boundary_edges : (nb, 2) int array
        Boundary edges in loop order; each row (a, b) is oriented so the
        domain lies on the left of a -> b, and consecutive rows chain.
    domain : str
        One of DOMAIN_TAGS.
    boundary_triangles : (nb,) int array
        The unique triangle containing each boundary edge; derived by the
        constructor, not passed to it.
    boundary_local : (nb,) int array
        The local edge l of each boundary edge (a, b) in that triangle,
        with a its local vertex l, derived by the constructor (read-only).
    boundary_edge_index : (nb,) int array
        The number of each boundary edge in edge_table, derived by the
        constructor (read-only).
    edge_table : EdgeTable
        Every edge once, kept from the constructor's checks (read-only).
        The signed areas and per-triangle edge lengths are kept too.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    domain: str = "custom"
    boundary_triangles: np.ndarray = field(init=False)
    boundary_local: np.ndarray = field(init=False)
    boundary_edge_index: np.ndarray = field(init=False)
    edge_table: EdgeTable = field(init=False, repr=False)
    _areas: np.ndarray = field(init=False, repr=False)
    _lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.domain not in DOMAIN_TAGS:
            raise MeshError(f"unknown domain tag {self.domain!r}")
        vertices = _frozen(self.vertices, float)
        triangles = _frozen_indices(self.triangles, "triangles")
        boundary_edges = _frozen_indices(self.boundary_edges, "boundary_edges")
        # shape[:1] is () for a 0-d array, which the width check then names
        if vertices.shape[:1] == (0,) or triangles.shape[:1] == (0,):
            raise MeshError("mesh has no vertices or no triangles")
        shapes = (("vertices", vertices, "nv", 2), ("triangles", triangles, "nt", 3),
                  ("boundary_edges", boundary_edges, "nb", 2))
        for name, a, rows, width in shapes:
            if a.ndim != 2 or a.shape[1] != width:
                raise MeshError(f"{name} must be an ({rows}, {width}) array")
        finite = np.isfinite(vertices).all(axis=1)
        _reject(~finite, lambda v: f"vertex {v} has non-finite coordinates {vertices[v]}")
        for what, a in (("triangle", triangles), ("boundary edge", boundary_edges)):
            if a.min(initial=0) < 0 or a.max(initial=-1) >= len(vertices):
                raise MeshError(f"{what} vertex index out of range")
        used = np.bincount(triangles.ravel(), minlength=len(vertices))
        _reject(used == 0, lambda v: f"vertex {v} belongs to no triangle")
        areas = _signed_areas(vertices, triangles)
        _reject(areas <= 0.0, lambda t: (
            f"triangle {t} is degenerate or clockwise (signed area {areas[t]})"
        ))

        table = edge_table(triangles)
        found, owners, local = table.locate(boundary_edges)
        _, first, inverse = np.unique(found, return_index=True, return_inverse=True)
        first = first[inverse]
        _reject(first != np.arange(len(found)), lambda j: (
            f"boundary edge {j} duplicates boundary edge {first[j]}"
        ))
        edges, counts = table.edges, table.counts
        _reject(counts > 2, lambda e: (
            f"edge {tuple(edges[e].tolist())} is shared by {counts[e]} > 2 triangles"
        ))
        turns = np.bincount(table.tri_edges.ravel(), table.tri_edge_sign.ravel(), len(edges))
        _reject(np.abs(turns) > 1, lambda e: (
            f"edge {tuple(edges[e].tolist())} runs the same way in both its triangles (folded mesh)"
        ))
        counts[found] = 0
        _reject(counts == 1, lambda e: (
            f"edge {tuple(edges[e].tolist())} lies on the boundary but is missing from boundary_edges"
        ))
        heads, tails = boundary_edges.T
        _reject(triangles[owners, local] != heads, lambda j: (
            f"boundary edge {j} = ({heads[j]}, {tails[j]}) is not an edge of triangle {owners[j]} "
            "in its counterclockwise orientation"
        ))
        # the edge lengths are made here: built on first use, inside the flux
        # solver's set-up, the long-lived array raised repeated audits' peak RSS
        ends = vertices[triangles]
        d = np.roll(ends, -1, axis=1) - ends
        areas.setflags(write=False)
        kept = dict(vertices=vertices, triangles=triangles, boundary_edges=boundary_edges,
                    boundary_triangles=_frozen(owners, np.int64),
                    boundary_local=_frozen(local, np.int64),
                    boundary_edge_index=_frozen(found, np.int64), edge_table=table, _areas=areas,
                    _lengths=_frozen(np.hypot(d[:, :, 0], d[:, :, 1]), float))
        for name, a in kept.items():
            object.__setattr__(self, name, a)

        _reject(tails != np.roll(heads, -1), lambda j: f"boundary loop breaks after edge {j}")
        if len(np.unique(heads)) != len(heads):
            raise MeshError("boundary loop visits a vertex twice (multiple loops?)")
        p, q = vertices[heads], vertices[tails]
        if np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) <= 0.0:
            raise MeshError("boundary loop is clockwise")

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
        """Signed areas of all triangles, kept from the constructor (read-only)."""
        return self._areas

    def edge_lengths_per_triangle(self):
        """(nt, 3) lengths of the local edges (v0,v1), (v1,v2), (v2,v0), kept (read-only)."""
        return self._lengths

    def boundary_edge_lengths(self):
        """(nb,) lengths of the boundary edges, in loop order."""
        return self._lengths[self.boundary_triangles, self.boundary_local]

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
    area = mesh.triangle_areas()[t]
    lengths = mesh.edge_lengths_per_triangle()[t]
    return ElementGeometry(
        area=float(area),
        h_max=float(lengths.max()),
        edge_lengths=_frozen(lengths, float),
        heights=_frozen(2.0 * area / lengths, float),
    )


def _pair_keys(pairs, base):
    """One integer per unordered vertex pair, min * base + max: for any
    base above every vertex index the keys sort as the (min, max) pairs."""
    return pairs.min(axis=-1) * base + pairs.max(axis=-1)


@dataclass(frozen=True)
class EdgeTable:
    """Every edge of a triangle list once (see edge_table).

    edges (ne, 2) holds each edge as its (min, max) vertex pair, in
    lexicographic order; tri_edges[t, l] is the number of the edge from
    local vertex l to local vertex l + 1 (mod 3) of triangle t, and
    tri_edge_sign[t, l] is +1 where that edge runs from its min to its
    max vertex, -1 otherwise.  All three are read-only.
    """

    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_sign: np.ndarray

    @property
    def counts(self):
        """Number of triangles containing each edge, (ne,)."""
        return np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))

    def locate(self, pairs):
        """Edge number, the one triangle and the local edge in it of each
        boundary edge, three (nb,) int arrays.  Raises MeshError naming
        the first boundary edge that lies in no triangle or in more than
        one."""
        pairs = np.asarray(pairs, dtype=np.int64)
        base = max(self.edges.max(initial=0), pairs.max(initial=0)) + 1
        keys, want = _pair_keys(self.edges, base), _pair_keys(pairs, base)
        found = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hits = np.where(keys[found] == want, self.counts[found], 0)
        _reject(hits != 1, lambda j: f"boundary edge {j} = {tuple(sorted(pairs[j].tolist()))} " + (
            f"is shared by {hits[j]} triangles" if hits[j] else "belongs to no triangle (dangling)"
        ))
        slot = np.empty(len(keys), dtype=np.int64)
        slot[self.tri_edges.ravel()] = np.arange(self.tri_edges.size)
        return (found, *np.divmod(slot[found], 3))


def edge_table(triangles):
    """The EdgeTable of an (nt, 3) triangle list."""
    tris = np.asarray(triangles, dtype=np.int64)
    base = tris.max(initial=0) + 1
    pairs = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1)
    keys, inverse = np.unique(_pair_keys(pairs, base), return_inverse=True)
    edges = np.column_stack(np.divmod(keys, base))
    sign = np.where(pairs[..., 0] < pairs[..., 1], 1.0, -1.0)
    return EdgeTable(_frozen(edges, np.int64), _frozen(inverse.reshape(tris.shape), np.int64),
                     _frozen(sign, float))


def _lattice_mesh(n, corners, domain):
    """Criss-cross mesh of lattice spacing 1/n on a polygon.

    corners are the integer corners of the polygon, counterclockwise from
    the origin, with axis-parallel sides.  The cells whose centres lie
    inside are kept and split on the diagonal that alternates with
    (i + j) % 2; vertices are the lattice points of kept cells, numbered
    row by row, and triangles follow the kept cells row by row.  The
    boundary loop starts at the origin.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise MeshError(f"subdivision count must be an integer, got {n!r}")
    if n < 1:
        raise MeshError(f"subdivision count must be >= 1, got {n}")
    p = np.asarray(corners, dtype=np.int64) * int(n)
    q = np.roll(p, -1, axis=0)
    width, height = p.max(axis=0)

    # even-odd test of the cell centres along +x, in half-lattice units
    # (centres odd, corners even) so every product is an exact integer
    cy, cx = np.mgrid[1:2 * height:2, 1:2 * width:2][..., None]
    (x0, y0), (x1, y1) = 2 * p.T, 2 * q.T
    left = (cy - y0) * (x1 - x0) > (cx - x0) * (y1 - y0)
    crossings = ((y0 > cy) != (y1 > cy)) & (left == (y1 > y0))
    keep = crossings.sum(axis=-1) % 2 == 1

    padded = np.pad(keep, 1)
    touched = padded[1:, 1:] | padded[1:, :-1] | padded[:-1, 1:] | padded[:-1, :-1]
    vid = np.cumsum(touched, dtype=np.int64).reshape(touched.shape) - 1
    vy, vx = np.nonzero(touched)
    vertices = np.column_stack([vx / n, vy / n])

    j, i = np.nonzero(keep)
    a, b, c, d = vid[j, i], vid[j, i + 1], vid[j + 1, i + 1], vid[j + 1, i]
    flip = ((i + j) % 2 == 1)[:, None]
    triangles = np.where(
        flip, np.column_stack([a, b, d, b, c, d]), np.column_stack([a, b, c, a, c, d])
    ).reshape(-1, 3)

    loop = np.concatenate([
        start + np.outer(np.arange(np.abs(end - start).max()), np.sign(end - start))
        for start, end in zip(p, q)
    ])
    heads = vid[loop[:, 1], loop[:, 0]]
    return Mesh(vertices, triangles, np.column_stack([heads, np.roll(heads, -1)]), domain)


def uniform_square_mesh(n):
    """Uniform n-by-n triangulation of the unit square, mesh size sqrt(2)/n.

    Vertices sit on the lattice (i/n, j/n) and the cells are split along
    alternating diagonals in a checkerboard pattern, so the mesh carries
    the full symmetry of the square and symmetric eigenvalue pairs stay
    exactly degenerate.  The boundary loop starts at the origin and runs
    counterclockwise.
    """
    return _lattice_mesh(n, [(0, 0), (1, 0), (1, 1), (0, 1)], "unit_square")


def uniform_lshape_mesh(n):
    """Uniform triangulation of (0,2)^2 minus [1,2]^2, mesh size sqrt(2)/n.

    The lattice spacing is 1/n on the big square; cells with i >= n and
    j >= n (the removed quadrant) are dropped.  Diagonals alternate in
    the same checkerboard pattern as on the square, anchored at the cell
    (0, 0).  The boundary loop runs counterclockwise through (0,0),
    (2,0), (2,1), (1,1), (1,2), (0,2); the reentrant corner is (1,1).
    """
    return _lattice_mesh(n, [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], "l_shape")


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

    Indices must be JSON integers and coordinates JSON numbers; nothing
    is coerced.  The adjacent triangle of each boundary edge is not stored
    in the file; it is reconstructed from the triangle table.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MeshError(f"mesh file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshError(f"mesh file {path}: top level must be an object")
    try:
        fields = (("vertices", False), ("triangles", True), ("boundary_edges", True))
        return Mesh(*(_typed(doc, *entry) for entry in fields), doc.get("domain", "custom"))
    except MeshError as exc:
        raise MeshError(f"mesh file {path}: {exc}") from None


def _typed(doc, key, indices):
    """doc[key] as an int64 array of indices (JSON integers only) or a
    float array (JSON integers and floats).  true/false, which JSON loads
    as bool, strings and nulls are rejected, not coerced."""
    if key not in doc:
        raise MeshError(f"missing key {key!r}")
    try:
        items = np.asarray(doc[key], dtype=object)
        wrong = set(map(type, items.ravel())) - ({int} if indices else {int, float})
        if not wrong:
            return items.astype(np.int64 if indices else float)
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"malformed {key}: {exc}") from None
    names = ", ".join(sorted(t.__name__ for t in wrong))
    raise MeshError(f"{key} must hold {'integers' if indices else 'numbers'}, found {names}")
