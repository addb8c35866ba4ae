"""Explicit constants and the certified eigenvalue bounds.

The conforming bound needs two computable constants: the boundary trace
constant of the mesh (largest trace constant of any boundary element;
per element and edge it is 0.574*sqrt(|e|/|K|)*h_K, equivalently
0.8118*h_K/sqrt(H_K) with H_K the height over the boundary edge) and the
projection error constant from flux equilibration.  Their root sum of
squares is the certification constant M; a conforming eigenvalue lam then
certifies

    lam / (1 + M**2 * lam)  <=  exact eigenvalue  <=  lam.

The Crouzeix-Raviart route replaces M by an explicit constant built from
the mesh and the first CR eigenvalue; the same rational map produces the
lower bound from CR eigenvalues.  All numeric coefficients are certified
roundings (safe to use verbatim) and enter exactly as printed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .mesh import MeshError, boundary_local_edges, element_geometry

__all__ = [
    "ConstantsRecord",
    "boundary_element_edges",
    "certification_constant",
    "certified_lower_bound",
    "cr_error_constant",
    "edge_trace_constant",
    "load_references",
    "reference_eigenvalues",
    "trace_constant_bound",
    "trace_constant_simplified",
]

EDGE_TRACE_COEFF = 0.574      # sqrt(|e|/|K|) * h_K form
CR_TRACE_COEFF = 0.6711       # h_K / sqrt(H_K) form, boundary elements
CR_GLOBAL_COEFF = 0.1893      # pairs with 1/sqrt(first CR eigenvalue)
TRACE_SIMPLE_COEFF = 0.966    # sqrt(h) form of the trace constant
CR_SIMPLE_COEFF = 0.7981      # sqrt(h) form of the CR constant


@dataclass(frozen=True)
class ConstantsRecord:
    """All certified constants of one mesh (CR fields None when unused)."""

    trace_const: float
    trace_simple: float
    proj_const: float | None = None
    cert_const: float | None = None
    cr_const: float | None = None
    cr_simple: float | None = None


def boundary_element_edges(mesh):
    """Iterate (triangle, local edge index) over every boundary edge.

    Corner triangles with several boundary edges appear once per edge, so
    maximizing a per-(element, edge) quantity over this iterator covers
    all admissible pairs.  Raises MeshError for a boundary edge that is
    not an edge of its recorded triangle.
    """
    return zip(mesh.boundary_triangles.tolist(), boundary_local_edges(mesh).tolist())


def edge_trace_constant(geom, edge):
    """Trace constant of one element with respect to one of its edges."""
    if not 0 <= edge <= 2:
        raise ValueError(f"edge index must be 0..2, got {edge}")
    if geom.area <= 0.0:
        raise MeshError("degenerate element")
    return EDGE_TRACE_COEFF * np.sqrt(geom.edge_lengths[edge] / geom.area) * geom.h_max


def trace_constant_bound(mesh):
    """Largest per-element trace constant over all boundary edges."""
    best = 0.0
    for t, l in boundary_element_edges(mesh):
        best = max(best, float(edge_trace_constant(element_geometry(mesh, t), l)))
    return best


def trace_constant_simplified(mesh):
    """Coarser mesh-size form of the trace constant (for shape-regular meshes)."""
    h_boundary = max(
        element_geometry(mesh, t).h_max for t, _ in boundary_element_edges(mesh)
    )
    return TRACE_SIMPLE_COEFF * float(np.sqrt(h_boundary))


def certification_constant(trace_const, proj_const):
    """Combine the trace and projection constants into the bound constant."""
    if trace_const < 0.0 or proj_const < 0.0:
        raise ValueError("constants must be nonnegative")
    return float(np.hypot(trace_const, proj_const))


def certified_lower_bound(value, constant):
    """lam / (1 + C**2 lam): a guaranteed lower bound for the exact
    eigenvalue below the discrete eigenvalue lam with bound constant C."""
    if value <= 0.0:
        raise ValueError(f"discrete eigenvalue must be positive, got {value}")
    if constant < 0.0:
        raise ValueError(f"bound constant must be nonnegative, got {constant}")
    return float(value / (1.0 + constant * constant * value))


def cr_error_constant(mesh, first_cr_eigenvalue):
    """Explicit CR bound constant and its coarser mesh-size form.

    Needs the smallest CR eigenvalue of the same mesh; both returned
    values are valid bound constants for the CR lower bound map.
    """
    if first_cr_eigenvalue <= 0.0:
        raise ValueError("first CR eigenvalue must be positive")
    boundary_part = 0.0
    for t, l in boundary_element_edges(mesh):
        geom = element_geometry(mesh, t)
        boundary_part = max(boundary_part, geom.h_max / np.sqrt(geom.heights[l]))
    h = mesh.h
    root = 1.0 / np.sqrt(first_cr_eigenvalue)
    full = CR_TRACE_COEFF * boundary_part + CR_GLOBAL_COEFF * root * h
    simple = CR_SIMPLE_COEFF * np.sqrt(h) + CR_GLOBAL_COEFF * root * h
    return float(full), float(simple)


def load_references(path):
    """Read a reference eigenvalue table from a JSON file.

    Expected shape: {"domain": {"values": [lam1, lam2, ...], ...}, ...};
    extra keys (provenance notes) are ignored.
    """
    doc = json.loads(Path(path).read_text())
    return {key: [float(v) for v in entry["values"]] for key, entry in doc.items()}


def reference_eigenvalues(domain):
    """Shipped reference eigenvalues for a domain tag, or None."""
    text = resources.files("steklov_certify").joinpath("data/reference_eigenvalues.json").read_text()
    doc = json.loads(text)
    entry = doc.get(domain)
    return None if entry is None else [float(v) for v in entry["values"]]
