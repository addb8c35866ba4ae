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

from .mesh import MeshError

__all__ = [
    "ConstantsRecord",
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


def _edge_trace(edge_length, area, h_max):
    """0.574 sqrt(|e| / |K|) h_K, elementwise over arrays."""
    return EDGE_TRACE_COEFF * np.sqrt(edge_length / area) * h_max


def edge_trace_constant(geom, edge):
    """Trace constant of one element with respect to one of its edges."""
    if not 0 <= edge <= 2:
        raise ValueError(f"edge index must be 0..2, got {edge}")
    if geom.area <= 0.0:
        raise MeshError("degenerate element")
    return _edge_trace(geom.edge_lengths[edge], geom.area, geom.h_max)


def _boundary_elements(mesh):
    """Area, longest edge and boundary edge length of the triangle of each
    boundary edge, three (nb,) arrays; a corner triangle comes once per edge."""
    t = mesh.boundary_triangles
    h_max = mesh.edge_lengths_per_triangle()[t].max(axis=1)
    return mesh.triangle_areas()[t], h_max, mesh.boundary_edge_lengths()


def trace_constant_bound(mesh):
    """Largest per-element trace constant over all boundary edges."""
    areas, h_max, lengths = _boundary_elements(mesh)
    return float(_edge_trace(lengths, areas, h_max).max(initial=0.0))


def trace_constant_simplified(mesh):
    """Coarser mesh-size form of the trace constant (for shape-regular meshes)."""
    return TRACE_SIMPLE_COEFF * float(np.sqrt(_boundary_elements(mesh)[1].max()))


def certification_constant(trace_const, proj_const):
    """Combine the trace and projection constants into the bound constant."""
    if not (0.0 <= trace_const < np.inf and 0.0 <= proj_const < np.inf):
        raise ValueError("constants must be nonnegative and finite")
    return float(np.hypot(trace_const, proj_const))


def certified_lower_bound(value, constant):
    """lam / (1 + C**2 lam): a guaranteed lower bound for the exact
    eigenvalue below the discrete eigenvalue lam with bound constant C."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"discrete eigenvalue must be positive and finite, got {value}")
    if not 0.0 <= constant < np.inf:
        raise ValueError(f"bound constant must be nonnegative and finite, got {constant}")
    return float(value / (1.0 + constant * constant * value))


def cr_error_constant(mesh, first_cr_eigenvalue):
    """Explicit CR bound constant and its coarser mesh-size form.

    Needs the smallest CR eigenvalue of the same mesh; both returned
    values are valid bound constants for the CR lower bound map.
    """
    if not 0.0 < first_cr_eigenvalue < np.inf:
        raise ValueError("first CR eigenvalue must be positive and finite")
    areas, h_max, lengths = _boundary_elements(mesh)
    boundary_part = (h_max / np.sqrt(2.0 * areas / lengths)).max(initial=0.0)
    h = mesh.h
    root = 1.0 / np.sqrt(first_cr_eigenvalue)
    full = CR_TRACE_COEFF * boundary_part + CR_GLOBAL_COEFF * root * h
    simple = CR_SIMPLE_COEFF * np.sqrt(h) + CR_GLOBAL_COEFF * root * h
    return float(full), float(simple)


def load_references(path):
    """Read a reference eigenvalue table from a JSON file.

    Expected shape: {"domain": {"values": [lam1, lam2, ...], ...}, ...};
    extra keys (provenance notes) are ignored.  Raises ValueError naming
    the file, and the entry where there is one, for anything else.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object of domains, got {type(doc).__name__}")
    table = {}
    for key, entry in doc.items():
        values = entry.get("values") if isinstance(entry, dict) else None
        # JSON numbers only: float() would also read "0.24" and true
        numbers = isinstance(values, list) and all(type(v) in (int, float) for v in values)
        try:
            floats = [float(v) for v in values] if numbers else None
        except OverflowError:
            floats = None
        if not floats or not np.all(np.isfinite(floats)):
            raise ValueError(f'{path}: entry {key!r} needs a nonempty finite list as "values"')
        table[key] = floats
    return table


def reference_eigenvalues(domain):
    """Shipped reference eigenvalues for a domain tag, or None."""
    shipped = resources.files("steklov_certify") / "data" / "reference_eigenvalues.json"
    return load_references(shipped).get(domain)
