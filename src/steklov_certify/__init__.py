"""Certified two-sided bounds for Steklov eigenvalues on polygonal domains.

The pipeline: build a mesh, assemble the conforming, broken and flux
spaces, compute the projection error constant by flux equilibration and
the explicit boundary trace constant, solve the discrete eigenvalue
problem, and map each discrete eigenvalue lam to the guaranteed enclosure
[lam / (1 + M^2 lam), lam].  A Crouzeix-Raviart variant provides an
alternative lower bound with a fully explicit constant.
"""

from .assembly import (
    AssembledSystem,
    BoundaryField,
    DofMaps,
    assemble_boundary,
    assemble_p1,
    assemble_system,
    project_boundary,
)
from .bounds import (
    ConstantsRecord,
    certification_constant,
    certified_lower_bound,
    cr_error_constant,
    edge_trace_constant,
    reference_eigenvalues,
    trace_constant_bound,
    trace_constant_simplified,
)
from .hypercircle import (
    EquilibrationSolver,
    FluxSolution,
    NeumannSolution,
    ProjectionConstant,
)
from .linalg import EigenResult, general_sym_eig
from .mesh import (
    ElementGeometry,
    Mesh,
    MeshError,
    element_geometry,
    read_mesh,
    uniform_lshape_mesh,
    uniform_square_mesh,
    write_mesh,
)
from .steklov import rayleigh_quotient, solve_steklov_cr, solve_steklov_p1

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BoundaryField",
    "ConstantsRecord",
    "DofMaps",
    "EigenResult",
    "ElementGeometry",
    "EquilibrationSolver",
    "FluxSolution",
    "Mesh",
    "MeshError",
    "NeumannSolution",
    "ProjectionConstant",
    "assemble_boundary",
    "assemble_p1",
    "assemble_system",
    "certification_constant",
    "certified_lower_bound",
    "cr_error_constant",
    "edge_trace_constant",
    "element_geometry",
    "general_sym_eig",
    "project_boundary",
    "rayleigh_quotient",
    "read_mesh",
    "reference_eigenvalues",
    "solve_steklov_cr",
    "solve_steklov_p1",
    "trace_constant_bound",
    "trace_constant_simplified",
    "uniform_lshape_mesh",
    "uniform_square_mesh",
    "write_mesh",
    "__version__",
]
