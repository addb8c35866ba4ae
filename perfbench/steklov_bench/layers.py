"""Per-layer tracing of the package, from outside it.

install() wraps the public functions of each module (mesh, assembly,
linalg, hypercircle, steklov, bounds, cli) in spans and counters.  A
wrapper is bound wherever a caller looks the name up: every module of
the package that imported the function by name (for example
steklov.general_sym_eig or hypercircle.rt_values_at_quadrature), module
level tables that hold it (cli._GENERATORS), and the class for methods.
The untraced run never calls install(), so it imports the package
untouched.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .spans import self_times

PACKAGE = "steklov_certify"
MODULES = ("mesh", "assembly", "linalg", "hypercircle", "steklov", "bounds", "cli")
LEVELS = (4, 8, 16, 32, 64)


def _mesh_counts(args, kwargs, mesh):
    return {"mesh.triangles": mesh.num_triangles}


def _system_counts(args, kwargs, system):
    dofs = system.dofs
    return {
        "assembly.p1_dofs": dofs.dim_p1,
        "assembly.rt_interior_dofs": dofs.dim_rt_interior,
        "assembly.trace_dofs": dofs.dim_trace,
    }


def _rhs_counts(args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["b"])
    return {"linalg.saddle_rhs_cols": 1 if len(shape) == 1 else shape[1]}


def _eig_counts(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    b = sp.csr_matrix(args[1] if len(args) > 1 else kwargs["b"])
    b.eliminate_zeros()
    return {"linalg.sym_eig_dim": a.shape[0], "linalg.sym_eig_support": np.unique(b.indices).size}


def _cr_counts(args, kwargs, result):
    return {"steklov.cr_dofs": result[0].shape[0]}


def _level_label(args, kwargs):
    n = kwargs.get("n", args[4] if len(args) > 4 else None)
    return f"n{n}"


@dataclass(frozen=True)
class Layer:
    span: str
    module: str
    qualname: str
    counts: Callable | None = None
    label: Callable | None = None


LAYERS = (
    Layer("mesh.generate", "mesh", "uniform_square_mesh", _mesh_counts),
    Layer("mesh.generate", "mesh", "uniform_lshape_mesh", _mesh_counts),
    Layer("assembly.assemble_system", "assembly", "assemble_system", _system_counts),
    Layer("assembly.rt_eval", "assembly", "rt_values_at_quadrature"),
    Layer("assembly.rt_eval", "assembly", "rt_divergence_vertex_values"),
    Layer("linalg.cholesky_factor", "linalg", "CholeskyFactor.__init__"),
    Layer("linalg.cholesky_solve", "linalg", "CholeskyFactor.solve"),
    Layer("linalg.saddle_factor", "linalg", "SaddleFactor.__init__"),
    Layer("linalg.saddle_solve", "linalg", "SaddleFactor.solve", _rhs_counts),
    Layer("linalg.sym_eig", "linalg", "general_sym_eig", _eig_counts),
    Layer("hypercircle.solver_init", "hypercircle", "EquilibrationSolver.__init__"),
    Layer("hypercircle.constant", "hypercircle", "EquilibrationSolver.constant"),
    Layer("hypercircle.solve_neumann", "hypercircle", "EquilibrationSolver.solve_neumann"),
    Layer("hypercircle.solve_flux", "hypercircle", "EquilibrationSolver.solve_flux"),
    Layer("hypercircle.divergence_gap", "hypercircle", "EquilibrationSolver.divergence_gap"),
    Layer("hypercircle.error_norm", "hypercircle", "EquilibrationSolver.error_norm"),
    Layer("steklov.p1_eig", "steklov", "solve_steklov_p1"),
    Layer("steklov.assemble_cr", "steklov", "assemble_cr", _cr_counts),
    Layer("steklov.cr_eig", "steklov", "solve_steklov_cr"),
    Layer("bounds.trace_const", "bounds", "trace_constant_bound"),
    Layer("bounds.trace_const", "bounds", "trace_constant_simplified"),
    Layer("bounds.cr_const", "bounds", "cr_error_constant"),
    Layer("cli.certify_level", "cli", "certify_level", label=_level_label),
    Layer("cli.render", "cli", "render_csv"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.  A "_s"
# metric is the layer's total self time over the traced region; a "_ms"
# metric is its mean self time per call inside "op" traces (one audit
# datum, or one ladder call); a "count" metric is summed over the region.
SELF_SECONDS = (
    "hypercircle.constant",
    "hypercircle.solver_init",
    "linalg.saddle_solve",
    "linalg.saddle_factor",
    "linalg.cholesky_factor",
    "linalg.sym_eig",
    "assembly.assemble_system",
    "steklov.p1_eig",
    "steklov.assemble_cr",
    "steklov.cr_eig",
    "bounds.trace_const",
    "bounds.cr_const",
    "mesh.generate",
    "cli.render",
)
OP_MILLISECONDS = (
    "assembly.rt_eval",
    "hypercircle.divergence_gap",
    "hypercircle.error_norm",
    "hypercircle.solve_neumann",
    "hypercircle.solve_flux",
    "linalg.cholesky_solve",
)
COUNTS = (
    "linalg.saddle_rhs_cols",
    "linalg.sym_eig_dim",
    "linalg.sym_eig_support",
    "assembly.p1_dofs",
    "assembly.rt_interior_dofs",
    "assembly.trace_dofs",
    "steklov.cr_dofs",
    "mesh.triangles",
)


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {f"{name}_s": "s" for name in SELF_SECONDS}
    units.update({f"{name}_ms": "ms" for name in OP_MILLISECONDS})
    units.update({name: "count" for name in COUNTS})
    units.update({f"cli.certify_level_s.n{n}": "s" for n in LEVELS})
    units["trace.overhead_s"] = "s"
    return units


def _wrap(function, layer, tracer):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        label = layer.label(args, kwargs) if layer.label else ""
        span = tracer.begin(layer.span, label)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        if layer.counts:
            tracer.count(layer.counts(args, kwargs, result))
        return result

    return traced


def install(tracer):
    """Bind traced wrappers; returns (restore callable, names not found)."""
    package = importlib.import_module(PACKAGE)
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES] + [package]
    undo = []
    missing = []

    def replace(owner, key, value):
        if isinstance(owner, dict):
            undo.append(functools.partial(owner.__setitem__, key, owner[key]))
            owner[key] = value
        else:
            undo.append(functools.partial(setattr, owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    for layer in LAYERS:
        owner = importlib.import_module(f"{PACKAGE}.{layer.module}")
        *outer, attr = layer.qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{layer.module}.{layer.qualname}")
            continue
        wrapper = _wrap(original, layer, tracer)
        if outer:
            replace(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, wrapper)
                elif isinstance(value, dict):
                    for item, entry in list(value.items()):
                        if entry is original:
                            replace(value, item, wrapper)

    def restore():
        while undo:
            undo.pop()()

    return restore, missing


def layer_metrics(tracer, overhead):
    """(value, unit) of every per-layer metric of a traced region."""
    selfs = self_times(tracer.spans)
    total = dict.fromkeys(SELF_SECONDS, 0.0)
    op_sum = dict.fromkeys(OP_MILLISECONDS, 0.0)
    op_calls = dict.fromkeys(OP_MILLISECONDS, 0)
    levels = {f"n{n}": 0.0 for n in LEVELS}
    for span, own in zip(tracer.spans, selfs):
        if span.name in total:
            total[span.name] += own
        if span.name in op_sum and tracer.trace_kinds[span.trace_id] == "op":
            op_sum[span.name] += own
            op_calls[span.name] += 1
        if span.name == "cli.certify_level" and span.label in levels:
            levels[span.label] += span.duration
    values = {f"{name}_s": total[name] for name in SELF_SECONDS}
    values.update(
        {
            f"{name}_ms": 1e3 * op_sum[name] / op_calls[name] if op_calls[name] else 0.0
            for name in OP_MILLISECONDS
        }
    )
    values.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    values.update({f"cli.certify_level_s.{label}": levels[label] for label in levels})
    values["trace.overhead_s"] = overhead
    return {name: (values[name], unit) for name, unit in metric_units().items()}
