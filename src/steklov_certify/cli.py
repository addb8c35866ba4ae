"""Command line interface: mesh generation, certified bounds, convergence.

Three subcommands:

  steklov-certify mesh --domain square --n 8 --out mesh.json
      write a uniform mesh in the JSON interchange format

  steklov-certify bounds --domain square --n 8 --k 3 [--method both]
      certified enclosures of the first k eigenvalues on one mesh
      (alternatively --mesh FILE for a mesh from disk)

  steklov-certify convergence --domain square --levels 4,8,16,32 --k 3
      the same across a refinement sequence, with observed convergence
      orders of the upper and lower bound errors per consecutive pair

Reports are deterministic: the same inputs produce byte-identical CSV or
JSON.  Reference eigenvalues for the error columns ship with the package
and can be replaced with --refs FILE or dropped with --no-refs.  Exit
codes: 0 success, 2 usage error, 1 computation or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from .assembly import assemble_system
from .hypercircle import EquilibrationSolver
from .linalg import LinearAlgebraError
from .mesh import (
    Mesh,
    MeshError,
    read_mesh,
    uniform_lshape_mesh,
    uniform_square_mesh,
    write_mesh,
)
from .steklov import solve_steklov_cr, solve_steklov_p1

__all__ = [
    "LevelResult",
    "certify_level",
    "convergence_orders",
    "main",
    "render_csv",
    "render_json",
]

_DOMAIN_FLAGS = {"square": "unit_square", "lshape": "l_shape"}
_GENERATORS = {"square": uniform_square_mesh, "lshape": uniform_lshape_mesh}


class UsageError(ValueError):
    """Bad parameters that argparse alone cannot catch."""


@dataclass(frozen=True)
class LevelResult:
    """Everything reported about one (mesh, method) pair."""

    domain: str
    method: str
    n: int | None
    h: float
    dof: int
    constants: bnd.ConstantsRecord
    eigenvalues: list
    lower_bounds: list
    errors: list | None
    total_error: float | None


def _h_token(n):
    return f"sqrt2/{n}" if n is not None else ""


def certify_level(mesh, k, methods, references, n=None, dump_dir=None):
    """Certified bounds for the first k eigenvalues of one mesh.

    methods is a subset of {"conforming", "cr"}; references is a list of
    exact eigenvalues (or None) used only for the error columns.  Returns
    one LevelResult per method, conforming first.
    """
    results = []
    refs = list(references) if references else None

    def error_columns(values):
        if refs is None:
            return None, None
        errors = [
            abs(values[i] - refs[i]) if i < len(refs) else None for i in range(len(values))
        ]
        known = [e for e in errors if e is not None]
        return errors, (sum(known) if known else None)

    if "conforming" in methods:
        system = assemble_system(mesh)
        if dump_dir is not None:
            _dump_matrices(system, dump_dir)
        solver = EquilibrationSolver(system)
        proj = solver.constant()
        trace_const = bnd.trace_constant_bound(mesh)
        cert = bnd.certification_constant(trace_const, proj.value)
        spectrum = solve_steklov_p1(
            mesh, k, operators=(system.stiffness, system.mass, system.vertex_boundary_mass)
        )
        constants = bnd.ConstantsRecord(
            trace_const=trace_const,
            trace_simple=bnd.trace_constant_simplified(mesh),
            proj_const=proj.value,
            cert_const=cert,
        )
        values = [float(v) for v in spectrum.values]
        lowers = [bnd.certified_lower_bound(v, cert) for v in values]
        errors, total = error_columns(values)
        results.append(
            LevelResult(
                domain=mesh.domain,
                method="conforming",
                n=n,
                h=mesh.h,
                dof=mesh.num_vertices,
                constants=constants,
                eigenvalues=values,
                lower_bounds=lowers,
                errors=errors,
                total_error=total,
            )
        )

    if "cr" in methods:
        spectrum = solve_steklov_cr(mesh, k)
        values = [float(v) for v in spectrum.values]
        cr_const, cr_simple = bnd.cr_error_constant(mesh, values[0])
        trace_const = bnd.trace_constant_bound(mesh)
        constants = bnd.ConstantsRecord(
            trace_const=trace_const,
            trace_simple=bnd.trace_constant_simplified(mesh),
            cr_const=cr_const,
            cr_simple=cr_simple,
        )
        lowers = [bnd.certified_lower_bound(v, cr_const) for v in values]
        errors, total = error_columns(values)
        results.append(
            LevelResult(
                domain=mesh.domain,
                method="cr",
                n=n,
                h=mesh.h,
                dof=spectrum.vectors.shape[0],
                constants=constants,
                eigenvalues=values,
                lower_bounds=lowers,
                errors=errors,
                total_error=total,
            )
        )
    return results


def convergence_orders(levels, references):
    """Observed orders between consecutive levels of one method.

    Per eigenvalue index: order of the upper bound error
    |lam_h - lam| and of the lower bound error |lam - lower|, computed
    from consecutive (h, error) pairs.  None where references are missing.
    """
    orders = []
    for prev, cur in zip(levels, levels[1:]):
        entry = {"upper": [], "lower": []}
        for i, _ in enumerate(cur.eigenvalues):
            if references is None or i >= len(references):
                entry["upper"].append(None)
                entry["lower"].append(None)
                continue
            lam = references[i]
            ratio = np.log(prev.h / cur.h)
            e_up = (abs(prev.eigenvalues[i] - lam), abs(cur.eigenvalues[i] - lam))
            e_lo = (abs(lam - prev.lower_bounds[i]), abs(lam - cur.lower_bounds[i]))
            entry["upper"].append(
                float(np.log(e_up[0] / e_up[1]) / ratio) if min(e_up) > 0 else None
            )
            entry["lower"].append(
                float(np.log(e_lo[0] / e_lo[1]) / ratio) if min(e_lo) > 0 else None
            )
        orders.append(entry)
    return orders


def _fmt(x, spec="%.7g"):
    if x is None:
        return ""
    return spec % x


def render_csv(levels_by_method, k, references):
    """Flat CSV: one row per (level, method), orders vs the previous row."""
    headers = ["domain", "method", "n", "h_token", "h", "dof"]
    headers += ["trace_const", "proj_const", "cert_const", "cr_const"]
    headers += [f"lambda_{i + 1}" for i in range(k)]
    headers += [f"lower_{i + 1}" for i in range(k)]
    headers += [f"abs_err_{i + 1}" for i in range(k)]
    headers += ["total_err"]
    headers += [f"order_upper_{i + 1}" for i in range(k)]
    headers += [f"order_lower_{i + 1}" for i in range(k)]
    lines = [",".join(headers)]
    for method, levels in levels_by_method.items():
        orders = convergence_orders(levels, references)
        for idx, level in enumerate(levels):
            c = level.constants
            row = [
                level.domain,
                level.method,
                "" if level.n is None else str(level.n),
                _h_token(level.n),
                _fmt(level.h, "%.12g"),
                str(level.dof),
                _fmt(c.trace_const, "%.7g"),
                _fmt(c.proj_const, "%.7g"),
                _fmt(c.cert_const, "%.7g"),
                _fmt(c.cr_const, "%.7g"),
            ]
            row += [_fmt(v) for v in level.eigenvalues]
            row += [_fmt(v) for v in level.lower_bounds]
            if level.errors is None:
                row += [""] * k + [""]
            else:
                row += [_fmt(e) for e in level.errors] + [_fmt(level.total_error)]
            if idx == 0:
                row += [""] * (2 * k)
            else:
                entry = orders[idx - 1]
                row += [_fmt(v, "%.4f") for v in entry["upper"]]
                row += [_fmt(v, "%.4f") for v in entry["lower"]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _level_doc(level):
    c = level.constants
    return {
        "domain": level.domain,
        "method": level.method,
        "n": level.n,
        "h_token": _h_token(level.n),
        "h": level.h,
        "dof": level.dof,
        "constants": {
            "trace_const": c.trace_const,
            "trace_simple": c.trace_simple,
            "proj_const": c.proj_const,
            "cert_const": c.cert_const,
            "cr_const": c.cr_const,
            "cr_simple": c.cr_simple,
        },
        "eigenvalues": level.eigenvalues,
        "lower_bounds": level.lower_bounds,
        "abs_errors": level.errors,
        "total_error": level.total_error,
    }


def render_json(levels_by_method, k, references):
    """One JSON document: levels, per-method orders, and plot-ready data."""
    doc = {
        "k": k,
        "references": references,
        "levels": [
            _level_doc(level) for levels in levels_by_method.values() for level in levels
        ],
        "orders": {
            method: convergence_orders(levels, references)
            for method, levels in levels_by_method.items()
        },
        "plot_data": {
            method: {
                "dof": [lv.dof for lv in levels],
                "h": [lv.h for lv in levels],
                "total_error": [lv.total_error for lv in levels],
                "abs_errors": [lv.errors for lv in levels],
            }
            for method, levels in levels_by_method.items()
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _dump_matrices(system, directory):
    """Write every assembled matrix as (row, col, value) triplet files."""
    from pathlib import Path
    import scipy.sparse as sp

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    named = {
        "stiffness": system.stiffness,
        "mass": system.mass,
        "vertex_boundary_mass": system.vertex_boundary_mass,
        "boundary_coupling": system.boundary_coupling,
        "boundary_mass": system.boundary_mass,
        "trace_map": system.trace_map,
        "broken_mass": system.broken_mass,
        "broken_coupling": system.broken_coupling,
        "rt_mass": system.rt_mass,
        "div_coupling": system.div_coupling,
        "broken_moments": system.broken_moments[:, None],
    }
    for name, matrix in named.items():
        coo = sp.coo_matrix(matrix)
        with open(directory / f"{name}.txt", "w") as handle:
            handle.write(f"# {coo.shape[0]} {coo.shape[1]}\n")
            order = np.lexsort((coo.col, coo.row))
            for i in order:
                handle.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")


def _resolve_mesh(args):
    if getattr(args, "mesh", None):
        mesh = read_mesh(args.mesh)
        return mesh, None
    if args.domain is None:
        raise UsageError("either --mesh or --domain is required")
    if args.n is None:
        raise UsageError("--n is required with --domain")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    return _GENERATORS[args.domain](args.n), args.n


def _resolve_references(args, domain):
    if getattr(args, "no_refs", False):
        return None
    if getattr(args, "refs", None):
        table = bnd.load_references(args.refs)
        return table.get(domain)
    return bnd.reference_eigenvalues(domain)


def _emit(text, out):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _methods(flag):
    return ("conforming", "cr") if flag == "both" else (
        ("cr",) if flag == "cr" else ("conforming",)
    )


def _cmd_mesh(args):
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    mesh = _GENERATORS[args.domain](args.n)
    write_mesh(mesh, args.out)
    return 0


def _cmd_bounds(args):
    mesh, n = _resolve_mesh(args)
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    references = _resolve_references(args, mesh.domain)
    levels = certify_level(
        mesh, args.k, _methods(args.method), references, n=n, dump_dir=args.dump_matrices
    )
    by_method = {}
    for level in levels:
        by_method.setdefault(level.method, []).append(level)
    renderer = render_json if args.format == "json" else render_csv
    _emit(renderer(by_method, args.k, references), args.out)
    return 0


def _cmd_convergence(args):
    try:
        ns = [int(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--levels must be a comma list of integers: {exc}") from exc
    if len(ns) < 2:
        raise UsageError("--levels needs at least two levels")
    if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("--levels must be increasing positive integers")
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    domain = _DOMAIN_FLAGS[args.domain]
    references = _resolve_references(args, domain)
    by_method = {m: [] for m in _methods(args.method)}
    for n in ns:
        mesh = _GENERATORS[args.domain](n)
        for level in certify_level(mesh, args.k, _methods(args.method), references, n=n):
            by_method[level.method].append(level)
    renderer = render_json if args.format == "json" else render_csv
    _emit(renderer(by_method, args.k, references), args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="steklov-certify",
        description="Certified two-sided bounds for Steklov eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a uniform mesh file")
    p_mesh.add_argument("--domain", choices=("square", "lshape"), required=True)
    p_mesh.add_argument("--n", type=int, required=True, help="subdivisions per unit edge")
    p_mesh.add_argument("--out", required=True, help="output mesh JSON path")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_bounds = sub.add_parser("bounds", help="certified bounds on one mesh")
    p_bounds.add_argument("--mesh", help="mesh JSON file (instead of --domain/--n)")
    p_bounds.add_argument("--domain", choices=("square", "lshape"))
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--k", type=int, default=3, help="number of eigenvalues")
    p_bounds.add_argument("--method", choices=("conforming", "cr", "both"), default="conforming")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--out", help="output file (default stdout)")
    p_bounds.add_argument("--refs", help="JSON file with reference eigenvalues")
    p_bounds.add_argument("--no-refs", action="store_true", help="skip error columns")
    p_bounds.add_argument("--dump-matrices", metavar="DIR", help="write assembled matrices")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_conv = sub.add_parser("convergence", help="bounds across a refinement sequence")
    p_conv.add_argument("--domain", choices=("square", "lshape"), required=True)
    p_conv.add_argument("--levels", required=True, help="comma list, e.g. 4,8,16,32")
    p_conv.add_argument("--k", type=int, default=3)
    p_conv.add_argument("--method", choices=("conforming", "cr", "both"), default="both")
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.add_argument("--out", help="output file (default stdout)")
    p_conv.add_argument("--refs", help="JSON file with reference eigenvalues")
    p_conv.add_argument("--no-refs", action="store_true", help="skip error columns")
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, LinearAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
