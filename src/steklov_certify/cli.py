"""Command line interface: mesh generation, certified bounds, convergence.

Three subcommands:

  steklov-certify mesh --domain square --n 8 --out mesh.json
      write a uniform mesh in the JSON interchange format

  steklov-certify bounds --domain square --n 8 --k 3 [--method both]
      certified enclosures of the first k eigenvalues on one mesh
      (alternatively --mesh FILE for a mesh from disk, which excludes
      --domain and --n; --dump-matrices DIR needs the conforming method)

  steklov-certify convergence --domain square --levels 4,8,16,32 --k 3
      the same across a refinement sequence, with observed convergence
      orders of the upper and lower bound errors per consecutive pair

Reports are deterministic: the same inputs produce byte-identical CSV or
JSON.  Reference eigenvalues for the error columns ship with the package
and can be replaced with --refs FILE, which must have an entry for the
run's domain, or dropped with --no-refs.  Exit codes: 0 success, 2 usage
error, 1 computation or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import bounds as bnd
from .assembly import AssembledSystem, assemble_system
from .hypercircle import EquilibrationSolver
from .linalg import LinearAlgebraError
from .mesh import MeshError, read_mesh, uniform_lshape_mesh, uniform_square_mesh, write_mesh
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
_METHODS = {"conforming": ("conforming",), "cr": ("cr",), "both": ("conforming", "cr")}


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
    refs = list(references) if references else None
    trace_const = bnd.trace_constant_bound(mesh)
    trace_simple = bnd.trace_constant_simplified(mesh)

    def level(method, spectrum, bound, **constants):
        values = [float(v) for v in spectrum.values]
        errors = total = None
        if refs is not None:
            errors = [
                abs(values[i] - refs[i]) if i < len(refs) else None for i in range(len(values))
            ]
            known = [e for e in errors if e is not None]
            total = sum(known) if known else None
        return LevelResult(
            domain=mesh.domain,
            method=method,
            n=n,
            h=mesh.h,
            dof=spectrum.vectors.shape[0],
            constants=bnd.ConstantsRecord(trace_const, trace_simple, **constants),
            eigenvalues=values,
            lower_bounds=[bnd.certified_lower_bound(v, bound) for v in values],
            errors=errors,
            total_error=total,
        )

    results = []
    if "conforming" in methods:
        system = assemble_system(mesh)
        if dump_dir is not None:
            _dump_matrices(system, dump_dir)
        proj = EquilibrationSolver(system).constant()
        cert = bnd.certification_constant(trace_const, proj.value)
        spectrum = solve_steklov_p1(mesh, k)
        results.append(level("conforming", spectrum, cert, proj_const=proj.value, cert_const=cert))
    if "cr" in methods:
        spectrum = solve_steklov_cr(mesh, k)
        cr_const, cr_simple = bnd.cr_error_constant(mesh, float(spectrum.values[0]))
        results.append(level("cr", spectrum, cr_const, cr_const=cr_const, cr_simple=cr_simple))
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
    return {
        "domain": level.domain,
        "method": level.method,
        "n": level.n,
        "h_token": _h_token(level.n),
        "h": level.h,
        "dof": level.dof,
        "constants": asdict(level.constants),
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
    """Write every sparse matrix of the system, and broken_moments as a
    column, as (row, col, value) triplet files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for field in fields(AssembledSystem):
        matrix = getattr(system, field.name)
        if field.name == "broken_moments":
            matrix = matrix[:, None]
        elif not sp.issparse(matrix):
            continue
        coo = sp.coo_matrix(matrix)
        with open(directory / f"{field.name}.txt", "w") as handle:
            handle.write(f"# {coo.shape[0]} {coo.shape[1]}\n")
            order = np.lexsort((coo.col, coo.row))
            for i in order:
                handle.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")


def _positive(flag, value):
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _resolve_mesh(args):
    if getattr(args, "mesh", None):
        if args.domain is not None or args.n is not None:
            raise UsageError("--mesh excludes --domain and --n")
        return read_mesh(args.mesh), None
    if args.domain is None:
        raise UsageError("either --mesh or --domain is required")
    if args.n is None:
        raise UsageError("--n is required with --domain")
    n = _positive("--n", args.n)
    return _GENERATORS[args.domain](n), n


def _report(args, domain, meshes):
    """Certify each (mesh, n) of meshes in turn, then render the rows
    grouped by method to --out or stdout."""
    k = _positive("--k", args.k)
    if args.no_refs:
        references = None
    elif args.refs:
        table = bnd.load_references(args.refs)
        if domain not in table:
            raise ValueError(f"{args.refs}: no entry for {domain!r}")
        references = table[domain]
    else:
        references = bnd.reference_eigenvalues(domain)
    methods = _METHODS[args.method]
    dump_dir = getattr(args, "dump_matrices", None)
    by_method = {method: [] for method in methods}
    for mesh, n in meshes:
        for level in certify_level(mesh, k, methods, references, n=n, dump_dir=dump_dir):
            by_method[level.method].append(level)
    renderer = render_json if args.format == "json" else render_csv
    text = renderer(by_method, k, references)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mesh(args):
    mesh, _ = _resolve_mesh(args)
    write_mesh(mesh, args.out)
    return 0


def _cmd_bounds(args):
    if args.dump_matrices is not None and "conforming" not in _METHODS[args.method]:
        raise UsageError("--dump-matrices needs --method conforming or both")
    mesh, n = _resolve_mesh(args)
    return _report(args, mesh.domain, [(mesh, n)])


def _cmd_convergence(args):
    try:
        ns = [int(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--levels must be a comma list of integers: {exc}") from exc
    if len(ns) < 2:
        raise UsageError("--levels needs at least two levels")
    if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("--levels must be increasing positive integers")
    meshes = ((_GENERATORS[args.domain](n), n) for n in ns)
    return _report(args, _DOMAIN_FLAGS[args.domain], meshes)


def _add_report_options(parser, method):
    parser.add_argument("--k", type=int, default=3, help="number of eigenvalues")
    parser.add_argument("--method", choices=tuple(_METHODS), default=method)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--refs", help="JSON file with reference eigenvalues")
    parser.add_argument("--no-refs", action="store_true", help="skip error columns")


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
    _add_report_options(p_bounds, "conforming")
    p_bounds.add_argument("--dump-matrices", metavar="DIR", help="write assembled matrices")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_conv = sub.add_parser("convergence", help="bounds across a refinement sequence")
    p_conv.add_argument("--domain", choices=("square", "lshape"), required=True)
    p_conv.add_argument("--levels", required=True, help="comma list, e.g. 4,8,16,32")
    _add_report_options(p_conv, "both")
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
