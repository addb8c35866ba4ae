"""Stage times, memory peaks and sizes of certified levels, one fresh
process per level and source tree.

    python3 bench/grid.py --tree before=OTHER/src --tree after=src --out BENCH_x.json

Run from the root of a source checkout.  Each --tree NAME=DIR names a
directory that holds the steklov_certify package; every level runs on
each tree in turn, so the trees alternate.  The grid is the unit square
at n = 8, 16, 32, 64, 128, 256 and the L-shape at n = 4, 8, 16, 32.  A
level is cli.certify_level with both methods and k = 3, what `bounds
--method both` runs, reached only through entry points that every tree
since the first benchmark has: the mesh generators, certify_level and
assemble_system.

Per level and tree, child processes run with every BLAS and OpenMP pool
on one thread, each after a warm-up level at n = 2:
- three timed runs (REPEAT).  perfbench's per-layer tracer
  (steklov_bench.layers, imported, not copied) wraps the package; a run
  records the wall time of the level, the self time of each traced
  stage and the process's peak RSS (ru_maxrss) at the end;
- one memory run under tracemalloc.  It records the traced peak of the
  level (SuperLU's own storage is not traced), then the sizes read off
  the returned objects: the dofs of each space and the nonzeros of
  every sparse matrix that a fresh assemble_system result holds.

The JSON written to --out holds every run; stdout gets one line per
level with the median wall time and peak RSS of each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
GRID = "square:8,16,32,64,128,256 lshape:4,8,16,32"
REPEAT = 3
K = 3
METHODS = ("conforming", "cr")


def _load(src):
    """The package from src and the benchmark's tracer, threads pinned."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    from steklov_bench import THREAD_VARS

    for name in THREAD_VARS:
        os.environ[name] = "1"
    import steklov_certify

    if Path(steklov_certify.__file__).resolve().parent != (Path(src) / "steklov_certify").resolve():
        raise SystemExit(f"imported steklov_certify from {steklov_certify.__file__}")
    from steklov_certify import cli
    from steklov_certify import mesh as meshes

    return cli, meshes


def _certify(cli, meshes, domain, n):
    """One level; the generator is looked up now, so a tracer sees it."""
    mesh = getattr(meshes, f"uniform_{domain}_mesh")(n)
    return mesh, cli.certify_level(mesh, K, METHODS, None, n=n)


def child_timed(src, domain, n):
    cli, meshes = _load(src)
    from steklov_bench import layers, spans

    _certify(cli, meshes, domain, 2)
    tracer = spans.Tracer()
    _, missing = layers.install(tracer)
    tracer.new_trace("op")
    start = time.perf_counter()
    _, results = _certify(cli, meshes, domain, n)
    wall = time.perf_counter() - start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stages = {}
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        stages[span.name] = stages.get(span.name, 0.0) + own
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
        "stage_self_s": dict(sorted(stages.items())),
        "dof": {r.method: r.dof for r in results},
        "unbound_layers": missing,
    }


def child_memory(src, domain, n):
    import tracemalloc

    cli, meshes = _load(src)
    import scipy.sparse as sp
    from steklov_certify import assemble_system

    _certify(cli, meshes, domain, 2)
    tracemalloc.start()
    mesh, _ = _certify(cli, meshes, domain, n)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    system = assemble_system(mesh)
    dofs = system.dofs
    held = {name: value.nnz for name, value in vars(system).items() if sp.issparse(value)}
    return {
        "tracemalloc_peak_mb": peak / 1e6,
        "triangles": mesh.num_triangles,
        "dofs": {
            "p1": dofs.dim_p1,
            "broken": dofs.dim_broken,
            "rt": dofs.dim_rt_interior + dofs.dim_trace,
            "trace": dofs.dim_trace,
            "cr": len(dofs.rt_edge_dofs),
        },
        "system_nnz": dict(sorted(held.items())),
        "system_nnz_total": sum(held.values()),
    }


CHILDREN = {"timed": child_timed, "memory": child_memory}


def run_child(kind, src, domain, n):
    argv = [sys.executable, __file__, "--child", kind, "--src", src, "--level", f"{domain}:{n}"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} run of {domain} n={n} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def parse_grid(text):
    return [(domain, int(n)) for part in text.split() for domain, ns in [part.split(":")]
            for n in ns.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=DIR")
    parser.add_argument("--out")
    parser.add_argument("--child", choices=sorted(CHILDREN), help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--level", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        ((domain, n),) = parse_grid(args.level)
        print(json.dumps(CHILDREN[args.child](args.src, domain, n)))
        return 0
    trees = dict(tree.split("=", 1) for tree in args.tree)
    if not trees or not args.out:
        parser.error("give at least one --tree NAME=DIR and --out")
    levels = []
    for domain, n in parse_grid(GRID):
        runs = {name: {"timed": []} for name in trees}
        for _ in range(REPEAT):
            for name, src in trees.items():
                runs[name]["timed"].append(run_child("timed", src, domain, n))
        for name, src in trees.items():
            runs[name]["memory"] = run_child("memory", src, domain, n)
            timed = runs[name]["timed"]
            runs[name]["median_wall_s"] = statistics.median(r["wall_s"] for r in timed)
            runs[name]["median_peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
        levels.append({"domain": domain, "n": n, "runs": runs})
        print(f"{domain} n={n}: " + "  ".join(
            f"{name} {r['median_wall_s']:.3f} s {r['median_peak_rss_mb']:.1f} MB"
            for name, r in runs.items()), flush=True)
    import numpy
    import scipy

    doc = {
        "script": "bench/grid.py",
        "level": f"cli.certify_level, methods {list(METHODS)}, k = {K}, references off",
        "trees": list(trees),
        "repeat": REPEAT,
        "host": {
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "levels": levels,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
