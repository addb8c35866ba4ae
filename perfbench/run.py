"""steklov-certify benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload square_flux_audit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  BLAS and OpenMP pools are pinned to one thread before numpy is
loaded.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones of a traced
run.  The line before it is {"record": {...}}: host, versions, commit,
host-speed probe, every unit time, fail_frac and, for the audit, the op
percentiles.  See perfbench/README.md for the definitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from steklov_bench import THREAD_VARS, spans, stats  # noqa: E402  (stdlib only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_BEFORE = 2
SETUP_AFTER = 2
# A fresh interpreter that imports the package and runs the warm-up
# certify; argv carries the source and benchmark directories.
COLD_START = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from steklov_bench import workloads; workloads.warm_up()"
)
WALL_QUANTILE = 0.9
MIN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_sample(workload, seed):
    """One set-up from process start: (seconds, prepared state).

    Imports and the warm-up certify run in a fresh process, timed from
    its spawn to its exit; the workload's own set-up then runs here.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(SRC), str(HERE)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    state = workload.prepare(seed)
    return cold + time.perf_counter() - start, state


def timed_run(workload, args, tally):
    """Set up, time the workload, set up again; end-to-end metrics.

    setup_s is the median of SETUP_BEFORE set-ups before the timed part
    and SETUP_AFTER after it.  The host runs slower or faster in
    stretches of seconds to half a minute, and one stretch would hold
    every set-up if they ran back to back.  Only one prepared state is
    alive at a time, so peak_rss_mb holds the program's own peak.

    wall_s is the nearest-rank 90th percentile of the run's unit times:
    the slowest table of a ladder run, and about the fourth slowest of
    the audit's batches.  On a shared 2-vCPU VM the host ran in a loaded
    state most of the time, with boosted stretches of seconds in which
    the same work took about 0.7 times as long; the share of boosted time
    varied from run to run.  The fastest unit and the median depend on
    that share; the upper units measure the loaded state, which held
    steady.  The median and every unit time stay in the record.
    """
    samples, state = [], None
    for _ in range(SETUP_BEFORE):
        state = None
        seconds, state = setup_sample(workload, args.seed)
        samples.append(seconds)
    timings = workload.timed(state, args.seed, args.seconds, tally)
    for _ in range(SETUP_AFTER):
        state = None
        seconds, state = setup_sample(workload, args.seed)
        samples.append(seconds)
    metrics = {
        "wall_s": (stats.nearest_rank(timings["unit_s"], WALL_QUANTILE), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "setup_samples_s": samples,
        "unit_s": timings["unit_s"],
        "unit_median_s": statistics.median(timings["unit_s"]),
    }
    if "op_ms" in timings:
        ops = timings["op_ms"]
        record["op_count"] = len(ops)
        record["op_p50_ms"] = stats.percentile(ops, 0.50)
        record["op_p95_ms"] = stats.percentile(ops, 0.95)
    return metrics, record, []


def traced_run(workload, args, tally):
    """The region untraced, traced, untraced; per-layer metrics and spans.

    Untraced runs on both sides of the traced one keep the first-call
    cost and host drift out of the tracing overhead.
    """
    from steklov_bench import layers

    before = workload.region(args.seed, tally)
    tracer = spans.Tracer()
    restore, missing = layers.install(tracer)
    try:
        traced = workload.region(args.seed, tally, tracer)
    finally:
        restore()
    after = workload.region(args.seed, tally)
    untraced = 0.5 * (before + after)
    metrics = layers.layer_metrics(tracer, traced - untraced)
    coverage = spans.top_level_coverage(tracer.spans, traced)
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(span_file)
    record = {
        "untraced_wall_s": [before, after],
        "traced_wall_s": traced,
        "top_level_coverage": coverage,
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "unbound": missing,
    }
    problems = []
    if not coverage >= MIN_COVERAGE:
        problems.append(f"top-level spans cover {coverage:.3f} of traced wall, need {MIN_COVERAGE}")
    return metrics, record, problems


def main(argv=None):
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "steklov_certify" / "__init__.py").is_file():
        print(f"error: no steklov_certify source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import steklov_certify
    from steklov_bench import host, workloads

    if Path(steklov_certify.__file__).resolve().parent != (SRC / "steklov_certify").resolve():
        print(f"error: imported steklov_certify from {steklov_certify.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workloads.warm_up()
    import_s = time.perf_counter() - T0

    probe_start = host.probe()
    tally = workloads.Tally()
    if args.trace:
        metrics, record, problems = traced_run(workload, args, tally)
    else:
        metrics, record, problems = timed_run(workload, args, tally)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "fail_frac": tally.failed / tally.attempted,
        "problems": tally.problems + problems,
        "host": host.environment(ROOT),
        "probe_start": probe_start,
        "probe_end": host.probe(),
        **record,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
