"""Run the benchmark several times per workload and report the spread.

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--trace 1]

Runs perfbench/run.py once per (seed, workload) for every workload of
BENCHMARK.json, for its run_seconds, one run after another and
round-robin over the workloads, each in its own process.  It prints for
every workload and metric the median, the quartiles and their distance
as a share of the median; plus fail_frac over all runs, the audit's op
percentiles and the drift of the host-speed probe.  With --runs 1 it is
the one-command summary of every metric of every workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from steklov_bench.stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def describe(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    s = spread(values)
    return f"median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}"


def summarize(runs, workloads):
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        correct = all(r["result"]["correct"] for r in mine)
        print(f"{workload}: {len(mine)} runs, correct {correct}, "
              f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
        for name, metric in mine[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            print(f"  {name:32s} [{metric['unit']}] {describe(values)}")
        for key in ("op_p50_ms", "op_p95_ms"):
            if key in mine[0]["record"]:
                print(f"  {key:32s} [ms] {describe([r['record'][key] for r in mine])}")
        for key in ("python_loop_s", "matmul_s"):
            start = [r["record"]["probe_start"][key] for r in mine]
            end = [r["record"]["probe_end"][key] for r in mine]
            print(f"  probe {key:26s} [s] start {describe(start)}")
            print(f"  probe {key:26s} [s] end   {describe(end)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            record, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"workload": workload, "seed": seed, "record": record, "result": result})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"# {workload} seed {seed} correct {result['correct']} {values}", flush=True)
    summarize(runs, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
