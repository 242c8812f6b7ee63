"""Verdict-throughput benchmark for obslab.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads: sweep, dual, timeopt and chain are timed (see BENCHMARK.json for
why each exists); ``dual-default`` runs null control at the CLI's default
config and measures the share of its jobs that fail.  ``all`` runs the four
timed workloads one after another, each in its own child process, so that
each one's ``peak_rss_mb`` is its own; metric names then carry the
workload's name as a prefix.

With ``--trace 0`` the job stream runs for S seconds and the end-to-end
metrics are printed.  With ``--trace 1`` rounds of jobs run for about S
seconds, each job untraced and traced, in alternating order, and the
per-layer metrics are printed, with the tracing overhead.  Every job's
verdict is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when every
job's output was correct, 1 when one was not, 2 when the benchmark cannot
run (for example, when ``src/obslab`` is missing).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_each(names, seed: int, seconds: float, trace: int):
    """Run each workload in a child process, passing its table through.

    Returns (correct, attempted, failed, metrics) with metric names prefixed
    by the workload's name, or None when a child printed no result.
    """
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        # exit 1 is also an uncaught exception, which prints no result line
        if proc.returncode not in (0, 1) or not lines[-1].startswith('{"correct"'):
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread: a single-threaded baseline, and a job that waits on
    # one CPU only is less exposed to a neighbour's load.  BLAS reads this
    # once, when numpy loads it; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "obslab", "cli.py")):
        print(f"perfbench: no obslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import workloads

    if args.workload == "all":
        outcome = run_each(workloads.TIMED, args.seed, args.seconds, args.trace)
        if outcome is None:
            return 2
        correct, attempted, failed, metrics = outcome
    elif args.workload in workloads.WORKLOADS:
        result = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        metrics = bench.print_result(result)
        correct, attempted, failed = (result["correct"], result["attempted"],
                                      result["failed"])
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
