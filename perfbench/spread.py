"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload dual --seeds 1-10 --seconds 30

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints each
end-to-end metric's median and its quartile spread, (Q3 - Q1) / median, next
to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = stats.quartile_spread(vals)
        print(f"{args.workload} {name:<14} median {statistics.median(vals):.6g} "
              f"spread {spread:.4f} bound {bounds[name]} "
              f"({spread / bounds[name]:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
