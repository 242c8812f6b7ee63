"""Closed-loop job streams over ``obslab.cli.main``, with one client.

One process runs one job at a time, in process, and starts the next job
only when the previous one has returned.  Set-up is paid once, untimed, in
this process before the stream starts, and measured in fresh interpreters
(``setup_probe.py``) between rounds of the stream.  The untraced stream
gives the end-to-end metrics; the traced run (``--trace 1``) gives the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from obslab import cli

import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".bench_out")
SETUP_PROBES = 12           # set-up probes per run, spread over the run

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ok_jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "cpu_s_per_job": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class JobRecord:
    slot: int
    round: int
    subcommand: str
    outcome: str
    exit_code: int | None
    error: str | None         # exception escaping cli.main
    wall_s: float
    cpu_s: float
    out_bytes: int


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_job(workload, job, config_path: str, out_root: str,
            tracer: tracing.Tracer | None = None, job_id: int = -1):
    """Run one job once: (outcome, exit code, escaped error, wall, CPU, bytes).

    Wall and CPU time cover only the ``cli.main`` call; the verdict check
    runs after the clock stops.
    """
    argv = job.argv(config_path, out_root)
    code, error = None, None
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        code = tracer.call(job_id, cli.main, argv) if tracer else cli.main(argv)
    except Exception as exc:  # an escaping exception is a failed job
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    verdict_ok = code == 0 and workloads.check(workload, job, out_root)
    return (stats.outcome(code, error is not None, verdict_ok), code, error,
            wall, cpu, _tree_bytes(out_root))


def rounds(seconds: float):
    """Round numbers, until about `seconds` have passed.

    The run stops between rounds, at the boundary nearest to `seconds` as
    judged by the last round's length; at least one round runs.
    """
    begin = time.perf_counter()
    for round_ in itertools.count():
        round_begin = time.perf_counter()
        yield round_
        now = time.perf_counter()
        if now - begin + (now - round_begin) / 2 >= seconds:
            return


def setup_probe(name: str, seed: int, probe_dir: str) -> float:
    """Wall seconds of a fresh interpreter doing the set-up work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                    name, str(seed), probe_dir], check=True)
    return time.perf_counter() - t0


def timed_stream(workload, seed: int, configs: list, work_dir: str,
                 seconds: float):
    """Rounds of jobs for about `seconds`: (job records, set-up walls).

    Every round runs every slot once.  Between rounds, set-up probes run,
    one for each `seconds` / SETUP_PROBES that has passed, so that the
    probes meet the same machine speed as the jobs.
    """
    records, setup_walls = [], []
    next_probe = time.perf_counter()
    for round_ in rounds(seconds):
        now = time.perf_counter()
        while next_probe <= now:
            setup_walls.append(setup_probe(workload.name, seed, os.path.join(
                work_dir, f"probe-{len(setup_walls)}")))
            next_probe += seconds / SETUP_PROBES
        for slot, job in workloads.round_jobs(workload, seed, round_):
            out_root = os.path.join(work_dir, "out", f"round{round_}-slot{slot:02d}")
            records.append(JobRecord(slot, round_, job.subcommand,
                                     *run_job(workload, job, configs[slot], out_root)))
    return records, setup_walls


def traced_comparison(workload, seed: int, configs: list, out_dir: str,
                      seconds: float, tracer: tracing.Tracer):
    """Rounds of jobs for about `seconds`, each job run untraced and traced,
    in alternating order, so that drift and warm-up fall on both sides of
    the overhead."""
    plain, traced = [], []
    for round_ in rounds(seconds):
        for slot, job in workloads.round_jobs(workload, seed, round_):
            n = len(traced)
            for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
                out_root = os.path.join(out_dir, f"{'traced' if with_trace else 'plain'}"
                                        f"-round{round_}-slot{slot:02d}")
                if with_trace:
                    with tracer:
                        fields = run_job(workload, job, configs[slot], out_root,
                                         tracer, n)
                else:
                    fields = run_job(workload, job, configs[slot], out_root)
                (traced if with_trace else plain).append(
                    JobRecord(slot, round_, job.subcommand, *fields))
    return plain, traced


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": nproc,
            "blas_threads_exceed_nproc": threads is not None and threads > nproc}


def end_to_end(setup_walls: list, records: list) -> dict:
    """name -> (value, sample count) for every end-to-end metric.

    A slot's wall and CPU time are the least over its rounds, and it passes
    only if every round passed.
    """
    jobs = stats.best_of((r.slot, r.outcome, r.wall_s, r.cpu_s) for r in records)
    outcomes = [o for o, _, _ in jobs]
    walls = [w for _, w, _ in jobs]
    n = len(jobs)
    samples = f"{n} slots, {len(records)} jobs"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_walls), f"{len(setup_walls)} probes"),
        "ok_jobs_per_s": (stats.goodput(outcomes, walls), samples),
        "job_p50_s": (stats.median_with_failures(walls, outcomes), samples),
        "cpu_s_per_job": (math.fsum(c for _, _, c in jobs) / n, samples),
        "peak_rss_mb": (rss_mb, "1 process"),
    }


def _summary(records: list) -> dict:
    outcomes = [r.outcome for r in records]
    return {"correct": all(o != "wrong" for o in outcomes),
            "attempted": len(records),
            "failed": sum(o != "ok" for o in outcomes),
            "fail_frac": stats.fail_frac(outcomes)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up, then the timed stream or the traced comparison."""
    workload = workloads.WORKLOADS[name]
    work_dir = os.path.join(OUT, "runs", f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        configs = workloads.prepare(workload, seed,
                                    os.path.join(work_dir, "configs"))
        result = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "env": environment()}
        if not trace:
            records, setup_walls = timed_stream(workload, seed, configs,
                                                work_dir, seconds)
            result["end_to_end"] = end_to_end(setup_walls, records)
            result["setup_walls"] = setup_walls
        else:
            # the same jobs untraced and traced, so that their difference
            # is the tracing overhead
            tracer = tracing.Tracer()
            plain, traced = traced_comparison(workload, seed, configs,
                                              os.path.join(work_dir, "out"),
                                              seconds, tracer)
            untraced_wall = math.fsum(r.wall_s for r in plain)
            overhead = math.fsum(r.wall_s for r in traced) - untraced_wall
            result["per_layer"] = tracing.layer_metrics(
                tracer, len(traced), sum(r.out_bytes for r in traced), overhead)
            result["untraced_wall_s"] = untraced_wall
            result["dominant"] = tracing.dominant_check(name, tracer)
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            tracer.save(os.path.join(OUT, "traces", f"{name}-seed{seed}.npz"))
            records = plain + traced
        result.update(_summary(records))
        result["jobs"] = [r.__dict__ for r in records]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def _number(value: float):
    return value if math.isfinite(value) else None


def print_result(result: dict) -> dict:
    """Print one workload's table; return its metrics as the JSON line has them."""
    env = result["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["blas_threads_exceed_nproc"]:
        print("WARNING: BLAS thread count exceeds nproc")
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} jobs attempted, {result['failed']} failed, "
          f"fail_frac {result['fail_frac']:.4f}, correct {result['correct']}")
    for rec in result["jobs"]:
        if rec["outcome"] != "ok":
            print(f"  failed job: round {rec['round']} slot {rec['slot']} "
                  f"({rec['subcommand']}): "
                  f"outcome {rec['outcome']}, exit {rec['exit_code']}"
                  + (f", {rec['error']}" if rec["error"] else ""))
    metrics = {}
    if "end_to_end" in result:
        for metric, (value, n) in result["end_to_end"].items():
            unit = END_TO_END[metric][0]
            print(f"  {metric:<16} {value:>14.6g} {unit:<4} n={n}")
            metrics[metric] = {"value": _number(value), "unit": unit}
        print(f"  {'fail_frac':<16} {result['fail_frac']:>14.6g} {'-':<4} "
              f"n={result['attempted']}")
    else:
        print(f"  traced {result['attempted'] // 2} jobs; untraced wall "
              f"{result['untraced_wall_s']:.4f} s; per traced job:")
        print(f"  {result['dominant']}")
        for metric, value in result["per_layer"].items():
            unit, _, moves = tracing.PER_LAYER[metric]
            print(f"  {metric:<38} {value:>14.6g} {unit:<5} moves: {moves}")
            metrics[metric] = {"value": _number(value), "unit": unit}
    return metrics
