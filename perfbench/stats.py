"""Arithmetic of the benchmark's metrics, kept apart so it can be tested alone.

A job ends in one of these outcomes:

- ``ok``: exit 0, report status ``ok`` and every verdict check passed;
- ``exit3``: a documented numerical or convergence failure (exit code 3);
- ``wrong``: anything else, i.e. exit 0 with a failed verdict check, a
  property violation (exit 4), a config or usage error (exit 2), any other
  exit code, or an exception escaping ``obslab.cli.main``.

Every outcome but ``ok`` counts as a failed job.  Only ``wrong`` makes a run
incorrect: exit 3 is a documented non-answer, the others claim something false.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

OUTCOMES = ("ok", "exit3", "wrong")


def outcome(exit_code: int | None, raised: bool, verdict_ok: bool) -> str:
    """Classify one job from its exit code and the harness's verdict check."""
    if raised or exit_code is None:
        return "wrong"
    if exit_code == 3:
        return "exit3"
    if exit_code == 0 and verdict_ok:
        return "ok"
    return "wrong"


def best_of(runs):
    """Per job, from (index, outcome, wall, cpu) tuples of its repeated runs:
    its worst outcome and its least wall and CPU seconds, ordered by index."""
    rank = {o: i for i, o in enumerate(OUTCOMES)}
    best = {}
    for index, out, wall, cpu in runs:
        if index in best:
            o, w, c = best[index]
            out = max(out, o, key=rank.__getitem__)
            wall, cpu = min(wall, w), min(cpu, c)
        best[index] = (out, wall, cpu)
    return [best[i] for i in sorted(best)]


def fail_frac(outcomes) -> float:
    """Failed jobs divided by attempted jobs."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no job was attempted")
    return sum(o != "ok" for o in outcomes) / len(outcomes)


def median_with_failures(walls, outcomes) -> float:
    """Median job wall time, a failed job counting as infinitely slow."""
    return statistics.median([w if o == "ok" else math.inf
                              for w, o in zip(walls, outcomes)])


def goodput(outcomes, walls) -> float:
    """Jobs that passed every check per second of job wall time."""
    total = math.fsum(walls)
    if total <= 0:
        raise ValueError("the job stream took no time")
    return sum(o == "ok" for o in outcomes) / total


def self_times(starts, ends, parents):
    """Per-span self time: its duration minus the durations of its children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Spans
    come from one thread, so children nest inside their parent and never
    overlap each other; the sum of child durations is the covered time.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def per_name(names, values, n_names: int) -> np.ndarray:
    """Sum of values grouped by integer name id."""
    return np.bincount(np.asarray(names, dtype=np.int64),
                       weights=np.asarray(values, dtype=float),
                       minlength=n_names)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
