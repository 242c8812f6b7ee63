"""Layer spans recorded from outside the program.

The tracer wraps public functions and methods of the ``obslab`` modules (the
layers).  A wrapped function is replaced in every ``obslab`` namespace that
binds it, so a call through ``from .semigroup import evolve`` is traced as
well as one through ``semigroup.evolve``.  Each call records one span: name,
start, end, parent span and job id.  Spans are kept in flat arrays in memory
and written out once, when the run ends; self times are computed from them
afterwards, so a call pays only for two clock reads and five appends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

import stats

ROOT = "cli.main"

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "trigpoly.eval": ("trigpoly", "TrigPoly.__call__"),
    "trigpoly.remez_check": ("trigpoly", "remez_check"),
    "trigpoly.sine_bound": ("trigpoly", "sine_integral_bound"),
    "trigpoly.interval_union": ("trigpoly", "random_interval_union"),
    "trigpoly.intervals_to_mask": ("trigpoly", "intervals_to_mask"),
    "geometry.random_set": ("geometry", "SpaceTimeSet.random"),
    "geometry.good_time_set": ("geometry", "good_time_set"),
    "geometry.density_point": ("geometry", "find_density_point"),
    "geometry.telescoping_sequence": ("geometry", "telescoping_sequence"),
    "geometry.measure_in": ("geometry", "TimeSet.measure_in"),
    "spectral.eigen_table": ("spectral", "SpectralDomain.eigenfunctions"),
    "semigroup.evolve": ("semigroup", "evolve"),
    "observability.profile": ("observability", "observation_profile"),
    "observability.interp": ("observability", "verify_integral_interpolation"),
    "observability.telescope": ("observability", "telescope_chain_demo"),
    "observability.equivalence": ("observability", "interp_equivalence"),
    "control.estimate_L": ("control", "estimate_L"),
    "control.null_control": ("control", "synthesize_null_control"),
    "control.duality_defect": ("control", "duality_defect"),
    "control.time_optimal": ("control", "solve_time_optimal"),
    "control.op_build": ("control", "ControlOperator.__init__"),
    "control.norm_estimate": ("control", "ControlOperator.norm_estimate"),
    "control.apply": ("control", "ControlOperator.apply"),
    "control.adjoint": ("control", "ControlOperator.adjoint"),
    "control.dual_field": ("control", "ControlOperator.dual_field"),
    "config.parse": ("config", "ExperimentConfig.from_file"),
    "report.write": ("report", "RunReport.write"),
}

# Per-layer metrics, per traced job: name -> (unit, better, the end-to-end
# metric and workload it should move).  The last column is the prediction a
# later change cites; "no change elsewhere" means the other workloads bypass
# it.
PER_LAYER = {
    "trigpoly.eval.calls": ("count/job", "lower", "ok_jobs_per_s, cpu_s_per_job on sweep; no change elsewhere"),
    "trigpoly.eval.self_s": ("s/job", "lower", "ok_jobs_per_s, cpu_s_per_job on sweep; no change elsewhere"),
    "trigpoly.remez_check.self_s": ("s/job", "lower", "ok_jobs_per_s on sweep"),
    "trigpoly.sine_bound.self_s": ("s/job", "lower", "ok_jobs_per_s on sweep"),
    "trigpoly.interval_union.self_s": ("s/job", "lower", "ok_jobs_per_s on sweep"),
    "trigpoly.interval_union.accept_ratio": ("ratio", "higher", "ok_jobs_per_s on sweep"),
    "geometry.random_set.self_s": ("s/job", "lower", "ok_jobs_per_s on sweep (about 1%, expect little)"),
    "geometry.good_time_set.self_s": ("s/job", "lower", "sweep; chain telescope jobs"),
    "geometry.density_point.self_s": ("s/job", "lower", "job_p50_s on chain telescope jobs (about 5%)"),
    "geometry.telescoping_sequence.self_s": ("s/job", "lower", "job_p50_s on chain telescope jobs"),
    "geometry.measure_in.calls": ("count/job", "lower", "job_p50_s on chain telescope jobs"),
    "spectral.eigen_table.builds": ("count/job", "lower", "setup_s everywhere; job_p50_s on chain (tables rebuilt per job)"),
    "spectral.eigen_table.self_s": ("s/job", "lower", "setup_s everywhere; job_p50_s on chain"),
    "semigroup.evolve.calls": ("count/job", "lower", "job_p50_s on chain"),
    "semigroup.evolve.self_s": ("s/job", "lower", "job_p50_s on chain"),
    "observability.profile.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on chain; no change elsewhere"),
    "observability.profile.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on chain; no change elsewhere"),
    "observability.interp.self_s": ("s/job", "lower", "job_p50_s on chain"),
    "observability.telescope.self_s": ("s/job", "lower", "job_p50_s on chain"),
    "observability.equivalence.self_s": ("s/job", "lower", "job_p50_s on chain"),
    "control.estimate_L.calls": ("count/job", "lower", "ok_jobs_per_s on dual; no change on timeopt"),
    "control.estimate_L.self_s": ("s/job", "lower", "ok_jobs_per_s on dual; no change on timeopt"),
    "control.null_control.self_s": ("s/job", "lower", "ok_jobs_per_s on dual"),
    "control.duality_defect.self_s": ("s/job", "lower", "ok_jobs_per_s on dual"),
    "control.op_build.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt; small share on dual"),
    "control.op_build.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt; small share on dual"),
    "control.norm_estimate.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt"),
    "control.norm_estimate.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt"),
    "control.apply.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt; small share on dual"),
    "control.apply.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt; small share on dual"),
    "control.adjoint.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt"),
    "control.adjoint.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt"),
    "control.dual_field.calls": ("count/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt and dual"),
    "control.dual_field.self_s": ("s/job", "lower", "ok_jobs_per_s, job_p50_s on timeopt and dual"),
    "control.time_optimal.trials": ("count/job", "lower", "job_p50_s on timeopt"),
    "control.time_optimal.feasible_ratio": ("ratio", "higher", "job_p50_s on timeopt"),
    "config.parse.self_s": ("s/job", "lower", "setup_s everywhere"),
    "report.write.self_s": ("s/job", "lower", "setup_s; job_p50_s on dual (control_field.csv has a row per region cell)"),
    "report.bytes": ("bytes/job", "lower", "job_p50_s on dual"),
    "trace.overhead_s": ("s/job", "lower", "none: traced minus untraced wall of the same jobs"),
    "trace.uncovered_share": ("ratio", "lower", "none: share of job wall time outside every layer span"),
}

# The layer expected to carry the largest self time on each workload.
# adjoint's work is its call to dual_field, so the two count together.
DOMINANT = {
    "sweep": ("trigpoly.eval",),
    "dual": ("control.estimate_L",),
    "timeopt": ("control.apply", "control.adjoint", "control.dual_field"),
    "chain": ("observability.profile",),
}


def _resolve(module: str, path: str):
    """The owner object, attribute name and raw attribute behind a span."""
    owner = sys.modules[f"obslab.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.names = [ROOT, *SPANS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.current_job = -1
        self.trials = 0
        self.feasible_trials = 0
        self._restore = []

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        clock = time.perf_counter
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        on_time_optimal = name == "control.time_optimal"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_time_optimal:
                self.trials += len(result.trace)
                self.feasible_trials += sum(ok for _, ok in result.trace)
            return result

        return traced

    def call(self, job: int, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.current_job = job
        return self._wrap(ROOT, fn)(*args)

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            owner, attr, raw = _resolve(module, path)
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, functools.cached_property):
                    new = functools.cached_property(self._wrap(name, raw.func))
                    new.__set_name__(owner, attr)
                else:
                    new = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = self._wrap(name, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "obslab" and not mod_name.startswith("obslab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._restore.append((mod, key, raw))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------

    def totals(self):
        """Calls and self seconds per span name."""
        n = len(self.names)
        selfs = stats.self_times(self.start, self.end, self.parent)
        calls = np.bincount(np.asarray(self.name_id, dtype=np.int64), minlength=n)
        self_s = stats.per_name(self.name_id, selfs, n)
        dur = stats.per_name(self.name_id,
                             np.asarray(self.end) - np.asarray(self.start), n)
        return ({k: int(calls[i]) for i, k in enumerate(self.names)},
                {k: float(self_s[i]) for i, k in enumerate(self.names)},
                {k: float(dur[i]) for i, k in enumerate(self.names)})

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), job=np.asarray(self.job))


def layer_metrics(tracer: Tracer, jobs: int, report_bytes: int,
                  overhead_s: float) -> dict:
    """Every PER_LAYER metric from a finished traced run of `jobs` jobs:
    counts, seconds and bytes per job, and ratios."""
    calls, self_s, dur = tracer.totals()
    out = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[span] / jobs
        elif kind in ("calls", "builds"):
            out[metric] = calls[span] / jobs
    attempts = calls["trigpoly.intervals_to_mask"]
    out["trigpoly.interval_union.accept_ratio"] = (
        calls["trigpoly.interval_union"] / attempts if attempts else 0.0)
    out["control.time_optimal.trials"] = tracer.trials / jobs
    out["control.time_optimal.feasible_ratio"] = (
        tracer.feasible_trials / tracer.trials if tracer.trials else 0.0)
    out["report.bytes"] = report_bytes / jobs
    out["trace.overhead_s"] = overhead_s / jobs
    out["trace.uncovered_share"] = self_s[ROOT] / dur[ROOT]
    return out


def dominant_check(workload: str, tracer: Tracer) -> str:
    """One line: does the predicted layer carry the largest self time?"""
    predicted = DOMINANT.get(workload)
    if predicted is None:
        return "dominant layer: no prediction for this workload"
    _, self_s, _ = tracer.totals()
    group = sum(self_s[n] for n in predicted)
    others = {n: s for n, s in self_s.items() if n != ROOT and n not in predicted}
    rival = max(others, key=others.get)
    verdict = "match" if group >= others[rival] else "MISMATCH"
    return (f"dominant layer: predicted {'+'.join(predicted)} self {group:.4f} s "
            f"in all; largest other {rival} self {others[rival]:.4f} s: {verdict}")
