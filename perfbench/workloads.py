"""The benchmark's workloads: job streams of ``obslab`` CLI calls and their checks.

A job is one ``obslab.cli.main`` call with its own config file and its own
``--out`` root.  The experiment id hashes only the config, not the
subcommand, so jobs that shared an ``--out`` root could overwrite each
other's ``report.txt``.  A workload has a few job slots, each with a fixed
config shape; round r of a run gives every slot a job with a fresh seed, so
no input repeats within a run, and runs the slots in an order drawn from
(workload seed, r).  The same workload seed gives the same jobs.

Each workload's check reads the job's ``report.txt`` and asks for the
verdict fields the subcommand promises; ``dual`` also recomputes the
terminal state from ``control_field.csv`` with its own closed form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from obslab.config import ExperimentConfig

SWEEP_CASES = 300


@dataclass(frozen=True)
class Job:
    subcommand: str
    config: str               # INI text
    seed: int
    extra: tuple = ()

    def argv(self, config_path: str, out_root: str) -> list:
        return [self.subcommand, "--config", config_path, "--seed",
                str(self.seed), "--out", out_root, *self.extra]


def _ini(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# job generators: (workload seed, round, slot) -> Job; the config text
# depends on the slot alone


def _job_seed(seed: int, round_: int, slot: int) -> int:
    return int(np.random.default_rng([seed, round_, slot]).integers(2**31))


def _sweep_job(seed, round_, slot):
    return Job("sweep-all", "", _job_seed(seed, round_, slot),
               ("--cases", str(SWEEP_CASES)))


# Small sizes, fill 0.6 and tol 0.05, so that the dual descent reaches its
# target on every region drawn (largest stall seen on 134 regions: 0.027).
# At the CLI's default config most regions stall above tol 0.01;
# the dual-default workload below keeps that defect in view.
def _dual_job(seed, round_, slot):
    config = _ini({"domain": {"n_modes": 6, "nx": 48},
                   "observation": {"n_time": 32, "fill": 0.6},
                   "control": {"tol": 0.05}})
    return Job("null-control", config, _job_seed(seed, round_, slot))


def _dual_default_job(seed, round_, slot):
    return Job("null-control", "", _job_seed(seed, round_, slot))


# time-optimal uses no random draws, and its cost jumps by up to 4x when
# the target radius moves by 0.005, so each slot is one of these four
# cases; the seed and round only set their order.
TIMEOPT_CASES = (
    ({"kind": "interval"}, 0.2),
    ({"kind": "rectangle", "nx": 16, "ny": 16}, 0.2),
    ({"kind": "interval"}, 0.25),
    ({"kind": "rectangle", "nx": 16, "ny": 16}, 0.25),
)


def _timeopt_job(seed, round_, slot):
    domain, radius = TIMEOPT_CASES[slot]
    config = _ini({"domain": domain, "control": {"radius": radius}})
    return Job("time-optimal", config, _job_seed(seed, round_, slot))


def _chain_job(seed, round_, slot):
    # telescope gets twice interp's batch so the two jobs cost about the same
    sub, batch = ("interp", 64) if slot % 2 == 0 else ("telescope", 128)
    config = _ini({"domain": {"kind": "rectangle", "nx": 32, "ny": 32,
                              "n_modes": 32},
                   "observation": {"n_time": 128},
                   "sweep": {"batch": batch}})
    return Job(sub, config, _job_seed(seed, round_, slot))


# ---------------------------------------------------------------------------
# report parsing and verdict checks


def read_report(path: str) -> dict:
    """report.txt as {"status": ..., "<section>": {key: value}}."""
    out, section = {}, None
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(": ")
            if not sep:
                continue
            if key == "section":
                section = out.setdefault(value, {})
            elif section is None:
                out[key] = value
            else:
                section[key] = value
    return out


def _num(section: dict, key: str) -> float:
    return float(section[key])


def _check_sweep(job, cfg, report, out_dir):
    cases = str(SWEEP_CASES)
    return (report["remez_sweep"]["violations"] == "0"
            and report["remez_sweep"]["cases"] == cases
            and report["sine_sweep"]["violations"] == "0"
            and report["sine_sweep"]["cases"] == cases
            and report["geometry_sweep"]["failures"] == "0"
            and report["geometry_sweep"]["cases"] == cases)


def terminal_from_csv(cfg: ExperimentConfig, path: str) -> float:
    """||v(T)|| for v0 = mode 1, pair (1, 0), under the control in the CSV.

    Independent of obslab.control: interval eigenfunctions sqrt(2/L) sin(k pi x/L),
    and each cell's control at time s moves mode k by
    dt dx u phi_k(x) exp(-a lam_k (T-s)) (cos, sin)(lam_k b (T-s)).
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t, x, u = data[:, 0], data[:, 1], data[:, 2]
    L, T = cfg.lx, cfg.horizon
    k = np.arange(1, cfg.n_modes + 1)
    lam = (k * math.pi / L) ** 2
    tau = T - t
    phi = math.sqrt(2.0 / L) * np.sin(np.outer(x, k) * math.pi / L)
    weight = (cfg.horizon / cfg.n_time) * (L / cfg.nx) * u
    decay = np.exp(-cfg.a * np.outer(tau, lam))
    ang = cfg.b * np.outer(tau, lam)
    inc = np.stack([(weight[:, None] * phi * decay * np.cos(ang)).sum(axis=0),
                    (weight[:, None] * phi * decay * np.sin(ang)).sum(axis=0)],
                   axis=1)
    free = np.zeros((cfg.n_modes, 2))
    free[0] = math.exp(-cfg.a * lam[0] * T) * np.array(
        [math.cos(cfg.b * lam[0] * T), math.sin(cfg.b * lam[0] * T)])
    return float(np.linalg.norm(free + inc))


def _check_dual(job, cfg, report, out_dir):
    sec = report["null_control"]
    terminal = _num(sec, "terminal_norm")
    oracle = terminal_from_csv(cfg, os.path.join(out_dir, "control_field.csv"))
    return (terminal <= cfg.tol                  # ||v0|| = 1
            and oracle <= cfg.tol
            and abs(oracle - terminal) <= 1e-9 + 1e-6 * terminal
            and _num(sec, "duality_defect") <= 1e-8
            and _num(sec, "sup_norm") <= _num(sec, "control_bound") * (1 + 1e-6))


def _check_timeopt(job, cfg, report, out_dir):
    sec = report["time_optimal"]
    return (sec["bang_bang"] == "true"
            and _num(sec, "terminal_norm") <= cfg.radius
            and 0.0 < _num(sec, "t_star") <= cfg.horizon)


def _check_chain(job, cfg, report, out_dir):
    if job.subcommand == "interp":
        k_hat = _num(report["integral_interpolation"], "K_hat")
        return (math.isfinite(k_hat) and k_hat > 0
                and report["equivalence_sweep"]["failures"] == "0")
    sec = report["telescope"]
    return sec["dominated"] == "true" and math.isfinite(_num(sec, "N_hat"))


def check(workload: "Workload", job: Job, out_root: str) -> bool:
    """True iff the job's report carries status ok and its verdict holds."""
    cfg = ExperimentConfig.from_text(job.config).replaced(seed=job.seed)
    try:
        (exp_dir,) = os.listdir(out_root)
        out_dir = os.path.join(out_root, exp_dir)
        report = read_report(os.path.join(out_dir, "report.txt"))
        return (report.get("status") == "ok"
                and report.get("subcommand") == job.subcommand
                and bool(workload.verdict(job, cfg, report, out_dir)))
    except (KeyError, ValueError, OSError):
        return False


@dataclass(frozen=True)
class Workload:
    name: str
    job: object               # (workload seed, round, slot) -> Job
    verdict: object           # (job, cfg, report, out_dir) -> bool
    # A run has this many slots and runs rounds over them until its time is
    # up; each slot's fastest run counts, because CPU speed on a shared host
    # can dip by up to 2x for seconds at a time, and a slot needs many runs
    # for one of them to miss every dip.  dual, whose jobs take about 2 s,
    # takes 2 so that each slot still runs several times.
    jobs: int


WORKLOADS = {
    "sweep": Workload("sweep", _sweep_job, _check_sweep, 4),
    "dual": Workload("dual", _dual_job, _check_dual, 2),
    "timeopt": Workload("timeopt", _timeopt_job, _check_timeopt,
                        len(TIMEOPT_CASES)),
    "chain": Workload("chain", _chain_job, _check_chain, 2),
    # The CLI's default null-control config.  Not timed: the dual descent
    # stalls (exit 3) on most of its regions, a known defect, so it
    # measures fail_frac, not speed.
    "dual-default": Workload("dual-default", _dual_default_job, _check_dual, 16),
}
TIMED = ("sweep", "dual", "timeopt", "chain")


def round_jobs(workload: Workload, seed: int, round_: int) -> list:
    """(slot, job) pairs of one round: every slot once, each with a fresh
    seed, in an order drawn from (seed, round)."""
    order = np.random.default_rng([seed, round_]).permutation(workload.jobs)
    return [(int(s), workload.job(seed, round_, int(s))) for s in order]


def prepare(workload: Workload, seed: int, work_dir: str) -> list:
    """Set-up work paid before timing starts.

    Writes and parses each slot's config, builds each distinct domain with
    its eigen table, and makes one BLAS call so that lazy initialisation is
    done.  Returns the config path of each slot.
    """
    os.makedirs(work_dir, exist_ok=True)
    paths, domains = [], set()
    for slot in range(workload.jobs):
        job = workload.job(seed, 0, slot)
        path = os.path.join(work_dir, f"slot-{slot:02d}.ini")
        with open(path, "w") as fh:
            fh.write(job.config)
        cfg = ExperimentConfig.from_file(path)
        key = (cfg.kind, cfg.lx, cfg.ly, cfg.nx, cfg.ny, cfg.n_modes)
        if key not in domains:
            domains.add(key)
            eig = cfg.build_domain().eigenfunctions
            float((eig @ eig.T)[0, 0])
        paths.append(path)
    return paths
