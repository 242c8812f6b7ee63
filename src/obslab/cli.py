"""Command-line entry point: experiment orchestration and artifacts.

Exit codes: 0 all checked properties held; 2 config/usage errors;
3 numerical or convergence failures (partial report still written);
4 a verified property was violated (report status: violation).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import control, geometry, observability, trigpoly
from .config import ExperimentConfig
from .errors import (ConfigError, ConvergenceError, InfeasibleError,
                     InsufficientTruncationError, PropertyViolation,
                     ResolutionError)
from .geometry import SpaceTimeSet
from .report import RunReport
from .semigroup import FIRST, FULL, mode_factors, propagate, single_mode


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obslab",
        description="numerical laboratory for coupled parabolic observability")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory root")
    parser.add_argument("--cases", type=int, default=None,
                        help="override sweep sizes")
    parser.add_argument("--multi", type=int, default=3,
                        help="counterexample: number of vanishing times")
    parser.add_argument("--time", type=float, default=None,
                        help="counterexample: single vanishing time")
    return parser


def _observation_set(cfg: ExperimentConfig, domain, rng) -> SpaceTimeSet:
    if cfg.generator == "full":
        return SpaceTimeSet.full_cylinder(domain, cfg.horizon, cfg.n_time)
    if cfg.generator == "fixture":
        try:        # an unreadable file is an OSError: exit 3, with a report
            with open(cfg.fixture) as fh:
                D = SpaceTimeSet.from_rle(fh.read(), domain)
            if D.horizon != cfg.horizon:
                raise ValueError(f"fixture T={D.horizon}, horizon={cfg.horizon}")
            if D.measure() <= 0:
                raise ValueError("fixture region has zero measure")
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError("observation.fixture", repr(exc)) from exc
        return D
    return SpaceTimeSet.random(domain, cfg.horizon, cfg.n_time, rng,
                               fill=cfg.fill,
                               min_measure_fraction=cfg.min_fraction)


# ---------------------------------------------------------------------------
# handlers (return True iff every asserted property held)


def _run_simulate(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    mode = 1
    state = single_mode(domain, mode, (1.0, 0.0))
    lam = domain.eigenvalues[mode - 1]
    t = np.linspace(0.0, cfg.horizon, 256)
    traces = propagate(mode_factors(domain, params, t), state)
    observed = np.abs(traces[:, mode - 1, 0])
    closed = np.exp(-params.a * lam * t) * np.abs(np.cos(lam * params.b * t))
    defect = float(np.abs(observed - closed).max())
    report.add("simulate", mode=mode, eigenvalue=lam, trace_defect=defect)
    report.add_series("trace", "t,abs_v1,closed_form", (t, observed, closed))
    return defect <= 1e-12


def _remez_sweep(rng, n_cases: int) -> tuple[int, float]:
    """Violations and the worst lhs / rhs of the Remez sweep.

    Each case draws its degree in 1..8, its sin and cos coefficients, its set
    E (random_interval_union) and p in [1, 8), in this order.  The cases go
    through in blocks of lane_block(grid values), one remez_check per block
    on the lanes' coefficients zero-padded to degree 8.
    """
    blk = observability.lane_block(trigpoly.N_CELLS)
    violations, worst = 0, 0.0
    for lo in range(0, n_cases, blk):
        m = min(blk, n_cases - lo)
        a, b = np.zeros((2, m, 9))          # sin, cos: k = 0..8, zero-padded
        degree, p = np.empty(m, dtype=int), np.empty(m)
        E = np.empty((m, trigpoly.N_CELLS), dtype=bool)
        for i in range(m):
            d = degree[i] = rng.integers(1, 9)
            a[i, :d + 1] = rng.standard_normal(d + 1)
            b[i, :d + 1] = rng.standard_normal(d + 1)
            E[i] = trigpoly.random_interval_union(rng)
            p[i] = rng.uniform(1.0, 8.0)
        res = trigpoly.remez_check(trigpoly.TrigPoly(a, b), E, p, degree)
        worst = max(worst, float(np.max(res.lhs / res.rhs)))
        violations += int(np.count_nonzero(~res.holds))
    return violations, worst


def _sine_violations(rng, n_cases: int) -> int:
    """Violations of the |sin| integral bound over n_cases random cases,
    drawn in blocks of lane_block(window cells), one check per block."""
    blk = observability.lane_block(trigpoly.SINE_CELLS)
    violations = 0
    for lo in range(0, n_cases, blk):
        case = trigpoly.SineBoundCase.random(rng, min(blk, n_cases - lo))
        violations += int(np.count_nonzero(~trigpoly.sine_integral_bound(case).holds))
    return violations


def _geometry_failures(domain, horizon: float, rng, n_cases: int) -> int:
    """Random space-time sets (32 time cells, fill 0.2) whose good-time set
    fails |E| >= |D| / (2 |ball|): each draws its boxes as
    SpaceTimeSet.random does, in blocks of lane_block(mask cells), one
    good_times call per block."""
    n_time = 32
    blk = observability.lane_block(n_time * domain.n_cells)
    failures = 0
    for lo in range(0, n_cases, blk):
        masks = np.zeros((min(blk, n_cases - lo), n_time, domain.n_cells),
                         dtype=bool)
        for mask in masks:
            geometry.random_boxes(mask, rng, 0.2)
        _, holds = geometry.good_times(masks, horizon, domain)
        failures += int(np.count_nonzero(~holds))
    return failures


def _run_remez(cfg, rng, report) -> bool:
    violations, worst = _remez_sweep(rng, cfg.remez_cases)
    report.add("remez_sweep", cases=cfg.remez_cases, violations=violations,
               worst_ratio=worst)
    return violations == 0


# the eps grid of the equivalence sweep's eps-form envelope, one row per eps
_ENVELOPE_EPS = np.geomspace(1e-9, 1 - 1e-9, 128)[:, None]


def _equivalence_failures(rng, n_cases: int) -> int:
    """Cases of the functional-triple equivalence sweep whose verdict fails.

    Each case draws theta, Pi1, F3 and F2 (8 probes), in this order, and
    takes the tightest admissible F1: the eps-form envelope, shrunk, capped
    by F3.  The cases go through in blocks of lane_block(envelope values),
    one envelope broadcast and one interp_equivalence call per block.
    """
    e, n = _ENVELOPE_EPS, 8
    blk = observability.lane_block(len(e) * n)
    failures = 0
    for lo in range(0, n_cases, blk):
        m = min(blk, n_cases - lo)
        theta, pi1 = np.empty(m), np.empty(m)
        F3, F2 = np.empty((m, n)), np.empty((m, n))
        for i in range(m):
            theta[i] = rng.uniform(0.1, 0.9)
            pi1[i] = rng.uniform(0.5, 10.0)
            F3[i] = rng.uniform(0.1, 10.0, size=n)
            F2[i] = rng.uniform(0.0, 1.0, size=n) * F3[i]
        expo = (-theta / (1.0 - theta))[:, None, None]
        best = (pi1[:, None, None] * (e ** expo * F2[:, None] + e * F3[:, None])
                ).min(axis=1)
        F1 = np.minimum(0.9 * best, F3)
        res = observability.interp_equivalence(pi1, theta, F1, F2, F3)
        failures += int(np.count_nonzero(~(res.eps_form_passed & res.holds)))
    return failures


def _run_interp(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    ip = observability.InterpolationParams(cfg.theta, cfg.s1, cfg.s2)
    lanes = observability.unit_lanes(domain, rng, cfg.batch)
    B = {"first": FIRST, "full": FULL,
         "direction": ((cfg.mu1, cfg.mu2),)}[cfg.selector]
    with report.timed("interp.integral"):
        rep = observability.verify_integral_interpolation(
            domain, params, D, ip, lanes, B)
    ok = math.isfinite(rep.K_hat) and rep.K_hat > 0
    report.add("integral_interpolation", K_hat=rep.K_hat,
               K_hat_lane=rep.K_hat_lane, M_hat=rep.M_hat,
               window_measure=rep.window_measure,
               min_integral=float(rep.integrals.min()))
    report.add_series("interp_ratios", "probe,ratio,integral",
                      (range(len(rep.ratios)), rep.ratios, rep.integrals))
    if cfg.selector == "direction":
        scale = cfg.mu1 * cfg.mu1 + cfg.mu2 * cfg.mu2
        amplitude, field = observability.verify_direction_observation(
            domain, params, cfg.mu1, cfg.mu2, lanes)
        ok = (ok and amplitude <= 1e-12 * scale
              and field <= 1e-10 * math.sqrt(scale))
        report.add("direction_reduction", mu1=cfg.mu1, mu2=cfg.mu2,
                   amplitude_defect=amplitude, field_defect=field)
    elif cfg.selector == "full":
        # pointwise in time at the midpoints of E cap [S1, S2], all in E,
        # from the traces the integral check observed there
        with report.timed("interp.full_pointwise"):
            full = observability.verify_full_observation_pointwise(
                domain, params, D, cfg.theta, rep, lanes)
        ok = ok and bool(np.isfinite(full.M_hats).all())
        report.add("full_pointwise", n_times=len(full.times),
                   max_M_hat=float(full.M_hats.max()),
                   min_trace=float(full.min_traces.min()))
    with report.timed("interp.equivalence"):
        failures = _equivalence_failures(rng, cfg.equivalence_cases)
    report.add("equivalence_sweep", cases=cfg.equivalence_cases,
               failures=failures)
    return ok and failures == 0


def _run_counterexample(cfg, rng, report, multi=3, single=None) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    if single is not None:
        cex = observability.single_time_counterexample(domain, params, single)
    else:
        cex = observability.multi_time_counterexample(domain, params,
                                                      cfg.horizon, multi)
    rep = observability.pointwise_failure_demo(domain, params, cex)
    ok = (float(rep.first_residuals.max()) <= 1e-10
          and float(rep.full_traces.min()) >= rep.full_floor)
    report.add("counterexample", mode=rep.counterexample.mode,
               n_times=len(rep.counterexample.times),
               max_first_residual=float(rep.first_residuals.max()),
               min_full_trace=float(rep.full_traces.min()),
               full_floor=rep.full_floor)
    report.add_series("counterexample_traces", "time,first_residual,full_trace",
                      (rep.counterexample.times, rep.first_residuals,
                       rep.full_traces))
    return ok


def _run_estimate_L(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    v0 = single_mode(domain, 1, (1.0, 0.0))
    measures, L_hats = [], []
    ok = True
    for name, region in (("config", D),
                         ("half", SpaceTimeSet(
                             D.mask & (np.arange(D.n_time)[:, None] < D.n_time // 2),
                             D.horizon, domain))):
        if not region.mask.any():
            continue
        # the dual field observes at T - s: reflect to get region's constant
        reflected = SpaceTimeSet(region.mask[::-1], region.horizon, domain)
        with report.timed(f"estimate-L.{name}"):
            op = control.ControlOperator(domain, params, reflected)
            # the chain starts from the dual optimum of the unit target
            # exp(A^T T) v0 / ||.||, solved to tol as null-control solves;
            # unscaled, its norm exp(-a lambda_1 T) can be below tol / 2,
            # where the solve stops at z = 0
            free = op.free(v0)
            _, z, *_ = control._null_solve(op, free / np.linalg.norm(free),
                                           cfg.tol)
            search = control.estimate_L(op, z)
        ok = ok and search.L_hat > 0
        measures.append(region.measure())
        L_hats.append(search.L_hat)
        report.add(f"estimate_L_{name}", region_measure=region.measure(),
                   **search.fields())
    report.add_series("L_vs_measure", "region_measure,L_hat",
                      (measures, L_hats))
    return ok


def _run_null_control(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    v0 = single_mode(domain, 1, (1.0, 0.0))
    op = control.ControlOperator(domain, params, D)
    field, cert = control.synthesize_null_control(
        op, v0, cfg.tol,
        timed=lambda phase: report.timed(f"null-control.{phase}"))
    with report.timed("null-control.defect"):
        defect = control.duality_defect(op, v0, field, rng=rng)
    report.add("null_control", terminal_norm=cert.terminal_norm,
               sup_norm=cert.sup_norm, least_sup_lower=cert.least_sup_lower,
               control_bound=cert.control_bound, **cert.L_search.fields(),
               dual_value=cert.dual_value, newton_steps=cert.newton_steps,
               mu=cert.mu, duality_defect=defect)
    report.add_series("control_field", *field.table())
    return defect <= 1e-8


def _run_time_optimal(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    omega = np.ones(domain.n_cells, dtype=bool)
    v0 = single_mode(domain, 1, (1.0, 0.0))
    try:        # the radius is checked against ||v0||, which config cannot see
        problem = control.ControlProblem(domain, params, v0, omega=omega,
                                         bounds=(cfg.nu1, cfg.nu2),
                                         radius=cfg.radius, n_time=cfg.n_time)
    except ValueError as exc:
        raise ConfigError("control.radius", str(exc)) from exc
    result = control.solve_time_optimal(problem, cfg.horizon)
    fraction, holds = control.verify_bang_bang(result.control, problem.bounds)
    polish = result.polish
    report.add("time_optimal", t_star=result.t_star,
               terminal_norm=polish.upper,
               interior_fraction=fraction, bang_bang=holds,
               trials=len(result.trace), stalled_trials=result.stalled_trials,
               polish_newton_steps=polish.iterations,
               polish_mu=result.polish_mu, polish_stop=polish.stop,
               gap=polish.upper - polish.lower)
    report.add_series("time_optimal_trials", *result.trial_table())
    return holds and polish.upper <= problem.radius


def _run_telescope(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    lanes = observability.unit_lanes(domain, rng, cfg.batch)
    rep = observability.telescope_chain_demo(domain, params, D, cfg.beta,
                                             cfg.depth, lanes)
    # time measure |E cap ring| per level, plus running partial sums
    rings = np.append(rep.ring_measures, 0.0)
    report.add("telescope", ell=rep.ell, ell1=rep.ell1, mu=rep.mu,
               theta=rep.theta, C_hat=rep.C_hat, prefactor=rep.prefactor,
               domination_margin=rep.domination_margin, N_hat=rep.N_hat,
               N_hat_lane=rep.N_hat_lane,
               dominated=rep.dominated)
    report.add_series("telescope_partial_sums",
                      "m,ell_m,ring_time_measure,partial_sum",
                      (range(1, len(rings) + 1), rep.terms, rings,
                       np.cumsum(rings)))
    return rep.dominated and math.isfinite(rep.N_hat)


def _run_sweep_all(cfg, rng, report) -> bool:
    with report.timed("sweep-all.remez"):
        ok = _run_remez(cfg, rng, report)
    with report.timed("sweep-all.sine"):
        violations = _sine_violations(rng, cfg.sine_cases)
    report.add("sine_sweep", cases=cfg.sine_cases, violations=violations)
    # slice-geometry sweep: the good-time-set bounds hold for random sets
    with report.timed("sweep-all.geometry"):
        geo_fail = _geometry_failures(cfg.build_domain(), cfg.horizon, rng,
                                      cfg.geometry_cases)
    report.add("geometry_sweep", cases=cfg.geometry_cases, failures=geo_fail)
    return ok and violations == 0 and geo_fail == 0


_HANDLERS = {
    "simulate": _run_simulate,
    "remez": _run_remez,
    "interp": _run_interp,
    "counterexample": _run_counterexample,
    "estimate-L": _run_estimate_L,
    "null-control": _run_null_control,
    "time-optimal": _run_time_optimal,
    "telescope": _run_telescope,
    "sweep-all": _run_sweep_all,
}
SUBCOMMANDS = tuple(_HANDLERS)

_NUMERICAL_ERRORS = (ConvergenceError, ResolutionError, InfeasibleError,
                     InsufficientTruncationError, ArithmeticError, OSError,
                     np.linalg.LinAlgError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "counterexample":   # the only reader of both
            if args.time is not None and not 0 <= args.time < math.inf:
                parser.error("--time must be finite and nonnegative")
            if args.multi < 1:
                parser.error("--multi must be at least 1")
        if args.cases is not None and args.cases < 1:
            parser.error("--cases must be at least 1")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.cases is not None:
            overrides.update(remez_cases=args.cases, sine_cases=args.cases,
                             geometry_cases=args.cases,
                             equivalence_cases=args.cases)
        if overrides:
            cfg = cfg.replaced(**overrides)
        rng = np.random.default_rng(cfg.seed)
        report = RunReport(experiment_id=cfg.experiment_id(),
                           subcommand=args.subcommand, seed=cfg.seed)
        out_dir = f"{args.out}/{args.subcommand}-{cfg.experiment_id()}"
        # config parsing raises only ConfigError, so report exists below
        with report.timed(args.subcommand):
            if args.subcommand == "counterexample":
                ok = _run_counterexample(cfg, rng, report, multi=args.multi,
                                         single=args.time)
            else:
                ok = _HANDLERS[args.subcommand](cfg, rng, report)
    except ConfigError as exc:      # also a bad fixture, read by a handler
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (*_NUMERICAL_ERRORS, PropertyViolation) as exc:
        violated = isinstance(exc, PropertyViolation)
        report.status = "violation" if violated else "convergence-failure"
        report.add("failure", error=type(exc).__name__, message=str(exc))
        try:
            report.write(out_dir)
        except OSError:
            pass
        return 4 if violated else 3
    if not ok:
        report.status = "violation"
    try:
        report.write(out_dir)
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
