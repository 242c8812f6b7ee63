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
from .errors import (ConfigError, ContainmentError, ConvergenceError,
                     InfeasibleError, InsufficientTruncationError,
                     PropertyViolation, ResolutionError)
from .geometry import SpaceTimeSet
from .report import RunReport
from .semigroup import (ObservationSelector, SelectorKind, SpectralState,
                        mode_factors, propagate)

SUBCOMMANDS = ("simulate", "remez", "interp", "counterexample", "estimate-L",
               "null-control", "time-optimal", "telescope", "sweep-all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obslab",
        description="numerical laboratory for coupled parabolic observability")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory root")
    parser.add_argument("--modes", type=int, default=None,
                        help="override the truncation size")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the spatial cell count per axis")
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


def _state_batch(domain, rng, n):
    return [SpectralState.random(domain, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# handlers (return True iff every asserted property held)


def _run_simulate(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    mode = 1
    state = SpectralState.single_mode(domain, mode, (1.0, 0.0))
    lam = domain.eigenvalues[mode - 1]
    t = np.linspace(0.0, cfg.horizon, 256)
    traces = propagate(mode_factors(domain, params, t), state.coeffs)
    observed = np.abs(traces[:, mode - 1, 0])
    closed = np.exp(-params.a * lam * t) * np.abs(np.cos(lam * params.b * t))
    defect = float(np.abs(observed - closed).max())
    report.add("simulate", mode=mode, eigenvalue=lam, trace_defect=defect)
    report.add_series("trace", "t,abs_v1,closed_form",
                      [(float(ti), float(o), float(c))
                       for ti, o, c in zip(t, observed, closed)])
    return defect <= 1e-12


def _run_remez(cfg, rng, report) -> bool:
    n_cases = cfg.remez_cases
    violations = 0
    worst = 0.0
    for _ in range(n_cases):
        f = trigpoly.TrigPoly.random(rng, int(rng.integers(1, 9)))
        E = trigpoly.random_interval_union(rng)
        p = float(rng.uniform(1.0, 8.0))
        res = trigpoly.remez_check(f, E, p)
        worst = max(worst, res.lhs / res.rhs)
        violations += not res.holds
    report.add("remez_sweep", cases=n_cases, violations=violations,
               worst_ratio=worst)
    return violations == 0


def _run_interp(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    ip = observability.InterpolationParams(cfg.theta, cfg.s1, cfg.s2)
    batch = _state_batch(domain, rng, cfg.batch)
    sel = ObservationSelector(SelectorKind(cfg.selector), cfg.mu1, cfg.mu2)
    with report.timed("interp.integral"):
        rep = observability.verify_integral_interpolation(domain, params, D,
                                                          ip, batch, sel=sel)
    ok = math.isfinite(rep.K_hat) and rep.K_hat > 0
    report.add("integral_interpolation", K_hat=rep.K_hat, M_hat=rep.M_hat,
               window_measure=rep.window_measure,
               min_integral=float(rep.integrals.min()))
    report.add_series("interp_ratios", "probe,ratio,integral",
                      [(i, float(r), float(g)) for i, (r, g)
                       in enumerate(zip(rep.ratios, rep.integrals))])
    # functional-triple equivalence sweep
    failures = 0
    with report.timed("interp.equivalence"):
        for _ in range(cfg.equivalence_cases):
            theta = float(rng.uniform(0.1, 0.9))
            pi1 = float(rng.uniform(0.5, 10.0))
            F3 = rng.uniform(0.1, 10.0, size=8)
            F2 = rng.uniform(0.0, 1.0, size=8) * F3
            # tight admissible F1: the eps-form envelope, shrunk, capped by F3
            e = np.geomspace(1e-9, 1 - 1e-9, 128)[:, None]
            best = (pi1 * (e ** (-theta / (1.0 - theta)) * F2 + e * F3)).min(axis=0)
            F1 = np.minimum(0.9 * best, F3)
            res = observability.interp_equivalence(pi1, theta, F1, F2, F3)
            failures += not (res.eps_form_passed and res.holds)
    report.add("equivalence_sweep", cases=cfg.equivalence_cases,
               failures=failures)
    return ok and failures == 0


def _run_counterexample(cfg, rng, report, multi=3, single=None) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    if single is not None:
        rep = observability.pointwise_failure_demo(domain, params, S=single)
    else:
        rep = observability.pointwise_failure_demo(
            domain, params, horizon=cfg.horizon, m=multi)
    ok = (float(rep.first_residuals.max()) <= 1e-10
          and float(rep.full_traces.min()) >= rep.full_floor)
    report.add("counterexample", mode=rep.counterexample.mode,
               n_times=len(rep.counterexample.times),
               max_first_residual=float(rep.first_residuals.max()),
               min_full_trace=float(rep.full_traces.min()),
               full_floor=rep.full_floor)
    report.add_series("counterexample_traces", "time,first_residual,full_trace",
                      [(float(t), float(r), float(f)) for t, r, f in
                       zip(rep.counterexample.times, rep.first_residuals,
                           rep.full_traces)])
    return ok


def _run_estimate_L(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    v0 = SpectralState.single_mode(domain, 1, (1.0, 0.0))
    rows = []
    ok = True
    for name, region in (("config", D),
                         ("half", SpaceTimeSet(
                             D.mask & (np.arange(D.n_time)[:, None] < D.n_time // 2),
                             D.horizon, domain))):
        if not region.mask.any():
            continue
        problem = control.ControlProblem(domain, params, v0, region=region)
        L_hat = control.estimate_L(problem, rng=rng)
        ok = ok and L_hat > 0
        rows.append((region.measure(), L_hat))
        report.add(f"estimate_L_{name}", region_measure=region.measure(),
                   L_hat=L_hat)
    report.add_series("L_vs_measure", "region_measure,L_hat", rows)
    return ok


def _run_null_control(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    v0 = SpectralState.single_mode(domain, 1, (1.0, 0.0))
    problem = control.ControlProblem(domain, params, v0, region=D)
    with report.timed("null-control.solve"):
        field, cert = control.synthesize_null_control(problem, cfg.tol, rng=rng)
    with report.timed("null-control.defect"):
        defect = control.duality_defect(problem, field, rng=rng)
    report.add("null_control", terminal_norm=cert.terminal_norm,
               sup_norm=cert.sup_norm, least_sup_lower=cert.least_sup_lower,
               control_bound=cert.control_bound, L_hat=cert.L_hat,
               dual_value=cert.dual_value, newton_steps=cert.newton_steps,
               mu=cert.mu, duality_defect=defect)
    report.add_series("control_field", *field.table())
    return defect <= 1e-8


def _run_time_optimal(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    omega = np.ones(domain.n_cells, dtype=bool)
    v0 = SpectralState.single_mode(domain, 1, (1.0, 0.0))
    try:        # the radius is checked against ||v0||, which config cannot see
        problem = control.ControlProblem(domain, params, v0, omega=omega,
                                         bounds=(cfg.nu1, cfg.nu2),
                                         radius=cfg.radius, n_time=cfg.n_time)
    except ValueError as exc:
        raise ConfigError("control.radius", str(exc)) from exc
    result = control.solve_time_optimal(problem, cfg.horizon)
    fraction, holds = control.verify_bang_bang(result.control)
    polish = result.polish
    report.add("time_optimal", t_star=result.t_star,
               terminal_norm=result.terminal_norm,
               interior_fraction=fraction, bang_bang=holds,
               trials=len(result.trace), stalled_trials=result.stalled_trials,
               polish_newton_steps=polish.iterations,
               polish_mu=result.polish_mu, polish_stop=polish.stop,
               gap=polish.upper - polish.lower)
    report.add_series("time_optimal_trials", *result.trial_table())
    return holds and result.terminal_norm <= problem.radius


def _run_telescope(cfg, rng, report) -> bool:
    domain, params = cfg.build_domain(), cfg.build_params()
    D = _observation_set(cfg, domain, rng)
    batch = _state_batch(domain, rng, cfg.batch)
    rep = observability.telescope_chain_demo(domain, params, D, cfg.beta,
                                             cfg.depth, batch)
    # time measure |E cap ring| per level, plus running partial sums
    rings = np.append(rep.ring_measures, 0.0)
    rows = [(m + 1, float(ell), float(ring), float(part)) for m, (ell, ring, part)
            in enumerate(zip(rep.terms, rings, np.cumsum(rings)))]
    report.add("telescope", ell=rep.ell, ell1=rep.ell1, mu=rep.mu,
               theta=rep.theta, C_hat=rep.C_hat, prefactor=rep.prefactor,
               domination_margin=rep.domination_margin, N_hat=rep.N_hat,
               dominated=rep.dominated)
    report.add_series("telescope_partial_sums",
                      "m,ell_m,ring_time_measure,partial_sum", rows)
    return rep.dominated and math.isfinite(rep.N_hat)


def _run_sweep_all(cfg, rng, report) -> bool:
    with report.timed("sweep-all.remez"):
        ok = _run_remez(cfg, rng, report)
    # sine-integral lower bound
    violations = 0
    with report.timed("sweep-all.sine"):
        for _ in range(cfg.sine_cases):
            res = trigpoly.sine_integral_bound(trigpoly.SineBoundCase.random(rng))
            violations += not res.holds
    report.add("sine_sweep", cases=cfg.sine_cases, violations=violations)
    ok = ok and violations == 0
    # slice-geometry sweep: the good-time-set bounds hold for random sets
    domain = cfg.build_domain()
    center, radius = observability.covering_ball(domain)
    geo_fail = 0
    with report.timed("sweep-all.geometry"):
        for _ in range(cfg.geometry_cases):
            D = SpaceTimeSet.random(domain, cfg.horizon, 32, rng, fill=0.2)
            try:
                geometry.good_time_set(D, center, radius)
            except PropertyViolation:
                geo_fail += 1
    report.add("geometry_sweep", cases=cfg.geometry_cases, failures=geo_fail)
    return ok and geo_fail == 0


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

_NUMERICAL_ERRORS = (ConvergenceError, ResolutionError, InfeasibleError,
                     ContainmentError, InsufficientTruncationError,
                     ArithmeticError, OSError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "counterexample":   # the only reader of both
            if args.time is not None and args.time < 0:
                parser.error("--time must be nonnegative")
            if args.multi < 1:
                parser.error("--multi must be at least 1")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.modes is not None:
            overrides["n_modes"] = args.modes
        if args.grid is not None:
            overrides["nx"] = args.grid
            overrides["ny"] = args.grid
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
