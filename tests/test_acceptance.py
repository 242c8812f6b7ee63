"""Acceptance gate: each test is one criterion with its stated tolerance
and runtime budget, reported as a single pass/fail line by pytest -v."""

import math
import time

import numpy as np
import pytest

from obslab import cli, control as ctl, observability as obs
from obslab.geometry import SpaceTimeSet, good_time_set
from obslab.report import strip_timings
from obslab.semigroup import SpectralState, evolve, single_mode
from obslab.spectral import PhysicalParams, interval, rectangle
from oracles import grid_scan_time_optimal, least_squares_null_control

PI = math.pi
PARAMS = PhysicalParams(1.0, 1.0)


def elapsed_ok(start, budget, label):
    dt = time.perf_counter() - start
    assert dt <= budget, f"{label} took {dt:.1f}s (budget {budget}s)"


def test_criterion_01_remez_sweep_10k_zero_violations():
    # the CLI's block sweep: degree, coefficients, E and p drawn per case
    start = time.perf_counter()
    violations, _ = cli._remez_sweep(np.random.default_rng(1), 10_000)
    assert violations == 0
    elapsed_ok(start, 60.0, "remez sweep")


def test_criterion_02_sine_bound_sweep_10k_zero_violations():
    start = time.perf_counter()
    assert cli._sine_violations(np.random.default_rng(2), 10_000) == 0
    elapsed_ok(start, 60.0, "sine-integral sweep")


def test_criterion_03_counterexample_exactness():
    start = time.perf_counter()
    domain = interval(PI, n_modes=16, n_cells=512)
    # single vanishing time
    S, mode = 0.5, 1
    rep = obs.pointwise_failure_demo(
        domain, PARAMS, obs.single_time_counterexample(domain, PARAMS, S, mode))
    assert float(rep.first_residuals.max()) <= 1e-10
    lam = domain.eigenvalues[mode - 1]
    z = SpectralState(rep.counterexample.state, domain)
    assert evolve(z, PARAMS, 1.0).norm() >= math.exp(-lam) - 1e-12
    # three vanishing times on (0, 1): mode 6, times i*pi/18
    rep3 = obs.pointwise_failure_demo(
        domain, PARAMS, obs.multi_time_counterexample(domain, PARAMS, 1.0, 3))
    assert rep3.counterexample.mode == 6
    assert np.allclose(rep3.counterexample.times,
                       [i * PI / 18.0 for i in (1, 2, 3)], atol=1e-15)
    assert float(rep3.first_residuals.max()) <= 1e-10
    elapsed_ok(start, 1.0, "counterexamples")


def test_criterion_04_integral_observation_never_cancels():
    start = time.perf_counter()
    domain = interval(PI, n_modes=16, n_cells=512)
    rng = np.random.default_rng(4)
    adversarial = np.stack([
        obs.single_time_counterexample(domain, PARAMS, 0.5).state,
        obs.multi_time_counterexample(domain, PARAMS, 1.0, 3).state,
    ])
    n_sets, per_set = 50, 20
    checked = 0
    for _ in range(n_sets):
        D = SpaceTimeSet.random(domain, 1.0, 64, rng, fill=0.3,
                                min_measure_fraction=0.1)
        assert D.measure() >= 0.1 * PI
        E = good_time_set(D)
        mids = (np.arange(D.n_time) + 0.5) * D.dt
        on_E = mids[E.mask]
        ip = obs.InterpolationParams(0.5, float(on_E[0]), float(on_E[-1]))
        batch = np.concatenate([obs.unit_lanes(domain, rng, per_set),
                                adversarial])
        rep = obs.verify_integral_interpolation(domain, PARAMS, D, ip, batch)
        assert np.all(rep.integrals > 1e-8)
        assert math.isfinite(rep.K_hat)
        checked += len(batch)
    assert checked >= 1000
    elapsed_ok(start, 300.0, "integral-observation sweep")


def test_criterion_05_slice_geometry_sweep():
    # the CLI's block sweep; good_times checks |E| >= |D| / (2 |ball|) on
    # every set, and the ball covering (0, pi) is (0, pi), of volume pi
    start = time.perf_counter()
    domain = interval(PI, n_modes=4, n_cells=128)
    assert cli._geometry_failures(domain, 1.0, np.random.default_rng(5),
                                  1000) == 0
    elapsed_ok(start, 30.0, "slice-geometry sweep")


def test_criterion_06_interpolation_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(100):
        theta = float(rng.uniform(0.15, 0.85))
        pi1 = float(rng.uniform(0.5, 5.0))
        gamma = theta / (1.0 - theta)
        F3 = rng.uniform(0.1, 10.0, size=8)
        F2 = rng.uniform(0.0, 1.0, size=8) * F3
        envelope = np.minimum.reduce([
            pi1 * (e ** -gamma * F2 + e * F3)
            for e in np.geomspace(1e-9, 1.0 - 1e-9, 256)
        ])
        F1 = np.minimum(0.9 * envelope, F3)
        res = obs.interp_equivalence(pi1, theta, F1, F2, F3)
        assert res.eps_form_passed
        assert res.holds
        # the product form's constant is 2 * Pi1
        assert np.all(F1 <= 2.0 * pi1 * F2 ** (1.0 - theta) * F3 ** theta
                      * (1 + 1e-9))
    elapsed_ok(start, 5.0, "equivalence sweep")


def test_criterion_08_null_control_certificate():
    start = time.perf_counter()
    domain = interval(PI, n_modes=8, n_cells=256)
    v0 = single_mode(domain, 1, (1.0, 0.0))
    D = SpaceTimeSet.full_cylinder(domain, 1.0, 64)
    op = ctl.ControlOperator(domain, PARAMS, D)
    field, cert = ctl.synthesize_null_control(op, v0, tol=1e-2)
    assert cert.terminal_norm <= 1e-2 * cert.v0_norm
    assert cert.sup_norm <= (cert.v0_norm / cert.L_hat) * (1.0 + 1e-6)
    defect = ctl.duality_defect(op, v0, field)
    assert defect <= 1e-8
    # reachability cross-check: the box-free least-squares oracle also lands
    _, ls_terminal = least_squares_null_control(D, PARAMS, v0)
    assert ls_terminal <= 1e-2 * cert.v0_norm
    elapsed_ok(start, 120.0, "null control")


def test_criterion_09_bang_bang_and_grid_scan():
    start = time.perf_counter()
    domain = interval(PI, n_modes=4, n_cells=128)
    v0 = single_mode(domain, 1, (1.0, 0.0))
    problem = ctl.ControlProblem(domain, PARAMS, v0,
                                 omega=np.ones(domain.n_cells, dtype=bool),
                                 bounds=(-1.0, 1.0), radius=0.15, n_time=64)
    T_max = 1.0
    res = ctl.solve_time_optimal(problem, T_max)
    fraction, holds = ctl.verify_bang_bang(res.control, problem.bounds)
    assert fraction <= 0.05 and holds
    oracle = grid_scan_time_optimal(problem, T_max, n_grid=1000)
    assert abs(res.t_star - oracle) <= 1e-3 * T_max + T_max / 1000.0
    elapsed_ok(start, 300.0, "time-optimal benchmark")


def test_criterion_10_weyl_sanity():
    start = time.perf_counter()
    domain = interval(PI, n_modes=110)
    for lam in (1e2, 1e3, 1e4):
        assert lam < domain.eigenvalues[-1]          # the count is exact
        count = np.count_nonzero(domain.eigenvalues <= lam)
        r = count / lam ** 0.5      # Weyl: k ~ lam^(d/2)
        assert 1.0 - 2.0 / math.sqrt(lam) <= r <= 1.0
    rect = rectangle(PI, PI, n_modes=200)
    lam = 200.0
    lattice = sum(1 for j in range(1, 16) for k in range(1, 16)
                  if j * j + k * k <= lam)
    assert lam < rect.eigenvalues[-1]
    count = np.count_nonzero(rect.eigenvalues <= lam)
    assert abs(count - lattice) / lattice <= 0.1
    elapsed_ok(start, 5.0, "Weyl sanity")


def test_criterion_11_determinism(tmp_path):
    texts = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["counterexample", "--seed", "3", "--out", str(out)])
        assert code == 0
        (report_dir,) = out.iterdir()
        report = strip_timings((report_dir / "report.txt").read_text())
        csvs = sorted(p.name for p in report_dir.glob("*.csv"))
        blobs = [report] + [(report_dir / n).read_text() for n in csvs]
        texts.append("\x00".join(blobs))
    assert texts[0] == texts[1]
