import math

import numpy as np
import pytest

from obslab import control as ctl
from obslab.errors import ConvergenceError, InfeasibleError
from obslab.geometry import SpaceTimeSet
from obslab.semigroup import SpectralState, evolve
from obslab.spectral import PhysicalParams, interval, rectangle

PI = math.pi
DOMAIN = interval(PI, n_modes=8, n_cells=256)
PARAMS = PhysicalParams(1.0, 1.0)
V0 = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
FULL = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)


def null_problem(region=FULL, v0=V0):
    return ctl.ControlProblem(DOMAIN, PARAMS, v0, 1.0, region=region)


# -- generator transpose --------------------------------------------------


def test_adjoint_evolution_is_the_transpose():
    rng = np.random.default_rng(0)
    x = SpectralState.random(DOMAIN, rng)
    y = SpectralState.random(DOMAIN, rng)
    t = 0.37
    lhs = float(np.sum(evolve(x, PARAMS, t, transpose=True).coeffs * y.coeffs))
    rhs = float(np.sum(x.coeffs * evolve(y, PARAMS, t).coeffs))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_uncontrolled_decay_contraction():
    vT = evolve(V0, PARAMS, 1.0, transpose=True)
    lam1 = DOMAIN.eigenvalues[0]
    assert vT.norm() <= math.exp(-lam1) * V0.norm() + 1e-12
    assert vT.norm() == pytest.approx(math.exp(-lam1), abs=1e-12)


def test_control_operator_adjoint_pairing_exact():
    op = ctl.ControlOperator(DOMAIN, PARAMS, FULL)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(FULL.mask.shape)
    z = rng.standard_normal((DOMAIN.n_modes, 2))
    wgt = FULL.dt * DOMAIN.cell_volume
    lhs = float(np.sum(op.apply(u) * z))
    rhs = float(np.sum(u * op.adjoint(z)) * wgt)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- problem and field validation ----------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, 1.0)
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, 1.0, region=FULL,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, 1.0,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, 1.0,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool),
                           bounds=(1.0, -1.0))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, 1.0,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool),
                           bounds=(-1.0, 1.0), radius=2.0)


def test_control_field_support_check():
    values = np.ones(FULL.mask.shape)
    rng = np.random.default_rng(2)
    half = SpaceTimeSet(FULL.mask & (rng.random(FULL.mask.shape) < 0.5),
                        1.0, DOMAIN)
    with pytest.raises(ValueError):
        ctl.ControlField(values, half)
    field = ctl.ControlField(values * half.mask, half, bounds=(-2.0, 2.0))
    assert field.sup_norm == 1.0
    assert field.is_admissible()
    assert not field.is_admissible(-0.5, 0.5)


def test_control_field_csv(tmp_path):
    field = ctl.ControlField.zero(FULL)
    path = tmp_path / "u.csv"
    field.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + int(FULL.mask.sum())


def test_control_field_csv_plain_floats_on_rectangle(tmp_path):
    dom = rectangle(PI, PI, n_modes=4, cells=(6, 5))
    region = SpaceTimeSet.full_cylinder(dom, 1.0, 4)
    values = np.random.default_rng(3).uniform(-1.0, 1.0, region.mask.shape)
    path = tmp_path / "u.csv"
    ctl.ControlField(values, region).to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,value"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert len(rows) == values.size
    assert len({r[:3] for r in rows}) == len(rows)
    assert sorted(r[3] for r in rows) == sorted(values.ravel())


# -- observability constant ----------------------------------------------


def test_estimate_l_positive_and_monotone_in_region():
    rng = np.random.default_rng(3)
    L_full = ctl.estimate_L(null_problem(), restarts=12, rng=rng)
    half_mask = FULL.mask.copy()
    half_mask[FULL.n_time // 2:] = False
    half = SpaceTimeSet(half_mask, 1.0, DOMAIN)
    L_half = ctl.estimate_L(null_problem(half), restarts=12,
                            rng=np.random.default_rng(3))
    assert L_full > 0 and L_half > 0
    assert L_half <= L_full + 1e-9


def test_estimate_l_single_mode_brute_force():
    dom = interval(PI, n_modes=1, n_cells=256)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    region = SpaceTimeSet.full_cylinder(dom, 1.0, 64)
    problem = ctl.ControlProblem(dom, PARAMS, v0, 1.0, region=region)
    L = ctl.estimate_L(problem, restarts=16, rng=np.random.default_rng(4))
    oracle = ctl.brute_force_single_mode_ratio(problem)
    assert L == pytest.approx(oracle, rel=1e-3)


# -- null control ---------------------------------------------------------


def test_null_control_zero_initial_state():
    v0 = SpectralState(np.zeros((DOMAIN.n_modes, 2)), DOMAIN)
    field, cert = ctl.synthesize_null_control(null_problem(v0=v0), 0.01)
    assert field.sup_norm == 0.0
    assert cert.terminal_norm == 0.0


def test_null_control_benchmark_certificate():
    field, cert = ctl.synthesize_null_control(null_problem(), 0.01)
    assert cert.terminal_norm <= 0.01 * cert.v0_norm
    assert cert.sup_norm <= cert.control_bound * (1.0 + 1e-6)
    assert cert.sup_norm == pytest.approx(field.sup_norm, rel=1e-12)
    cert.check()
    defect = ctl.duality_defect(null_problem(), field)
    assert defect <= 1e-8


def test_null_control_partial_region():
    rng = np.random.default_rng(6)
    mask = np.zeros(FULL.mask.shape, dtype=bool)
    while mask.mean() < 0.25:
        t0, t1 = sorted(rng.integers(0, FULL.n_time + 1, 2))
        x0, x1 = sorted(rng.integers(0, DOMAIN.n_cells + 1, 2))
        mask[t0:t1, x0:x1] = True
    D = SpaceTimeSet(mask, 1.0, DOMAIN)
    field, cert = ctl.synthesize_null_control(null_problem(D), 0.05,
                                              rng=np.random.default_rng(6))
    assert cert.terminal_norm <= 0.05 * cert.v0_norm
    assert cert.sup_norm <= cert.control_bound * (1.0 + 1e-6)


def test_null_control_tol_validation():
    with pytest.raises(ValueError):
        ctl.synthesize_null_control(null_problem(), 0.5)


def test_null_control_budget_exhaustion_reports_best():
    with pytest.raises(ConvergenceError) as err:
        ctl.synthesize_null_control(null_problem(), tol=1.5e-6, budget=50)
    assert isinstance(err.value.best, ctl.ControlField)


def test_least_squares_oracle_reaches_target():
    field, terminal = ctl.least_squares_null_control(null_problem())
    assert terminal <= 1e-8
    assert field.sup_norm > 0


# -- time-optimal ---------------------------------------------------------


def to_problem(radius=0.15, bounds=(-1.0, 1.0), n_modes=4):
    dom = interval(PI, n_modes=n_modes, n_cells=128)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    return ctl.ControlProblem(dom, PARAMS, v0, 1.0,
                              omega=np.ones(dom.n_cells, dtype=bool),
                              bounds=bounds, radius=radius, n_time=64)


def test_time_optimal_free_decay_case():
    # radius above the free-decay norm at a tiny horizon: T* at most that
    t0 = 0.05
    radius = math.exp(-1.0 * t0) * 1.05
    res = ctl.solve_time_optimal(to_problem(radius=radius), T_max=1.0)
    assert res.t_star <= t0 + 1e-3
    assert res.terminal_norm <= radius


def test_time_optimal_matches_grid_scan():
    problem = to_problem()
    res = ctl.solve_time_optimal(problem, T_max=1.0)
    oracle = ctl.grid_scan_time_optimal(problem, 1.0, n_grid=400)
    assert abs(res.t_star - oracle) <= 2.5e-3


def test_time_optimal_feasibility_trace_monotone():
    res = ctl.solve_time_optimal(to_problem(), T_max=1.0)
    feas = [t for t, ok in res.trace if ok]
    infeas = [t for t, ok in res.trace if not ok]
    assert not infeas or min(feas) > max(infeas)


def test_time_optimal_shrinking_radius_increases_t_star():
    t_big = ctl.solve_time_optimal(to_problem(radius=0.3), T_max=1.0).t_star
    t_small = ctl.solve_time_optimal(to_problem(radius=0.12), T_max=1.0).t_star
    assert t_small > t_big


def test_time_optimal_infeasible_raises():
    problem = to_problem(radius=1e-4, bounds=(-0.01, 0.01))
    with pytest.raises(InfeasibleError):
        ctl.solve_time_optimal(problem, T_max=0.05)


# -- bang-bang ------------------------------------------------------------


def test_bang_bang_constant_extreme_control():
    region = FULL
    values = np.full(region.mask.shape, 2.0)
    field = ctl.ControlField(values, region, bounds=(-2.0, 2.0))
    fraction, holds = ctl.verify_bang_bang(field)
    assert fraction == 0.0 and holds


def test_bang_bang_of_time_optimal_solution():
    res = ctl.solve_time_optimal(to_problem(), T_max=1.0)
    fraction, holds = ctl.verify_bang_bang(res.control)
    assert holds
    assert fraction <= 0.05


def test_bang_bang_detects_interior_values():
    rng = np.random.default_rng(8)
    values = np.where(rng.random(FULL.mask.shape) < 0.8, 1.0, 0.0)
    field = ctl.ControlField(values, FULL, bounds=(-1.0, 1.0))
    fraction, holds = ctl.verify_bang_bang(field)
    assert fraction == pytest.approx(0.2, abs=0.02)
    assert not holds


def test_bang_bang_needs_bounds():
    with pytest.raises(ValueError):
        ctl.verify_bang_bang(ctl.ControlField.zero(FULL))
