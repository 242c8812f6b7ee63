import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab import control as ctl
from obslab import observability as obs
from obslab.config import ExperimentConfig
from obslab.errors import ConvergenceError, InfeasibleError, PropertyViolation
from obslab.geometry import SpaceTimeSet
from obslab.semigroup import SpectralState, evolve, mode_factors, propagate
from obslab.spectral import PhysicalParams, interval, rectangle

PI = math.pi
DOMAIN = interval(PI, n_modes=8, n_cells=256)
PARAMS = PhysicalParams(1.0, 1.0)
V0 = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
FULL = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)


def null_problem(region=FULL, v0=V0):
    return ctl.ControlProblem(DOMAIN, PARAMS, v0, region=region)


def dual_problem(seed, horizon=1.0):
    """A random region at the sizes of the benchmark's dual workload."""
    dom = interval(PI, n_modes=6, n_cells=48)
    region = SpaceTimeSet.random(dom, horizon, 32, np.random.default_rng(seed),
                                 fill=0.6, min_measure_fraction=0.1)
    assert not np.array_equal(region.mask, region.mask[::-1])
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    return ctl.ControlProblem(dom, PARAMS, v0, region=region)


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
        ctl.ControlProblem(DOMAIN, PARAMS, V0)
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0, region=FULL,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0,
                           omega=np.ones(DOMAIN.n_cells, dtype=bool),
                           bounds=(1.0, -1.0))
    with pytest.raises(ValueError):
        ctl.ControlProblem(DOMAIN, PARAMS, V0,
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


def test_estimate_l_positive_and_monotone_in_region_rectangle():
    dom = rectangle(PI, PI, n_modes=8, cells=(16, 16))
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    full = SpaceTimeSet.full_cylinder(dom, 1.0, 32)
    half_mask = full.mask.copy()
    half_mask[full.n_time // 2:] = False
    half = SpaceTimeSet(half_mask, 1.0, dom)
    L = [ctl.estimate_L(ctl.ControlProblem(dom, PARAMS, v0, region=r),
                        restarts=12, rng=np.random.default_rng(3))
         for r in (full, half)]
    assert L[0] > 0 and L[1] > 0
    assert L[1] <= L[0] + 1e-9


def test_estimate_l_pinned_value():
    # reference value of the per-start form of the descent
    dom = interval(PI, n_modes=6, n_cells=48)
    region = SpaceTimeSet.random(dom, 1.0, 32, np.random.default_rng(5),
                                 fill=0.6, min_measure_fraction=0.1)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    problem = ctl.ControlProblem(dom, PARAMS, v0, region=region)
    L = ctl.estimate_L(problem, restarts=16, rng=np.random.default_rng(7))
    assert L == pytest.approx(0.3003544644447294, rel=1e-12)


def test_estimate_l_raises_when_ratio_collapses(monkeypatch):
    monkeypatch.setattr(ctl, "_ratio_and_grad",
                        lambda op, forward, Y: (np.zeros(len(Y)),
                                                np.zeros_like(Y)))
    with pytest.raises(ArithmeticError, match="collapsed to zero"):
        ctl.estimate_L(null_problem(), restarts=4)


def ratio_case(n_cells, n_time, lanes):
    dom = interval(PI, n_modes=8, n_cells=n_cells)
    rng = np.random.default_rng(0)
    region = SpaceTimeSet.random(dom, 1.0, n_time, rng, fill=0.6,
                                 min_measure_fraction=0.1)
    op = ctl.ControlOperator(dom, PARAMS, region)
    forward = mode_factors(dom, PARAMS, region.midpoints)
    return op, forward, rng.standard_normal((lanes, 8, 2))


def test_ratio_and_grad_lanes_do_not_depend_on_blocks(monkeypatch):
    op, forward, Y = ratio_case(32, 16, 7)
    val, grad = ctl._ratio_and_grad(op, forward, Y)     # one block
    for i in range(len(Y)):
        v1, g1 = ctl._ratio_and_grad(op, forward, Y[i:i + 1])
        assert v1[0] == val[i] and np.array_equal(g1[0], grad[i])
    # blocks of 3 lanes (the last one short) and of 1 lane
    for lanes_per_block in (3, 1):
        monkeypatch.setattr(obs, "_FIELD_BLOCK", lanes_per_block * 16 * 32)
        v, g = ctl._ratio_and_grad(op, forward, Y)
        assert np.array_equal(v, val) and np.array_equal(g, grad)


def test_ratio_and_grad_memory_does_not_grow_with_lanes():
    op, forward, Y = ratio_case(1024, 16, 65)
    all_lanes_field = len(Y) * op.region.mask.size * 8      # bytes
    tracemalloc.start()
    try:
        ctl._ratio_and_grad(op, forward, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_lanes_field / 8


def test_estimate_l_single_mode_brute_force():
    dom = interval(PI, n_modes=1, n_cells=256)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    region = SpaceTimeSet.full_cylinder(dom, 1.0, 64)
    problem = ctl.ControlProblem(dom, PARAMS, v0, region=region)
    L = ctl.estimate_L(problem, restarts=16, rng=np.random.default_rng(4))
    oracle = ctl.brute_force_single_mode_ratio(problem)
    assert L == pytest.approx(oracle, rel=1e-3)


def test_estimate_l_single_mode_brute_force_on_a_region_asymmetric_in_time():
    # the full cylinder is symmetric under s -> T - s, so there a kernel that
    # evaluates its traces at T - s still matches the oracle
    dom = interval(PI, n_modes=1, n_cells=64)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    region = SpaceTimeSet.random(dom, 1.0, 32, np.random.default_rng(3),
                                 fill=0.5)
    assert not np.array_equal(region.mask, region.mask[::-1])
    problem = ctl.ControlProblem(dom, PARAMS, v0, region=region)
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


@pytest.mark.parametrize("tol", [2e-6, 0.05])
def test_duality_defect_passes_exact_pairings_and_catches_a_scaled_adjoint(
        monkeypatch, tol):
    # each probe is measured against the sizes of the pairing's two terms,
    # so a correct pairing stays near rounding however small v(T) gets
    problem = dual_problem(0)
    field, _ = ctl.synthesize_null_control(problem, tol)
    assert ctl.duality_defect(problem, field) <= 1e-8
    adjoint = ctl.ControlOperator.adjoint
    monkeypatch.setattr(ctl.ControlOperator, "adjoint",
                        lambda op, y: adjoint(op, y) * (1.0 + 1e-6))
    assert ctl.duality_defect(problem, field) > 1e-8


def reference_defect(problem, field, rng):
    """duality_defect's pairing, one probe at a time."""
    op = ctl.ControlOperator(problem.domain, problem.params, field.region)
    v0 = problem.v0.coeffs
    vT = op.free(problem.v0) + op.apply(field.values)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(v0.shape)
        lhs = float(np.sum(vT * z))
        free_term = float(np.sum(v0 * propagate(op.at_horizon, z)))
        control_term = float(np.sum(field.values * op.adjoint(z)) * op.weight)
        scale = max(abs(free_term) + abs(control_term), 1e-30)
        worst = max(worst, abs(lhs - (free_term + control_term)) / scale)
    return worst


def random_control(problem, seed):
    region = problem.region
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, region.mask.shape)
    return ctl.ControlField(u * region.mask, region)


@pytest.mark.parametrize("rect", [False, True])
def test_duality_defect_matches_a_probe_loop_at_every_block_size(
        monkeypatch, rect):
    if rect:
        dom = rectangle(PI, PI, n_modes=6, cells=(8, 6))
        region = SpaceTimeSet.random(dom, 1.0, 16, np.random.default_rng(3),
                                     fill=0.5, min_measure_fraction=0.1)
        v0 = SpectralState.random(dom, np.random.default_rng(4))
        problem = ctl.ControlProblem(dom, PARAMS, v0, region=region)
    else:
        problem = dual_problem(1)
    field = random_control(problem, 5)
    expected = reference_defect(problem, field, np.random.default_rng(7))
    assert expected > 0.0
    lane = field.values.size
    for lanes_per_block in (None, *range(1, 101)):
        if lanes_per_block is not None:
            monkeypatch.setattr(obs, "_FIELD_BLOCK", lanes_per_block * lane)
        got = ctl.duality_defect(problem, field, rng=np.random.default_rng(7))
        assert got == expected


def test_duality_defect_memory_does_not_grow_with_probes():
    dom = interval(PI, n_modes=8, n_cells=1024)
    region = SpaceTimeSet.full_cylinder(dom, 1.0, 32)
    problem = ctl.ControlProblem(dom, PARAMS, SpectralState.single_mode(
        dom, 1, (1.0, 0.0)), region=region)
    field = random_control(problem, 0)
    ctl.duality_defect(problem, field)                  # tables, caches
    all_probes_field = 100 * field.values.size * 8      # bytes
    tracemalloc.start()
    try:
        ctl.duality_defect(problem, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_probes_field / 8


def test_null_control_tol_validation():
    with pytest.raises(ValueError):
        ctl.synthesize_null_control(null_problem(), 0.5)


def test_null_control_budget_exhaustion_reports_best():
    # Newton meets this target after 47 trial points
    with pytest.raises(ConvergenceError) as err:
        ctl.synthesize_null_control(null_problem(), tol=1.5e-6, budget=40)
    assert isinstance(err.value.best, ctl.ControlField)


def test_null_control_pinned_certificate():
    field, cert = ctl.synthesize_null_control(dual_problem(11), 0.05)
    assert cert.terminal_norm == 0.0067342317248701026
    assert cert.sup_norm == 1.6301275067227572
    assert cert.least_sup_lower == 1.6307711689758455
    assert cert.dual_value == -1.329508770928693
    assert (cert.newton_steps, cert.mu) == (11, 0.1)


def test_null_control_one_dual_field_per_iterate(monkeypatch):
    calls = []
    dual_field = ctl.ControlOperator.dual_field

    def counted(op, z):
        calls.append(z)
        return dual_field(op, z)

    monkeypatch.setattr(ctl.ControlOperator, "dual_field", counted)
    monkeypatch.setattr(ctl, "estimate_L", lambda *args, **kwargs: 1e-3)
    _, cert = ctl.synthesize_null_control(dual_problem(11), tol=1.5e-6)
    stages = ctl._MU_STAGES.index(cert.mu) + 1
    assert stages > 1
    assert len(calls) <= cert.newton_steps + stages


@pytest.mark.parametrize("horizon", [1.0, 2.0])
def test_null_control_bound_holds_on_asymmetric_regions(horizon):
    # the dual field observes z at T - s, so the bound rests on the
    # observability constant of the region reflected in time
    for seed in range(8):
        field, cert = ctl.synthesize_null_control(
            dual_problem(seed, horizon), 0.05, rng=np.random.default_rng(seed))
        assert field.sup_norm <= cert.control_bound * (1.0 + 1e-6)
        assert field.sup_norm <= cert.least_sup_lower <= cert.control_bound


@pytest.mark.parametrize("domain", [interval(PI, n_modes=6, n_cells=48),
                                    rectangle(PI, PI, n_modes=6, cells=(8, 8))])
def test_null_control_negated_initial_state(domain):
    # v0 -> -v0 maps the dual problem onto itself through z -> -z
    region = SpaceTimeSet.random(domain, 1.0, 16, np.random.default_rng(3),
                                 fill=0.6, min_measure_fraction=0.1)
    v0 = SpectralState.single_mode(domain, 1, (1.0, 0.0))
    out = []
    for sign in (1.0, -1.0):
        problem = ctl.ControlProblem(domain, PARAMS, SpectralState(
            sign * v0.coeffs, domain), region=region)
        out.append(ctl.synthesize_null_control(
            problem, 0.05, rng=np.random.default_rng(3)))
    (field, cert), (neg_field, neg_cert) = out
    assert np.array_equal(neg_field.values, -field.values)
    assert np.array_equal(neg_cert.z_star.coeffs, -cert.z_star.coeffs)
    assert dataclasses.replace(neg_cert, z_star=cert.z_star) == cert


@pytest.mark.parametrize("domain", [interval(PI, n_modes=8, n_cells=64),
                                    rectangle(PI, PI, n_modes=6, cells=(8, 8))])
def test_gram_matches_column_loop(domain):
    region = SpaceTimeSet.random(domain, 1.0, 32, np.random.default_rng(3),
                                 fill=0.5)
    op = ctl.ControlOperator(domain, PARAMS, region)
    weights = np.random.default_rng(1).uniform(0.5, 2.0, region.mask.shape)
    n = domain.n_modes
    loop = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        e = np.zeros((n, 2))
        e[i // 2, i % 2] = 1.0
        loop[:, i] = op.apply(op.adjoint(e) * weights).ravel()
    gram = op.gram(weights) * (region.dt * domain.cell_volume)
    assert np.abs(gram - loop).max() <= 1e-12 * np.abs(loop).max()


def test_certificate_check_raises_with_both_numbers():
    cert = ctl.DualityCertificate(z_star=V0, dual_value=0.0,
                                  terminal_norm=0.005, sup_norm=2.5,
                                  L_hat=0.5, tol=0.01, v0_norm=1.0)
    assert cert.control_bound == 2.0
    with pytest.raises(PropertyViolation, match=r"2\.5 .* 2\.00000"):
        cert.check()
    late = dataclasses.replace(cert, terminal_norm=0.02, sup_norm=1.0)
    with pytest.raises(PropertyViolation, match=r"0\.02 .* 0\.01"):
        late.check()
    dataclasses.replace(late, terminal_norm=0.01).check()


def test_least_squares_oracle_reaches_target():
    field, terminal = ctl.least_squares_null_control(null_problem())
    assert terminal <= 1e-8
    assert field.sup_norm > 0


# -- time-optimal ---------------------------------------------------------


def to_problem(radius=0.15, bounds=(-1.0, 1.0), n_modes=4):
    dom = interval(PI, n_modes=n_modes, n_cells=128)
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    return ctl.ControlProblem(dom, PARAMS, v0,
                              omega=np.ones(dom.n_cells, dtype=bool),
                              bounds=bounds, radius=radius, n_time=64)


def rect_problem(radius=0.2, bounds=(-1.0, 1.0)):
    dom = rectangle(PI, PI, n_modes=8, cells=(8, 8))
    v0 = SpectralState.single_mode(dom, 1, (1.0, 0.0))
    return ctl.ControlProblem(dom, PARAMS, v0,
                              omega=np.ones(dom.n_cells, dtype=bool),
                              bounds=bounds, radius=radius, n_time=32)


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


def test_time_optimal_matches_grid_scan_on_a_rectangle():
    problem = rect_problem()
    res = ctl.solve_time_optimal(problem, T_max=1.0)
    oracle = ctl.grid_scan_time_optimal(problem, 1.0, n_grid=400)
    assert abs(res.t_star - oracle) <= 2.5e-3


@settings(max_examples=8, deadline=None)
@given(rect=st.booleans(), radius=st.floats(0.12, 0.34))
def test_time_optimal_feasibility_trace_monotone(rect, radius):
    """On real solves every infeasible trial time lies below every feasible one."""
    make = rect_problem if rect else to_problem
    res = ctl.solve_time_optimal(make(radius=radius), T_max=1.0)
    feas = [t for t, ok in res.trace if ok]
    infeas = [t for t, ok in res.trace if not ok]
    assert max(infeas, default=0.0) < min(feas) == res.t_star


def test_time_optimal_shrinking_radius_increases_t_star():
    t_big = ctl.solve_time_optimal(to_problem(radius=0.3), T_max=1.0).t_star
    t_small = ctl.solve_time_optimal(to_problem(radius=0.12), T_max=1.0).t_star
    assert t_small > t_big


def test_time_optimal_infeasible_raises():
    problem = to_problem(radius=1e-4, bounds=(-0.01, 0.01))
    with pytest.raises(InfeasibleError):
        ctl.solve_time_optimal(problem, T_max=0.05)


def test_time_optimal_infeasible_names_its_certificate():
    problem = to_problem(radius=1e-4, bounds=(-0.01, 0.01))
    with pytest.raises(InfeasibleError, match=r"distance >= \d") as err:
        ctl.solve_time_optimal(problem, T_max=0.05)
    assert not re.search(r"\binf\b", str(err.value))
    stalled = ctl.Trial(1.0, 0.0, 0.5, 151, "stalled").describe()
    assert "uncertified" in stalled and not re.search(r"\binf\b", stalled)


@settings(max_examples=40, deadline=None)
@given(rect=st.booleans(), seed=st.integers(0, 2**32 - 1),
       T=st.floats(0.05, 1.0), nu1=st.floats(-2.0, 0.5),
       width=st.floats(0.1, 3.0))
def test_dual_bound_below_every_admissible_norm(rect, seed, T, nu1, width):
    """Weak duality: the bound from any residual direction is below the
    terminal norm of every admissible control, bang-bang corners included."""
    bounds = (nu1, nu1 + width)
    problem = (rect_problem if rect else to_problem)(bounds=bounds)
    region = problem.region_at(T)
    op = ctl.ControlOperator(problem.domain, problem.params, region)
    free = evolve(problem.v0, problem.params, T, transpose=True).coeffs
    wgt = region.dt * problem.domain.cell_volume
    rng = np.random.default_rng(seed)
    shape = region.mask.shape
    controls = [rng.uniform(*bounds, shape),
                np.where(rng.random(shape) < 0.5, *bounds),
                np.full(shape, bounds[0]), np.full(shape, bounds[1])]
    directions = [rng.standard_normal(free.shape)]
    directions += [free + op.apply(u) for u in controls]
    for r in directions:
        lower = ctl._dual_bound(free, r, op.adjoint(r) * wgt, bounds)
        for u in controls:
            norm = float(np.linalg.norm(free + op.apply(u)))
            assert lower <= norm * (1.0 + 1e-12) + 1e-15


# t* and trial counts of the benchmark's time-optimal cases, as built by the
# CLI at the default config; the certified trials reach the same decisions
# as the stall-decided ones did.
TIMEOPT_PINS = [
    ({"kind": "interval"}, 0.2, 0.3994140625),
    ({"kind": "rectangle", "nx": 16, "ny": 16}, 0.2, 0.2509765625),
    ({"kind": "interval"}, 0.25, 0.359375),
    ({"kind": "rectangle", "nx": 16, "ny": 16}, 0.25, 0.2197265625),
]


def cli_problem(radius, **domain):
    cfg = ExperimentConfig().replaced(radius=radius, **domain)
    dom = cfg.build_domain()
    return ctl.ControlProblem(dom, cfg.build_params(),
                              SpectralState.single_mode(dom, 1, (1.0, 0.0)),
                              omega=np.ones(dom.n_cells, dtype=bool),
                              bounds=(cfg.nu1, cfg.nu2), radius=radius,
                              n_time=cfg.n_time)


@pytest.mark.parametrize("domain,radius,t_star", TIMEOPT_PINS)
def test_time_optimal_pinned_benchmark_cases(domain, radius, t_star):
    res = ctl.solve_time_optimal(cli_problem(radius, **domain), T_max=1.0)
    assert res.t_star == t_star
    assert len(res.trace) == len(res.trials) == 11
    assert res.stalled_trials == 0
    assert res.terminal_norm <= radius
    assert res.polish.lower <= res.terminal_norm == res.polish.upper
    assert ctl.verify_bang_bang(res.control)[1]


def test_time_optimal_one_apply_per_iteration(monkeypatch):
    calls = [0]
    apply = ctl.ControlOperator.apply

    def counted(self, u):
        calls[0] += 1
        return apply(self, u)

    solve = ctl._feasibility_min
    spent = []

    def recorded(*args, **kwargs):
        before = calls[0]
        trial, u, region = solve(*args, **kwargs)
        spent.append((calls[0] - before, trial.iterations))
        return trial, u, region

    monkeypatch.setattr(ctl.ControlOperator, "apply", counted)
    monkeypatch.setattr(ctl, "_feasibility_min", recorded)
    res = ctl.solve_time_optimal(to_problem(), T_max=1.0)
    assert len(spent) == len(res.trials)              # the polish is Newton's
    assert sum(it for _, it in spent) > len(spent)
    assert all(applies <= it + 1 for applies, it in spent)


@settings(max_examples=30, deadline=None)
@given(rect=st.booleans(), seed=st.integers(0, 2**32 - 1),
       T=st.floats(0.05, 1.0), nu1=st.floats(-2.0, 0.5),
       width=st.floats(0.1, 3.0), mu=st.floats(1e-8, 1.0))
def test_polish_dual_below_every_admissible_norm(rect, seed, T, nu1, width,
                                                 mu):
    """Weak duality of the polish's functional: D_mu(r) <= D_0(r) <=
    ||free + G u||^2 / 2 for admissible u, bang-bang corners included, at
    random dual points and at the residual of the plain minimisation."""
    bounds = (nu1, nu1 + width)
    problem = (rect_problem if rect else to_problem)(bounds=bounds)
    region = problem.region_at(T)
    op = ctl.ControlOperator(problem.domain, problem.params, region)
    free = evolve(problem.v0, problem.params, T, transpose=True).coeffs
    rng = np.random.default_rng(seed)
    shape = region.mask.shape
    controls = [rng.uniform(*bounds, shape),
                np.where(rng.random(shape) < 0.5, *bounds),
                np.full(shape, bounds[0]), np.full(shape, bounds[1])]
    controls.append(ctl._feasibility_min(problem, T, u0=controls[0])[1])
    points = [rng.standard_normal(free.shape)]
    points += [free + op.apply(u) for u in controls]
    for r in points:
        W = op.dual_field(r)
        smoothed = ctl._box_dual(op, free, bounds, r, W,
                                 np.sqrt(W * W + mu * mu))
        exact = ctl._box_dual(op, free, bounds, r, W, np.abs(W))
        assert smoothed <= exact
        for u in controls:
            half_sq = 0.5 * float(np.sum((free + op.apply(u)) ** 2))
            assert exact <= half_sq * (1.0 + 1e-12) + 1e-15


@pytest.mark.parametrize("domain,radius",
                         [(d, r) for d, r, _ in TIMEOPT_PINS]
                         + [({"kind": "interval", "n_modes": 8}, 0.15)])
def test_time_optimal_polish_brackets_the_plain_minimum(domain, radius):
    """The Newton polish and the independent projected-gradient minimisation
    at t_star bracket the same minimum norm."""
    problem = cli_problem(radius, **domain)
    res = ctl.solve_time_optimal(problem, T_max=1.0)
    polish = res.polish
    assert polish.stop == "converged"
    assert 0.0 <= polish.upper - polish.lower <= 1e-8
    plain, u, op = ctl._feasibility_min(problem, res.t_star)
    free = op.free(problem.v0)
    resid = free + op.apply(u)
    lower = ctl._dual_bound(free, resid, op.adjoint(resid) * op.weight,
                            problem.bounds)
    assert polish.lower <= plain.upper * (1.0 + 1e-12)
    assert lower <= polish.upper * (1.0 + 1e-12)


def test_time_optimal_polish_one_dual_field_per_trial_point(monkeypatch):
    calls = [0]
    dual_field = ctl.ControlOperator.dual_field

    def counted(self, z):
        calls[0] += 1
        return dual_field(self, z)

    polish = ctl._polish
    spent = []

    def recorded(*args):
        before = calls[0]
        out = polish(*args)
        spent.append((calls[0] - before, out[0]))
        return out

    monkeypatch.setattr(ctl.ControlOperator, "dual_field", counted)
    monkeypatch.setattr(ctl, "_polish", recorded)
    res = ctl.solve_time_optimal(to_problem(), T_max=1.0)
    ((fields, trial),) = spent
    assert trial is res.polish and trial.stop == "converged"
    assert trial.iterations > len(ctl._MU_STAGES)
    assert fields <= trial.iterations + len(ctl._MU_STAGES)
    assert res.polish_mu == ctl._MU_STAGES[-1]


def test_time_optimal_polish_budget_is_reported(monkeypatch):
    monkeypatch.setattr(ctl, "_POLISH_BUDGET", 5)
    res = ctl.solve_time_optimal(to_problem(), T_max=1.0)
    assert res.polish.stop == "budget" and res.polish.iterations == 5
    assert res.polish.lower <= res.polish.upper == res.terminal_norm
    assert res.control.is_admissible()


def test_grid_scan_never_evaluates_the_dual_bound(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle evaluated the dual bound")

    monkeypatch.setattr(ctl, "_dual_bound", forbidden)
    oracle = ctl.grid_scan_time_optimal(to_problem(), 1.0, n_grid=20)
    assert oracle == pytest.approx(0.55)


@settings(max_examples=10, deadline=None)
@given(rect=st.booleans(), r1=st.floats(0.12, 0.34),
       step=st.floats(0.005, 0.1))
def test_time_optimal_t_star_monotone_in_random_radii(rect, r1, step):
    """A larger target ball is reached no later, up to the bisection width."""
    make = rect_problem if rect else to_problem
    t1 = ctl.solve_time_optimal(make(radius=r1), T_max=1.0)
    t2 = ctl.solve_time_optimal(make(radius=r1 + step), T_max=1.0)
    assert t1.t_star > t2.t_star - 1e-3


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
