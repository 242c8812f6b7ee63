import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab import control as ctl
from obslab import observability as obs
from obslab.errors import InsufficientTruncationError, PropertyViolation
from obslab.geometry import SpaceTimeSet, good_time_set
from obslab.semigroup import (ObservationSelector, SpectralState, evolve,
                              mode_factors)
from obslab.spectral import PhysicalParams, interval, rectangle

PI = math.pi
DOMAIN = interval(PI, n_modes=16, n_cells=512)
PARAMS = PhysicalParams(1.0, 1.0)


def random_D(seed, fill=0.3, n_time=64):
    rng = np.random.default_rng(seed)
    return SpaceTimeSet.random(DOMAIN, 1.0, n_time, rng, fill=fill,
                               min_measure_fraction=0.1)


def batch(seed, n=12, domain=DOMAIN):
    rng = np.random.default_rng(seed)
    return [SpectralState.random(domain, rng) for _ in range(n)]


# -- shared numerics ------------------------------------------------------


def profile(states, times, mask, sel=ObservationSelector.first(),
            domain=DOMAIN):
    lanes = np.stack([z.coeffs for z in states])
    return obs.observation_profile(domain, PARAMS, lanes, np.asarray(times),
                                   np.asarray(mask), sel)


def test_observation_profile_matches_direct_trace():
    # e_k(x) = sqrt(2/pi) sin(k x), lambda_k = k^2 on (0, pi); each pair
    # decays by exp(-a k^2 t) and turns by k^2 b t
    D = random_D(0)
    states = batch(1, 3)
    x = (np.arange(DOMAIN.n_cells) + 0.5) * PI / DOMAIN.n_cells
    got = {name: profile(states, D.midpoints, D.mask, sel) for name, sel in (
        ("first", ObservationSelector.first()),
        ("direction", ObservationSelector.direction(2.0, -1.0)),
        ("full", ObservationSelector.full()))}
    for b, z in enumerate(states):
        for i in (3, 17, 40):
            t = (i + 0.5) * D.dt
            v1 = np.zeros(DOMAIN.n_cells)
            v2 = np.zeros(DOMAIN.n_cells)
            for k in range(1, DOMAIN.n_modes + 1):
                c1, c2 = z.coeffs[k - 1]
                rot = k * k * PARAMS.b * t
                decay = math.exp(-PARAMS.a * k * k * t)
                e_k = math.sqrt(2.0 / PI) * np.sin(k * x)
                v1 += decay * (math.cos(rot) * c1 + math.sin(rot) * c2) * e_k
                v2 += decay * (-math.sin(rot) * c1 + math.cos(rot) * c2) * e_k
            on = D.mask[i]
            dx = PI / DOMAIN.n_cells
            for name, mag in (("first", np.abs(v1)),
                              ("direction", np.abs(2.0 * v1 - v2)),
                              ("full", np.hypot(v1, v2))):
                assert got[name][b, i] == pytest.approx(
                    mag[on].sum() * dx, rel=1e-12, abs=1e-15)


def test_observation_profile_selectors_consistent():
    # signed fields: the direction field is mu1 v1 + mu2 v2
    z = SpectralState.random(DOMAIN, np.random.default_rng(5))
    eig = DOMAIN.eigenfunctions
    (f1,) = obs.observed_fields(z.coeffs, eig, ObservationSelector.first())
    full = obs.observed_fields(z.coeffs, eig, ObservationSelector.full())
    (mu,) = obs.observed_fields(z.coeffs, eig,
                                ObservationSelector.direction(2.0, -1.0))
    assert len(full) == 2 and full[0].shape == (DOMAIN.n_cells,)
    assert np.allclose(f1, full[0])
    assert np.allclose(mu, 2.0 * full[0] - full[1])
    # the full-observation magnitude dominates any single component
    D = random_D(6)
    first = profile([z], D.midpoints, D.mask)
    both = profile([z], D.midpoints, D.mask, ObservationSelector.full())
    assert np.all(both >= first - 1e-15)


def test_observation_profile_monotone_in_mask():
    z = SpectralState.random(DOMAIN, np.random.default_rng(7))
    small = np.zeros((1, DOMAIN.n_cells), dtype=bool)
    small[:, :128] = True
    big = np.zeros((1, DOMAIN.n_cells), dtype=bool)
    big[:, :384] = True
    for sel in (ObservationSelector.first(), ObservationSelector.full()):
        assert profile([z], [0.0], small, sel) <= profile([z], [0.0], big, sel)


def test_observation_profile_full_uses_euclidean_magnitude():
    z = SpectralState.single_mode(DOMAIN, 1, (3.0, 4.0))
    full_mask = np.ones((1, DOMAIN.n_cells), dtype=bool)
    v = profile([z], [0.0], full_mask, ObservationSelector.full())
    # |(3, 4) e_1(x)| = 5 |e_1(x)|; ||e_1||_L1 = 2 sqrt(2/pi) on (0, pi)
    # midpoint quadrature of |sin| carries O(h^2) error
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(5.0 * 2.0 * math.sqrt(2.0 / PI), rel=1e-4)


def test_observation_profile_at_zero_time():
    z = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
    full_mask = np.ones((1, DOMAIN.n_cells), dtype=bool)
    v = profile([z], [0.0], full_mask)
    assert v[0, 0] == pytest.approx(2.0 * math.sqrt(2.0 / PI), rel=1e-4)


@pytest.mark.parametrize("sel", [ObservationSelector.first(),
                                 ObservationSelector.direction(0.6, -0.8),
                                 ObservationSelector.full()],
                         ids=lambda sel: sel.kind.value)
def test_observation_profile_lanes_do_not_depend_on_blocks(monkeypatch, sel):
    D = random_D(11, n_time=16)
    states = batch(12, 7)
    whole = profile(states, D.midpoints, D.mask, sel)      # one block
    assert whole.shape == (7, 16)
    for i, z in enumerate(states):
        assert np.array_equal(profile([z], D.midpoints, D.mask, sel)[0],
                              whole[i])
    # blocks of 3 lanes (the last one short) and of 1 lane
    for lanes_per_block in (3, 1):
        monkeypatch.setattr(obs, "_FIELD_BLOCK", lanes_per_block * D.mask.size)
        assert np.array_equal(profile(states, D.midpoints, D.mask, sel), whole)


def test_observation_profile_memory_does_not_grow_with_lanes():
    dom = interval(PI, n_modes=8, n_cells=1024)
    rng = np.random.default_rng(0)
    mask = rng.random((16, dom.n_cells)) < 0.5
    lanes = rng.standard_normal((65, 8, 2))
    times = np.linspace(0.05, 1.0, 16)
    sel = ObservationSelector.full()
    obs.observation_profile(dom, PARAMS, lanes[:1], times, mask, sel)  # tables
    all_lanes_field = len(lanes) * mask.size * 8      # bytes
    tracemalloc.start()
    try:
        obs.observation_profile(dom, PARAMS, lanes, times, mask, sel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_lanes_field / 8


MIRROR_DOMAIN = interval(PI, n_modes=8, n_cells=64)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["first", "direction", "full"]))
def test_observation_profile_is_invariant_under_a_spatial_mirror(seed, kind):
    # e_k(pi - x) = (-1)^(k+1) e_k(x): mirroring the region and flipping
    # mode k by (-1)^(k+1) leaves every observed norm unchanged
    rng = np.random.default_rng(seed)
    dom = MIRROR_DOMAIN
    lanes = rng.standard_normal((3, dom.n_modes, 2))
    mask = rng.random((5, dom.n_cells)) < rng.uniform(0.1, 0.9)
    times = np.sort(rng.uniform(0.0, 1.0, 5))
    sel = ObservationSelector(obs.SelectorKind(kind), *rng.standard_normal(2))
    flip = (-1.0) ** np.arange(dom.n_modes)[:, None]
    direct = obs.observation_profile(dom, PARAMS, lanes, times, mask, sel)
    mirrored = obs.observation_profile(dom, PARAMS, lanes * flip, times,
                                       mask[:, ::-1], sel)
    assert np.allclose(mirrored, direct, rtol=1e-12, atol=1e-15)


NORM_DOMAINS = {"interval": interval(PI, n_modes=12, n_cells=64),
                "rectangle": rectangle(PI, 2.0, n_modes=10, cells=(8, 6))}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(sorted(NORM_DOMAINS)))
def test_norms_at_matches_evolve_bit_for_bit(seed, kind):
    # one propagate over all lanes and times gives each state's own norm
    rng = np.random.default_rng(seed)
    dom = NORM_DOMAINS[kind]
    params = PhysicalParams(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
    lanes = rng.standard_normal((5, dom.n_modes, 2)) * rng.uniform(0.1, 10.0)
    times = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 6)])
    norms = obs.norms_at(dom, params, lanes, times)
    assert norms.shape == (5, 7)
    zn = obs.lane_norms(lanes)
    for b, coeffs in enumerate(lanes):
        z = SpectralState(coeffs, dom)
        assert zn[b] == z.norm()
        for i, t in enumerate(times):
            assert norms[b, i] == evolve(z, params, float(t)).norm()


def test_solve_increasing_inverts():
    f = lambda x: x * math.exp(2.0 * x)
    x = obs.solve_increasing(f, 5.0)
    assert f(x) == pytest.approx(5.0, rel=1e-9)
    assert obs.solve_increasing(f, 0.0) == 0.0


def test_solve_c_exp_sqrt():
    c = obs.solve_c_exp_sqrt(100.0, 4.0)
    assert c * math.exp(2.0 * c) == pytest.approx(100.0, rel=1e-9)


# -- spectral L1 constant -------------------------------------------------


def test_spectral_l1_constant_matches_brute_force():
    mids = DOMAIN.points[:, 0]
    omega = (mids > 0.5) & (mids < 1.8)
    est = obs.estimate_spectral_L1_constant(DOMAIN, 5.0, omega,
                                            rng=np.random.default_rng(0))
    oracle = obs.brute_force_min_l1_2d(DOMAIN, omega)
    assert est.k_lambda == 2
    assert est.min_l1 == pytest.approx(oracle, rel=1e-3)
    # the reported constant inverts c * exp(c sqrt(lam)) at 1 / min^2
    assert est.c_hat * math.exp(est.c_hat * math.sqrt(5.0)) == pytest.approx(
        1.0 / est.min_l1 ** 2, rel=1e-6)


def test_spectral_l1_constant_shrinks_with_omega():
    mids = DOMAIN.points[:, 0]
    big = (mids > 0.3) & (mids < 2.8)
    small = (mids > 0.3) & (mids < 1.0)
    rng = np.random.default_rng(0)
    c_big = obs.estimate_spectral_L1_constant(DOMAIN, 5.0, big, rng=rng)
    c_small = obs.estimate_spectral_L1_constant(DOMAIN, 5.0, small, rng=rng)
    assert c_small.min_l1 <= c_big.min_l1 + 1e-12
    assert c_small.c_hat >= c_big.c_hat - 1e-12


def test_spectral_l1_rejects_empty_omega():
    with pytest.raises(ValueError):
        obs.estimate_spectral_L1_constant(
            DOMAIN, 5.0, np.zeros(DOMAIN.n_cells, dtype=bool))


# -- batched sphere descent -----------------------------------------------

SMALL_DOMAINS = {"interval": interval(PI, n_modes=4, n_cells=32),
                 "rectangle": rectangle(PI, PI, n_modes=4, cells=(8, 8))}


def assert_lanes_run_alone(value_grad, starts, iters, gtol):
    """The batch returns what the best single-start run returns, bit for bit.

    Single-start results are taken in order with a strict <, so the first
    of equal values wins; a non-finite single start raises and drops out.
    """
    expected = None
    for i in range(len(starts)):
        try:
            res = obs.sphere_descent(value_grad, starts[i:i + 1], iters, gtol)
        except ArithmeticError:
            continue
        if expected is None or res[0] < expected[0]:
            expected = res
    val, y = obs.sphere_descent(value_grad, starts, iters, gtol)
    assert val == expected[0]
    assert np.array_equal(y, expected[1])
    # an objective even in y has mirrored lanes of equal value: first wins
    a = next(s for s in starts if np.isfinite(s).all())
    val_a, y_a = obs.sphere_descent(value_grad, np.stack([a, -a]), iters, gtol)
    val_b, y_b = obs.sphere_descent(value_grad, np.stack([-a, a]), iters, gtol)
    assert val_a == val_b and np.array_equal(y_a, -y_b)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(sorted(SMALL_DOMAINS)),
       st.integers(min_value=0, max_value=5))
def test_batched_ratio_descent_matches_single_starts(seed, kind, nan_lane):
    dom = SMALL_DOMAINS[kind]
    rng = np.random.default_rng(seed)
    region = SpaceTimeSet.random(dom, 1.0, 16, rng, fill=0.6,
                                 min_measure_fraction=0.1)
    op = ctl.ControlOperator(dom, PARAMS, region)
    forward = mode_factors(dom, PARAMS, region.midpoints)
    starts = rng.standard_normal((6, dom.n_modes, 2))
    starts[nan_lane] = np.nan
    assert_lanes_run_alone(lambda Y: ctl._ratio_and_grad(op, forward, Y),
                           starts, iters=60, gtol=1e-24)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5))
def test_batched_l1_descent_matches_single_starts(seed, nan_lane):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 2.0)
    mids = DOMAIN.points[:, 0]
    omega = (mids > lo) & (mids < lo + rng.uniform(0.3, 1.0))
    k = int(rng.integers(2, 7))
    value_grad = obs._l1_value_grad(DOMAIN.eigenfunctions[:k][:, omega],
                                    DOMAIN.cell_volume)
    starts = rng.standard_normal((6, k))
    starts[nan_lane] = np.nan
    assert_lanes_run_alone(value_grad, starts, iters=80, gtol=1e-20)


def test_sphere_descent_all_lanes_non_finite_raises():
    def value_grad(Y):
        return np.full(len(Y), np.nan), np.zeros_like(Y)

    with pytest.raises(ArithmeticError, match="non-finite"):
        obs.sphere_descent(value_grad, np.ones((3, 4, 2)), iters=10,
                           gtol=1e-24)
    with pytest.raises(ArithmeticError, match="non-finite"):
        obs.sphere_descent(lambda Y: (np.abs(Y).sum(axis=1), np.sign(Y)),
                           np.full((2, 5), np.nan), iters=10, gtol=1e-20)


# -- equivalence of interpolation forms ----------------------------------


def passing_triples(seed, n=16):
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.15, 0.85))
    pi1 = float(rng.uniform(0.5, 5.0))
    gamma = theta / (1.0 - theta)
    F3 = rng.uniform(0.1, 10.0, size=n)
    F2 = rng.uniform(0.0, 1.0, size=n) * F3
    envelope = np.minimum.reduce([
        pi1 * (e ** -gamma * F2 + e * F3)
        for e in np.geomspace(1e-9, 1.0 - 1e-9, 256)
    ])
    F1 = np.minimum(0.9 * envelope, F3)
    return pi1, theta, F1, F2, F3


def test_interp_equivalence_passing_triples():
    for seed in range(10):
        pi1, theta, F1, F2, F3 = passing_triples(seed)
        res = obs.interp_equivalence(pi1, theta, F1, F2, F3)
        assert res.eps_form_passed
        assert res.holds
        assert res.pi2 == 2.0 * pi1


def test_interp_equivalence_detects_violation():
    # F1 pushed above the eps-form envelope
    res = obs.interp_equivalence(1.0, 0.5, [0.99], [0.1], [1.0])
    assert not res.eps_form_passed


def scalar_equivalence(pi1, theta, F1, F2, F3):
    """The eps-form and product-form verdicts, one probe and one eps at a time."""
    gamma = theta / (1.0 - theta)
    eps_form = True
    for f1, f2, f3 in zip(F1, F2, F3):
        eps_vals = list(np.geomspace(1e-9, 1.0 - 1e-9, 64))
        if f3 > 0 and f2 > 0:
            eps_star = (f2 / f3) ** (1.0 / (gamma + 1.0))
            if 0.0 < eps_star < 1.0:
                eps_vals.append(eps_star)
        bound = min(pi1 * (e ** -gamma * f2 + e * f3) for e in eps_vals)
        if f1 > bound * (1 + 1e-12):
            eps_form = False
    holds = all(f1 <= 2.0 * pi1 * f2 ** (1.0 - theta) * f3 ** theta
                * (1 + 1e-9) + 1e-300 for f1, f2, f3 in zip(F1, F2, F3))
    return eps_form, holds


@pytest.mark.parametrize("probes", [1, 3])
def test_interp_equivalence_matches_a_scalar_reference(probes):
    # F1 spread around the product form, which the eps-form bound takes at
    # each probe's eps*: near theta = 1/2 that beats every grid point, so
    # eps* decides the tight probes
    rng = np.random.default_rng(probes)
    verdicts = set()
    for i in range(400):
        theta = float(rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(0.45, 0.55))
        pi1 = float(rng.uniform(0.5, 2.0))
        F3 = rng.uniform(0.1, 10.0, size=probes)
        F2 = 10.0 ** rng.uniform(-8.0, 0.5, size=probes) * F3
        product = 2.0 * pi1 * F2 ** (1.0 - theta) * F3 ** theta
        F1 = np.minimum(product * rng.uniform(0.99, 1.01, size=probes), F3)
        res = obs.interp_equivalence(pi1, theta, F1, F2, F3)
        got = (res.eps_form_passed, res.holds)
        assert got == scalar_equivalence(pi1, theta, F1, F2, F3)
        verdicts.add(got)
    assert {(True, True), (False, True), (False, False)} <= verdicts


def test_interp_equivalence_probes_without_optimal_eps_stay_quiet():
    # F2 = 0 or F3 = 0 leaves a probe no optimal eps, and no numpy warning
    F1, F2, F3 = [0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = obs.interp_equivalence(1.5, 0.4, F1, F2, F3)
    assert (res.eps_form_passed, res.holds) == scalar_equivalence(
        1.5, 0.4, F1, F2, F3)


def test_interp_equivalence_requires_f1_below_f3():
    with pytest.raises(ValueError):
        obs.interp_equivalence(1.0, 0.5, [2.0], [0.5], [1.0])


def test_interpolation_params_validation():
    with pytest.raises(ValueError):
        obs.InterpolationParams(0.0, 0.2, 0.8)
    with pytest.raises(ValueError):
        obs.InterpolationParams(0.5, 0.8, 0.2)
    ip = obs.InterpolationParams(0.25, 0.2, 0.8)
    assert ip.gamma == pytest.approx(1.0 / 3.0)


# -- integral interpolation ----------------------------------------------


def test_integral_interpolation_constants():
    D = random_D(3)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, batch(4))
    assert math.isfinite(rep.K_hat) and rep.K_hat > 0
    assert rep.window_measure > 0
    assert np.all(rep.integrals > 0)
    # the fitted M reproduces at least K_hat through the constant template
    assert ip.constant_template(rep.M_hat, rep.window_measure) >= rep.K_hat * (1 - 1e-9)


def test_integral_interpolation_sums_each_lane_as_alone():
    # the batch's window sums equal each state's own profile sum, bit for bit
    D = random_D(3)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    states = batch(4, 32)
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, states)
    E = good_time_set(D, *obs.covering_ball(DOMAIN)).times
    window = E.mask & (D.midpoints >= ip.s1) & (D.midpoints <= ip.s2)
    for z, integral in zip(states, rep.integrals):
        alone = profile([z], D.midpoints, D.mask)[0]
        assert integral == float(alone[window].sum()) * D.dt


def test_integral_interpolation_adversarial_states_do_not_cancel():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    adversarial = [
        obs.single_time_counterexample(DOMAIN, PARAMS, 0.5).state,
        obs.multi_time_counterexample(DOMAIN, PARAMS, 1.0, 3).state,
    ]
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, adversarial)
    assert np.all(rep.integrals > 1e-8)
    assert math.isfinite(rep.K_hat)


# -- counterexamples ------------------------------------------------------


def test_single_time_counterexample_exact():
    S = 0.37
    rep = obs.pointwise_failure_demo(DOMAIN, PARAMS, S=S, mode=2)
    assert float(rep.first_residuals.max()) <= 1e-10
    lam = DOMAIN.eigenvalues[1]
    z = rep.counterexample.state
    assert evolve(z, PARAMS, 1.0).norm() >= math.exp(-lam) - 1e-12
    assert float(rep.full_traces.min()) >= rep.full_floor


def test_multi_time_counterexample_picks_smallest_mode():
    cex = obs.multi_time_counterexample(DOMAIN, PARAMS, 1.0, 3)
    assert cex.mode == 6
    assert np.allclose(cex.times, [i * PI / 18.0 for i in (1, 2, 3)])


def test_multi_time_counterexample_negative_coupling():
    params = PhysicalParams(1.0, -1.0)
    cex = obs.multi_time_counterexample(DOMAIN, params, 1.0, 3)
    assert all(0.0 < t < 1.0 for t in cex.times)
    rep = obs.pointwise_failure_demo(DOMAIN, params, horizon=1.0, m=3)
    assert float(rep.first_residuals.max()) <= 1e-10


def test_multi_time_counterexample_needs_enough_modes():
    small = interval(PI, n_modes=2)
    with pytest.raises(InsufficientTruncationError):
        obs.multi_time_counterexample(small, PARAMS, 1.0, 3)


def test_pointwise_failure_demo_argument_check():
    with pytest.raises(ValueError):
        obs.pointwise_failure_demo(DOMAIN, PARAMS)


# -- direction and full observation --------------------------------------


def test_direction_observation_reduces_to_first_component():
    D = random_D(5)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    rep = obs.verify_direction_observation(DOMAIN, PARAMS, D, ip,
                                           mu1=2.0, mu2=-1.0, z_batch=batch(6))
    assert rep.amplitude_defect <= 1e-12
    assert rep.field_defect <= 1e-10
    assert math.isfinite(rep.interpolation.K_hat)


def test_direction_transform_amplitude():
    z = batch(7, 1)[0]
    phi = obs.direction_transform(z, 3.0, 4.0)
    assert phi.norm() ** 2 == pytest.approx(25.0 * z.norm() ** 2, rel=1e-12)


def test_full_observation_pointwise_constants():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    rep = obs.verify_full_observation_pointwise(DOMAIN, PARAMS, D, theta=0.5,
                                                t_list=[0.2, 0.5, 0.9],
                                                z_batch=batch(8))
    assert np.all(np.isfinite(rep.M_hats))
    assert np.all(rep.min_traces > 0)


def test_full_observation_rejects_time_outside_e():
    rng = np.random.default_rng(9)
    mask = np.zeros((64, DOMAIN.n_cells), dtype=bool)
    mask[:32] = rng.random((32, DOMAIN.n_cells)) < 0.5
    D = SpaceTimeSet(mask, 1.0, DOMAIN)
    with pytest.raises(ValueError):
        obs.verify_full_observation_pointwise(DOMAIN, PARAMS, D, 0.5,
                                              [0.9], batch(10, 2))


# -- telescoping chain ----------------------------------------------------


def test_telescope_chain_dominates():
    rng = np.random.default_rng(21)
    D = SpaceTimeSet.random(DOMAIN, 1.0, 128, rng, fill=0.5,
                            min_measure_fraction=0.4)
    rep = obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=1.0, depth=6,
                                   z_batch=batch(22))
    assert rep.dominated
    assert math.isfinite(rep.N_hat) and rep.N_hat > 0
    assert rep.mu == pytest.approx(math.sqrt(1.5))
    assert rep.theta == pytest.approx(0.5)
    assert np.all(rep.ring_constants > 0)
    assert rep.C_hat >= 0.0


def test_telescope_full_cylinder():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    rep = obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=2.0, depth=5,
                                   z_batch=batch(23, 8))
    assert rep.dominated
    assert rep.theta == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("depth", [2, 3])
def test_telescope_needs_a_ring_observation_term(depth):
    # below depth 4 the chain has no ring observation, so nothing to check
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    with pytest.raises(ValueError, match="depth >= 4"):
        obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=1.0, depth=depth,
                                 z_batch=batch(23, 2))


# -- checks that hold under python -O -------------------------------------


def zero_profile(domain, params, lanes, times, mask, sel):
    return np.zeros((len(lanes), len(mask)))


def test_integral_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "observation_profile", zero_profile)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    with pytest.raises(PropertyViolation, match="integral observation"):
        obs.verify_integral_interpolation(DOMAIN, PARAMS, random_D(3), ip,
                                          batch(4, 2))


def test_integral_interpolation_non_finite_constant_raises(monkeypatch):
    def unbounded(domain, params, lanes, times):
        return np.full((len(lanes), len(times)), math.inf)

    monkeypatch.setattr(obs, "norms_at", unbounded)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    with pytest.raises(ArithmeticError, match="not finite"):
        obs.verify_integral_interpolation(DOMAIN, PARAMS, random_D(3), ip,
                                          batch(4, 2))


def test_full_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "observation_profile", zero_profile)
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    with pytest.raises(PropertyViolation, match="full observation"):
        obs.verify_full_observation_pointwise(DOMAIN, PARAMS, D, 0.5, [0.5],
                                              batch(8, 2))


def test_ring_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "observation_profile", zero_profile)
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    with pytest.raises(PropertyViolation, match="ring observation"):
        obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=2.0, depth=5,
                                 z_batch=batch(23, 2))
