import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab import control as ctl
from obslab import observability as obs
from obslab.errors import InsufficientTruncationError, PropertyViolation
from obslab.geometry import SpaceTimeSet
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


def test_observation_profile_matches_direct_trace():
    from obslab.semigroup import observed_trace_L1
    D = random_D(0)
    z = batch(1, 1)[0]
    profile = obs.observation_profile(z, PARAMS, D, ObservationSelector.first())
    for i in (3, 17, 40):
        t = (i + 0.5) * D.dt
        direct = observed_trace_L1(z, PARAMS, ObservationSelector.first(), t,
                                   D.mask[i])
        assert profile[i] == pytest.approx(direct, rel=1e-12, abs=1e-15)


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


# -- checks that hold under python -O -------------------------------------


def zero_profile(state, params, D, sel):
    return np.zeros(D.n_time)


def test_integral_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "observation_profile", zero_profile)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    with pytest.raises(PropertyViolation, match="integral observation"):
        obs.verify_integral_interpolation(DOMAIN, PARAMS, random_D(3), ip,
                                          batch(4, 2))


def test_integral_interpolation_non_finite_constant_raises(monkeypatch):
    class Unbounded:
        def norm(self):
            return math.inf

    monkeypatch.setattr(obs, "evolve", lambda z, params, t: Unbounded())
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    with pytest.raises(ArithmeticError, match="not finite"):
        obs.verify_integral_interpolation(DOMAIN, PARAMS, random_D(3), ip,
                                          batch(4, 2))


def test_full_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "masked_l1", lambda field, mask, cell_volume: 0.0)
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
