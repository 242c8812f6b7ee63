import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab.semigroup import (ObservationSelector, SpectralState, evolve,
                              masked_l1, mode_factors, observe,
                              observed_trace_L1, propagate)
from obslab.spectral import PhysicalParams, interval

PI = math.pi
DOMAIN = interval(PI, n_modes=8, n_cells=256)
PARAMS = PhysicalParams(1.0, 1.0)


def test_single_mode_norm_decays_exactly():
    z = SpectralState.single_mode(DOMAIN, 3, (0.6, -0.8))
    lam = DOMAIN.eigenvalues[2]
    for t in (0.0, 0.1, 0.7):
        assert evolve(z, PARAMS, t).norm() == pytest.approx(
            math.exp(-PARAMS.a * lam * t), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_semigroup_composition(t, s, seed):
    rng = np.random.default_rng(seed)
    z = SpectralState.random(DOMAIN, rng)
    once = evolve(z, PARAMS, t + s)
    twice = evolve(evolve(z, PARAMS, t), PARAMS, s)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_norm_never_grows(t, seed):
    rng = np.random.default_rng(seed)
    z = SpectralState.random(DOMAIN, rng)
    assert evolve(z, PARAMS, t).norm() <= z.norm() + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_transposed_semigroup_composition(t, s, seed):
    rng = np.random.default_rng(seed)
    z = SpectralState.random(DOMAIN, rng)
    once = evolve(z, PARAMS, s + t, transpose=True)
    twice = evolve(evolve(z, PARAMS, s, transpose=True), PARAMS, t,
                   transpose=True)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_transpose_pairing(t, seed):
    rng = np.random.default_rng(seed)
    x = SpectralState.random(DOMAIN, rng)
    y = SpectralState.random(DOMAIN, rng)
    lhs = float(np.sum(evolve(x, PARAMS, t, transpose=True).coeffs * y.coeffs))
    rhs = float(np.sum(x.coeffs * evolve(y, PARAMS, t).coeffs))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                max_size=6),
       st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_time_table_rows_match_scalar_evolve(times, transpose, seed):
    rng = np.random.default_rng(seed)
    z = SpectralState.random(DOMAIN, rng)
    t = np.array(times)
    factors = mode_factors(DOMAIN, PARAMS, t)
    assert all(f.shape == (len(times), DOMAIN.n_modes) for f in factors)
    table = propagate(factors, z.coeffs, transpose)
    assert table.shape == (len(times), DOMAIN.n_modes, 2)
    for row, ti in zip(table, times):
        expect = evolve(z, PARAMS, ti, transpose=transpose).coeffs
        assert np.array_equal(row, expect)


def test_evolve_rejects_negative_time():
    z = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
    with pytest.raises(ValueError):
        evolve(z, PARAMS, -0.1)


def test_mode_trace_closed_form():
    lam = DOMAIN.eigenvalues[1]
    z = SpectralState.single_mode(DOMAIN, 2, (0.3, 0.4))
    t = np.linspace(0.0, 1.0, 50)
    expect = np.exp(-lam * t) * (0.3 * np.cos(lam * t) + 0.4 * np.sin(lam * t))
    tr = propagate(mode_factors(DOMAIN, PARAMS, t), z.coeffs)[:, 1, 0]
    assert np.allclose(tr, expect, atol=1e-15)


def test_mode_trace_matches_evolved_coefficient():
    z = SpectralState.single_mode(DOMAIN, 4, (0.5, 0.5))
    for t in (0.05, 0.3):
        tr = propagate(mode_factors(DOMAIN, PARAMS, t), z.coeffs)[3, 0]
        assert evolve(z, PARAMS, t).coeffs[3, 0] == pytest.approx(float(tr))


def test_observe_selectors_consistent():
    rng = np.random.default_rng(5)
    z = SpectralState.random(DOMAIN, rng)
    f1 = observe(z, ObservationSelector.first())
    full = observe(z, ObservationSelector.full())
    mu = observe(z, ObservationSelector.direction(2.0, -1.0))
    assert full.shape == (2, DOMAIN.n_cells)
    assert np.allclose(f1, full[0])
    assert np.allclose(mu, 2.0 * full[0] - full[1])
    # the full-observation magnitude dominates any single component
    assert np.all(np.hypot(full[0], full[1]) >= np.abs(f1) - 1e-15)


def test_masked_l1_monotone_in_mask():
    rng = np.random.default_rng(7)
    z = SpectralState.random(DOMAIN, rng)
    f = observe(z, ObservationSelector.first())
    small = np.zeros(DOMAIN.n_cells, dtype=bool)
    small[:64] = True
    big = np.zeros(DOMAIN.n_cells, dtype=bool)
    big[:192] = True
    assert masked_l1(f, small, DOMAIN.cell_volume) <= masked_l1(
        f, big, DOMAIN.cell_volume)


def test_masked_l1_full_observation_uses_euclidean_magnitude():
    z = SpectralState.single_mode(DOMAIN, 1, (3.0, 4.0))
    full_mask = np.ones(DOMAIN.n_cells, dtype=bool)
    v = masked_l1(observe(z, ObservationSelector.full()), full_mask,
                  DOMAIN.cell_volume)
    # |(3, 4) e_1(x)| = 5 |e_1(x)|; ||e_1||_L1 = 2 sqrt(2/pi) on (0, pi)
    # midpoint quadrature of |sin| carries O(h^2) error
    assert v == pytest.approx(5.0 * 2.0 * math.sqrt(2.0 / PI), rel=1e-4)


def test_observed_trace_l1_at_zero_time():
    z = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
    full_mask = np.ones(DOMAIN.n_cells, dtype=bool)
    v = observed_trace_L1(z, PARAMS, ObservationSelector.first(), 0.0, full_mask)
    assert v == pytest.approx(2.0 * math.sqrt(2.0 / PI), rel=1e-4)


def test_state_validation():
    with pytest.raises(ValueError):
        SpectralState(np.zeros((3, 2)), DOMAIN)
    with pytest.raises(ValueError):
        ObservationSelector.direction(0.0, 0.0)


def test_state_coeffs_read_only():
    z = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
    with pytest.raises(ValueError):
        z.coeffs[0, 0] = 2.0
