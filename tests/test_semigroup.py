import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab.semigroup import (SpectralState, evolve, mode_factors, propagate,
                              single_mode)
from obslab.observability import unit_lanes
from obslab.spectral import PhysicalParams, interval

PI = math.pi
DOMAIN = interval(PI, n_modes=8, n_cells=256)
PARAMS = PhysicalParams(1.0, 1.0)


def random_state(domain, rng):
    """A unit state in a uniformly random direction."""
    return SpectralState(unit_lanes(domain, rng, 1)[0], domain)


def test_single_mode_is_the_state_array_spectral_state_wraps():
    c = single_mode(DOMAIN, 2, (0.3, 0.4))
    assert c.shape == (DOMAIN.n_modes, 2)
    assert np.array_equal(c[1], [0.3, 0.4])
    assert not np.delete(c, 1, axis=0).any()
    assert np.array_equal(SpectralState.single_mode(DOMAIN, 2, (0.3, 0.4)).coeffs,
                          c)


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
    z = random_state(DOMAIN, rng)
    once = evolve(z, PARAMS, t + s)
    twice = evolve(evolve(z, PARAMS, t), PARAMS, s)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_norm_never_grows(t, seed):
    rng = np.random.default_rng(seed)
    z = random_state(DOMAIN, rng)
    assert evolve(z, PARAMS, t).norm() <= z.norm() + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_transposed_semigroup_composition(t, s, seed):
    rng = np.random.default_rng(seed)
    z = random_state(DOMAIN, rng)
    once = evolve(z, PARAMS, s + t, transpose=True)
    twice = evolve(evolve(z, PARAMS, s, transpose=True), PARAMS, t,
                   transpose=True)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_transpose_pairing(t, seed):
    rng = np.random.default_rng(seed)
    x = random_state(DOMAIN, rng)
    y = random_state(DOMAIN, rng)
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
    z = random_state(DOMAIN, rng)
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


def test_state_validation():
    with pytest.raises(ValueError):
        SpectralState(np.zeros((3, 2)), DOMAIN)


def test_state_coeffs_read_only():
    z = SpectralState.single_mode(DOMAIN, 1, (1.0, 0.0))
    with pytest.raises(ValueError):
        z.coeffs[0, 0] = 2.0


@pytest.mark.parametrize("a,b,t", [(1.0, 1e308, 1.0),     # lambda b t overflows
                                   (1e308, 1.0, 0.0)])    # -inf * 0 is NaN
def test_mode_factors_raise_on_non_finite_tables(a, b, t):
    # the config bounds keep the CLI away from these; a table that is not
    # finite must still stop a caller before any solver reads it
    with pytest.raises(ArithmeticError, match="not finite"):
        mode_factors(DOMAIN, PhysicalParams(a, b), np.array([0.5, t]))
