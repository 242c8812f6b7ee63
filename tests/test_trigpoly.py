import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab import cli, trigpoly
from obslab.trigpoly import (N_CELLS, SineBoundCase, TrigPoly, cell_width,
                             intervals_to_mask, mask_measure,
                             random_interval_union, remez_check,
                             sine_integral_bound)


def random_poly(rng, degree):
    """sin then cos coefficients of the degree, standard normal."""
    return TrigPoly(rng.standard_normal(degree + 1),
                    rng.standard_normal(degree + 1))


def test_trigpoly_evaluates_like_the_sum():
    f = TrigPoly([0.0, 1.0, -0.5], [2.0, 0.0, 0.25])
    theta = np.array([-1.0, 0.0, 0.4])
    expect = (np.sin(theta) - 0.5 * np.sin(2 * theta)
              + 2.0 + 0.25 * np.cos(2 * theta))
    assert np.allclose(f(theta), expect)
    assert f.degree == 2


def test_interval_mask_measure():
    E = intervals_to_mask([(-1.0, 1.0)])
    assert mask_measure(E) == pytest.approx(2.0, abs=2 * cell_width())


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_remez_inequality_random(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, int(rng.integers(1, 9)))
    E = random_interval_union(rng)
    p = float(rng.uniform(1.0, 8.0))
    assert remez_check(f, E, p).holds


def test_remez_full_interval_is_equality_up_to_constant():
    f = TrigPoly([0.0, 1.0], [0.0, 0.0])
    E = np.ones(8192, dtype=bool)
    res = remez_check(f, E, 2.0)
    assert res.holds
    assert res.lhs == pytest.approx(math.sqrt(math.pi), rel=1e-6)


def test_remez_rejects_bad_p_and_empty_set():
    f = TrigPoly([0.0, 1.0], [0.0, 0.0])
    E = intervals_to_mask([(-1.0, 1.0)])
    with pytest.raises(ValueError):
        remez_check(f, E, 0.5)
    with pytest.raises(ValueError):
        remez_check(f, np.zeros(8192, dtype=bool), 2.0)


def test_remez_rejects_a_mask_off_the_grid():
    f = TrigPoly([0.0, 1.0], [0.0, 0.0])
    for n in (1024, N_CELLS + 1):
        with pytest.raises(ValueError, match="grid"):
            remez_check(f, np.ones(n, dtype=bool), 2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sine_integral_lower_bound_random(seed):
    rng = np.random.default_rng(seed)
    assert sine_integral_bound(SineBoundCase.random(rng)).holds


def test_sine_integral_full_window_value():
    # F = whole window [0, pi/2]: integral of sin is 1 - cos(pi/2) = 1
    case = SineBoundCase(lam=1.0, b=1.0, S=math.pi / 2.0, delta=0.0,
                        F=np.ones(4096, dtype=bool))
    res = sine_integral_bound(case)
    assert res.holds
    assert res.rhs == pytest.approx(1.0, abs=1e-6)
    assert res.lhs == pytest.approx(
        2.0 ** -50 * math.pi ** -4 * (math.pi / 2.0) ** 4)


def test_sine_case_validation():
    with pytest.raises(ValueError):
        SineBoundCase(lam=-1.0, b=1.0, S=1.0, delta=0.0,
                      F=np.ones(16, dtype=bool))
    with pytest.raises(ValueError):
        SineBoundCase(lam=1.0, b=1.0, S=1.0, delta=2.0,
                      F=np.ones(16, dtype=bool))
    case = SineBoundCase(lam=1.0, b=1.0, S=1.0, delta=0.0,
                         F=np.zeros(16, dtype=bool))
    with pytest.raises(ValueError):
        sine_integral_bound(case)


def test_grid_midpoints_symmetric():
    mids = trigpoly._GRID
    assert np.allclose(mids, -mids[::-1])


# -- the cached grid basis --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                max_size=12))
def test_grid_evaluation_is_bit_identical_to_call(seed, degrees):
    # an empty table first, so the drawn order exercises both building the
    # table wider and reading the leading rows of a wider one
    trigpoly._table = np.empty((0, N_CELLS))
    rng = np.random.default_rng(seed)
    grid = trigpoly._GRID
    uncached = np.array(grid)
    for degree in degrees:
        f = random_poly(rng, degree)
        assert np.array_equal(f(grid), f(uncached))
        assert len(trigpoly._table) >= 2 * (max(degree, 8) + 1)
        assert not np.shares_memory(trigpoly._basis(uncached, degree),
                                    trigpoly._table)


def test_cached_grid_arrays_are_read_only():
    f = random_poly(np.random.default_rng(0), 3)
    f(trigpoly._GRID)
    cached = [trigpoly._GRID, trigpoly._basis(trigpoly._GRID, 3)]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_remez_sweep_pinned_worst_ratio():
    # 500 cases drawn as in criterion 01, each checked by a one-lane call;
    # the worst ratio is the value the kernel gives on uncached tables,
    # compared exactly, and the block sweep gives it too.  The pin moved in
    # the last bits from 9.113294875367841e-05, the value of the per-case
    # gemv evaluation and the compacted E sum
    pin, old = 9.113294875367844e-05, 9.113294875367841e-05
    rng = np.random.default_rng(1)
    worst, violations = 0.0, 0
    for _ in range(500):
        f = random_poly(rng, int(rng.integers(1, 9)))
        E = random_interval_union(rng)
        p = float(rng.uniform(1.0, 8.0))
        res = remez_check(f, E, p)
        worst = max(worst, res.lhs / res.rhs)
        violations += not res.holds
    assert violations == 0
    assert worst == pin
    assert cli._remez_sweep(np.random.default_rng(1), 500) == (0, pin)
    assert abs(pin / old - 1.0) <= 1e-14
