import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab.errors import ResolutionError
from obslab.geometry import (DENSITY_RADIUS_DIVISORS, SpaceTimeSet, TimeSet,
                             ball_volume, certificate_holds, density_proxy,
                             find_density_point, good_time_set, mu_from_beta,
                             sequence_terms, telescoping_sequence)
from obslab.spectral import interval, rectangle
from oracles import to_rle

PI = math.pi
DOMAIN = interval(PI, n_modes=4, n_cells=128)


def test_ball_volume():
    assert ball_volume(1, 2.0) == 4.0
    assert ball_volume(2, 1.0) == pytest.approx(PI)


def test_time_set_measure_in_fractional_cells():
    E = TimeSet(np.ones(10, dtype=bool), 1.0)
    assert E.measure() == pytest.approx(1.0)
    assert E.measure_in(0.1, 0.35) == pytest.approx(0.25)
    assert E.measure_in(0.05, 0.07) == pytest.approx(0.02)
    assert E.measure_in(0.5, 0.4) == 0.0


def measure_in_alone(E, a, b):
    """One interval's measure, summed over the set's cells on its own."""
    if b <= a:
        return 0.0
    idx = np.nonzero(E.mask)[0]
    lo = np.maximum(idx * E.dt, a)
    hi = np.minimum((idx + 1) * E.dt, b)
    return float(np.clip(hi - lo, 0.0, None).sum())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=80),
       st.floats(min_value=0.1, max_value=10.0),
       st.lists(st.tuples(st.floats(min_value=-0.5, max_value=1.5),
                          st.floats(min_value=-0.5, max_value=1.5)),
                min_size=1, max_size=12))
def test_measure_in_on_arrays_matches_one_call_per_interval(mask, T, ends):
    # ends are fractions of T: some pairs have b <= a, some leave (0, T)
    E = TimeSet(np.array(mask), T)
    a, b = (np.array(col) * T for col in zip(*ends))
    expected = [measure_in_alone(E, x, y) for x, y in zip(a, b)]
    got = E.measure_in(a, b)
    assert got.tobytes() == np.array(expected).tobytes()
    grid = [[measure_in_alone(E, x, y) for y in b] for x in a]
    assert E.measure_in(a[:, None], b).tobytes() == np.array(grid).tobytes()
    single = E.measure_in(float(a[0]), float(b[0]))
    assert type(single) is float and single == expected[0]


def test_time_set_from_intervals_and_contains():
    mids = (np.arange(100) + 0.5) / 100
    E = TimeSet((mids > 0.2) & (mids < 0.4), 1.0)
    assert E.measure() == pytest.approx(0.2, abs=0.02)


def test_space_time_set_measure_and_slices():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 2.0, 16)
    assert D.measure() == pytest.approx(2.0 * PI)
    assert np.allclose(D.mask.sum(axis=1) * DOMAIN.cell_volume, PI)


def test_space_time_set_shape_validation():
    with pytest.raises(ValueError):
        SpaceTimeSet(np.ones((4, 7), dtype=bool), 1.0, DOMAIN)
    with pytest.raises(ValueError):
        SpaceTimeSet(np.ones((4, DOMAIN.n_cells), dtype=bool), -1.0, DOMAIN)
    with pytest.raises(ValueError):
        SpaceTimeSet(np.ones((4, DOMAIN.n_cells), dtype=bool), math.nan, DOMAIN)
    with pytest.raises(ValueError, match="n_time >= 1"):      # no time row
        SpaceTimeSet(np.ones((0, DOMAIN.n_cells), dtype=bool), 1.0, DOMAIN)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_good_time_set_bounds_random(seed):
    rng = np.random.default_rng(seed)
    D = SpaceTimeSet.random(DOMAIN, 1.0, 32, rng, fill=0.2)
    E = good_time_set(D)
    # |E| >= |D| / (2 |B_R|), and E-slices stay inside D (asserted on call,
    # re-checked here explicitly); the ball covering the interval (0, pi) is
    # (0, pi) itself, and the slice cutoff is |D| / (2T) with T = 1
    assert E.measure() >= D.measure() / (2.0 * PI) - 1e-12
    threshold = D.measure() / 2.0
    slices = D.mask.sum(axis=1) * DOMAIN.cell_volume
    assert np.all(slices[E.mask] >= threshold)
    assert np.all(slices[~E.mask] < threshold)


def test_good_time_set_rectangle():
    dom = rectangle(PI, PI, n_modes=4, cells=(24, 24))
    rng = np.random.default_rng(0)
    D = SpaceTimeSet.random(dom, 1.0, 16, rng, fill=0.3)
    E = good_time_set(D)
    # the ball about the center through the corners
    radius = math.hypot(PI, PI) / 2.0
    assert E.measure() >= D.measure() / (2.0 * ball_volume(2, radius)) - 1e-12


def test_density_point_of_full_set():
    E = TimeSet(np.ones(256, dtype=bool), 1.0)
    ell = find_density_point(E)
    assert density_proxy(E, ell) >= 0.5
    assert E.mask[math.floor(ell / E.dt)]


def test_density_point_prefers_the_bulk():
    # a fat block plus one isolated cell: the point lands in the block
    mask = np.zeros(256, dtype=bool)
    mask[40:120] = True
    mask[200] = True
    ell = find_density_point(TimeSet(mask, 1.0))
    assert 40 / 256 <= ell <= 120 / 256


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_time=st.integers(1, 400),
       fill=st.floats(0.05, 1.0))
def test_density_point_matches_the_per_candidate_loop(seed, n_time, fill):
    # every candidate's proxy in one broadcast call has the bits of its own
    # scalar call, and find_density_point, which calls in candidate blocks
    # above 128 candidates, picks the loop's best
    rng = np.random.default_rng(seed)
    mask = rng.random(n_time) < fill
    mask[rng.integers(n_time)] = True
    E = TimeSet(mask, rng.uniform(0.1, 10.0))
    candidates = (np.nonzero(mask)[0] + 0.5) * E.dt
    radii = E.horizon / np.array(DENSITY_RADIUS_DIVISORS)
    loop = np.array([(E.measure_in(c - radii, c + radii) / (2.0 * radii)).min()
                     for c in candidates])
    assert density_proxy(E, candidates).tobytes() == loop.tobytes()
    assert all(density_proxy(E, c) == p for c, p in zip(candidates, loop))
    best = int(np.argmax(loop))
    if loop[best] < 0.5 - 1e-12:
        with pytest.raises(ResolutionError):
            find_density_point(E)
    else:
        assert find_density_point(E) == candidates[best]


def test_density_point_needs_positive_measure():
    with pytest.raises(ValueError):
        find_density_point(TimeSet(np.zeros(16, dtype=bool), 1.0))


def test_sparse_set_fails_density_resolution():
    mask = np.zeros(256, dtype=bool)
    mask[::16] = True
    with pytest.raises(ResolutionError):
        find_density_point(TimeSet(mask, 1.0))


def test_mu_from_beta():
    assert mu_from_beta(1.0) == pytest.approx(math.sqrt(1.5))
    assert mu_from_beta(2.0) == pytest.approx(math.sqrt(4.0 / 3.0))


def test_sequence_terms_geometry():
    terms = sequence_terms(0.2, 0.8, 2.0, 5)
    assert terms[0] == pytest.approx(0.8)
    # ell_{m+1} - ell = mu^-m (ell_1 - ell)
    assert np.allclose(terms - 0.2, 0.6 * 2.0 ** -np.arange(5))
    assert np.all(np.diff(terms) < 0)


def test_telescoping_sequence_certificate():
    E = TimeSet(np.ones(512, dtype=bool), 1.0)
    ell = find_density_point(E)
    seq = telescoping_sequence(E, ell, beta=1.0, depth=6)
    assert seq.mu == pytest.approx(mu_from_beta(1.0))
    assert certificate_holds(E, seq.terms)
    assert seq.terms[0] == seq.ell1
    assert np.all(seq.terms > ell)
    # gaps between consecutive terms are covered by E up to the factor 3
    for hi, lo in zip(seq.terms[:-1], seq.terms[1:]):
        assert hi - lo <= 3.0 * E.measure_in(lo, hi) + 1e-12


def test_rle_round_trip():
    rng = np.random.default_rng(11)
    D = SpaceTimeSet.random(DOMAIN, 1.5, 24, rng, fill=0.25)
    back = SpaceTimeSet.from_rle(to_rle(D), DOMAIN)
    assert np.array_equal(back.mask, D.mask)
    assert back.horizon == D.horizon


@pytest.mark.parametrize("run", ["6:5", "-3:2", "2:0", "1:-1"])
def test_rle_run_outside_the_row_is_rejected(run):
    # unchecked, 6:5 was clipped to cells 6-7, -3:2 wrapped to cells 5-6 and
    # the empty runs were dropped
    dom = interval(PI, n_modes=2, n_cells=8)
    with pytest.raises(ValueError, match=re.escape(repr(run))):
        SpaceTimeSet.from_rle(f"nt=3 nx=8 T=1.0\n0:8\n{run}\n", dom)


def test_rle_missing_trailing_rows_are_empty():
    dom = interval(PI, n_modes=2, n_cells=8)
    D = SpaceTimeSet.from_rle("nt=3 nx=8 T=1.0\n6:2\n", dom)
    assert D.mask.sum(axis=1).tolist() == [2, 0, 0]
    assert D.mask[0, 6:].all()


def test_random_set_respects_minimum_measure():
    rng = np.random.default_rng(2)
    D = SpaceTimeSet.random(DOMAIN, 1.0, 32, rng, fill=0.3,
                            min_measure_fraction=0.25)
    assert D.measure() >= 0.25 * PI


def recounted_random_mask(n_time, n_cells, rng, fill, min_fraction):
    """Reference draw loop: recounts the whole mask after every box."""
    total = n_time * n_cells
    for _ in range(1000):
        mask = np.zeros((n_time, n_cells), dtype=bool)
        while mask.sum() < fill * total:
            t0 = rng.integers(0, n_time)
            t1 = rng.integers(t0 + 1, n_time + 1)
            x0 = rng.integers(0, n_cells)
            x1 = rng.integers(x0 + 1, n_cells + 1)
            mask[t0:t1, x0:x1] = True
        if mask.sum() >= min_fraction * total:
            return mask
    return None


@settings(max_examples=60, deadline=None)
@given(rect=st.booleans(), seed=st.integers(0, 2**32 - 1),
       n_time=st.integers(1, 40), fill=st.floats(0.01, 0.9),
       min_fraction=st.floats(0.0, 1.0))
def test_random_set_matches_the_recounting_draw_loop(rect, seed, n_time, fill,
                                                      min_fraction):
    """Same mask, or the same failure, and the same random stream after."""
    domain = rectangle(PI, PI, n_modes=4, cells=(8, 8)) if rect else DOMAIN
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = recounted_random_mask(n_time, domain.n_cells, ref, fill,
                                     min_fraction)
    if expected is None:
        with pytest.raises(ResolutionError, match="observation.min_fraction"):
            SpaceTimeSet.random(domain, 1.0, n_time, ours, fill=fill,
                                min_measure_fraction=min_fraction)
    else:
        D = SpaceTimeSet.random(domain, 1.0, n_time, ours, fill=fill,
                                min_measure_fraction=min_fraction)
        assert np.array_equal(D.mask, expected)
    assert ours.integers(2**62) == ref.integers(2**62)
