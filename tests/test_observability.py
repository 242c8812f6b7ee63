import dataclasses
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
from obslab.semigroup import (FIRST, FULL, SpectralState, evolve, mode_factors,
                              observation_table, propagate, single_mode)
from obslab.spectral import PhysicalParams, interval, rectangle

PI = math.pi
DOMAIN = interval(PI, n_modes=16, n_cells=512)
PARAMS = PhysicalParams(1.0, 1.0)


def random_D(seed, fill=0.3, n_time=64):
    rng = np.random.default_rng(seed)
    return SpaceTimeSet.random(DOMAIN, 1.0, n_time, rng, fill=fill,
                               min_measure_fraction=0.1)


def batch(seed, n=12, domain=DOMAIN):
    return obs.unit_lanes(domain, np.random.default_rng(seed), n)


# -- shared numerics ------------------------------------------------------


def profile(lanes, times, mask, B=FIRST, domain=DOMAIN):
    return obs.observation_profile(domain, PARAMS, lanes, np.asarray(times),
                                   np.asarray(mask), B)


def test_observation_profile_matches_direct_trace():
    # e_k(x) = sqrt(2/pi) sin(k x), lambda_k = k^2 on (0, pi); each pair
    # decays by exp(-a k^2 t) and turns by k^2 b t
    D = random_D(0)
    states = batch(1, 3)
    x = (np.arange(DOMAIN.n_cells) + 0.5) * PI / DOMAIN.n_cells
    got = {name: profile(states, D.midpoints, D.mask, B) for name, B in (
        ("first", FIRST), ("direction", ((2.0, -1.0),)), ("full", FULL))}
    for b, z in enumerate(states):
        for i in (3, 17, 40):
            t = (i + 0.5) * D.dt
            v1 = np.zeros(DOMAIN.n_cells)
            v2 = np.zeros(DOMAIN.n_cells)
            for k in range(1, DOMAIN.n_modes + 1):
                c1, c2 = z[k - 1]
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
    # signed fields of the table's rows: the direction row (2, -1) observes
    # 2 v1 - v2, and the rows of FULL the two evolved components
    z = batch(5, 1)[0]
    eig = DOMAIN.eigenfunctions
    decay, g = observation_table(DOMAIN, PARAMS, 0.3, FULL + ((2.0, -1.0),))
    assert g.shape == (3, 2, DOMAIN.n_modes)
    v1, v2, mu = ((decay * (z[:, 0] * row[0] + z[:, 1] * row[1])) @ eig
                  for row in g)
    v = propagate(mode_factors(DOMAIN, PARAMS, 0.3), z)
    assert np.array_equal(v1, v[:, 0] @ eig)
    assert np.array_equal(v2, v[:, 1] @ eig)
    assert np.allclose(mu, 2.0 * v1 - v2, rtol=0.0, atol=1e-15)
    # the full-observation magnitude dominates any single component
    D = random_D(6)
    first = profile(z[None], D.midpoints, D.mask)
    both = profile(z[None], D.midpoints, D.mask, FULL)
    assert np.all(both >= first - 1e-15)


def test_observation_profile_monotone_in_mask():
    z = batch(7, 1)
    small = np.zeros((1, DOMAIN.n_cells), dtype=bool)
    small[:, :128] = True
    big = np.zeros((1, DOMAIN.n_cells), dtype=bool)
    big[:, :384] = True
    for B in (FIRST, FULL):
        assert profile(z, [0.0], small, B) <= profile(z, [0.0], big, B)


def test_observation_profile_full_uses_euclidean_magnitude():
    z = single_mode(DOMAIN, 1, (3.0, 4.0))
    full_mask = np.ones((1, DOMAIN.n_cells), dtype=bool)
    v = profile(z[None], [0.0], full_mask, FULL)
    # |(3, 4) e_1(x)| = 5 |e_1(x)|; ||e_1||_L1 = 2 sqrt(2/pi) on (0, pi)
    # midpoint quadrature of |sin| carries O(h^2) error
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(5.0 * 2.0 * math.sqrt(2.0 / PI), rel=1e-4)


def test_observation_profile_at_zero_time():
    z = single_mode(DOMAIN, 1, (1.0, 0.0))
    full_mask = np.ones((1, DOMAIN.n_cells), dtype=bool)
    v = profile(z[None], [0.0], full_mask)
    assert v[0, 0] == pytest.approx(2.0 * math.sqrt(2.0 / PI), rel=1e-4)


@pytest.mark.parametrize("B", [pytest.param(FIRST, id="first"),
                               pytest.param(((0.6, -0.8),), id="direction"),
                               pytest.param(FULL, id="full")])
def test_observation_profile_lanes_do_not_depend_on_blocks(monkeypatch, B):
    D = random_D(11, n_time=16)
    states = batch(12, 7)
    whole = profile(states, D.midpoints, D.mask, B)      # one block
    assert whole.shape == (7, 16)
    for i, z in enumerate(states):
        assert np.array_equal(profile(z[None], D.midpoints, D.mask, B)[0],
                              whole[i])
    # blocks of a few lanes, their size set by each row group's cells (the
    # last block short), and blocks of 1 lane
    for field_block in (3 * D.mask.shape[1], 1):
        monkeypatch.setattr(obs, "_FIELD_BLOCK", field_block)
        assert np.array_equal(profile(states, D.midpoints, D.mask, B), whole)


def test_observation_profile_memory_does_not_grow_with_lanes():
    dom = interval(PI, n_modes=8, n_cells=1024)
    rng = np.random.default_rng(0)
    mask = rng.random((16, dom.n_cells)) < 0.5
    lanes = rng.standard_normal((65, 8, 2))
    times = np.linspace(0.05, 1.0, 16)
    obs.observation_profile(dom, PARAMS, lanes[:1], times, mask, FULL)  # tables
    all_lanes_field = len(lanes) * mask.size * 8      # bytes
    tracemalloc.start()
    try:
        obs.observation_profile(dom, PARAMS, lanes, times, mask, FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_lanes_field / 8


def test_observation_profile_memory_of_thin_row_groups():
    # rows of 3 cells against 64 trace values a row (2 for each of 32 modes):
    # the lane block must count the traces, or many lanes build them at once
    dom = interval(PI, n_modes=32, n_cells=256)
    mask = np.zeros((32, dom.n_cells), dtype=bool)
    mask[0::2, 10:13] = True
    mask[1::2, 200:203] = True
    times = np.linspace(0.05, 1.0, 32)
    rng = np.random.default_rng(1)
    obs.observation_profile(dom, PARAMS, rng.standard_normal((1, 32, 2)),
                            times, mask, FULL)                       # tables
    for n_lanes in (16, 1024):
        lanes = rng.standard_normal((n_lanes, 32, 2))
        outputs = 2 * n_lanes * len(mask) * 8                       # bytes
        tracemalloc.start()
        try:
            obs.observation_profile(dom, PARAMS, lanes, times, mask, FULL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + 8 * obs._FIELD_BLOCK * 8


def observation_rows(kind, mu1, mu2):
    """The rows the interp subcommand observes under selector = kind."""
    return {"first": FIRST, "full": FULL, "direction": ((mu1, mu2),)}[kind]


KERNEL_DOMAINS = {"interval": interval(PI, n_modes=8, n_cells=40),
                  "rectangle": rectangle(PI, 2.0, n_modes=9, cells=(7, 5))}


def masked_reference(dom, params, lanes, times, mask, B):
    """Each lane's whole field at each time, masked by the time's row; and
    the same sum over the magnitudes of the field's mode terms.  Each row
    (b1, b2) of B observes b1 v1 + b2 v2 of the evolved state, two rows by
    their Euclidean magnitude."""
    lam, eig = dom.eigenvalues, dom.eigenfunctions
    out, scale = np.zeros((2, len(lanes), len(mask)))
    weight = max(1.0, *(abs(b1) + abs(b2) for b1, b2 in B))
    for i, (t, row) in enumerate(zip(times, mask)):
        decay = np.exp(-params.a * lam * t)
        c, s = np.cos(lam * params.b * t), np.sin(lam * params.b * t)
        for b, (z1, z2) in enumerate(zip(lanes[..., 0], lanes[..., 1])):
            w1, w2 = decay * (c * z1 + s * z2), decay * (-s * z1 + c * z2)
            v1, v2 = w1 @ eig, w2 @ eig
            mag = np.hypot.reduce([b1 * v1 + b2 * v2 for b1, b2 in B])
            out[b, i] = mag[row].sum() * dom.cell_volume
            terms = (np.abs(w1) + np.abs(w2)) @ np.abs(eig) * weight
            scale[b, i] = terms[row].sum() * dom.cell_volume
    return out, scale


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(sorted(KERNEL_DOMAINS)),
       st.sampled_from(["first", "direction", "full"]))
def test_observation_profile_matches_a_per_row_masked_loop(seed, kind,
                                                           sel_kind):
    rng = np.random.default_rng(seed)
    dom = KERNEL_DOMAINS[kind]
    params = PhysicalParams(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
    B = observation_rows(sel_kind, *rng.standard_normal(2))
    # patterns: empty, one cell, every cell, then random ones; the fixed
    # tail repeats pattern 3 around another row
    single = np.arange(dom.n_cells) == rng.integers(dom.n_cells)
    pool = [np.zeros(dom.n_cells, bool), single, np.ones(dom.n_cells, bool),
            *(rng.random((3, dom.n_cells)) < rng.uniform(0.1, 0.9))]
    order = np.concatenate([rng.integers(0, len(pool), rng.integers(0, 10)),
                            [3, 0, 3, 1, 2]])
    mask = np.array([pool[j] for j in rng.permutation(order)])
    times = rng.uniform(0.0, 1.5, len(mask))
    lanes = rng.standard_normal((int(rng.integers(1, 9)), dom.n_modes, 2))
    want, scale = masked_reference(dom, params, lanes, times, mask, B)
    got = obs.observation_profile(dom, params, lanes, times, mask, B)
    # rel 1e-13 of the terms' magnitudes: a one-cell row whose field cancels
    # among the modes moves by more than that relative to itself with the
    # order of the sum alone
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.all(got[:, ~mask.any(axis=1)] == 0.0)
    with pytest.MonkeyPatch.context() as mp:        # blocks of a few lanes
        mp.setattr(obs, "_FIELD_BLOCK", int(rng.integers(1, 400)))
        assert np.array_equal(
            obs.observation_profile(dom, params, lanes, times, mask, B), got)


def propagated_profile(dom, params, lanes, times, mask, full):
    """observation_profile built from propagate's components, the first
    alone or both by their magnitude, in the same row groups and lane
    blocks: the construction before the observation table."""
    factors = mode_factors(dom, params, times)
    groups = {}
    for i in np.flatnonzero(mask.any(axis=1)):
        groups.setdefault(mask[i].tobytes(), []).append(i)
    out = np.zeros((len(lanes), len(mask)))
    for rows in groups.values():
        fac = [f[rows] for f in factors]
        eig = dom.eigenfunctions[:, mask[rows[0]]]
        blk = obs.lane_block(len(rows) * (eig.shape[1] + 2 * dom.n_modes))
        for lo in range(0, len(lanes), blk):
            traces = propagate(fac, lanes[lo:lo + blk, None])
            v1 = traces[..., 0] @ eig
            mag = np.hypot(v1, traces[..., 1] @ eig) if full else np.abs(v1)
            out[lo:lo + blk, rows] = mag.sum(axis=-1)
    return out * dom.cell_volume


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_observation_table_gives_the_propagated_components_bit_for_bit(seed,
                                                                       rect):
    # FIRST and FULL observe exactly propagate's components, in the profile
    # and in ControlOperator's mode table decay * (cos, sin).  A row that
    # observes one cell is left out of the profile's check: there the matmul
    # is a dot product, and numpy's BLAS sums a strided component (the
    # construction's traces[..., 0]) in another order than a contiguous one,
    # so the two can differ in the last bit; the per-row masked loop test
    # checks those rows to 1e-13 of their terms
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(1, 10))
    if rect:
        dom = rectangle(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), n_modes,
                        cells=tuple(int(n) for n in rng.integers(2, 9, 2)))
    else:
        dom = interval(rng.uniform(1.0, 4.0), n_modes, int(rng.integers(4, 65)))
    params = PhysicalParams(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
    n_time = int(rng.integers(2, 12))
    horizon = rng.uniform(0.2, 2.0)
    mask = rng.random((n_time, dom.n_cells)) < rng.uniform(0.1, 0.9)
    mask[rng.integers(n_time)] = mask[0]            # a group of two rows
    times = (np.arange(n_time) + 0.5) * horizon / n_time
    lanes = rng.standard_normal((int(rng.integers(1, 9)), n_modes, 2))
    wide = mask.sum(axis=1) != 1
    for B, full in ((FIRST, False), (FULL, True)):
        got = obs.observation_profile(dom, params, lanes, times, mask, B)
        want = propagated_profile(dom, params, lanes, times, mask, full)
        assert got[:, wide].tobytes() == want[:, wide].tobytes()
    mask[0, 0] = True                               # a region of some measure
    region = SpaceTimeSet(mask, horizon, dom)
    decay, cos, sin = mode_factors(dom, params, horizon - region.midpoints)
    f = decay * np.stack([cos, sin])
    op = ctl.ControlOperator(dom, params, region)
    assert op.f.tobytes() == np.ascontiguousarray(f.transpose(2, 0, 1)).tobytes()


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
    B = observation_rows(kind, *rng.standard_normal(2))
    flip = (-1.0) ** np.arange(dom.n_modes)[:, None]
    direct = obs.observation_profile(dom, PARAMS, lanes, times, mask, B)
    mirrored = obs.observation_profile(dom, PARAMS, lanes * flip, times,
                                       mask[:, ::-1], B)
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


@pytest.mark.parametrize("domain", [interval(PI, n_modes=16),
                                    interval(PI, n_modes=32),
                                    rectangle(PI, PI, n_modes=64)],
                         ids=["interval16", "interval32", "rectangle64"])
def test_unit_lanes_are_single_state_draws_bit_for_bit(domain):
    # one draw of n lanes gives n draws of one unit state each, normalised
    # by np.linalg.norm, and leaves the generator where they leave it
    for seed in range(20):
        lanes_rng, alone_rng = (np.random.default_rng(seed) for _ in range(2))
        lanes = obs.unit_lanes(domain, lanes_rng, 64)
        for lane in lanes:
            c = alone_rng.standard_normal((domain.n_modes, 2))
            assert np.array_equal(lane, c / np.linalg.norm(c))
        assert lanes_rng.random() == alone_rng.random()


def test_solve_increasing_inverts():
    f = lambda x: x * math.exp(2.0 * x)
    x = obs.solve_increasing(f, 5.0)
    assert f(x) == pytest.approx(5.0, rel=1e-9)
    assert obs.solve_increasing(f, 0.0) == 0.0


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
        # the product form's constant is 2 * Pi1
        assert np.all(F1 <= 2.0 * pi1 * F2 ** (1.0 - theta) * F3 ** theta
                      * (1 + 1e-9))


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
    cases = []
    for i in range(400):
        theta = float(rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(0.45, 0.55))
        pi1 = float(rng.uniform(0.5, 2.0))
        F3 = rng.uniform(0.1, 10.0, size=probes)
        F2 = 10.0 ** rng.uniform(-8.0, 0.5, size=probes) * F3
        product = 2.0 * pi1 * F2 ** (1.0 - theta) * F3 ** theta
        F1 = np.minimum(product * rng.uniform(0.99, 1.01, size=probes), F3)
        cases.append((pi1, theta, F1, F2, F3))
    # the same cases stacked on a leading axis: one verdict per case
    pi1s, thetas, F1s, F2s, F3s = (np.array(c) for c in zip(*cases))
    stacked = obs.interp_equivalence(pi1s, thetas, F1s, F2s, F3s)
    assert stacked.eps_form_passed.shape == stacked.holds.shape == (400,)
    verdicts = set()
    for i, case in enumerate(cases):
        res = obs.interp_equivalence(*case)
        got = (res.eps_form_passed, res.holds)
        assert type(got[0]) is bool and type(got[1]) is bool
        assert got == scalar_equivalence(*case)
        assert got == (stacked.eps_form_passed[i], stacked.holds[i])
        verdicts.add(got)
    assert {(True, True), (False, True), (False, False)} <= verdicts
    # one bad case among the stacked ones is rejected
    F1s[7, 0] = F3s[7, 0] * 1.01
    with pytest.raises(ValueError, match="F1 <= F3"):
        obs.interp_equivalence(pi1s, thetas, F1s, F2s, F3s)
    thetas[11] = 1.0
    with pytest.raises(ValueError, match="theta"):
        obs.interp_equivalence(pi1s, thetas, np.minimum(F1s, F3s), F2s, F3s)


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
    E = good_time_set(D)
    window = E.mask & (D.midpoints >= ip.s1) & (D.midpoints <= ip.s2)
    for z, integral in zip(states, rep.integrals):
        alone = profile(z[None], D.midpoints, D.mask)[0]
        assert integral == float(alone[window].sum()) * D.dt


def test_reported_lanes_attain_the_constants_alone():
    # the lane named for K_hat (N_hat) has that constant as a batch of one
    D = random_D(3)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    states = batch(4, 32)
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, states)
    lane = rep.K_hat_lane
    assert rep.ratios[lane] == rep.K_hat == rep.ratios.max()
    alone = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip,
                                              states[[lane]])
    assert (alone.K_hat, alone.K_hat_lane) == (rep.K_hat, 0)
    D = SpaceTimeSet.random(DOMAIN, 1.0, 128, np.random.default_rng(21),
                            fill=0.5, min_measure_fraction=0.4)
    states = batch(22)
    tel = obs.telescope_chain_demo(DOMAIN, PARAMS, D, 1.0, 6, states)
    alone = obs.telescope_chain_demo(DOMAIN, PARAMS, D, 1.0, 6,
                                     states[[tel.N_hat_lane]])
    assert (alone.N_hat, alone.N_hat_lane) == (tel.N_hat, 0)
    assert lane > 0 and tel.N_hat_lane > 0      # not argmax's default


def test_integral_interpolation_observes_only_the_window(monkeypatch):
    D = random_D(3)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    states = batch(6, 9)
    E = good_time_set(D)
    window = E.mask & (D.midpoints >= ip.s1) & (D.midpoints <= ip.s2)
    assert window.any() and D.mask[~window].any()
    whole = profile(states, D.midpoints, D.mask)
    masks, kernel = [], obs.observation_profile

    def spy(domain, params, lanes, times, mask, B):
        masks.append(mask)
        return kernel(domain, params, lanes, times, mask, B)

    monkeypatch.setattr(obs, "observation_profile", spy)
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, states)
    (mask,) = masks
    assert not mask[~window].any()
    assert np.array_equal(mask[window], D.mask[window])
    assert np.allclose(rep.integrals, whole[:, window].sum(axis=1) * D.dt,
                       rtol=1e-13, atol=0.0)


def test_integral_interpolation_adversarial_states_do_not_cancel():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    adversarial = np.stack([
        obs.single_time_counterexample(DOMAIN, PARAMS, 0.5).state,
        obs.multi_time_counterexample(DOMAIN, PARAMS, 1.0, 3).state,
    ])
    rep = obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, adversarial)
    assert np.all(rep.integrals > 1e-8)
    assert math.isfinite(rep.K_hat)


# -- counterexamples ------------------------------------------------------


def test_single_time_counterexample_exact():
    S = 0.37
    rep = obs.pointwise_failure_demo(
        DOMAIN, PARAMS, obs.single_time_counterexample(DOMAIN, PARAMS, S, 2))
    assert float(rep.first_residuals.max()) <= 1e-10
    lam = DOMAIN.eigenvalues[1]
    z = SpectralState(rep.counterexample.state, DOMAIN)
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
    rep = obs.pointwise_failure_demo(DOMAIN, params, cex)
    assert float(rep.first_residuals.max()) <= 1e-10


def test_multi_time_counterexample_needs_enough_modes():
    small = interval(PI, n_modes=2)
    with pytest.raises(InsufficientTruncationError):
        obs.multi_time_counterexample(small, PARAMS, 1.0, 3)


# -- direction and full observation --------------------------------------


def test_direction_observation_reduces_to_first_component():
    amplitude, field = obs.verify_direction_observation(
        DOMAIN, PARAMS, mu1=2.0, mu2=-1.0, lanes=batch(6))
    assert amplitude <= 1e-12
    assert field <= 1e-10
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    rep = obs.verify_integral_interpolation(
        DOMAIN, PARAMS, random_D(5), ip, batch(6), ((2.0, -1.0),))
    assert math.isfinite(rep.K_hat)


def test_direction_transform_amplitude():
    z = batch(7, 1)[0]
    phi = obs.direction_transform(z, 3.0, 4.0)
    assert np.linalg.norm(phi) ** 2 == pytest.approx(
        25.0 * np.linalg.norm(z) ** 2, rel=1e-12)


def full_interpolation(D, lanes):
    ip = obs.InterpolationParams(0.5, 0.2, 0.9)
    return obs.verify_integral_interpolation(DOMAIN, PARAMS, D, ip, lanes,
                                             FULL)


def test_full_observation_pointwise_constants():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    lanes = batch(8)
    rep = obs.verify_full_observation_pointwise(
        DOMAIN, PARAMS, D, 0.5, full_interpolation(D, lanes), lanes)
    assert np.array_equal(rep.times, D.midpoints[(D.midpoints >= 0.2)
                                                 & (D.midpoints <= 0.9)])
    assert np.all(np.isfinite(rep.M_hats))
    assert np.all(rep.min_traces > 0)


@pytest.mark.parametrize("domain", [DOMAIN,
                                    rectangle(PI, PI, n_modes=8, cells=(8, 8))])
def test_full_observation_traces_are_the_window_profiles(domain):
    # the integral check's profile rows are the traces a fresh observation
    # of D's slices at the window's times gives, bit for bit
    D = SpaceTimeSet.random(domain, 1.0, 32, np.random.default_rng(4),
                            fill=0.4, min_measure_fraction=0.1)
    lanes = batch(8, 6, domain)
    ip = obs.InterpolationParams(0.5, 0.25, 0.75)
    rep = obs.verify_integral_interpolation(domain, PARAMS, D, ip, lanes,
                                            FULL)
    fresh = obs.observation_profile(domain, PARAMS, lanes,
                                    D.midpoints[rep.window],
                                    D.mask[rep.window], FULL)
    assert np.array_equal(rep.profiles[:, rep.window], fresh)
    assert not rep.profiles[:, ~rep.window].any()


# -- telescoping chain ----------------------------------------------------


def test_telescope_chain_dominates():
    rng = np.random.default_rng(21)
    D = SpaceTimeSet.random(DOMAIN, 1.0, 128, rng, fill=0.5,
                            min_measure_fraction=0.4)
    rep = obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=1.0, depth=6,
                                   lanes=batch(22))
    assert rep.dominated
    assert math.isfinite(rep.N_hat) and rep.N_hat > 0
    assert rep.mu == pytest.approx(math.sqrt(1.5))
    assert rep.theta == pytest.approx(0.5)
    # the first ring constant A_1 > 0, raised to beta + 1
    assert rep.prefactor > 0.0
    assert rep.C_hat >= 0.0


def test_telescope_full_cylinder():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    rep = obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=2.0, depth=5,
                                   lanes=batch(23, 8))
    assert rep.dominated
    assert rep.theta == pytest.approx(2.0 / 3.0)


# -- checks that hold under python -O -------------------------------------


def zero_profile(domain, params, lanes, times, mask, B):
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


def test_full_observation_cancelling_is_a_violation():
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 64)
    lanes = batch(8, 2)
    rep = full_interpolation(D, lanes)
    rep = dataclasses.replace(rep, profiles=np.zeros_like(rep.profiles))
    with pytest.raises(PropertyViolation, match="full observation"):
        obs.verify_full_observation_pointwise(DOMAIN, PARAMS, D, 0.5, rep,
                                              lanes)


def test_ring_observation_of_a_zero_state_is_a_violation():
    # every ring holds time cells, so an empty ring observation is the
    # state's own and stays a violation, not a resolution failure
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    zero = np.zeros((1, DOMAIN.n_modes, 2))
    with pytest.raises(PropertyViolation, match="ring observation"):
        obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=2.0, depth=5,
                                 lanes=np.concatenate([batch(23, 2), zero]))


def test_ring_observation_cancelling_is_a_violation(monkeypatch):
    monkeypatch.setattr(obs, "observation_profile", zero_profile)
    D = SpaceTimeSet.full_cylinder(DOMAIN, 1.0, 128)
    with pytest.raises(PropertyViolation, match="ring observation"):
        obs.telescope_chain_demo(DOMAIN, PARAMS, D, beta=2.0, depth=5,
                                 lanes=batch(23, 2))
