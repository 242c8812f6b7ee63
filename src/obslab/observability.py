"""Empirical verification of the observability inequalities.

Covers: the epsilon-form / product-form equivalence of interpolation
inequalities, the integral-type interpolation inequality, the explicit
states that defeat pointwise-in-time observation, directional and full
observation variants, and the telescoping chain that assembles global
observability from ring inequalities.  Batches of states are coefficient
lanes (B, n_modes, 2) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTruncationError, ResolutionError, require
from .geometry import (SpaceTimeSet, find_density_point, good_time_set,
                       telescoping_sequence)
# evolve is unused here, but the benchmark's tracer wraps observability.evolve
from .semigroup import (FIRST, FULL, evolve, mode_factors,
                        observation_table, propagate, single_mode)
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# shared numerics


# Lanes are observed (a lane's values are its traces and its field) in blocks
# of at most this many values: a block stays in cache across the passes over
# it, and one evaluation's memory does not grow with lanes or cells.  A full
# block is 128 KiB, exactly glibc's default mmap threshold, so a fresh one may
# be mapped and page-fault on first touch.  A domain's Gram pair products are
# cut into cell blocks of the same size, built once per domain and block size
# and held (control._pair_table), so gram calls allocate none.
_FIELD_BLOCK = 1 << 14


def lane_block(values_per_lane: int) -> int:
    """Lanes per block: at most _FIELD_BLOCK values, at least one lane.  A lane
    is a field, in ControlOperator.gram one cell's pair products, and in the
    CLI's sweeps one case."""
    return max(1, _FIELD_BLOCK // values_per_lane)


def _row_traces(decay: np.ndarray, row: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """What one row of an observation_table sees of each mode of lanes z
    (..., n_modes, 2): decay * (z1 * row[0] + z2 * row[1])."""
    return decay * (z[..., 0] * row[0] + z[..., 1] * row[1])


def observation_profile(domain: SpectralDomain, params: PhysicalParams,
                        lanes: np.ndarray, times, mask: np.ndarray,
                        B) -> np.ndarray:
    """L1 norms of the observed fields of lanes at times, over mask's rows.

    lanes stacks coefficient pairs (n_lanes, n_modes, 2), row i of mask
    (n_times, n_cells) is the spatial set observed at times[i], and B is
    one observation row or two (see semigroup.observation_table); two rows
    are measured by their pointwise Euclidean magnitude.  Returns (n_lanes,
    n_times).  The rows of one pattern, adjacent or not, form a group: one
    batched matmul over its rows and over mask's cells only (an empty row
    reads 0), in lane blocks of at most _FIELD_BLOCK trace and field values
    but one lane at least, so memory does not grow with the lanes and a
    lane's norms do not depend on the blocks.
    """
    decay, g = observation_table(domain, params, times, B)
    groups = {}
    for i in np.flatnonzero(mask.any(axis=1)):
        groups.setdefault(mask[i].tobytes(), []).append(i)
    out = np.zeros((len(lanes), len(mask)))
    for rows in groups.values():
        d, gr = decay[rows], g[:, :, rows]
        eig = domain.eigenfunctions[:, mask[rows[0]]]
        blk = lane_block(len(rows) * (eig.shape[1] + 2 * domain.n_modes))
        for lo in range(0, len(lanes), blk):
            z = lanes[lo:lo + blk, None]
            f = [_row_traces(d, row, z) @ eig for row in gr]
            # measured in place: one lane's field can take a megabyte
            mag = np.hypot(*f, out=f[0]) if len(f) == 2 else np.abs(f[0], out=f[0])
            out[lo:lo + blk, rows] = mag.sum(axis=-1)
            del f, mag      # else two blocks' fields coexist while the next is built
    return out * domain.cell_volume


def lane_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each lane of x, as the BLAS dot np.linalg.norm uses."""
    f = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt((f[:, None, :] @ f[:, :, None]).reshape(len(x)))


def unit_lanes(domain: SpectralDomain, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """n unit states in uniformly random directions, lanes (n, n_modes, 2)."""
    x = rng.standard_normal((n, domain.n_modes, 2))
    return x / lane_norms(x)[:, None, None]


def norms_at(domain: SpectralDomain, params: PhysicalParams,
             lanes: np.ndarray, times) -> np.ndarray:
    """||exp(A t) z|| of lanes z (B, n_modes, 2) at times t, (B, n_times), bit
    for bit as the semigroup evolution of one state and its norm."""
    x = propagate(mode_factors(domain, params, times), lanes[:, None])
    return lane_norms(x.reshape(-1, math.prod(x.shape[2:]))).reshape(x.shape[:2])


def solve_increasing(fn, target: float) -> float:
    """Smallest x >= 0 with fn(x) >= target, fn increasing, to 1e-12 relative."""
    if target <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return hi


# ---------------------------------------------------------------------------
# epsilon-form / product-form equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    eps_form_passed: bool | np.ndarray     # one verdict per case
    holds: bool | np.ndarray


# the eps-form check's grid in (0, 1)
_EPS_GRID = np.geomspace(1e-9, 1.0 - 1e-9, 64)


def interp_equivalence(pi1, theta, F1, F2, F3) -> EquivalenceResult:
    """If F1 <= Pi1*(eps^-gamma F2 + eps F3) for all eps, then
    F1 <= 2*Pi1*F2^(1-theta)*F3^theta, on a finite probe set.

    The eps check runs over 64 geometric grid points in (0, 1) plus each
    probe's optimal eps, which is where the product form is attained.
    Cases stack on leading axes: pi1 and theta of shape (cases,), F1, F2
    and F3 of shape (cases, probes) give a bool array of verdicts per case;
    scalar pi1 and theta with (probes,) give plain bools.
    """
    pi1, theta, F1, F2, F3 = (np.asarray(F, dtype=float)
                              for F in (pi1, theta, F1, F2, F3))
    if np.any(F1 > F3 * (1 + 1e-12) + 1e-300):
        raise ValueError("probes must satisfy F1 <= F3")
    if not np.all((0.0 < theta) & (theta < 1.0)):
        raise ValueError("theta must lie in (0, 1)")
    pi1, theta = pi1[..., None], theta[..., None]       # over the probes
    gamma = theta / (1.0 - theta)
    # one row per probe: the 64 grid points, then its eps*, if it has one
    eps = np.empty(F1.shape + (65,))
    eps[..., :64] = _EPS_GRID
    with np.errstate(divide="ignore", invalid="ignore"):   # dropped below
        eps[..., 64] = (F2 / F3) ** (1.0 / (gamma + 1.0))
        bound = pi1[..., None] * (eps ** -gamma[..., None] * F2[..., None]
                                  + eps * F3[..., None])
    star_ok = (F3 > 0) & (F2 > 0) & (eps[..., 64] > 0.0) & (eps[..., 64] < 1.0)
    bound[~star_ok, 64] = np.inf
    eps_form = ~np.any(F1 > bound.min(axis=-1) * (1 + 1e-12), axis=-1)
    product = 2.0 * pi1 * F2 ** (1.0 - theta) * F3 ** theta
    holds = np.all(F1 <= product * (1 + 1e-9) + 1e-300, axis=-1)
    if eps_form.ndim == 0:
        eps_form, holds = bool(eps_form), bool(holds)
    return EquivalenceResult(eps_form_passed=eps_form, holds=holds)


# ---------------------------------------------------------------------------
# integral-type interpolation inequality


@dataclass(frozen=True)
class InterpolationParams:
    theta: float
    s1: float
    s2: float

    def constant_template(self, M: float, window_measure: float) -> float:
        """K = M exp(M (S2/(1-theta) + 1/(theta*S1))) / |E cap [S1,S2]|^3."""
        expo = self.s2 / (1.0 - self.theta) + 1.0 / (self.theta * self.s1)
        return M * math.exp(M * expo) / window_measure ** 3


@dataclass(frozen=True)
class InterpolationReport:
    K_hat: float
    K_hat_lane: int           # the probe lane attaining K_hat
    M_hat: float
    window_measure: float
    window: np.ndarray        # the time cells of E cap [S1, S2]
    ratios: np.ndarray
    integrals: np.ndarray
    profiles: np.ndarray      # (B, n_time) observed L1 norms, 0 off the window


def _row_sums(profiles: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum of each lane's profile over the selected time cells.

    Reduces a C-ordered copy: profiles[:, cols] comes back Fortran-ordered,
    and its row sums differ in the last bits from a single lane's sum.
    """
    return np.ascontiguousarray(profiles[:, cols]).sum(axis=1)


def verify_integral_interpolation(
        domain: SpectralDomain, params: PhysicalParams, D: SpaceTimeSet,
        ip: InterpolationParams, lanes: np.ndarray, B=FIRST,
        ) -> InterpolationReport:
    """Empirical constant of the integral-type interpolation inequality.

    For each z:  ||exp(A*S2) z||  vs
    (|E cap [S1,S2]|^-1 int_{S1}^{S2} chi_E ||chi_{D_t} B exp(A*t) z||_L1)^(1-theta)
    * ||z||^theta, with E the good-time set of D and B the observation rows.
    """
    # the time cells of E cap [S1, S2], and its measure
    window = (good_time_set(D).mask & (D.midpoints >= ip.s1)
              & (D.midpoints <= ip.s2))
    meas = float(window.sum()) * D.dt
    if meas <= 0:        # depends on the region drawn, not on the inputs alone
        raise ResolutionError(f"E cap [S1, S2] = [{ip.s1}, {ip.s2}] has zero "
                              "measure: the window holds no good time")
    profiles = observation_profile(domain, params, lanes, D.midpoints,
                                   D.mask & window[:, None], B)
    integrals = _row_sums(profiles, window) * D.dt
    zn = lane_norms(lanes)
    live = zn != 0                          # a zero state has ratio 0
    require(np.all(integrals[live] > 0),
            "integral observation cancelled for a nonzero state")
    lhs = norms_at(domain, params, lanes, (ip.s2,))[live, 0]
    # float_power is the C library's pow, as in scalar code; np.power is not
    rhs0 = (np.float_power(integrals[live] / meas, 1.0 - ip.theta)
            * np.float_power(zn[live], ip.theta))
    ratios = np.zeros(len(lanes))
    ratios[live] = lhs / rhs0
    lane = int(ratios.argmax())
    K_hat = float(ratios[lane])
    if not math.isfinite(K_hat):
        raise ArithmeticError(f"interpolation constant is not finite: {K_hat}")
    M_hat = solve_increasing(lambda M: ip.constant_template(M, meas), K_hat)
    return InterpolationReport(K_hat=K_hat, K_hat_lane=lane, M_hat=M_hat,
                               window_measure=meas, window=window,
                               ratios=ratios, integrals=integrals,
                               profiles=profiles)


# ---------------------------------------------------------------------------
# counterexample states (pointwise observation failure)


@dataclass(frozen=True)
class CounterexampleState:
    mode: int                 # 1-based mode index
    times: tuple[float, ...]
    state: np.ndarray         # (n_modes, 2)


def single_time_counterexample(domain: SpectralDomain, params: PhysicalParams,
                               S: float, mode: int = 1) -> CounterexampleState:
    """Unit state whose first-component observation vanishes at time S."""
    phase = domain.eigenvalues[mode - 1] * params.b * S
    state = single_mode(domain, mode, (-math.sin(phase), math.cos(phase)))
    return CounterexampleState(mode=mode, times=(S,), state=state)


def multi_time_counterexample(domain: SpectralDomain, params: PhysicalParams,
                              horizon: float, m: int) -> CounterexampleState:
    """Unit state vanishing at m distinct observation times in (0, horizon).

    Picks the smallest stored mode n with 2*pi/(|b|*lambda_n) <= T/(m+1);
    the times are the first m multiples of the mode's rotation period.
    """
    lam = domain.eigenvalues
    with np.errstate(over="ignore"):    # a period of +inf admits no mode
        ok = 2.0 * math.pi / (abs(params.b) * lam) <= horizon / (m + 1)
    if not ok.any():
        raise InsufficientTruncationError(
            "no stored mode satisfies the multi-time admissibility condition"
        )
    n = int(np.argmax(ok)) + 1
    start = 0.0 if params.b > 0 else horizon       # b < 0 turns backwards
    times = tuple(start + 2.0 * i * math.pi / (params.b * lam[n - 1])
                  for i in range(1, m + 1))
    first = single_time_counterexample(domain, params, times[0], n)
    return CounterexampleState(mode=n, times=times, state=first.state)


@dataclass(frozen=True)
class PointwiseFailureReport:
    counterexample: CounterexampleState
    first_residuals: np.ndarray   # first-component L1 traces at the times
    full_traces: np.ndarray       # full-observation L1 traces at the same times
    full_floor: float             # required lower bound 0.1*exp(-a*lam*S_max)


def pointwise_failure_demo(domain: SpectralDomain, params: PhysicalParams,
                           cex: CounterexampleState) -> PointwiseFailureReport:
    """Measure the vanishing state's traces on the full domain at its times."""
    full_mask = np.ones((len(cex.times), domain.n_cells), dtype=bool)
    first, full = (observation_profile(domain, params, cex.state[None],
                                       cex.times, full_mask, B)[0]
                   for B in (FIRST, FULL))
    lam = domain.eigenvalues[cex.mode - 1]
    floor = 0.1 * math.exp(-params.a * lam * max(cex.times))
    return PointwiseFailureReport(counterexample=cex, first_residuals=first,
                                  full_traces=full, full_floor=floor)


# ---------------------------------------------------------------------------
# directional and full observation


def direction_transform(lanes: np.ndarray, mu1: float, mu2: float):
    """phi with B exp(At) phi = (mu1, mu2) . exp(At) z for all t, for lanes
    z of shape (..., n_modes, 2)."""
    z1, z2 = lanes[..., 0], lanes[..., 1]
    return np.stack([mu1 * z1 + mu2 * z2, mu1 * z2 - mu2 * z1], axis=-1)


def verify_direction_observation(domain: SpectralDomain, params: PhysicalParams,
                                 mu1: float, mu2: float, lanes: np.ndarray,
                                 ) -> tuple[float, float]:
    """Defects of the reduction of directional to first-component observation.

    Returns the amplitude defect max | ||phi||^2 - (mu1^2+mu2^2) ||z||^2 |
    and the largest grid mismatch of the two observed fields at three times,
    phi = direction_transform(z, mu1, mu2), over the batch.
    """
    scale = mu1 * mu1 + mu2 * mu2
    phis = direction_transform(lanes, mu1, mu2)
    amp_defect = float(np.abs(lane_norms(phis) ** 2
                              - scale * lane_norms(lanes) ** 2).max())
    # phi through the observation table, z through the state formula
    times, eig = (0.1, 0.5, 1.0), domain.eigenfunctions
    decay, (g,) = observation_table(domain, params, times, FIRST)
    a = _row_traces(decay, g, phis[:, None]) @ eig
    v = propagate(mode_factors(domain, params, times), lanes[:, None])
    b = (mu1 * v[..., 0] + mu2 * v[..., 1]) @ eig
    return amp_defect, float(np.abs(a - b).max())


@dataclass(frozen=True)
class FullObservationReport:
    times: np.ndarray
    M_hats: np.ndarray
    min_traces: np.ndarray


def verify_full_observation_pointwise(domain: SpectralDomain,
                                      params: PhysicalParams, D: SpaceTimeSet,
                                      theta: float, rep: InterpolationReport,
                                      lanes: np.ndarray) -> FullObservationReport:
    """Pointwise-in-time inequality under full (both-component) observation.

    rep is verify_integral_interpolation's report on D and lanes under FULL
    observation; its window's midpoints are the times t, all in E, and its
    profiles there are the traces.  Per t, fits the smallest M with
    ||exp(At) z|| <= M exp(M(t/(1-theta) + 1/(theta t)))
                     * trace^(1-theta) * ||z||^theta  over the batch.
    """
    times = D.midpoints[rep.window]
    traces = rep.profiles[:, rep.window]
    norms = norms_at(domain, params, lanes, times)
    zn = lane_norms(lanes)
    live = zn > 0
    traces, norms, zn = traces[live], norms[live], zn[live, None]
    require(np.all(traces > 0),
            "full observation cancelled for a nonzero state")
    need = norms / (traces ** (1.0 - theta) * zn ** theta)
    expo = times / (1.0 - theta) + 1.0 / (theta * times)
    M_hats = [solve_increasing(lambda M: M * math.exp(M * e), n)
              for e, n in zip(expo, need.max(axis=0, initial=0.0))]
    return FullObservationReport(times=times, M_hats=np.array(M_hats),
                                 min_traces=traces.min(axis=0, initial=math.inf))


# ---------------------------------------------------------------------------
# telescoping chain


@dataclass(frozen=True)
class TelescopeReport:
    ell: float
    ell1: float
    mu: float
    theta: float
    C_hat: float
    prefactor: float
    domination_margin: float      # min over z of rhs - lhs in the chain bound
    N_hat: float                  # end-to-end observability constant
    N_hat_lane: int               # the probe lane attaining N_hat
    terms: np.ndarray             # telescoping times ell_1 > ... > ell_depth
    ring_measures: np.ndarray     # |E cap (ell_{m+1}, ell_m)| per ring

    @property
    def dominated(self) -> bool:
        return self.domination_margin >= -1e-12


def telescope_chain_demo(domain: SpectralDomain, params: PhysicalParams,
                         D: SpaceTimeSet, beta: float, depth: int,
                         lanes: np.ndarray,
                         ) -> TelescopeReport:
    """Numerically reproduce the ring-and-telescope proof pipeline.

    Builds the good-time set, a density point, and the certified time
    sequence; fits a per-ring interpolation constant and the exponential
    growth constant of the telescoping weights; then checks that the ring
    observations dominate the weighted norm at ell_2 and reports the
    end-to-end empirical observability constant.
    """
    E = good_time_set(D)
    ell = find_density_point(E)
    seq = telescoping_sequence(E, ell, beta, depth)
    mu, terms = seq.mu, seq.terms
    theta = beta / (beta + 1.0)
    n_rings = depth - 2

    # per-z norms at the sequence times and the horizon; ring observations
    mids = D.midpoints
    profiles = observation_profile(domain, params, lanes, mids, D.mask, FIRST)
    totals = profiles.sum(axis=1) * D.dt
    norms = norms_at(domain, params, lanes, (*terms, D.horizon))
    L = norms[:, :depth]
    rings = [E.mask & (mids > terms[m + 1]) & (mids < terms[m])
             for m in range(depth - 1)]
    for m, ring in enumerate(rings[:n_rings]):
        if not ring.any():      # E meets it only between time-cell midpoints
            raise ResolutionError(
                f"observation.n_time: ring {m + 1}, ({terms[m + 1]:.6g}, "
                f"{terms[m]:.6g}), holds no time-cell midpoint of E")
    O = np.column_stack([_row_sums(profiles, ring) for ring in rings]) * D.dt

    # ring interpolation constants A_m: L_m <= A_m * O_m^(1-theta) * L_{m+2}^theta
    den = O[:, :n_rings] ** (1.0 - theta) * L[:, 2:] ** theta
    require(np.all(den > 0), "a ring observation cancelled entirely")
    ring_constants = (L[:, :n_rings] / den).max(axis=0)

    # fit C_hat: A_m^(beta+1) <= prefactor * exp(C_hat * mu^(m+2)), anchored at m=1
    powered = ring_constants ** (beta + 1.0)
    prefactor = float(powered[0])
    C_hat = 0.0
    for mIdx in range(n_rings):
        ratio = powered[mIdx] / prefactor
        if ratio > 1.0:
            C_hat = max(C_hat, math.log(ratio) / mu ** (mIdx + 3))

    # telescoped chain: weighted ell_2 norm dominated by ring observations
    weight2 = math.exp(-C_hat * (beta + 2.0) * mu ** 2)
    even = range(1, n_rings, 2)            # rings m = 2, 4, ... (0-based odd)
    obs_sum = prefactor * sum(O[:, mIdx] for mIdx in even)
    tail_m = max(even) + 2
    zn = lane_norms(lanes)
    tail = math.exp(-C_hat * (beta + 2.0) * mu ** (tail_m + 2)) * zn
    margins = obs_sum + tail - weight2 * L[:, 1]
    margin = margins[zn != 0].min(initial=math.inf)

    observed = np.flatnonzero(totals > 0)
    ratios = norms[observed, -1] / totals[observed]
    best = int(ratios.argmax())
    return TelescopeReport(ell=ell, ell1=seq.ell1, mu=mu, theta=theta,
                           C_hat=C_hat, prefactor=prefactor,
                           domination_margin=float(margin),
                           N_hat=float(ratios[best]),
                           N_hat_lane=int(observed[best]), terms=terms,
                           ring_measures=E.measure_in(terms[1:], terms[:-1]))
