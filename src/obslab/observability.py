"""Empirical verification of the observability inequalities.

Covers: estimation of the spectral L1 constant on a spatial subset, the
epsilon-form / product-form equivalence of interpolation inequalities,
the integral-type interpolation inequality, the explicit states that
defeat pointwise-in-time observation, directional and full observation
variants, and the telescoping chain that assembles global observability
from ring inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTruncationError, ResolutionError, require
from .geometry import GoodTimeSet, SpaceTimeSet, good_time_set
# evolve is unused here, but the benchmark's tracer wraps observability.evolve
from .semigroup import (ObservationSelector, SelectorKind, SpectralState,
                        evolve, mode_factors, propagate)
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# shared numerics


def covering_ball(domain: SpectralDomain):
    """Center and radius of a ball containing the whole domain."""
    half = np.asarray(domain.lengths) / 2.0
    return half, float(np.linalg.norm(half))


# Lanes are observed, and Gram matrices built, in blocks of at most this many
# field values (128 KiB of float64, glibc's default mmap threshold): a block
# stays in cache across the passes over it, and the memory of one evaluation
# does not grow with the number of lanes or time rows.
_FIELD_BLOCK = 1 << 14


def lane_block(values_per_lane: int) -> int:
    """Lanes per block: at most _FIELD_BLOCK field values, at least one lane."""
    return max(1, _FIELD_BLOCK // values_per_lane)


def observed_fields(traces: np.ndarray, eig: np.ndarray,
                    sel: ObservationSelector) -> tuple:
    """Signed grid fields of coefficient traces (..., n_modes, 2) under sel.

    One field (..., n_cells) for FIRST and DIRECTION, both components for
    FULL.
    """
    if sel.kind is SelectorKind.FIRST:
        return (traces[..., 0] @ eig,)
    if sel.kind is SelectorKind.DIRECTION:
        return ((sel.mu1 * traces[..., 0] + sel.mu2 * traces[..., 1]) @ eig,)
    return traces[..., 0] @ eig, traces[..., 1] @ eig


def observation_profile(domain: SpectralDomain, params: PhysicalParams,
                        lanes: np.ndarray, times, mask: np.ndarray,
                        sel: ObservationSelector) -> np.ndarray:
    """L1 norms of the observed fields of lanes at times, over mask's rows.

    lanes stacks coefficient pairs (B, n_modes, 2), and row i of mask
    (n_times, n_cells) is the spatial set observed at times[i]; a FULL
    observation is measured by its pointwise Euclidean magnitude.  Returns
    (B, n_times).  Lanes are evaluated a block at a time, at most
    _FIELD_BLOCK field values but at least one lane per block, so memory
    does not grow with B and a lane's norms do not depend on the blocks.
    """
    factors = mode_factors(domain, params, times)
    out = np.empty((len(lanes), len(mask)))
    blk = lane_block(mask.size)
    for lo in range(0, len(lanes), blk):
        f = observed_fields(propagate(factors, lanes[lo:lo + blk, None]),
                            domain.eigenfunctions, sel)
        # measured in place: one lane's field can take a megabyte
        mag = np.hypot(*f, out=f[0]) if len(f) == 2 else np.abs(f[0], out=f[0])
        mag *= mask
        out[lo:lo + blk] = mag.sum(axis=-1)
        del f, mag      # else two blocks' fields coexist while the next is built
    return out * domain.cell_volume


def lane_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each lane of x, as the BLAS dot np.linalg.norm uses."""
    f = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt((f[:, None, :] @ f[:, :, None]).reshape(len(x)))


def norms_at(domain: SpectralDomain, params: PhysicalParams,
             lanes: np.ndarray, times) -> np.ndarray:
    """||exp(A t) z|| of lanes z (B, n_modes, 2) at times t, (B, n_times), bit
    for bit as the semigroup evolution of one state and its norm."""
    x = propagate(mode_factors(domain, params, times), lanes[:, None])
    return lane_norms(x.reshape(-1, math.prod(x.shape[2:]))).reshape(x.shape[:2])


def float_pow(x, p) -> np.ndarray:
    """x ** p through Python float power, the C library's pow, as scalar code
    computes it; numpy's vectorised pow can differ from it in the last bit."""
    return (np.asarray(x, dtype=object) ** p).astype(float)


def sphere_descent(value_grad, starts, iters: int, gtol: float):
    """Multi-start projected (sub)gradient descent on the unit sphere.

    starts stacks the restarts on a leading axis; they run together as
    lanes of one batch.  value_grad(Y) maps points of shape (B, ...) to
    values (B,) and gradients (B, ...).  Each lane is normalised, then
    descended with Armijo backtracking along its tangent gradient exactly
    as it would be alone: every round tries one step on each live lane;
    an accepted step doubles the lane's step (up to 1), a rejected one
    halves it.  A lane retires when its squared tangent-gradient norm
    drops below gtol, its step falls to 1e-14 without an accept, or it
    has taken iters steps.  Returns the best finite value over all lanes
    (the first lane wins ties) and its minimiser.
    """
    y = np.array(starts, dtype=float)
    axes = tuple(range(1, y.ndim))
    bcast = (slice(None),) + (None,) * len(axes)    # (B,) -> broadcast over y
    y /= lane_norms(y)[bcast]

    def tangent(y, grad):
        g_t = grad - np.sum(grad * y, axis=axes)[bcast] * y
        return g_t, np.sum(g_t * g_t, axis=axes)

    val, grad = value_grad(y)
    g_t, gn2 = tangent(y, grad)
    step = np.ones(len(y))
    taken = np.zeros(len(y), dtype=int)
    live = ~(gn2 < gtol) & (iters > 0)
    while live.any():
        idx = np.flatnonzero(live)
        s = step[idx]
        cand = y[idx] - s[bcast] * g_t[idx]
        cand /= lane_norms(cand)[bcast]
        cval, cgrad = value_grad(cand)
        ok = cval <= val[idx] - 1e-4 * s * gn2[idx]
        acc, rej = idx[ok], idx[~ok]
        y[acc], val[acc], grad[acc] = cand[ok], cval[ok], cgrad[ok]
        step[acc] = np.minimum(s[ok] * 2.0, 1.0)
        taken[acc] += 1
        g_t[acc], gn2[acc] = tangent(y[acc], grad[acc])
        live[acc] = (taken[acc] < iters) & ~(gn2[acc] < gtol)
        step[rej] *= 0.5
        live[rej] = step[rej] > 1e-14
    finite = np.isfinite(val)
    if not finite.any():
        raise ArithmeticError("all sphere-descent restarts were non-finite")
    best = int(np.argmin(np.where(finite, val, np.inf)))
    return float(val[best]), y[best]


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


def solve_c_exp_sqrt(target: float, lam: float) -> float:
    """Smallest c with c * exp(c * sqrt(lam)) >= target."""
    r = math.sqrt(lam)
    return solve_increasing(lambda c: c * math.exp(c * r), target)


# ---------------------------------------------------------------------------
# spectral L1 constant


@dataclass(frozen=True)
class SpectralL1Constant:
    lam: float
    k_lambda: int
    min_l1: float             # minimal masked L1 norm on the unit sphere
    c_hat: float              # smallest c with c*exp(c*sqrt(lam)) = 1/min_l1^2
    minimizer: np.ndarray


def _l1_value_grad(basis: np.ndarray, cell_volume: float):
    """Masked L1 norms of coefficient lanes (B, k) and their subgradients."""
    def value_grad(A):
        # one gemv per lane: a lane's values do not depend on the batch
        f = A[:, None, :] @ basis
        vals = np.abs(f).sum(axis=(1, 2)) * cell_volume
        return vals, (np.sign(f) @ basis.T)[:, 0] * cell_volume
    return value_grad


def estimate_spectral_L1_constant(domain: SpectralDomain, lam: float,
                                  omega: np.ndarray, restarts: int = 64,
                                  rng: np.random.Generator | None = None,
                                  ) -> SpectralL1Constant:
    """Best constant in the low-frequency L1 spectral inequality on omega.

    Minimizes the masked L1 norm of unit coefficient combinations of the
    first k_lambda eigenfunctions, then inverts c*exp(c*sqrt(lam)) to the
    reciprocal squared minimum.
    """
    omega = np.asarray(omega, dtype=bool)
    if not omega.any():
        raise ValueError("omega must have positive measure")
    if rng is None:
        rng = np.random.default_rng(0)
    k = domain.count_below(lam)
    value_grad = _l1_value_grad(domain.eigenfunctions[:k][:, omega],
                                domain.cell_volume)
    starts = rng.standard_normal((restarts, k))
    min_l1, a = sphere_descent(value_grad, starts, iters=300, gtol=1e-20)
    if min_l1 <= 0:
        raise ArithmeticError("masked L1 minimum collapsed to zero")
    c_hat = solve_c_exp_sqrt(1.0 / min_l1 ** 2, lam)
    return SpectralL1Constant(lam=lam, k_lambda=k, min_l1=min_l1,
                              c_hat=c_hat, minimizer=a)


def brute_force_min_l1_2d(domain: SpectralDomain, omega: np.ndarray,
                          n_angles: int = 3600) -> float:
    """Oracle for k_lambda = 2: scan the unit circle of coefficients."""
    omega = np.asarray(omega, dtype=bool)
    basis = domain.eigenfunctions[:2][:, omega]
    ang = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    combos = np.cos(ang)[:, None] * basis[0] + np.sin(ang)[:, None] * basis[1]
    return float(np.abs(combos).sum(axis=1).min() * domain.cell_volume)


# ---------------------------------------------------------------------------
# epsilon-form / product-form equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    pi2: float
    eps_form_passed: bool
    holds: bool


def interp_equivalence(pi1: float, theta: float, F1, F2, F3) -> EquivalenceResult:
    """If F1 <= Pi1*(eps^-gamma F2 + eps F3) for all eps, then
    F1 <= 2*Pi1*F2^(1-theta)*F3^theta, on a finite probe set.

    The eps check runs over 64 geometric grid points in (0, 1) plus each
    probe's optimal eps, which is where the product form is attained.
    """
    F1, F2, F3 = (np.asarray(F, dtype=float) for F in (F1, F2, F3))
    if np.any(F1 > F3 * (1 + 1e-12) + 1e-300):
        raise ValueError("probes must satisfy F1 <= F3")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    gamma = theta / (1.0 - theta)
    # one row per probe: the 64 grid points, then its eps*, if it has one
    eps = np.empty((len(F1), 65))
    eps[:, :64] = np.geomspace(1e-9, 1.0 - 1e-9, 64)
    with np.errstate(divide="ignore", invalid="ignore"):   # dropped below
        eps[:, 64] = (F2 / F3) ** (1.0 / (gamma + 1.0))
        bound = pi1 * (eps ** -gamma * F2[:, None] + eps * F3[:, None])
    star_ok = (F3 > 0) & (F2 > 0) & (eps[:, 64] > 0.0) & (eps[:, 64] < 1.0)
    bound[~star_ok, 64] = np.inf
    eps_form = not np.any(F1 > bound.min(axis=1) * (1 + 1e-12))
    pi2 = 2.0 * pi1
    product = pi2 * F2 ** (1.0 - theta) * F3 ** theta
    holds = bool(np.all(F1 <= product * (1 + 1e-9) + 1e-300))
    return EquivalenceResult(pi2=pi2, eps_form_passed=eps_form, holds=holds)


# ---------------------------------------------------------------------------
# integral-type interpolation inequality


@dataclass(frozen=True)
class InterpolationParams:
    theta: float
    s1: float
    s2: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.s1 < self.s2:
            raise ValueError("require 0 < S1 < S2")

    @property
    def gamma(self) -> float:
        return self.theta / (1.0 - self.theta)

    def constant_template(self, M: float, window_measure: float) -> float:
        """K = M exp(M (S2/(1-theta) + 1/(theta*S1))) / |E cap [S1,S2]|^3."""
        expo = self.s2 / (1.0 - self.theta) + 1.0 / (self.theta * self.s1)
        return M * math.exp(M * expo) / window_measure ** 3


@dataclass(frozen=True)
class InterpolationReport:
    K_hat: float
    M_hat: float
    window_measure: float
    ratios: np.ndarray
    integrals: np.ndarray


def _lanes(z_batch) -> np.ndarray:
    """Coefficient lanes (B, n_modes, 2) of a batch of states."""
    return np.stack([z.coeffs for z in z_batch])


def _row_sums(profiles: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum of each lane's profile over the selected time cells.

    Reduces a C-ordered copy: profiles[:, cols] comes back Fortran-ordered,
    and its row sums differ in the last bits from a single lane's sum.
    """
    return np.ascontiguousarray(profiles[:, cols]).sum(axis=1)


def verify_integral_interpolation(domain: SpectralDomain, params: PhysicalParams,
                                  D: SpaceTimeSet, ip: InterpolationParams,
                                  z_batch, sel: ObservationSelector | None = None,
                                  gts: GoodTimeSet | None = None,
                                  ) -> InterpolationReport:
    """Empirical constant of the integral-type interpolation inequality.

    For each z:  ||exp(A*S2) z||  vs
    (|E cap [S1,S2]|^-1 int_{S1}^{S2} chi_E ||chi_{D_t} B exp(A*t) z||_L1)^(1-theta)
    * ||z||^theta, with E the good-time set of D.
    """
    if sel is None:
        sel = ObservationSelector.first()
    if gts is None:
        gts = good_time_set(D, *covering_ball(domain))
    # the time cells of E cap [S1, S2], and its measure
    window = gts.times.mask & (D.midpoints >= ip.s1) & (D.midpoints <= ip.s2)
    meas = float(window.sum()) * D.dt
    if meas <= 0:        # depends on the region drawn, not on the inputs alone
        raise ResolutionError(f"E cap [S1, S2] = [{ip.s1}, {ip.s2}] has zero "
                              "measure: the window holds no good time")
    lanes = _lanes(z_batch)
    profiles = observation_profile(domain, params, lanes, D.midpoints, D.mask,
                                   sel)
    integrals = _row_sums(profiles, window) * D.dt
    zn = lane_norms(lanes)
    live = zn != 0                          # a zero state has ratio 0
    require(np.all(integrals[live] > 0),
            "integral observation cancelled for a nonzero state")
    lhs = norms_at(domain, params, lanes, (ip.s2,))[live, 0]
    rhs0 = (float_pow(integrals[live] / meas, 1.0 - ip.theta)
            * float_pow(zn[live], ip.theta))
    ratios = np.zeros(len(lanes))
    ratios[live] = lhs / rhs0
    K_hat = float(ratios.max())
    if not math.isfinite(K_hat):
        raise ArithmeticError(f"interpolation constant is not finite: {K_hat}")
    M_hat = solve_increasing(lambda M: ip.constant_template(M, meas), K_hat)
    return InterpolationReport(K_hat=K_hat, M_hat=M_hat, window_measure=meas,
                               ratios=ratios, integrals=integrals)


# ---------------------------------------------------------------------------
# counterexample states (pointwise observation failure)


@dataclass(frozen=True)
class CounterexampleState:
    mode: int                 # 1-based mode index
    times: tuple[float, ...]
    state: SpectralState


def single_time_counterexample(domain: SpectralDomain, params: PhysicalParams,
                               S: float, mode: int = 1) -> CounterexampleState:
    """Unit state whose first-component observation vanishes at time S."""
    phase = domain.eigenvalues[mode - 1] * params.b * S
    pair = (-math.sin(phase), math.cos(phase))
    return CounterexampleState(mode=mode, times=(S,),
                               state=SpectralState.single_mode(domain, mode, pair))


def multi_time_counterexample(domain: SpectralDomain, params: PhysicalParams,
                              horizon: float, m: int) -> CounterexampleState:
    """Unit state vanishing at m distinct observation times in (0, horizon).

    Picks the smallest stored mode n with 2*pi/(|b|*lambda_n) <= T/(m+1);
    the times are the first m multiples of the mode's rotation period.
    """
    lam = domain.eigenvalues
    ok = 2.0 * math.pi / (abs(params.b) * lam) <= horizon / (m + 1)
    if not ok.any():
        raise InsufficientTruncationError(
            "no stored mode satisfies the multi-time admissibility condition"
        )
    n = int(np.argmax(ok)) + 1
    lam_n = lam[n - 1]
    start = 0.0 if params.b > 0 else horizon       # b < 0 turns backwards
    times = tuple(start + 2.0 * i * math.pi / (params.b * lam_n)
                  for i in range(1, m + 1))
    phase = lam_n * params.b * times[0]
    pair = (-math.sin(phase), math.cos(phase))
    return CounterexampleState(mode=n, times=times,
                               state=SpectralState.single_mode(domain, n, pair))


@dataclass(frozen=True)
class PointwiseFailureReport:
    counterexample: CounterexampleState
    first_residuals: np.ndarray   # first-component L1 traces at the times
    full_traces: np.ndarray       # full-observation L1 traces at the same times
    full_floor: float             # required lower bound 0.1*exp(-a*lam*S_max)


def pointwise_failure_demo(domain: SpectralDomain, params: PhysicalParams,
                           S: float | None = None, horizon: float | None = None,
                           m: int | None = None, mode: int = 1,
                           ) -> PointwiseFailureReport:
    """Build the vanishing state and measure its traces on the full domain."""
    if S is not None:
        cex = single_time_counterexample(domain, params, S, mode)
    elif horizon is not None and m is not None:
        cex = multi_time_counterexample(domain, params, horizon, m)
    else:
        raise ValueError("provide either a single time S or (horizon, m)")
    full_mask = np.ones((len(cex.times), domain.n_cells), dtype=bool)
    first, full = (observation_profile(domain, params, cex.state.coeffs[None],
                                       cex.times, full_mask, sel)[0]
                   for sel in (ObservationSelector.first(),
                               ObservationSelector.full()))
    lam = domain.eigenvalues[cex.mode - 1]
    floor = 0.1 * math.exp(-params.a * lam * max(cex.times))
    return PointwiseFailureReport(counterexample=cex, first_residuals=first,
                                  full_traces=full, full_floor=floor)


# ---------------------------------------------------------------------------
# directional and full observation


def direction_transform(state, mu1: float, mu2: float):
    """phi with B exp(At) phi = (mu1, mu2) . exp(At) z for all t, for a
    SpectralState or for lanes (..., n_modes, 2), returned in the same form."""
    if isinstance(state, SpectralState):
        return SpectralState(direction_transform(state.coeffs, mu1, mu2),
                             state.domain)
    z1, z2 = state[..., 0], state[..., 1]
    return np.stack([mu1 * z1 + mu2 * z2, mu1 * z2 - mu2 * z1], axis=-1)


@dataclass(frozen=True)
class DirectionReport:
    interpolation: InterpolationReport
    amplitude_defect: float       # | ||phi||^2 - (mu1^2+mu2^2) ||z||^2 | max
    field_defect: float           # max grid mismatch of the two observations


def verify_direction_observation(domain: SpectralDomain, params: PhysicalParams,
                                 D: SpaceTimeSet, ip: InterpolationParams,
                                 mu1: float, mu2: float, z_batch) -> DirectionReport:
    """Directional observation reduces to first-component via a state rotation."""
    if abs(mu1) + abs(mu2) == 0:
        raise ValueError("direction must be nonzero")
    sel = ObservationSelector.direction(mu1, mu2)
    scale = mu1 * mu1 + mu2 * mu2
    lanes = _lanes(z_batch)
    phis = direction_transform(lanes, mu1, mu2)
    amp_defect = float(np.abs(lane_norms(phis) ** 2
                              - scale * lane_norms(lanes) ** 2).max())
    factors = mode_factors(domain, params, (0.1, 0.5, 1.0))
    (a,) = observed_fields(propagate(factors, phis[:, None]),
                           domain.eigenfunctions, ObservationSelector.first())
    (b,) = observed_fields(propagate(factors, lanes[:, None]),
                           domain.eigenfunctions, sel)
    field_defect = float(np.abs(a - b).max())
    report = verify_integral_interpolation(domain, params, D, ip, z_batch, sel=sel)
    return DirectionReport(interpolation=report, amplitude_defect=amp_defect,
                           field_defect=field_defect)


@dataclass(frozen=True)
class FullObservationReport:
    times: np.ndarray
    M_hats: np.ndarray
    min_traces: np.ndarray


def verify_full_observation_pointwise(domain: SpectralDomain,
                                      params: PhysicalParams, D: SpaceTimeSet,
                                      theta: float, t_list, z_batch,
                                      ) -> FullObservationReport:
    """Pointwise-in-time inequality under full (both-component) observation.

    Per time t in E, fits the smallest M with
    ||exp(At) z|| <= M exp(M(t/(1-theta) + 1/(theta t)))
                     * trace^(1-theta) * ||z||^theta  over the batch.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    gts = good_time_set(D, *covering_ball(domain))
    times = np.asarray(t_list, dtype=float)
    for t in times:
        if not gts.times.contains_time(t):
            raise ValueError(f"time {t} is not in the good-time set E")
    slices = np.array([D.slice_at(t)[0] for t in times])
    lanes = _lanes(z_batch)
    traces = observation_profile(domain, params, lanes, times, slices,
                                 ObservationSelector.full())
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
    ring_constants: np.ndarray    # per-ring empirical interpolation constants
    C_hat: float
    prefactor: float
    domination_margin: float      # min over z of rhs - lhs in the chain bound
    N_hat: float                  # end-to-end observability constant
    terms: np.ndarray             # telescoping times ell_1 > ... > ell_depth
    ring_measures: np.ndarray     # |E cap (ell_{m+1}, ell_m)| per ring

    @property
    def dominated(self) -> bool:
        return self.domination_margin >= -1e-12


def telescope_chain_demo(domain: SpectralDomain, params: PhysicalParams,
                         D: SpaceTimeSet, beta: float, depth: int, z_batch,
                         ) -> TelescopeReport:
    """Numerically reproduce the ring-and-telescope proof pipeline.

    Builds the good-time set, a density point, and the certified time
    sequence; fits a per-ring interpolation constant and the exponential
    growth constant of the telescoping weights; then checks that the ring
    observations dominate the weighted norm at ell_2 and reports the
    end-to-end empirical observability constant.
    """
    from .geometry import find_density_point, telescoping_sequence
    if depth < 4:
        raise ValueError("the chain needs depth >= 4: its first ring "
                         "observation term is ring m = 2")
    E = good_time_set(D, *covering_ball(domain)).times
    ell = find_density_point(E)
    seq = telescoping_sequence(E, ell, beta, depth)
    mu, terms = seq.mu, seq.terms
    theta = beta / (beta + 1.0)
    n_rings = depth - 2

    # per-z norms at the sequence times and the horizon; ring observations
    lanes = _lanes(z_batch)
    mids = D.midpoints
    profiles = observation_profile(domain, params, lanes, mids, D.mask,
                                   ObservationSelector.first())
    totals = profiles.sum(axis=1) * D.dt
    norms = norms_at(domain, params, lanes, (*terms, D.horizon))
    L = norms[:, :depth]
    O = np.column_stack([
        _row_sums(profiles, E.mask & (mids > terms[m + 1]) & (mids < terms[m]))
        for m in range(depth - 1)]) * D.dt

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

    finite = totals > 0
    N_hat = float((norms[finite, -1] / totals[finite]).max())
    return TelescopeReport(ell=ell, ell1=seq.ell1, mu=mu, theta=theta,
                           ring_constants=ring_constants, C_hat=C_hat,
                           prefactor=prefactor, domination_margin=float(margin),
                           N_hat=N_hat, terms=terms,
                           ring_measures=np.array([
                               E.measure_in(terms[m + 1], terms[m])
                               for m in range(depth - 1)]))
