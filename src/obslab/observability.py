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

from .errors import InsufficientTruncationError
from .geometry import GoodTimeSet, SpaceTimeSet, TimeSet, good_time_set
from .semigroup import (ObservationSelector, SelectorKind, SpectralState,
                        evolve, masked_l1, mode_factors, observe, propagate)
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# shared numerics


def covering_ball(domain: SpectralDomain):
    """Center and radius of a ball containing the whole domain."""
    half = np.asarray(domain.lengths) / 2.0
    return half, float(np.linalg.norm(half))


def observation_profile(state: SpectralState, params: PhysicalParams,
                        D: SpaceTimeSet, sel: ObservationSelector) -> np.ndarray:
    """t_i -> L1 norm over the slice D_{t_i} of the observed field.

    Evaluated at the midpoints of D's time cells; multiplying by dt and
    summing gives the time-integrated observation.
    """
    traces = propagate(mode_factors(state.domain, params, D.midpoints),
                       state.coeffs)
    eig = state.domain.eigenfunctions
    if sel.kind is SelectorKind.FIRST:
        mag = np.abs(traces[:, :, 0] @ eig)
    elif sel.kind is SelectorKind.DIRECTION:
        mag = np.abs((sel.mu1 * traces[:, :, 0] + sel.mu2 * traces[:, :, 1]) @ eig)
    else:
        mag = np.hypot(traces[:, :, 0] @ eig, traces[:, :, 1] @ eig)
    return (mag * D.mask).sum(axis=1) * D.domain.cell_volume


def lane_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each lane of x, as the BLAS dot np.linalg.norm uses."""
    f = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt((f[:, None, :] @ f[:, :, None]).reshape(len(x)))


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


def solve_increasing(fn, target: float, lo: float = 0.0,
                     hi: float = 1.0, tol: float = 1e-12) -> float:
    """Smallest x with fn(x) >= target, fn increasing; bracket grows as needed."""
    if target <= 0:
        return 0.0
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
        if hi - lo <= tol * max(1.0, hi):
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


def interp_equivalence(pi1: float, theta: float, F1, F2, F3,
                       eps_grid=None) -> EquivalenceResult:
    """If F1 <= Pi1*(eps^-gamma F2 + eps F3) for all eps, then
    F1 <= 2*Pi1*F2^(1-theta)*F3^theta, on a finite probe set.

    The eps check runs over a grid plus each probe's optimal eps, which
    is where the product form is attained.
    """
    F1, F2, F3 = (np.asarray(F, dtype=float) for F in (F1, F2, F3))
    if np.any(F1 > F3 * (1 + 1e-12) + 1e-300):
        raise ValueError("probes must satisfy F1 <= F3")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    gamma = theta / (1.0 - theta)
    if eps_grid is None:
        eps_grid = np.geomspace(1e-9, 1.0 - 1e-9, 64)
    eps_form = True
    for f1, f2, f3 in zip(F1, F2, F3):
        eps_vals = list(eps_grid)
        if f3 > 0 and f2 > 0:
            eps_star = (f2 / f3) ** (1.0 / (gamma + 1.0))
            if 0.0 < eps_star < 1.0:
                eps_vals.append(eps_star)
        bound = min(pi1 * (e ** -gamma * f2 + e * f3) for e in eps_vals)
        if f1 > bound * (1 + 1e-12):
            eps_form = False
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


def _window_weights(D: SpaceTimeSet, E: TimeSet, s1: float, s2: float):
    """Time-cell selection for integrals of chi_E over [s1, s2]."""
    mids = D.midpoints
    sel = E.mask & (mids >= s1) & (mids <= s2)
    return sel, float(sel.sum()) * D.dt


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
    window, meas = _window_weights(D, gts.times, ip.s1, ip.s2)
    if meas <= 0:
        raise ValueError("E cap [S1, S2] must have positive measure")
    ratios, integrals = [], []
    for z in z_batch:
        profile = observation_profile(z, params, D, sel)
        integral = float(profile[window].sum()) * D.dt
        integrals.append(integral)
        zn = z.norm()
        if zn == 0:
            ratios.append(0.0)
            continue
        lhs = evolve(z, params, ip.s2).norm()
        assert integral > 0, "integral-type observation cancelled for a nonzero state"
        rhs0 = (integral / meas) ** (1.0 - ip.theta) * zn ** ip.theta
        ratios.append(lhs / rhs0)
    K_hat = float(max(ratios))
    assert math.isfinite(K_hat)
    M_hat = solve_increasing(lambda M: ip.constant_template(M, meas), K_hat)
    return InterpolationReport(K_hat=K_hat, M_hat=M_hat, window_measure=meas,
                               ratios=np.array(ratios), integrals=np.array(integrals))


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
    lam = domain.eigenvalues[mode - 1]
    phase = lam * params.b * S
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
    if params.b > 0:
        times = tuple(2.0 * i * math.pi / (params.b * lam_n) for i in range(1, m + 1))
    else:
        times = tuple(horizon + 2.0 * i * math.pi / (params.b * lam_n)
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
    from .semigroup import observed_trace_L1
    if S is not None:
        cex = single_time_counterexample(domain, params, S, mode)
    elif horizon is not None and m is not None:
        cex = multi_time_counterexample(domain, params, horizon, m)
    else:
        raise ValueError("provide either a single time S or (horizon, m)")
    full_mask = np.ones(domain.n_cells, dtype=bool)
    first = np.array([
        observed_trace_L1(cex.state, params, ObservationSelector.first(), t, full_mask)
        for t in cex.times
    ])
    full = np.array([
        observed_trace_L1(cex.state, params, ObservationSelector.full(), t, full_mask)
        for t in cex.times
    ])
    lam = domain.eigenvalues[cex.mode - 1]
    floor = 0.1 * math.exp(-params.a * lam * max(cex.times))
    return PointwiseFailureReport(counterexample=cex, first_residuals=first,
                                  full_traces=full, full_floor=floor)


# ---------------------------------------------------------------------------
# directional and full observation


def direction_transform(state: SpectralState, mu1: float, mu2: float
                        ) -> SpectralState:
    """phi with B exp(At) phi = (mu1, mu2) . exp(At) z for all t."""
    z1, z2 = state.coeffs[:, 0], state.coeffs[:, 1]
    c = np.column_stack([mu1 * z1 + mu2 * z2, mu1 * z2 - mu2 * z1])
    return SpectralState(c, state.domain)


@dataclass(frozen=True)
class DirectionReport:
    interpolation: InterpolationReport
    amplitude_defect: float       # | ||phi||^2 - (mu1^2+mu2^2) ||z||^2 | max
    field_defect: float           # max grid mismatch of the two observations


def verify_direction_observation(domain: SpectralDomain, params: PhysicalParams,
                                 D: SpaceTimeSet, ip: InterpolationParams,
                                 mu1: float, mu2: float, z_batch,
                                 check_times=(0.1, 0.5, 1.0)) -> DirectionReport:
    """Directional observation reduces to first-component via a state rotation."""
    if abs(mu1) + abs(mu2) == 0:
        raise ValueError("direction must be nonzero")
    sel = ObservationSelector.direction(mu1, mu2)
    amp_defect = 0.0
    field_defect = 0.0
    scale = mu1 * mu1 + mu2 * mu2
    for z in z_batch:
        phi = direction_transform(z, mu1, mu2)
        amp_defect = max(amp_defect,
                         abs(phi.norm() ** 2 - scale * z.norm() ** 2))
        for t in check_times:
            a = observe(evolve(phi, params, t), ObservationSelector.first())
            b = observe(evolve(z, params, t), sel)
            field_defect = max(field_defect, float(np.abs(a - b).max()))
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
    M_hats, min_traces = [], []
    sel = ObservationSelector.full()
    for t in t_list:
        if not gts.times.contains_time(t):
            raise ValueError(f"time {t} is not in the good-time set E")
        slice_mask, _ = D.slice_at(t)
        expo = t / (1.0 - theta) + 1.0 / (theta * t)
        need = 0.0
        min_trace = math.inf
        for z in z_batch:
            zn = z.norm()
            if zn == 0:
                continue
            zt = evolve(z, params, t)
            trace = masked_l1(observe(zt, sel), slice_mask, domain.cell_volume)
            assert trace > 0, "full observation cancelled for a nonzero state"
            min_trace = min(min_trace, trace)
            target = zt.norm() / (trace ** (1.0 - theta) * zn ** theta)
            need = max(need, target)
        M_hats.append(solve_increasing(lambda M: M * math.exp(M * expo), need))
        min_traces.append(min_trace)
    return FullObservationReport(times=np.asarray(t_list, dtype=float),
                                 M_hats=np.array(M_hats),
                                 min_traces=np.array(min_traces))


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
    gts = good_time_set(D, *covering_ball(domain))
    E = gts.times
    ell = find_density_point(E)
    seq = telescoping_sequence(E, ell, beta, depth)
    mu = seq.mu
    theta = beta / (beta + 1.0)
    terms = seq.terms
    sel = ObservationSelector.first()
    n_rings = depth - 2

    # per-z norms at the sequence times and ring observations
    L = np.empty((len(z_batch), depth))
    O = np.empty((len(z_batch), depth - 1))
    totals = np.empty(len(z_batch))
    mids = D.midpoints
    for i, z in enumerate(z_batch):
        profile = observation_profile(z, params, D, sel)
        totals[i] = float(profile.sum()) * D.dt
        for mIdx in range(depth):
            L[i, mIdx] = evolve(z, params, terms[mIdx]).norm()
        for mIdx in range(depth - 1):
            ring = E.mask & (mids > terms[mIdx + 1]) & (mids < terms[mIdx])
            O[i, mIdx] = float(profile[ring].sum()) * D.dt

    # ring interpolation constants A_m: L_m <= A_m * O_m^(1-theta) * L_{m+2}^theta
    ring_constants = np.empty(n_rings)
    for mIdx in range(n_rings):
        num = L[:, mIdx]
        den = O[:, mIdx] ** (1.0 - theta) * L[:, mIdx + 2] ** theta
        assert np.all(den > 0), "a ring observation cancelled entirely"
        ring_constants[mIdx] = float((num / den).max())

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
    margin = math.inf
    for i, z in enumerate(z_batch):
        zn = z.norm()
        if zn == 0:
            continue
        even = range(1, n_rings, 2)        # rings m = 2, 4, ... (0-based odd)
        obs_sum = prefactor * sum(O[i, mIdx] for mIdx in even)
        tail_m = max(even) + 2 if n_rings > 1 else 2
        tail = math.exp(-C_hat * (beta + 2.0) * mu ** (tail_m + 2)) * zn
        margin = min(margin, obs_sum + tail - weight2 * L[i, 1])

    finite = totals > 0
    N_hat = float((np.array([evolve(z, params, D.horizon).norm()
                             for z in z_batch])[finite] / totals[finite]).max())
    return TelescopeReport(ell=ell, ell1=seq.ell1, mu=mu, theta=theta,
                           ring_constants=ring_constants, C_hat=C_hat,
                           prefactor=prefactor, domination_margin=float(margin),
                           N_hat=N_hat, terms=terms,
                           ring_measures=np.array([
                               E.measure_in(terms[m + 1], terms[m])
                               for m in range(depth - 1)]))
