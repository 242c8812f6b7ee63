"""Duality-based control synthesis for the two-component system.

Estimates the observability constant of the control region, builds
sup-norm-bounded null controls by minimizing the dual functional, and
solves the time-optimal problem by bisection over the horizon with a
box-constrained feasibility solve at each trial time.

The controlled system runs under the transposed generator,
``evolve(..., transpose=True)``: each mode's 2x2 evolution block is the
transpose of the observation-side block, so the discrete duality pairing
is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError
from .geometry import SpaceTimeSet
from .observability import lane_norms, sphere_descent
from .report import write_csv
from .semigroup import SpectralState, evolve, mode_factors, propagate
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# problem and result types


@dataclass(frozen=True)
class ControlProblem:
    """Null-control (space-time region) or time-optimal (spatial mask) setup.

    Exactly one of ``region`` and ``omega`` must be given.  ``bounds``,
    ``radius`` and ``n_time`` only apply to the time-optimal variant.
    """

    domain: SpectralDomain
    params: PhysicalParams
    v0: SpectralState
    horizon: float
    region: SpaceTimeSet | None = None
    omega: np.ndarray | None = None
    bounds: tuple[float, float] | None = None
    radius: float = 0.0
    n_time: int = 64

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if (self.region is None) == (self.omega is None):
            raise ValueError("give exactly one of region (null control) "
                             "and omega (time-optimal)")
        if self.region is not None and self.region.measure() <= 0:
            raise ValueError("control region must have positive measure")
        if self.omega is not None:
            om = np.asarray(self.omega, dtype=bool).copy()
            if om.shape != (self.domain.n_cells,):
                raise ValueError("omega must be a spatial mask of the domain grid")
            if not om.any():
                raise ValueError("omega must have positive measure")
            om.flags.writeable = False
            object.__setattr__(self, "omega", om)
            if self.bounds is None:
                raise ValueError("time-optimal problems need control bounds")
            nu1, nu2 = self.bounds
            if not nu1 < nu2:
                raise ValueError("bounds must satisfy nu1 < nu2")
            if self.radius > 0 and self.v0.norm() <= self.radius:
                raise ValueError("initial state must start outside the target ball")

    def region_at(self, T: float, n_time: int | None = None) -> SpaceTimeSet:
        """The control region as a space-time set over (0, T)."""
        if self.region is not None:
            return self.region
        nt = self.n_time if n_time is None else n_time
        mask = np.broadcast_to(self.omega, (nt, self.domain.n_cells))
        return SpaceTimeSet(mask, T, self.domain)


@dataclass(frozen=True)
class ControlField:
    """Control values on the time-space grid, supported on a region."""

    values: np.ndarray            # (n_time, n_cells), zero off the region
    region: SpaceTimeSet
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != self.region.mask.shape:
            raise ValueError("values must match the region grid shape")
        if np.any(v[~self.region.mask] != 0.0):
            raise ValueError("control support must lie inside the region")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def sup_norm(self) -> float:
        m = self.region.mask
        return float(np.abs(self.values[m]).max()) if m.any() else 0.0

    def is_admissible(self, nu1: float | None = None,
                      nu2: float | None = None) -> bool:
        if nu1 is None:
            nu1, nu2 = self.bounds
        on = self.values[self.region.mask]
        return bool(np.all(on >= nu1 - 1e-12) and np.all(on <= nu2 + 1e-12))

    def table(self) -> tuple[str, list]:
        """CSV header and rows (t, x[, y], value) over the region cells."""
        dom = self.region.domain
        header = "t,x,value" if dom.dim == 1 else "t,x,y,value"
        rows = []
        for i, t in enumerate(self.region.midpoints):
            for j in np.nonzero(self.region.mask[i])[0]:
                rows.append((float(t), *map(float, dom.points[j]),
                             float(self.values[i, j])))
        return header, rows

    def to_csv(self, path) -> None:
        write_csv(path, *self.table())

    @staticmethod
    def zero(region: SpaceTimeSet) -> "ControlField":
        return ControlField(np.zeros(region.mask.shape), region)


@dataclass(frozen=True)
class DualityCertificate:
    z_star: SpectralState
    dual_value: float
    terminal_norm: float
    control_bound: float          # L_hat^-1 * ||v0||
    sup_norm: float
    L_hat: float
    tol: float
    v0_norm: float

    def check(self) -> None:
        assert self.terminal_norm <= self.tol * self.v0_norm + 1e-300
        assert self.sup_norm <= self.control_bound * (1.0 + 1e-6) + 1e-300


# ---------------------------------------------------------------------------
# discrete input map


class ControlOperator:
    """Matrix-free discrete input-to-terminal-state map and its adjoint.

    For a region over (0, T), maps control values u(x, s_i) to the
    coefficient increment  sum_i dt * Estar(T - s_i) P(chi_i B^T u_i),
    with P the quadrature projection onto the eigenbasis.  The adjoint
    evaluates the observed dual field (B exp(A(T - s_i)) z)(x) on the
    region, so the duality pairing is exact on the grid.
    """

    def __init__(self, domain: SpectralDomain, params: PhysicalParams,
                 region: SpaceTimeSet):
        self.domain = domain
        self.params = params
        self.region = region
        T = region.horizon
        tau = T - region.midpoints            # dual trace times per cell
        self.decay, self.cos, self.sin = mode_factors(domain, params, tau)
        self.at_horizon = mode_factors(domain, params, T)
        self.observed = np.flatnonzero(region.mask)   # flat (time, cell) indices

    def dual_field(self, z: np.ndarray) -> np.ndarray:
        """First component of exp(A * (T - s_i)) z on the grid, (n_time, n_cells)."""
        w1 = self.decay * (self.cos * z[:, 0] + self.sin * z[:, 1])
        return w1 @ self.domain.eigenfunctions

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Terminal coefficient increment of the control, shape (n_modes, 2)."""
        dx = self.domain.cell_volume
        p1 = (u * self.region.mask) @ self.domain.eigenfunctions.T * dx
        out = np.empty((self.domain.n_modes, 2))
        dt = self.region.dt
        out[:, 0] = (self.decay * self.cos * p1).sum(axis=0) * dt
        out[:, 1] = (self.decay * self.sin * p1).sum(axis=0) * dt
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Adjoint in the weighted (dt * dx) control inner product."""
        return self.dual_field(y) * self.region.mask

    def norm_estimate(self, iters: int = 60) -> float:
        """Spectral norm of the weighted map by power iteration."""
        rng = np.random.default_rng(0)
        y = rng.standard_normal((self.domain.n_modes, 2))
        y /= np.linalg.norm(y)
        w = self.region.dt * self.domain.cell_volume
        val = 0.0
        for _ in range(iters):
            y2 = self.apply(self.adjoint(y)) * w
            nrm = np.linalg.norm(y2)
            if nrm == 0:
                return 0.0
            val, y = nrm, y2 / nrm
        return math.sqrt(val)

    def bulk_l1(self, z: np.ndarray) -> float:
        """Time-integrated L1 norm of the dual field over the region."""
        W = self.dual_field(z)
        return float(np.abs(W[self.region.mask]).sum()
                     * self.domain.cell_volume * self.region.dt)

    def terminal(self, v0: SpectralState, u: np.ndarray) -> SpectralState:
        """v(T) under the transposed generator with control u."""
        free = evolve(v0, self.params, self.region.horizon, transpose=True)
        return SpectralState(free.coeffs + self.apply(u), self.domain)


# ---------------------------------------------------------------------------
# observability constant of the control region


# Lanes are observed in blocks of at most this many field values (128 KiB
# of float64, glibc's default mmap threshold): a block's field stays in cache
# across the passes over it, and the memory of one evaluation does not grow
# with the number of lanes.
_FIELD_BLOCK = 1 << 14


def _ratio_and_grad(op: ControlOperator, forward, Y: np.ndarray):
    """Observation-to-terminal-norm ratios and coefficient gradients.

    Y stacks initial data of shape (n_modes, 2) on a leading lane axis;
    forward holds the mode_factors tables at the region's time midpoints.
    Returns ratios (B,) and gradients (B, n_modes, 2).
    """
    # numerator: int over D of |first component of exp(At) y0|
    dom, region = op.domain, op.region
    forward_decay, forward_cos, forward_sin = forward
    B = len(Y)
    w1 = forward_decay * (forward_cos * Y[:, None, :, 0]
                          + forward_sin * Y[:, None, :, 1])
    blk = min(B, max(1, _FIELD_BLOCK // region.mask.size))
    field = np.empty((blk,) + region.mask.shape)
    cells = np.empty((blk, op.observed.size))
    num = np.empty(B)
    g1 = np.empty_like(w1)
    for lo in range(0, B, blk):
        f, c = field[:B - lo], cells[:B - lo]     # the last block may be short
        np.matmul(w1[lo:lo + blk], dom.eigenfunctions, out=f)
        # gathered rows are contiguous, so their sums match a masked sum
        np.take(f.reshape(len(f), -1), op.observed, axis=1, out=c, mode="clip")
        num[lo:lo + blk] = np.abs(c, out=c).sum(axis=1)
        np.sign(f, out=f)
        f *= region.mask
        np.matmul(f, dom.eigenfunctions.T, out=g1[lo:lo + blk])
    wgt = dom.cell_volume * region.dt
    num *= wgt
    g1 *= wgt
    g_num = np.stack([(forward_decay * forward_cos * g1).sum(axis=1),
                      (forward_decay * forward_sin * g1).sum(axis=1)], axis=-1)
    # denominator: norm of exp(A T) y0, diagonal per mode
    yT = propagate(op.at_horizon, Y)
    den = lane_norms(yT)[:, None, None]
    g_den = propagate(op.at_horizon, yT, transpose=True) / den
    num = num[:, None, None]
    # square through Python float power, i.e. the C library's pow, as the
    # per-start loop this batch replaced did: glibc's pow(x, 2) differs from
    # x * x in the last bit on about 0.1% of inputs, and x * x moves one of
    # 15 sampled L_hat values by 3e-15 relative.  Identity with that loop
    # holds only where the same libm is used.
    den2 = (den.astype(object) ** 2).astype(float)
    grad = (g_num * den - num * g_den) / den2
    return (num / den).reshape(B), grad


def estimate_L(problem: ControlProblem, restarts: int = 64,
               rng: np.random.Generator | None = None,
               extra_starts=()) -> float:
    """Minimal observation-to-terminal-norm ratio over unit initial data.

    Projected subgradient descent on the coefficient sphere with Armijo
    backtracking from random starts, all run together as lanes of one
    batched sphere_descent; extra_starts lets callers seed the search
    with specific directions (e.g. the optimal dual state).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    region = problem.region_at(problem.horizon)
    op = ControlOperator(problem.domain, problem.params, region)
    forward = mode_factors(problem.domain, problem.params, region.midpoints)
    n = problem.domain.n_modes
    extra = np.array(extra_starts, dtype=float).reshape(-1, n, 2)
    starts = np.concatenate([extra, rng.standard_normal((restarts, n, 2))])
    best, _ = sphere_descent(lambda Y: _ratio_and_grad(op, forward, Y),
                             starts, iters=200, gtol=1e-24)
    if best <= 0:
        raise ArithmeticError("observability ratio collapsed to zero")
    return best


def brute_force_single_mode_ratio(problem: ControlProblem,
                                  n_phases: int = 3600) -> float:
    """Oracle for single-mode truncation: scan the initial phase circle."""
    region = problem.region_at(problem.horizon)
    op = ControlOperator(problem.domain, problem.params, region)
    forward = mode_factors(problem.domain, problem.params, region.midpoints)
    best = math.inf
    for phase in np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False):
        y0 = np.array([[[math.cos(phase), math.sin(phase)]]])
        val, _ = _ratio_and_grad(op, forward, y0)
        best = min(best, float(val[0]))
    return best


# ---------------------------------------------------------------------------
# null control by duality


def _sign(x: np.ndarray) -> np.ndarray:
    # ties at exactly zero break to +1 so the control stays extremal
    return np.where(x >= 0.0, 1.0, -1.0)


def _control_from_dual(op: ControlOperator, z: np.ndarray) -> np.ndarray:
    M = op.bulk_l1(z)
    return -M * _sign(op.dual_field(z)) * op.region.mask


def _ray_rescale(op: ControlOperator, v0T: np.ndarray, z: np.ndarray):
    """Scale z along its ray to exact stationarity of the dual functional."""
    bulk = op.bulk_l1(z)
    lin = float(np.sum(v0T * propagate(op.at_horizon, z)))
    if bulk <= 0:
        return z, 0.0
    t = lin / bulk ** 2
    if t < 0:
        z, t = -z, -t
    return t * z, t * bulk        # rescaled z and its bulk M*


def synthesize_null_control(problem: ControlProblem, tol: float,
                            budget: int = 10_000,
                            rng: np.random.Generator | None = None,
                            ) -> tuple[ControlField, DualityCertificate]:
    """Sup-norm-bounded control driving v(T) near zero, via the dual problem.

    Minimizes J(z) = 0.5 * bulk(z)^2 + <v0, exp(AT) z> by subgradient
    descent (step c/sqrt(k), averaged iterates), rescales the best dual
    state along its ray, and certifies the recovered bang-bang-shaped
    control by exact forward simulation.
    """
    if not 1e-6 < tol < 1e-1:
        raise ValueError("tol must lie in (1e-6, 1e-1)")
    region = problem.region_at(problem.horizon)
    op = ControlOperator(problem.domain, problem.params, region)
    v0 = problem.v0.coeffs
    v0_norm = problem.v0.norm()
    if v0_norm == 0:
        field = ControlField.zero(region)
        cert = DualityCertificate(
            z_star=SpectralState(np.zeros_like(v0), problem.domain),
            dual_value=0.0, terminal_norm=0.0, control_bound=0.0,
            sup_norm=0.0, L_hat=math.inf, tol=tol, v0_norm=0.0)
        return field, cert

    # With u = -M* sign(dual field), the terminal state is the negative of
    # this J's gradient, so driving J down drives ||v(T)|| down.
    lin_grad = evolve(problem.v0, problem.params, problem.horizon,
                      transpose=True).coeffs

    def J(z):
        lin = float(np.sum(v0 * propagate(op.at_horizon, z)))
        return 0.5 * op.bulk_l1(z) ** 2 - lin

    def subgrad(z):
        W = op.dual_field(z)
        bulk = float(np.abs(W[region.mask]).sum()
                     * op.domain.cell_volume * region.dt)
        return bulk * op.apply(np.sign(W)) - lin_grad

    def certified(z):
        z2, M = _ray_rescale(op, v0, z)
        u = _control_from_dual(op, z2)
        vT = op.terminal(problem.v0, u)
        return z2, M, u, vT.norm()

    if rng is None:
        rng = np.random.default_rng(0)
    z = np.zeros_like(v0)
    g0 = subgrad(z)
    # 1-D line probe along the first descent direction to set the step scale
    d0 = -g0 / np.linalg.norm(g0)
    scales = np.geomspace(1e-4, 1e2, 25)
    c_step = float(scales[int(np.argmin([J(s * d0) for s in scales]))])
    best_z, best_J = z, J(z)
    avg = np.zeros_like(z)
    z_r, M_r, u_r, terminal = certified(z)
    out = (z_r, M_r, u_r)
    for k in range(1, budget + 1):
        g = subgrad(z)
        gn = np.linalg.norm(g)
        if gn == 0:
            break
        z = z - (c_step / math.sqrt(k)) * g / gn
        avg += z
        Jz = J(z)
        if Jz < best_J:
            best_J, best_z = Jz, z
        if k % 200 == 0 or k == budget:
            for cand in (best_z, avg / k):
                z2, M, u, tnorm = certified(cand)
                if tnorm < terminal:
                    terminal, out = tnorm, (z2, M, u)
            if terminal <= tol * v0_norm:
                break
    z_star, M_star, u_vals = out
    if terminal > tol * v0_norm:
        raise ConvergenceError(
            f"dual descent stalled at terminal norm {terminal:.3e} "
            f"(target {tol * v0_norm:.3e})",
            best=ControlField(u_vals, region))
    zs = SpectralState(z_star, problem.domain)
    L_hat = estimate_L(problem, rng=rng,
                       extra_starts=[z_star] if np.linalg.norm(z_star) > 0 else [])
    cert = DualityCertificate(z_star=zs, dual_value=J(z_star),
                              terminal_norm=terminal,
                              control_bound=v0_norm / L_hat,
                              sup_norm=M_star, L_hat=L_hat, tol=tol,
                              v0_norm=v0_norm)
    cert.check()
    return ControlField(u_vals, region), cert


def duality_defect(problem: ControlProblem, field: ControlField,
                   n_probes: int = 100,
                   rng: np.random.Generator | None = None) -> float:
    """Max relative error of the duality pairing over random dual probes.

    <v(T), z> = <v0, exp(AT) z> + <u, adjoint trace of z>  for every z.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    op = ControlOperator(problem.domain, problem.params, field.region)
    vT = op.terminal(problem.v0, field.values).coeffs
    v0 = problem.v0.coeffs
    wgt = op.domain.cell_volume * field.region.dt
    worst = 0.0
    for _ in range(n_probes):
        z = rng.standard_normal(v0.shape)
        lhs = float(np.sum(vT * z))
        rhs = float(np.sum(v0 * propagate(op.at_horizon, z)))
        rhs += float(np.sum(field.values * op.adjoint(z)) * wgt)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def least_squares_null_control(problem: ControlProblem,
                               rcond: float = 1e-12) -> tuple[ControlField, float]:
    """Box-free minimal-weighted-L2 control by normal equations (oracle).

    Solves u = adjoint(y) with (G G*) y = -free terminal state, using a
    pseudo-inverse so modes decayed below rcond are left uncontrolled.
    """
    region = problem.region_at(problem.horizon)
    op = ControlOperator(problem.domain, problem.params, region)
    n = problem.domain.n_modes
    wgt = region.dt * problem.domain.cell_volume
    # Gram matrix of the weighted input map on coefficient space
    gram = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        e = np.zeros((n, 2))
        e[i // 2, i % 2] = 1.0
        gram[:, i] = (op.apply(op.adjoint(e)) * wgt).ravel()
    free = evolve(problem.v0, problem.params, problem.horizon,
                  transpose=True).coeffs
    y = (np.linalg.pinv(gram, rcond=rcond) @ (-free.ravel())).reshape(n, 2)
    u = op.adjoint(y) * wgt
    terminal = op.terminal(problem.v0, u).norm()
    return ControlField(u, region), terminal


# ---------------------------------------------------------------------------
# time-optimal control


@dataclass(frozen=True)
class TimeOptimalResult:
    t_star: float
    control: ControlField
    terminal_norm: float
    trace: tuple[tuple[float, bool], ...]   # (trial time, feasible) pairs


def _feasibility_min(problem: ControlProblem, T: float, iters: int = 5000,
                     u0: np.ndarray | None = None,
                     ) -> tuple[float, np.ndarray, SpaceTimeSet]:
    """Min of ||v(T; u)|| over box-constrained u, by projected gradient.

    Accelerated (momentum) iteration with step 1/||map||^2; an optional
    warm start and a stall cutoff keep repeated scans cheap.
    """
    region = problem.region_at(T)
    op = ControlOperator(problem.domain, problem.params, region)
    nu1, nu2 = problem.bounds
    wgt = region.dt * problem.domain.cell_volume
    lip = max(op.norm_estimate() ** 2, 1e-30)
    step = 1.0 / lip
    free = evolve(problem.v0, problem.params, T, transpose=True).coeffs
    u = np.zeros(region.mask.shape) if u0 is None else u0 * region.mask
    y, t_acc = u, 1.0
    best_norm, best_u = math.inf, u
    stall_ref, stall_at = math.inf, 0
    for k in range(iters):
        resid = free + op.apply(y)
        grad = op.adjoint(resid) * wgt
        u_next = np.clip(y - step * grad, nu1, nu2) * region.mask
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = u_next + ((t_acc - 1.0) / t_next) * (u_next - u)
        u, t_acc = u_next, t_next
        nrm = float(np.linalg.norm(free + op.apply(u)))
        if nrm < best_norm:
            best_norm, best_u = nrm, u
        if nrm <= problem.radius * (1.0 - 1e-9):
            break
        if best_norm < stall_ref * (1.0 - 1e-10):
            stall_ref, stall_at = best_norm, k
        elif k - stall_at > 150:
            break
    return best_norm, best_u, region


def solve_time_optimal(problem: ControlProblem, T_max: float,
                       tol_T: float | None = None) -> TimeOptimalResult:
    """Smallest horizon whose box-constrained reachable set meets the target.

    Bisection over T in (0, T_max]; each trial solves the feasibility
    problem by projected gradient.  Feasibility must be monotone in T
    along the recorded trace, which is asserted.
    """
    if problem.omega is None:
        raise ValueError("time-optimal problems are posed with a spatial mask")
    if problem.radius <= 0:
        raise ValueError("target radius must be positive")
    if tol_T is None:
        tol_T = 1e-3 * T_max
    trace = []
    norm_max, u_max, region_max = _feasibility_min(problem, T_max)
    trace.append((T_max, norm_max <= problem.radius))
    if norm_max > problem.radius:
        raise InfeasibleError(
            f"target ball unreachable at T_max={T_max} (norm {norm_max:.3e})")
    lo, hi = 0.0, T_max
    best = (norm_max, u_max, region_max)
    warm = u_max
    while hi - lo > tol_T:
        mid = 0.5 * (lo + hi)
        nrm, u, region = _feasibility_min(problem, mid, u0=warm)
        feasible = nrm <= problem.radius
        trace.append((mid, feasible))
        warm = u
        if feasible:
            hi = mid
            best = (nrm, u, region)
        else:
            lo = mid
    # feasibility may not drop above a feasible trial time
    feas_times = [t for t, ok in trace if ok]
    thresh = min(feas_times)
    assert all(ok for t, ok in trace if t >= thresh)
    nrm, u, region = best
    field = ControlField(u, region, bounds=problem.bounds)
    return TimeOptimalResult(t_star=hi, control=field, terminal_norm=nrm,
                             trace=tuple(trace))


def grid_scan_time_optimal(problem: ControlProblem, T_max: float,
                           n_grid: int = 200) -> float:
    """Dense-scan oracle: smallest feasible horizon on a uniform T grid."""
    warm = None
    for T in np.linspace(T_max / n_grid, T_max, n_grid):
        nrm, u, _ = _feasibility_min(problem, float(T), u0=warm)
        warm = u
        if nrm <= problem.radius:
            return float(T)
    raise InfeasibleError(f"no horizon on the grid up to {T_max} is feasible")


def verify_bang_bang(field: ControlField, eps: float | None = None,
                     bounds: tuple[float, float] | None = None,
                     ) -> tuple[float, bool]:
    """Fraction of region cells with values strictly inside the box.

    holds iff the interior fraction is at most 5 percent; default eps is
    5 percent of the box width.
    """
    if bounds is None:
        bounds = field.bounds
    if bounds is None:
        raise ValueError("bang-bang check needs the control bounds")
    nu1, nu2 = bounds
    if eps is None:
        eps = 0.05 * (nu2 - nu1)
    on = field.values[field.region.mask]
    interior = (on > nu1 + eps) & (on < nu2 - eps)
    fraction = float(interior.mean()) if on.size else 0.0
    return fraction, fraction <= 0.05
