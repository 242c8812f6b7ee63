"""Duality-based control synthesis for the two-component system.

Estimates the observability constant of the control region, builds
sup-norm-bounded null controls by minimizing the dual functional, and
solves the time-optimal problem by bisection over the horizon with a
box-constrained feasibility solve at each trial time, each decided by a
feasible control or a weak-duality bound.  Null control and the
time-optimal control at the optimal horizon are both found by one damped
Newton engine on a smoothed dual in the 2 n_modes coefficients of a dual
state.

The controlled system runs under the transposed generator,
``ControlOperator.free`` and ``apply``: each mode's 2x2 evolution block is
the transpose of the observation-side block, so the discrete duality
pairing is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, InfeasibleError, require
from .geometry import SpaceTimeSet
from .observability import float_pow, lane_block, lane_norms, sphere_descent
from .report import write_csv
from .semigroup import SpectralState, mode_factors, propagate
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# problem and result types


@dataclass(frozen=True)
class ControlProblem:
    """Null-control (space-time region) or time-optimal (spatial mask) setup.

    Exactly one of ``region`` and ``omega`` must be given.  A null control
    acts over the region's horizon.  ``bounds``, ``radius`` and ``n_time``
    only apply to the time-optimal variant, whose horizon is each trial's.
    """

    domain: SpectralDomain
    params: PhysicalParams
    v0: SpectralState
    region: SpaceTimeSet | None = None
    omega: np.ndarray | None = None
    bounds: tuple[float, float] | None = None
    radius: float = 0.0
    n_time: int = 64

    def __post_init__(self):
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

    def region_at(self, T: float) -> SpaceTimeSet:
        """The time-optimal control region omega x (0, T)."""
        mask = np.broadcast_to(self.omega, (self.n_time, self.domain.n_cells))
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
        i, j = np.nonzero(self.region.mask)          # by time row, then cell
        rows = zip(self.region.midpoints[i], dom.points[j], self.values[i, j])
        return header, [(float(t), *map(float, x), float(v)) for t, x, v in rows]

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
    sup_norm: float
    L_hat: float
    tol: float
    v0_norm: float
    newton_steps: int = 0          # Newton trial points of the dual solve
    mu: float = 0.0                # smoothing width of its last stage
    least_sup_lower: float = 0.0   # no exact null control has a smaller sup

    @property
    def control_bound(self) -> float:
        """The duality bound ||v0|| / L_hat on the control's sup norm."""
        return self.v0_norm / self.L_hat

    def check(self) -> None:
        """Raise PropertyViolation unless both of its inequalities hold."""
        target, bound = self.tol * self.v0_norm, self.control_bound * (1.0 + 1e-6)
        require(self.terminal_norm <= target + 1e-300,
                f"terminal norm {self.terminal_norm} exceeds the target {target}")
        require(self.sup_norm <= bound + 1e-300,
                f"control sup norm {self.sup_norm} exceeds the duality bound {bound}")


# ---------------------------------------------------------------------------
# discrete input map


class ControlOperator:
    """Matrix-free discrete input-to-terminal-state map and its adjoint.

    For a region over (0, T), maps control values u(x, s_i) to the
    coefficient increment  sum_i dt * Estar(T - s_i) P(chi_i B^T u_i),
    with P the quadrature projection onto the eigenbasis.  The adjoint
    evaluates the observed dual field (B exp(A(T - s_i)) z)(x) on the
    region, so the duality pairing is exact on the grid.  weight is the
    quadrature weight dt * dx of one region cell.
    """

    def __init__(self, domain: SpectralDomain, params: PhysicalParams,
                 region: SpaceTimeSet):
        self.domain = domain
        self.region = region
        T = region.horizon
        tau = T - region.midpoints            # dual trace times per cell
        self.decay, self.cos, self.sin = mode_factors(domain, params, tau)
        self.at_horizon = mode_factors(domain, params, T)
        self.observed = np.flatnonzero(region.mask)   # flat (time, cell) indices
        self.weight = region.dt * domain.cell_volume

    def free(self, v0: SpectralState) -> np.ndarray:
        """Coefficients of the uncontrolled terminal state exp(A^T T) v0."""
        return propagate(self.at_horizon, v0.coeffs, transpose=True)

    def dual_field(self, z: np.ndarray) -> np.ndarray:
        """First component of exp(A * (T - s_i)) z on the grid, (n_time, n_cells).

        z is (n_modes, 2), or lanes (..., n_modes, 2) giving (..., n_time, n_cells).
        """
        w1 = self.decay * (self.cos * z[..., None, :, 0]
                           + self.sin * z[..., None, :, 1])
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
        """Adjoint in the weighted (dt * dx) inner product; lanes as in dual_field."""
        return self.dual_field(y) * self.region.mask

    def gram(self, weights) -> np.ndarray:
        """K^T diag(weights) K, a 2 n_modes square, rows ordered as z.ravel().

        K maps a dual state z to its dual field on the region's cells;
        weights broadcasts to the grid and is dropped off the region.  K is
        never formed: entry ((k, c), (l, d)) is the sum over time rows i of
        f_c[i, k] f_d[i, l] sum_j phi_k(x_j) weights[i, j] phi_l(x_j), with
        f = decay * (cos, sin), built a block of time rows at a time.
        """
        phi = self.domain.eigenfunctions
        n = self.domain.n_modes
        wt = weights * self.region.mask
        f = self.decay[..., None] * np.stack([self.cos, self.sin], axis=-1)
        out = np.zeros((n, 2, n, 2))
        blk = lane_block(phi.size)
        for lo in range(0, len(wt), blk):
            rows = slice(lo, lo + blk)
            P = (phi * wt[rows, None, :]) @ phi.T
            out += np.einsum("ikc,ild,ikl->kcld", f[rows], f[rows], P)
        return out.reshape(2 * n, 2 * n)

    def norm_estimate(self) -> float:
        """Spectral norm of the weighted map, from its Gram's top eigenvalue."""
        return math.sqrt(np.linalg.eigvalsh(self.gram(self.weight * self.weight))[-1])


# ---------------------------------------------------------------------------
# observability constant of the control region


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
    blk = min(B, lane_block(region.mask.size))
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
    num *= op.weight
    g1 *= op.weight
    g_num = np.stack([(forward_decay * forward_cos * g1).sum(axis=1),
                      (forward_decay * forward_sin * g1).sum(axis=1)], axis=-1)
    # denominator: norm of exp(A T) y0, diagonal per mode
    yT = propagate(op.at_horizon, Y)
    den = lane_norms(yT)[:, None, None]
    g_den = propagate(op.at_horizon, yT, transpose=True) / den
    num = num[:, None, None]
    # square by float_pow, as the per-start loop this batch replaced did:
    # x * x moves one of 15 sampled L_hat values by 3e-15 relative
    den2 = float_pow(den, 2)
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
    region = problem.region
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


def brute_force_single_mode_ratio(problem: ControlProblem) -> float:
    """Oracle for single-mode truncation: scan 3600 phases of the unit circle.

    In closed form, sharing no code with the kernel estimate_L descends on:
    from y0 = (cos p, sin p) the observed field at time s is
    exp(-a lam s) cos(lam b s - p) phi_1(x), and ||exp(AT) y0|| is
    exp(-a lam T), so the ratio is
    sum_i dt exp(-a lam s_i) |cos(lam b s_i - p)| m_i / exp(-a lam T),
    with m_i the integral of |phi_1| over the region's slice at s_i.
    """
    region, dom, params = problem.region, problem.domain, problem.params
    lam = float(dom.eigenvalues[0])
    s = region.midpoints
    m = region.mask @ np.abs(dom.eigenfunctions[0]) * dom.cell_volume
    p = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)[:, None]
    trace = np.exp(-params.a * lam * s) * np.abs(np.cos(lam * params.b * s - p))
    ratios = (trace * m).sum(axis=1) * region.dt
    return float(ratios.min()) / math.exp(-params.a * lam * region.horizon)


# ---------------------------------------------------------------------------
# the dual Newton engine; null control by duality


# The smoothing width mu of |W| ~ sqrt(W^2 + mu^2) falls tenfold per stage
# over this range.  A Newton step is halved until the Armijo decrease holds,
# at most _BACKTRACKS times; a step that never decreases ends the stage.
_MU_STAGES = tuple(10.0 ** -k for k in range(8))
_ARMIJO = 1e-4
_BACKTRACKS = 30


def _newton_stages(op: ControlOperator, x: np.ndarray, value, newton,
                   budget: int):
    """Damped Newton on a functional of the dual field W = op.dual_field(x).

    |W| is smoothed to s = sqrt(W^2 + mu^2), one stage per mu of _MU_STAGES.
    value(x, W, s) is the functional to minimise, and newton(x, W, s, mu, J)
    gives its gradient and Newton direction at an accepted point, or None
    once the stage has converged.  Each trial point costs one dual_field;
    W does not depend on mu, so a stage starts from the last one's.  Yields
    (mu, x, W, s, steps) after each stage, steps counting the trial points,
    and stops after the stage that spends the budget.
    """
    W, steps = op.dual_field(x), 0
    for mu in _MU_STAGES:
        s = np.sqrt(W * W + mu * mu)
        J = value(x, W, s)
        while steps < budget:
            step = newton(x, W, s, mu, J)
            if step is None:
                break
            g, d = step
            slope = float(np.sum(g * d))
            for k in range(min(_BACKTRACKS, budget - steps)):
                steps += 1
                trial = x + 0.5 ** k * d
                W_t = op.dual_field(trial)
                s_t = np.sqrt(W_t * W_t + mu * mu)
                J_t = value(trial, W_t, s_t)
                if J_t <= J + _ARMIJO * 0.5 ** k * slope:
                    x, W, s, J = trial, W_t, s_t, J_t
                    break
            else:
                break
        yield mu, x, W, s, steps
        if steps == budget:
            return


def synthesize_null_control(problem: ControlProblem, tol: float,
                            budget: int = 10_000,
                            rng: np.random.Generator | None = None,
                            ) -> tuple[ControlField, DualityCertificate]:
    """Sup-norm-bounded control driving v(T) near zero, via the dual problem.

    With W the dual field of z on the region R and s = sqrt(W^2 + mu^2),
    minimizes J_mu(z) = 0.5 * N_mu(z)^2 - <v0, exp(AT) z>, N_mu = int int_R s,
    by damped Newton in the 2 n_modes unknowns of z, one stage per mu.
    After each stage it recovers u = -M W / s, M = <v0, exp(AT) z> /
    int int_R |W|, and stops at the first stage whose terminal norm, by
    exact forward simulation, meets the target.  Then sup|u| < M, and every
    exact null control has sup norm at least M.  budget caps the Newton
    trial points, each of which costs one dual evaluation.
    """
    if not 1e-6 < tol < 1e-1:
        raise ValueError("tol must lie in (1e-6, 1e-1)")
    region = problem.region
    op = ControlOperator(problem.domain, problem.params, region)
    v0_norm = problem.v0.norm()
    # <v0, exp(AT) z> = <free, z>; the recovered control's terminal state is
    # near -grad J_mu, so Newton's residual tracks the terminal norm.
    free = op.free(problem.v0)
    target = tol * v0_norm
    mask, w = region.mask, op.weight

    def value(z, W, s):
        N = float(s[mask].sum() * w)
        return 0.5 * N * N - float(np.sum(free * z))

    def newton(z, W, s, mu, J):
        N = float(s[mask].sum() * w)
        grad_N = op.apply(W / s)
        g = N * grad_N - free
        if np.linalg.norm(g) <= 0.5 * target:
            return None
        H = np.outer(grad_N, grad_N) + N * op.gram(w * (mu / s) ** 2 / s)
        return g, np.linalg.lstsq(H, -g.ravel())[0].reshape(z.shape)

    for mu, z, W, s, steps in _newton_stages(op, np.zeros_like(free), value,
                                             newton, budget):
        bulk = float(np.abs(W[mask]).sum() * w)
        lin = float(np.sum(free * z))
        M = lin / bulk if bulk > 0 else 0.0
        u = -M * (W / s) * mask
        terminal = float(np.linalg.norm(free + op.apply(u)))
        if terminal <= target:
            break
    if terminal > target:
        raise ConvergenceError(
            f"dual Newton stopped at terminal norm {terminal:.3e} "
            f"(target {target:.3e}) after {steps} trial points, mu {mu:.0e}",
            best=ControlField(u, region))
    # M <= ||v0|| / ratio(z) for the region reflected in time, as W observes
    # z at T - s; descent from z only lowers the ratio, so M <= ||v0|| / L_hat
    L_hat = math.inf                    # u = 0 needs no bound
    if bulk > 0:
        reflected = SpaceTimeSet(region.mask[::-1], region.horizon,
                                 region.domain)
        L_hat = estimate_L(replace(problem, region=reflected), rng=rng,
                           extra_starts=[z])
    field = ControlField(u, region)
    cert = DualityCertificate(z_star=SpectralState(z, problem.domain),
                              dual_value=0.5 * bulk ** 2 - lin,
                              terminal_norm=terminal, sup_norm=field.sup_norm,
                              L_hat=L_hat, tol=tol, v0_norm=v0_norm,
                              newton_steps=steps, mu=mu, least_sup_lower=M)
    cert.check()
    return field, cert


def duality_defect(problem: ControlProblem, field: ControlField,
                   rng: np.random.Generator | None = None) -> float:
    """Max relative error of the duality pairing over 100 random dual probes.

    <v(T), z> = <v0, exp(AT) z> + <u, adjoint trace of z>  for every z.
    Each probe's error is relative to the sum of the sizes of the two terms
    on the right, which does not shrink as the control reaches its target.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    op = ControlOperator(problem.domain, problem.params, field.region)
    v0 = problem.v0.coeffs
    vT = op.free(problem.v0) + op.apply(field.values)
    Z = rng.standard_normal((100,) + v0.shape)

    def pair(a, b):             # one sum per lane, as np.sum of a lone probe
        return (a * b).reshape(len(b), -1).sum(axis=1)

    lhs = pair(vT, Z)
    free_term = pair(v0, propagate(op.at_horizon, Z))
    control_term = np.empty(len(Z))
    blk = lane_block(field.values.size)
    for lo in range(0, len(Z), blk):
        control_term[lo:lo + blk] = pair(field.values, op.adjoint(Z[lo:lo + blk]))
    control_term *= op.weight
    scale = np.maximum(np.abs(free_term) + np.abs(control_term), 1e-30)
    return float((np.abs(lhs - (free_term + control_term)) / scale).max())


def least_squares_null_control(problem: ControlProblem) -> tuple[ControlField, float]:
    """Box-free minimal-weighted-L2 control by normal equations (oracle).

    Solves u = adjoint(y) with (G G*) y = -free terminal state, using a
    pseudo-inverse so modes decayed below 1e-12 of the largest singular
    value are left uncontrolled.
    """
    region = problem.region
    op = ControlOperator(problem.domain, problem.params, region)
    gram = op.gram(op.weight * op.weight)     # of the weighted input map
    free = op.free(problem.v0)
    y = (np.linalg.pinv(gram, rcond=1e-12) @ (-free.ravel())).reshape(free.shape)
    u = op.adjoint(y) * op.weight
    terminal = float(np.linalg.norm(free + op.apply(u)))
    return ControlField(u, region), terminal


# ---------------------------------------------------------------------------
# time-optimal control


@dataclass(frozen=True)
class Trial:
    """One feasibility solve at horizon time, bracketed from both sides.

    lower <= min ||v(time; u)|| over admissible u <= upper, the norm of the
    returned control.  stop says how the solve ended: "reached" (upper
    within the radius), "certified" (lower beyond it), "stalled" or
    "budget" (neither bound decided, so the trial counts as infeasible).
    The polish at t_star ends "converged" or "budget", and its iterations
    are Newton trial points.
    """

    time: float
    lower: float
    upper: float
    iterations: int
    stop: str

    @property
    def feasible(self) -> bool:
        return self.stop == "reached"

    def describe(self) -> str:
        if self.stop == "certified":
            return (f"certified infeasible, distance >= {self.lower:.6e} "
                    f"after {self.iterations} iterations")
        return (f"{self.stop} after {self.iterations} iterations at norm "
                f"{self.upper:.6e}, lower bound {self.lower:.6e}, uncertified")


@dataclass(frozen=True)
class TimeOptimalResult:
    t_star: float
    control: ControlField
    terminal_norm: float
    trials: tuple[Trial, ...]               # bisection trials, in solve order
    polish: Trial | None = None             # the minimisation behind control
    polish_mu: float = 0.0                  # smoothing width of its last stage

    @property
    def trace(self) -> tuple[tuple[float, bool], ...]:
        """(trial time, feasible) pairs, in solve order."""
        return tuple((t.time, t.feasible) for t in self.trials)

    @property
    def stalled_trials(self) -> int:
        """Trials that ended without either bound deciding them."""
        return sum(t.stop in ("stalled", "budget") for t in self.trials)

    def trial_table(self) -> tuple[str, list]:
        """CSV header and one row per bisection trial, in solve order."""
        return ("trial,time,feasible,stop,lower,upper,iterations",
                [(i, t.time, t.feasible, t.stop, t.lower, t.upper, t.iterations)
                 for i, t in enumerate(self.trials)])


def _dual_bound(free: np.ndarray, resid: np.ndarray, grad: np.ndarray,
                bounds: tuple[float, float]) -> float:
    """Weak-duality lower bound on ||free + G u|| over the box, from any resid.

    grad = G^T resid.  For admissible u and y = resid / ||resid||,
    ||free + G u|| >= <free + G u, y> >= <free + G u*, y>, where the
    bang-bang u* = nu1 where grad > 0, nu2 elsewhere, minimises <u, grad>.
    """
    nu1, nu2 = bounds
    size = float(np.linalg.norm(resid))
    if size == 0.0:
        return 0.0
    corner = np.where(grad > 0.0, nu1, nu2)
    return (float(np.sum(free * resid)) + float(np.sum(corner * grad))) / size


def _feasibility_min(problem: ControlProblem, T: float,
                     u0: np.ndarray | None = None,
                     radius: float | None = None,
                     ) -> tuple[Trial, np.ndarray, ControlOperator]:
    """Min of ||v(T; u)|| over box-constrained u, by projected gradient.

    Accelerated (momentum) iteration with step 1/||map||^2 from an optional
    warm start, else from the admissible control nearest 0; G y is carried
    linearly through the momentum step, so each iteration costs one apply
    and one adjoint.  With a radius, the solve stops once the best norm is
    within it, or once the weak-duality bound at the momentum point's
    residual exceeds it.  It also stops after 150 steps without progress or
    5000 steps in all, and returns its best control and its operator
    either way.
    """
    region = problem.region_at(T)
    op = ControlOperator(problem.domain, problem.params, region)
    nu1, nu2 = problem.bounds
    lip = max(op.norm_estimate() ** 2, 1e-30)
    step = 1.0 / lip
    free = op.free(problem.v0)
    reach = -math.inf if radius is None else radius * (1.0 - 1e-9)
    u = (np.clip(0.0, nu1, nu2) if u0 is None else u0) * region.mask
    Gu = op.apply(u)
    y, Gy, t_acc = u, Gu, 1.0
    best_norm, best_u = float(np.linalg.norm(free + Gu)), u
    lower, steps = 0.0, 0
    stall_ref, stall_at = math.inf, 0
    while True:
        if best_norm <= reach:
            stop = "reached"
            break
        if steps - stall_at > 150:
            stop = "stalled"
            break
        if steps == 5000:
            stop = "budget"
            break
        resid = free + Gy
        grad = op.adjoint(resid) * op.weight
        if radius is not None:
            lower = max(lower, _dual_bound(free, resid, grad, problem.bounds))
            if lower > radius * (1.0 + 1e-9):
                stop = "certified"
                break
        u_next = np.clip(y - step * grad, nu1, nu2) * region.mask
        Gu_next = op.apply(u_next)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        y = u_next + beta * (u_next - u)
        Gy = Gu_next + beta * (Gu_next - Gu)
        u, Gu, t_acc = u_next, Gu_next, t_next
        steps += 1
        nrm = float(np.linalg.norm(free + Gu))
        if nrm < best_norm:
            best_norm, best_u = nrm, u
        if best_norm < stall_ref * (1.0 - 1e-10):
            stall_ref, stall_at = best_norm, steps
    return Trial(T, lower, best_norm, steps, stop), best_u, op


# A polish stage ends once the Newton decrement -<grad, direction> falls to
# this fraction of the functional: past it, Armijo comparisons reach roundoff.
# _POLISH_BUDGET caps the polish's Newton trial points.
_DECREMENT = 1e-14
_POLISH_BUDGET = 5000


def _box_dual(op: ControlOperator, free: np.ndarray,
              bounds: tuple[float, float], r: np.ndarray, W: np.ndarray,
              s: np.ndarray) -> float:
    """<free, r> - ||r||^2 / 2 + w sum_R (m W - h s), W = op.dual_field(r).

    m and h are the box's midpoint and half width.  The minimum of u W over
    the box is m W - h |W|, so with s = |W| this is the dual D_0 of
    min ||free + G u||^2 / 2 over admissible u, and with s = sqrt(W^2 + mu^2)
    it is the smoothed D_mu: D_mu(r) <= D_0(r) <= ||free + G u||^2 / 2.
    """
    nu1, nu2 = bounds
    m, h = 0.5 * (nu1 + nu2), 0.5 * (nu2 - nu1)
    return (float(np.sum(free * r)) - 0.5 * float(np.sum(r * r))
            + op.weight * float(np.sum((m * W - h * s)[op.region.mask])))


def _polish(problem: ControlProblem, op: ControlOperator, u0: np.ndarray,
            ) -> tuple[Trial, np.ndarray, float]:
    """Min of ||free + G u|| over the box at op's horizon, by its dual.

    Maximises _box_dual's D_mu by _newton_stages in the 2 n_modes unknowns
    of r, from r = free + G u0.  Its gradient is free + G u_mu - r, with
    u_mu = m - h W / s on the region, and its Hessian is
    -(I + gram(w h mu^2 / s^3)).  Returns the last stage's u_mu, bracketed
    by its norm and the weak-duality bound at its own residual, and that
    stage's mu.
    """
    nu1, nu2 = problem.bounds
    m, h = 0.5 * (nu1 + nu2), 0.5 * (nu2 - nu1)
    mask, w = op.region.mask, op.weight
    free = op.free(problem.v0)
    eye = np.eye(free.size)

    def value(r, W, s):
        return -_box_dual(op, free, problem.bounds, r, W, s)

    def newton(r, W, s, mu, J):
        g = r - free - op.apply((m - h * W / s) * mask)
        H = eye + op.gram(w * h * mu * mu / s ** 3)
        d = np.linalg.solve(H, -g.ravel()).reshape(r.shape)
        if -float(np.sum(g * d)) <= _DECREMENT * abs(J):
            return None
        return g, d

    for mu, _, W, s, steps in _newton_stages(op, free + op.apply(u0), value,
                                             newton, _POLISH_BUDGET):
        pass                # every stage runs; the last one gives the control
    u = (m - h * W / s) * mask
    resid = free + op.apply(u)
    lower = _dual_bound(free, resid, op.adjoint(resid) * w, problem.bounds)
    stop = "budget" if steps == _POLISH_BUDGET else "converged"
    trial = Trial(op.region.horizon, lower, float(np.linalg.norm(resid)),
                  steps, stop)
    return trial, u, mu


def solve_time_optimal(problem: ControlProblem, T_max: float) -> TimeOptimalResult:
    """Smallest horizon whose box-constrained reachable set meets the target.

    Bisection over T in (0, T_max] down to a bracket of 1e-3 T_max; each
    trial is decided by an admissible control within the radius or by a
    weak-duality bound beyond it, and counts as infeasible, uncertified, if
    its solve stalls first.  The reported control then minimises the
    terminal norm at t_star by damped Newton on the smoothed dual, warm
    started from the last feasible trial, and its lower bound is the
    weak-duality bound at its own residual.  Bisection keeps every
    infeasible trial time below every feasible one, so the trace is
    monotone in T by construction.
    """
    if problem.omega is None:
        raise ValueError("time-optimal problems are posed with a spatial mask")
    if problem.radius <= 0:
        raise ValueError("target radius must be positive")
    first, best_u, best_op = _feasibility_min(problem, T_max,
                                              radius=problem.radius)
    if not first.feasible:
        raise InfeasibleError(
            f"target ball (radius {problem.radius}) unreachable at "
            f"T_max={T_max}: {first.describe()}")
    trials = [first]
    lo, hi = 0.0, T_max
    warm = best_u
    while hi - lo > 1e-3 * T_max:
        mid = 0.5 * (lo + hi)
        trial, warm, op = _feasibility_min(problem, mid, u0=warm,
                                           radius=problem.radius)
        trials.append(trial)
        if trial.feasible:
            hi, best_u, best_op = mid, warm, op
        else:
            lo = mid
    polish, u, mu = _polish(problem, best_op, best_u)
    field = ControlField(u, best_op.region, bounds=problem.bounds)
    return TimeOptimalResult(t_star=hi, control=field,
                             terminal_norm=polish.upper,
                             trials=tuple(trials), polish=polish,
                             polish_mu=mu)


def grid_scan_time_optimal(problem: ControlProblem, T_max: float,
                           n_grid: int = 200) -> float:
    """Dense-scan oracle: smallest feasible horizon on a uniform T grid.

    Each grid time runs the plain minimisation, with no radius stop and no
    dual bound, and compares its best norm with the radius.
    """
    warm = None
    for T in np.linspace(T_max / n_grid, T_max, n_grid):
        trial, warm, _ = _feasibility_min(problem, float(T), u0=warm)
        if trial.upper <= problem.radius:
            return float(T)
    raise InfeasibleError(f"no horizon on the grid up to {T_max} is feasible")


def verify_bang_bang(field: ControlField) -> tuple[float, bool]:
    """Fraction of region cells farther than 5 percent of the box width
    inside both of the field's bounds.

    holds iff that interior fraction is at most 5 percent.
    """
    if field.bounds is None:
        raise ValueError("bang-bang check needs the control bounds")
    nu1, nu2 = field.bounds
    eps = 0.05 * (nu2 - nu1)
    on = field.values[field.region.mask]
    interior = (on > nu1 + eps) & (on < nu2 - eps)
    fraction = float(interior.mean()) if on.size else 0.0
    return fraction, fraction <= 0.05
