"""Duality-based control synthesis for the two-component system.

Estimates the observability constant of the control region, builds
sup-norm-bounded null controls by minimizing the dual functional, and
solves the time-optimal problem by bisection over the horizon with a
box-constrained feasibility solve at each trial time, each decided by a
feasible control or a weak-duality bound.  Null control and the
time-optimal control at the optimal horizon are both found by one damped
Newton engine on a smoothed dual in the 2 n_modes coefficients of a dual
state.

A null control is posed on a ``ControlOperator`` of its space-time region:
the caller builds it once, and the solve, the bound's L_hat and the duality
check all read it.  ``ControlProblem`` poses the time-optimal problem,
whose operator is rebuilt for each trial horizon.

The controlled system runs under the transposed generator,
``ControlOperator.free`` and ``apply``: each mode's 2x2 evolution block is
the transpose of the observation-side block, so the discrete duality
pairing is exact by construction.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, require
from .geometry import SpaceTimeSet
from .observability import lane_block
from .semigroup import FIRST, mode_factors, observation_table, propagate
from .spectral import PhysicalParams, SpectralDomain


# ---------------------------------------------------------------------------
# problem and result types


@dataclass(frozen=True)
class ControlProblem:
    """Time-optimal setup: steer v0 into the ball of ``radius`` about 0.

    Controls act on the spatial mask ``omega`` over (0, T) with values in
    ``bounds``; each trial horizon T is split into ``n_time`` time cells.
    """

    domain: SpectralDomain
    params: PhysicalParams
    v0: np.ndarray             # (n_modes, 2)
    omega: np.ndarray
    bounds: tuple[float, float]
    radius: float
    n_time: int = 64

    def __post_init__(self):
        v0 = np.asarray(self.v0, dtype=float).copy()
        if v0.shape != (self.domain.n_modes, 2):
            raise ValueError(f"v0 must have shape ({self.domain.n_modes}, 2)")
        v0.flags.writeable = False
        object.__setattr__(self, "v0", v0)
        om = np.asarray(self.omega, dtype=bool).copy()
        if om.shape != (self.domain.n_cells,):
            raise ValueError("omega must be a spatial mask of the domain grid")
        if not om.any():
            raise ValueError("omega must have positive measure")
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        if np.linalg.norm(self.v0) <= self.radius:
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

    def table(self) -> tuple[str, tuple]:
        """CSV header and columns t, x[, y], value over the region cells."""
        dom = self.region.domain
        header = "t,x,value" if dom.dim == 1 else "t,x,y,value"
        i, j = np.nonzero(self.region.mask)          # by time row, then cell
        return header, (self.region.midpoints[i], *dom.points[j].T,
                        self.values[i, j])


@dataclass(frozen=True)
class LSearch:
    """estimate_L's L_hat and how its inverse-power chain reached it."""

    L_hat: float
    iterations: int        # inner solves of the chain
    stop: str              # stationary, budget or none (no search: the
                           # control is 0)
    newton_steps: int      # Newton trial points of the chain's solves

    def fields(self) -> dict:
        """Report records, each named with the L_hat prefix."""
        return dict(L_hat=self.L_hat, L_hat_iterations=self.iterations,
                    L_hat_stop=self.stop,
                    L_hat_newton_steps=self.newton_steps)


@dataclass(frozen=True)
class DualityCertificate:
    z_star: np.ndarray             # the dual optimum, (n_modes, 2)
    dual_value: float
    terminal_norm: float
    sup_norm: float
    L_search: LSearch              # L_hat and how it was found
    tol: float
    v0_norm: float
    newton_steps: int = 0          # Newton trial points of the dual solve
    mu: float = 0.0                # smoothing width of its last stage
    least_sup_lower: float = 0.0   # no exact null control has a smaller sup

    @property
    def L_hat(self) -> float:
        return self.L_search.L_hat

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
        if not region.mask.any():
            raise ValueError("control region must have positive measure")
        self.domain = domain
        self.region = region
        T = region.horizon
        # the one mode table: f[k, c, i] = decay * g[c] of mode k at T - s_i,
        # g the first component's observation row; traces, fold and gram are
        # matmuls on it
        decay, (g,) = observation_table(domain, params, T - region.midpoints,
                                        FIRST)
        self.f = np.ascontiguousarray((decay * g).transpose(2, 0, 1))
        self.at_horizon = mode_factors(domain, params, T)
        self.weight = region.dt * domain.cell_volume

    def free(self, v0: np.ndarray) -> np.ndarray:
        """The uncontrolled terminal state exp(A^T T) v0 of a state or lanes."""
        return propagate(self.at_horizon, v0, transpose=True)

    def traces(self, z: np.ndarray) -> np.ndarray:
        """dual_field's mode coefficients, (..., n_modes, n_time)."""
        return (z[..., None, :] @ self.f)[..., 0, :]

    def fold(self, p: np.ndarray) -> np.ndarray:
        """The dt-weighted transpose of traces, (..., n_modes, 2)."""
        return (self.f @ p[..., None])[..., 0] * self.region.dt

    def dual_field(self, z: np.ndarray) -> np.ndarray:
        """First component of exp(A * (T - s_i)) z on the grid, (n_time, n_cells).

        z is (n_modes, 2), or lanes (..., n_modes, 2) giving (..., n_time, n_cells).
        """
        return self.traces(z).swapaxes(-1, -2) @ self.domain.eigenfunctions

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Terminal coefficient increment of the control, shape (n_modes, 2)."""
        dx = self.domain.cell_volume
        return self.fold(self.domain.eigenfunctions @ (u * self.region.mask).T * dx)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Adjoint in the weighted (dt * dx) inner product; lanes as in dual_field."""
        return self.dual_field(y) * self.region.mask

    def gram(self, weights) -> np.ndarray:
        """K^T diag(weights) K, a 2 n_modes square, rows ordered as z.ravel().

        K maps a dual state z to its dual field on the region's cells, and
        weights broadcasts to the grid.  Entry ((k, c), (l, d)) is
        sum_i f[k,c,i] f[l,d,i] S[i,k,l], with S[i,k,l] the sum over region
        cells j of weights[i,j] phi_k(x_j) phi_l(x_j): one GEMM per cell block
        of the domain's pair table, so the memory of a call does not grow
        with the number of cells.  Symmetric bit for bit.
        """
        mask, n = self.region.mask, self.domain.n_modes
        weights, pairs = np.broadcast_to(weights, mask.shape), n * (n + 1) // 2
        pair, blocks = _pair_table(self.domain, lane_block(pairs))
        S = np.zeros((pairs, len(mask)))
        for cells, products in blocks:
            S += products @ (weights[:, cells] * mask[:, cells]).T
        # row (l, d) sums f[l,d,i] f[k,c,i] S[i,k,l] over i, batched over l
        A = (self.f * S[pair][:, :, None]).reshape(n, 2 * n, len(mask))
        G = (self.f @ A.transpose(0, 2, 1)).reshape(2 * n, 2 * n)
        return 0.5 * (G + G.T)

    def norm_estimate(self) -> float:
        """Spectral norm of the weighted map, from its Gram's top eigenvalue."""
        return math.sqrt(np.linalg.eigvalsh(self.gram(self.weight * self.weight))[-1])


@functools.lru_cache(maxsize=1)
def _pair_table(domain: SpectralDomain, blk: int):
    """The Gram's pair index and products of one domain, in cell blocks.

    pair[k, l] = pair[l, k] numbers the pairs k <= l, and each block holds
    the products phi_k phi_l over at most blk cells as its own contiguous
    (n_pairs, cells) array.  None of it depends on the weights, so every
    gram call on an equal domain and block size reads one table, held for
    the last (domain, blk) asked for: n_pairs * n_cells floats.
    """
    phi, n = domain.eigenfunctions, domain.n_modes
    k, l = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[k, l] = pair[l, k] = np.arange(len(k))
    blocks = []
    for lo in range(0, phi.shape[1], blk):
        p = phi[:, lo:lo + blk]
        products = p[k] * p[l]
        products.flags.writeable = False
        blocks.append((slice(lo, lo + blk), products))
    pair.flags.writeable = False
    return pair, tuple(blocks)


# ---------------------------------------------------------------------------
# the dual Newton engine: null control and the observability constant


# The smoothing width mu of |W| ~ sqrt(W^2 + mu^2) falls tenfold per stage
# over this range.  A Newton step is halved until the Armijo decrease holds,
# at most _BACKTRACKS times; a step that never decreases ends the stage.
# _NEWTON_BUDGET caps the trial points of a null-control dual solve, and
# those of one estimate_L chain, checked between its solves.  A chain's
# solves run to the terminal norm _CHAIN_TOL of their unit targets: an
# iterate's ratio is only as low as its solve is converged.  A config's tol
# is too loose for that (0.05 leaves L_hat up to 2.7e-3 relative higher on
# 6-mode regions), 1e-3 leaves it 4e-6 higher on the default rectangle,
# and much tighter solves can spend the whole budget.
_MU_STAGES = tuple(10.0 ** -k for k in range(8))
_ARMIJO = 1e-4
_BACKTRACKS = 30
_NEWTON_BUDGET = 10_000
_CHAIN_TOL = 1e-4


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


def _null_solve(op: ControlOperator, free: np.ndarray, target: float):
    """The null-control dual solve for the uncontrolled terminal state free.

    With W the dual field of z on the region R and s = sqrt(W^2 + mu^2),
    minimizes J_mu(z) = 0.5 * N_mu(z)^2 - <free, z>, N_mu = int int_R s,
    by damped Newton in the 2 n_modes unknowns of z from z = 0, one stage
    per mu, each to ||grad J_mu|| <= target / 2.  After each stage it
    recovers u = -M W / s, M = <free, z> / int int_R |W|, and stops at the
    first stage whose terminal norm ||free + G u|| meets target.  Returns
    (mu, z, u, M, bulk, lin, terminal, steps) of that stage, or of the last
    one: bulk = int int_R |W|, lin = <free, z>, and steps counts the Newton
    trial points, at most _NEWTON_BUDGET.
    """
    # the recovered control's terminal state is near -grad J_mu, so
    # Newton's residual tracks the terminal norm
    mask, w = op.region.mask, op.weight

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
                                             newton, _NEWTON_BUDGET):
        bulk = float(np.abs(W[mask]).sum() * w)
        lin = float(np.sum(free * z))
        M = lin / bulk if bulk > 0 else 0.0
        u = -M * (W / s) * mask
        terminal = float(np.linalg.norm(free + op.apply(u)))
        if terminal <= target:
            break
    return mu, z, u, M, bulk, lin, terminal, steps


def estimate_L(op: ControlOperator, z_star: np.ndarray) -> LSearch:
    """Least ratio int int_R |W(y)| / ||exp(AT) y||, W = op.dual_field.

    W observes y at T - s on op's region R, so on a region reflected in
    time this is the forward observability constant of the region.  The
    ratio is a quotient of two convex 1-homogeneous functions, which the
    inverse power method of Hein and Buhler (NIPS 2010) lowers with exact
    inner solves: y_{k+1} minimises 0.5 N(z)^2 - <s, z> with N the
    numerator and s = exp(A^T T) exp(AT) y_k a gradient of the
    denominator, which is _null_solve of the unit target s / ||s||, and its
    ratio is that solve's own bulk / ||exp(AT) y_{k+1}||.  The chain starts
    from z_star, a dual optimum (by L1-Linf duality the minimisers are dual
    optima), and stops once a ratio fails to fall by 1e-10 relative
    ("stationary") or its solves have spent _NEWTON_BUDGET trial points
    ("budget").  The budget is checked between solves, so the last solve
    may take the chain past it by up to its own _NEWTON_BUDGET.  L_hat is
    the least ratio over z_star and every iterate, so it is at most
    z_star's.
    """
    mask, w = op.region.mask, op.weight
    v = propagate(op.at_horizon, z_star)
    ratio = float(np.abs(op.dual_field(z_star)[mask]).sum() * w / np.linalg.norm(v))
    L_hat, iterations, steps, stop = ratio, 0, 0, "budget"
    while steps < _NEWTON_BUDGET:
        # exp(AT) y is made unit before exp(A^T T) acts, so that its decay
        # is taken once: s itself stays a normal float wherever v does
        s = op.free(v / np.linalg.norm(v))
        _, y, _, _, bulk, _, _, k = _null_solve(op, s / np.linalg.norm(s),
                                                _CHAIN_TOL)
        v = propagate(op.at_horizon, y)
        iterations, steps = iterations + 1, steps + k
        last, ratio = ratio, bulk / float(np.linalg.norm(v))
        L_hat = min(L_hat, ratio)
        if not ratio < last * (1.0 - 1e-10):
            stop = "stationary"
            break
    if not L_hat > 0:
        raise ArithmeticError("observability ratio collapsed to zero")
    return LSearch(L_hat, iterations, stop, steps)


def synthesize_null_control(op: ControlOperator, v0: np.ndarray,
                            tol: float, timed=None,
                            ) -> tuple[ControlField, DualityCertificate]:
    """Sup-norm-bounded control on op's region driving v(T) from v0 near
    zero, via the dual problem.

    _null_solve's dual solve for the unit state v0 / ||v0||, free =
    exp(A^T T) v0 / ||v0|| (so <free, z> = <v0, exp(AT) z> / ||v0||), to
    the target tol; the terminal norm of its control is by exact forward
    simulation.  The problem is linear in v0 and 1-homogeneous in z, so z,
    the control u, M, the bulk int int_R |W| and the terminal norm scale by
    ||v0||, and <free, z> by its square: the solve, and its Newton steps,
    do not depend on the size of v0.  Then sup|u| < M, and every exact null
    control has sup norm at least M.  timed(phase), if given, returns a
    context manager (a report's timer) for each of the phases "solve" and
    "L_hat".
    """
    timed = timed or (lambda phase: contextlib.nullcontext())
    v0_norm = float(np.linalg.norm(v0))
    with timed("solve"):
        mu, z, u, M, bulk, lin, terminal, steps = _null_solve(
            op, op.free(v0 / v0_norm if v0_norm > 0 else v0), tol)
    z, u, M, bulk, terminal = (x * v0_norm for x in (z, u, M, bulk, terminal))
    lin *= v0_norm * v0_norm
    target = tol * v0_norm
    if terminal > target:
        raise ConvergenceError(
            f"dual Newton stopped at terminal norm {terminal:.3e} "
            f"(target {target:.3e}) after {steps} trial points, mu {mu:.0e}")
    # M <= ||v0|| / ratio(z) for op's own ratio, and L_hat is at most z's
    # ratio, so M <= ||v0|| / L_hat (u = 0 needs no bound)
    with timed("L_hat"):
        search = (estimate_L(op, z) if bulk > 0
                  else LSearch(math.inf, 0, "none", 0))
    field = ControlField(u, op.region)
    cert = DualityCertificate(z_star=z, dual_value=0.5 * bulk ** 2 - lin,
                              terminal_norm=terminal, sup_norm=field.sup_norm,
                              L_search=search, tol=tol, v0_norm=v0_norm,
                              newton_steps=steps, mu=mu, least_sup_lower=M)
    cert.check()
    return field, cert


def duality_defect(op: ControlOperator, v0: np.ndarray, field: ControlField,
                   rng: np.random.Generator | None = None) -> float:
    """Max relative error of the duality pairing over 100 random dual probes.

    field is a control on op's region, and v(T) its terminal state from v0:
    <v(T), z> = <v0, exp(AT) z> + <u, adjoint trace of z>  for every z.
    Each probe's error is relative to the sum of the sizes of the two terms
    on the right, which does not shrink as the control reaches its target.
    """
    rng = rng or np.random.default_rng(0)
    vT = op.free(v0) + op.apply(field.values)
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
    trials: tuple[Trial, ...]               # bisection trials, in solve order
    polish: Trial                           # the minimisation behind control
    polish_mu: float                        # smoothing width of its last stage

    @property
    def trace(self) -> tuple[tuple[float, bool], ...]:
        """(trial time, feasible) pairs, in solve order."""
        return tuple((t.time, t.feasible) for t in self.trials)

    @property
    def stalled_trials(self) -> int:
        """Trials that ended without either bound deciding them."""
        return sum(t.stop in ("stalled", "budget") for t in self.trials)

    def trial_table(self) -> tuple[str, tuple]:
        """CSV header and columns of the bisection trials, in solve order."""
        keys = ("time", "feasible", "stop", "lower", "upper", "iterations")
        return ("trial," + ",".join(keys),
                (range(len(self.trials)),
                 *([getattr(t, k) for t in self.trials] for k in keys)))


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
                     ) -> tuple[Trial, np.ndarray, ControlOperator]:
    """Min of ||v(T; u)|| over box-constrained u, by projected gradient.

    Accelerated (momentum) iteration with step 1/||map||^2 from an optional
    warm start, else from the admissible control nearest 0; G y is carried
    linearly through the momentum step, so each iteration costs one apply
    and one adjoint.  The solve stops once the best norm is within the
    problem's radius, or once the weak-duality bound at the momentum point's
    residual exceeds it.  It also stops after 150 steps without progress or
    5000 steps in all, and returns its best control and its operator
    either way.
    """
    region = problem.region_at(T)
    op = ControlOperator(problem.domain, problem.params, region)
    nu1, nu2 = problem.bounds
    step = 1.0 / max(op.norm_estimate() ** 2, 1e-30)
    free = op.free(problem.v0)
    u = (np.clip(0.0, nu1, nu2) if u0 is None else u0) * region.mask
    Gu = op.apply(u)
    y, Gy, t_acc = u, Gu, 1.0
    best_norm, best_u = float(np.linalg.norm(free + Gu)), u
    lower, steps = 0.0, 0
    stall_ref, stall_at = math.inf, 0
    while True:
        if best_norm <= problem.radius * (1.0 - 1e-9):
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
        lower = max(lower, _dual_bound(free, resid, grad, problem.bounds))
        if lower > problem.radius * (1.0 + 1e-9):
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
    first, best_u, best_op = _feasibility_min(problem, T_max)
    if not first.feasible:
        raise InfeasibleError(
            f"target ball (radius {problem.radius}) unreachable at "
            f"T_max={T_max}: {first.describe()}")
    trials, warm = [first], best_u
    lo, hi = 0.0, T_max
    while hi - lo > 1e-3 * T_max:
        mid = 0.5 * (lo + hi)
        trial, warm, op = _feasibility_min(problem, mid, u0=warm)
        trials.append(trial)
        if trial.feasible:
            hi, best_u, best_op = mid, warm, op
        else:
            lo = mid
    polish, u, mu = _polish(problem, best_op, best_u)
    field = ControlField(u, best_op.region)
    return TimeOptimalResult(t_star=hi, control=field, trials=tuple(trials),
                             polish=polish, polish_mu=mu)


def verify_bang_bang(field: ControlField, bounds: tuple[float, float],
                     ) -> tuple[float, bool]:
    """Fraction of region cells more than 5% of the box width inside the
    box, and whether that fraction is at most 5%."""
    nu1, nu2 = bounds
    eps = 0.05 * (nu2 - nu1)
    on = field.values[field.region.mask]
    interior = (on > nu1 + eps) & (on < nu2 - eps)
    fraction = float(interior.mean()) if on.size else 0.0
    return fraction, fraction <= 0.05
