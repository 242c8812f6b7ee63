"""Brute-force oracles and the fixture writer, kept beside the tests.

Each oracle recomputes by scan, row loop or closed form what ``obslab``
computes by descent, duality or column passes, so no solver can call one.
They read ``obslab``'s public names only.  ``grid_scan_time_optimal`` shares
only ``ControlOperator`` with the solver it checks: its minimisation is its
own, with no radius stop and no dual bound.
"""

import math

import numpy as np

from obslab.control import ControlField, ControlOperator
from obslab.errors import InfeasibleError


def eigenfunction(domain, j: int):
    """Evaluator of mode j (1-based) of domain; accepts points (m, dim)."""
    idx = domain.mode_indices[j - 1]
    if domain.dim == 1:
        lx = domain.lengths[0]
        norm = math.sqrt(2.0 / lx)
        return lambda x: norm * np.sin(idx[0] * math.pi * np.asarray(x) / lx)
    lx, ly = domain.lengths

    def ev(xy):
        xy = np.atleast_2d(xy)
        return (
            2.0 / math.sqrt(lx * ly)
            * np.sin(idx[0] * math.pi * xy[:, 0] / lx)
            * np.sin(idx[1] * math.pi * xy[:, 1] / ly)
        )

    return ev


def to_rle(region) -> str:
    """Run-length text of a SpaceTimeSet, as SpaceTimeSet.from_rle reads it:
    a header line, then one 'start:length,...' line per time row."""
    lines = [f"nt={region.n_time} nx={region.domain.n_cells} T={region.horizon!r}"]
    for row in region.mask:
        runs = []
        idx = np.nonzero(row)[0]
        if idx.size:
            breaks = np.nonzero(np.diff(idx) > 1)[0]
            starts = np.concatenate([[idx[0]], idx[breaks + 1]])
            ends = np.concatenate([idx[breaks], [idx[-1]]])
            runs = [f"{s}:{e - s + 1}" for s, e in zip(starts, ends)]
        lines.append(",".join(runs))
    return "\n".join(lines) + "\n"


def _csv_text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def reference_csv(path, header: str, rows) -> None:
    """The row-wise CSV writer: header, then one line per row of values.

    A value is written as the report format renders it: a float (numpy's
    too) as a plain float's repr, a bool as true or false, others by str.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_csv_text(v) for v in row) + "\n")


def control_field_rows(field: ControlField) -> list:
    """(t, x[, y], value) as floats per region cell, by time row then cell."""
    region = field.region
    return [(float(region.midpoints[i]), *map(float, region.domain.points[j]),
             float(field.values[i, j]))
            for i, j in zip(*np.nonzero(region.mask))]


# The per-case draws of sweep-all's three sweeps, one case per call, in the
# order the per-case loops drew them; the block sweeps must check these.


def remez_case_draws(rng):
    """A Remez case: degree in 1..8, sin and cos coefficients, the mask E of
    up to 5 intervals on the 8192-cell grid of (-pi, pi) (redrawn while
    |E| < 0.1), then p in [1, 8).  Also the number of redrawn unions."""
    n = 8192
    grid = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    degree = int(rng.integers(1, 9))
    a = rng.standard_normal(degree + 1)
    b = rng.standard_normal(degree + 1)
    redrawn = -1
    while True:
        redrawn += 1
        k = int(rng.integers(1, 6))
        ends = rng.uniform(-math.pi, math.pi, size=(k, 2))
        E = np.zeros(n, dtype=bool)
        for lo, hi in (sorted(e) for e in ends):
            E |= (grid > lo) & (grid < hi)
        if float(E.sum()) * (2.0 * math.pi / n) >= 0.1:
            break
    p = float(rng.uniform(1.0, 8.0))
    return degree, a, b, E, p, redrawn


def sine_case_draws(rng):
    """A sine case: lam, b, S, delta, then 1-4 boxes of a 1024-cell F."""
    lam = float(rng.uniform(0.5, 10.0))
    b = float(rng.uniform(0.1, 5.0))
    S = float(rng.uniform(0.05, 100.0 / (lam * b)))
    delta = float(rng.uniform(-math.pi / 2, math.pi / 2))
    F = np.zeros(1024, dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        i0 = int(rng.integers(0, 1024))
        F[i0:int(rng.integers(i0 + 1, 1025))] = True
    return lam, b, S, delta, F


def space_time_box_draws(rng, n_time: int, n_cells: int, fill: float):
    """A space-time mask of random boxes, drawn until fill of it is set."""
    mask = np.zeros((n_time, n_cells), dtype=bool)
    while mask.sum() < fill * mask.size:
        t0 = rng.integers(0, n_time)
        t1 = rng.integers(t0 + 1, n_time + 1)
        x0 = rng.integers(0, n_cells)
        mask[t0:t1, x0:rng.integers(x0 + 1, n_cells + 1)] = True
    return mask


def brute_force_single_mode_ratio(region, params) -> float:
    """Oracle for single-mode truncation: scan 3600 phases of the unit circle.

    In closed form, sharing no code with the kernel estimate_L descends on:
    from y0 = (cos p, sin p) the observed field at time s is
    exp(-a lam s) cos(lam b s - p) phi_1(x), and ||exp(AT) y0|| is
    exp(-a lam T), so the ratio is
    sum_i dt exp(-a lam s_i) |cos(lam b s_i - p)| m_i / exp(-a lam T),
    with m_i the integral of |phi_1| over the region's slice at s_i.
    """
    dom = region.domain
    lam = float(dom.eigenvalues[0])
    s = region.midpoints
    m = region.mask @ np.abs(dom.eigenfunctions[0]) * dom.cell_volume
    p = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)[:, None]
    trace = np.exp(-params.a * lam * s) * np.abs(np.cos(lam * params.b * s - p))
    ratios = (trace * m).sum(axis=1) * region.dt
    return float(ratios.min()) / math.exp(-params.a * lam * region.horizon)


def least_squares_null_control(region, params, v0) -> tuple[ControlField, float]:
    """Box-free minimal-weighted-L2 control from v0 on region, by normal
    equations.

    Solves u = adjoint(y) with (G G*) y = -free terminal state, using a
    pseudo-inverse so modes decayed below 1e-12 of the largest singular
    value are left uncontrolled.
    """
    op = ControlOperator(region.domain, params, region)
    gram = op.gram(op.weight * op.weight)     # of the weighted input map
    free = op.free(v0)
    y = (np.linalg.pinv(gram, rcond=1e-12) @ (-free.ravel())).reshape(free.shape)
    u = op.adjoint(y) * op.weight
    terminal = float(np.linalg.norm(free + op.apply(u)))
    return ControlField(u, op.region), terminal


def plain_feasibility_min(problem, T: float, u0=None):
    """Min of ||v(T; u)|| over box-constrained u, by projected gradient.

    Accelerated (momentum) iteration with step 1/||map||^2 from u0, else
    from the admissible control nearest 0, with no radius stop and no dual
    bound: it stops after 150 steps without progress or 5000 in all.
    Returns the best norm, its control and the operator.
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
    steps, stall_ref, stall_at = 0, math.inf, 0
    while steps - stall_at <= 150 and steps < 5000:
        grad = op.adjoint(free + Gy) * op.weight
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
    return best_norm, best_u, op


def grid_scan_time_optimal(problem, T_max: float, n_grid: int = 200) -> float:
    """Dense-scan oracle: smallest feasible horizon on a uniform T grid.

    Each grid time runs the plain minimisation, warm started from the last,
    and compares its best norm with the radius.
    """
    warm = None
    for T in np.linspace(T_max / n_grid, T_max, n_grid):
        norm, warm, _ = plain_feasibility_min(problem, float(T), u0=warm)
        if norm <= problem.radius:
            return float(T)
    raise InfeasibleError(f"no horizon on the grid up to {T_max} is feasible")
