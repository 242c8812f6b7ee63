"""Trigonometric polynomials and quantitative norm inequalities on (-pi, pi).

Implements the L^p Remez-type bound and the lower bound on integrals of
|sin| over measurable subsets of a window [delta, lambda*b*S + delta].

Subsets of (-pi, pi) are unions of cells of a fixed uniform grid
(N_CELLS cells); all integrals are midpoint quadrature on that grid.
A polynomial called at the grid reads the grid's cached sin|cos table.

Polynomials, Remez cases and sine cases come in lanes, stacked on a leading
axis; a lone one is the one-lane call of the same code, and a lane's
numbers do not depend on the lanes beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_CELLS = 8192

# Cells of a sine case's window, as SineBoundCase.random draws them.
SINE_CELLS = 1024

# Every evaluation pads its polynomials to at least this degree, so a lane
# of degree 1..8, the Remez sweep's range, sums the same 2 * 9 products
# whatever its own degree and whatever lanes sit beside it.
_MIN_DEGREE = 8


# The grid, the midpoints of the N_CELLS uniform cells of (-pi, pi), and its
# trig table: rows sin(k theta), cos(k theta), interleaved, for k = 0..K, so
# the rows of degree <= n lead.  Both are read-only; the table is built on
# first use and rebuilt wider for a higher degree.
_GRID = -math.pi + (np.arange(N_CELLS) + 0.5) * (2.0 * math.pi / N_CELLS)
_GRID.flags.writeable = False
_table = np.empty((0, N_CELLS))


def _trig_rows(theta: np.ndarray, degree: int) -> np.ndarray:
    """sin(k theta), cos(k theta), interleaved, k = 0..degree: shape
    (2 (degree + 1), theta.size)."""
    arg = np.multiply.outer(np.arange(degree + 1), theta.ravel())
    rows = np.empty((degree + 1, 2, theta.size))
    np.sin(arg, out=rows[:, 0])
    np.cos(arg, out=rows[:, 1])
    return rows.reshape(-1, theta.size)


def _basis(theta, degree: int) -> np.ndarray:
    """The trig rows for k = 0..degree: at the grid, the cached table's
    leading rows; elsewhere built for theta alone, by the same arithmetic."""
    global _table
    if theta is not _GRID:
        return _trig_rows(np.asarray(theta, dtype=float), degree)
    if len(_table) < 2 * (degree + 1):
        _table = _trig_rows(_GRID, degree)
        _table.flags.writeable = False
    return _table[:2 * (degree + 1)]


def cell_width() -> float:
    return 2.0 * math.pi / N_CELLS


def intervals_to_mask(intervals) -> np.ndarray:
    """Cells of (-pi, pi) whose midpoints fall in one of the intervals (a, b):
    the grid is increasing, so those are a slice per interval."""
    mask = np.zeros(N_CELLS, dtype=bool)
    ends = np.asarray(intervals, dtype=float).reshape(-1, 2)
    lo = np.searchsorted(_GRID, ends[:, 0], side="right")    # _GRID > a
    hi = np.searchsorted(_GRID, ends[:, 1], side="left")     # _GRID < b
    for i, j in zip(lo.tolist(), hi.tolist()):
        mask[i:j] = True
    return mask


def mask_measure(mask: np.ndarray) -> float:
    return np.count_nonzero(mask) * cell_width()


def random_interval_union(rng: np.random.Generator) -> np.ndarray:
    """Union of up to 5 random intervals on the N_CELLS grid, with |E| >= 0.1.

    Tiny sets are rejected: the Remez constant blows up as |E| -> 0 and
    float precision tests nothing there.
    """
    while True:
        k = int(rng.integers(1, 6))
        ends = rng.uniform(-math.pi, math.pi, size=(k, 2))
        mask = intervals_to_mask(np.sort(ends, axis=1))
        if mask_measure(mask) >= 0.1:
            return mask


def _unstack(lanes: tuple, *columns):
    """Per-lane results computed on a (n_lanes,) stack, in the lanes' shape;
    a lone lane's as a plain float or bool.  The kernels run on stacks even
    for one lane: numpy's scalar power rounds apart from its array loop."""
    return tuple(c.reshape(lanes) if lanes else c.item() for c in columns)


@dataclass(frozen=True)
class TrigPoly:
    """f(theta) = sum_k a_k sin(k theta) + b_k cos(k theta), k = 0..n.

    Coefficients of shape (lanes, n + 1) are that many polynomials, each
    zero-padded to n + 1 terms.
    """

    sin_coeffs: np.ndarray
    cos_coeffs: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float)).copy()
        b = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float)).copy()
        if a.shape != b.shape:
            raise ValueError("sin and cos coefficient arrays must match in length")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "sin_coeffs", a)
        object.__setattr__(self, "cos_coeffs", b)

    @property
    def degree(self) -> int:
        return self.sin_coeffs.shape[-1] - 1

    def __call__(self, theta) -> np.ndarray:
        """f at theta, shape (*lanes, *theta.shape): one product of the lanes'
        interleaved coefficients, zero-padded to degree max(n, 8), with the
        trig rows.  np.matmul would take a lone lane to gemv, whose sums
        round apart from gemm's, so it goes in beside a zero lane."""
        n = max(self.degree, _MIN_DEGREE)
        lanes = self.sin_coeffs.shape[:-1]
        a = self.sin_coeffs.reshape(-1, self.degree + 1)
        coeffs = np.zeros((max(len(a), 2), n + 1, 2))
        coeffs[:len(a), :self.degree + 1, 0] = a
        coeffs[:len(a), :self.degree + 1, 1] = self.cos_coeffs.reshape(a.shape)
        values = coeffs.reshape(len(coeffs), -1) @ _basis(theta, n)
        return values[:len(a)].reshape(lanes + np.shape(theta))


@dataclass(frozen=True)
class CheckResult:
    lhs: float | np.ndarray       # one value per lane
    rhs: float | np.ndarray
    holds: bool | np.ndarray


def remez_check(f: TrigPoly, E: np.ndarray, p, degree=None) -> CheckResult:
    """L^p norm over (-pi, pi) against the Remez constant times the norm on E,
    a mask over the grid.

    Lanes: f of coefficients (lanes, n + 1), E (lanes, N_CELLS), and p and
    degree of shape (lanes,).  degree is each lane's own, for the constant,
    and defaults to f.degree; a lane zero-padded to n + 1 terms passes it.
    """
    E = np.asarray(E)
    if E.shape[-1:] != _GRID.shape:
        raise ValueError(f"E must be a mask of the {N_CELLS}-cell grid")
    lanes = E.shape[:-1]
    E = E.reshape(-1, N_CELLS)
    p = np.asarray(p, dtype=float).reshape(-1)
    degree = np.reshape(f.degree if degree is None else degree, -1)
    if not np.all((1.0 <= p) & (p <= 8.0)):
        raise ValueError("p must lie in [1, 8]")
    h = cell_width()
    measure = E.sum(axis=-1) * h
    if not np.all(measure > 0):
        raise ValueError("the subset E must have positive measure")
    powers = f(_GRID).reshape(E.shape)          # |f|^p, in place
    np.power(np.abs(powers, out=powers), p[:, None], out=powers)
    lhs = (powers.sum(axis=-1) * h) ** (1.0 / p)
    powers *= E                                 # |f|^p on E, 0 elsewhere
    on_E = (powers.sum(axis=-1) * h) ** (1.0 / p)
    const = (64.0 / np.sin(measure / 4.0)) ** (2.0 * (degree + 1.0 / p))
    rhs = const * on_E
    return CheckResult(*_unstack(lanes, lhs, rhs, lhs <= rhs * (1.0 + 1e-9)))


@dataclass(frozen=True)
class SineBoundCase:
    """A subset F of the window [delta, lam*b*S + delta] for the |sin| bound.

    Lanes: lam, b, S and delta of shape (lanes,) with F (lanes, cells).
    """

    lam: float | np.ndarray
    b: float | np.ndarray
    S: float | np.ndarray
    delta: float | np.ndarray
    F: np.ndarray             # bool over a uniform grid of the window

    def __post_init__(self):
        if not np.all((self.lam > 0) & (self.b > 0) & (self.S > 0)):
            raise ValueError("lam, b, S must be positive")
        if not np.all((-math.pi / 2 <= self.delta) & (self.delta <= math.pi / 2)):
            raise ValueError("phase delta must lie in [-pi/2, pi/2]")
        m = np.asarray(self.F, dtype=bool).copy()
        m.flags.writeable = False
        object.__setattr__(self, "F", m)

    @property
    def window_length(self):
        return self.lam * self.b * self.S

    @property
    def cell(self):
        return self.window_length / self.F.shape[-1]

    @staticmethod
    def random(rng: np.random.Generator, lanes: int | None = None
               ) -> "SineBoundCase":
        """A case with window length lam*b*S below 100, F on SINE_CELLS cells;
        or `lanes` of them, drawn one after another as lone cases are."""
        F = np.zeros((1 if lanes is None else lanes, SINE_CELLS), dtype=bool)
        windows = []
        for row in F:
            lam = rng.uniform(0.5, 10.0)
            b = rng.uniform(0.1, 5.0)
            S = rng.uniform(0.05, 100.0 / (lam * b))
            windows.append((lam, b, S, rng.uniform(-math.pi / 2, math.pi / 2)))
            # 1-4 boxes of at least one cell each: F is never empty
            for _ in range(int(rng.integers(1, 5))):
                i0 = int(rng.integers(0, SINE_CELLS))
                row[i0:int(rng.integers(i0 + 1, SINE_CELLS + 1))] = True
        if lanes is None:
            return SineBoundCase(*windows[0], F[0])
        return SineBoundCase(*np.array(windows).T, F)


def sine_integral_bound(case: SineBoundCase) -> CheckResult:
    """2^-50 (lam*b*S + pi/2)^-4 |F|^4 <= integral of |sin| over F.

    The integral runs over the F cells of every lane in one pass, each lane's
    cells summed on their own.
    """
    lanes = case.F.shape[:-1]
    F = case.F.reshape(-1, case.F.shape[-1])
    delta, window, cell = (np.reshape(x, -1) for x in (
        case.delta, case.window_length, case.cell))
    counts = F.sum(axis=-1)
    measure = counts * cell
    if not np.all(measure > 0):
        raise ValueError("F must have positive measure")
    lhs = 2.0 ** -50 * (window + math.pi / 2.0) ** -4 * measure ** 4
    mids = delta[:, None] + (np.arange(F.shape[-1]) + 0.5) * cell[:, None]
    sines = np.abs(np.sin(mids[F]))
    rhs = np.add.reduceat(sines, np.cumsum(counts) - counts) * cell
    return CheckResult(*_unstack(lanes, lhs, rhs, lhs <= rhs))
