"""Trigonometric polynomials and quantitative norm inequalities on (-pi, pi).

Implements the L^p Remez-type bound and the lower bound on integrals of
|sin| over measurable subsets of a window [delta, lambda*b*S + delta].

Subsets of (-pi, pi) are unions of cells of a fixed uniform grid
(N_CELLS cells); all integrals are midpoint quadrature on that grid.
A polynomial called at the grid reads the grid's cached sin/cos tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_CELLS = 8192


# The grid, the midpoints of the N_CELLS uniform cells of (-pi, pi), and its
# sin/cos tables, sin(k theta) and cos(k theta) for k = 0..K, all read-only.
# The tables are built on first use; a higher degree rebuilds them wider, a
# lower one reads their leading columns.
_GRID = -math.pi + (np.arange(N_CELLS) + 0.5) * (2.0 * math.pi / N_CELLS)
_GRID.flags.writeable = False
_tables = (np.empty((N_CELLS, 0)), np.empty((N_CELLS, 0)))


def _basis(theta, degree: int):
    """The grid's tables for k = 0..degree if theta is the grid, else None."""
    global _tables
    if theta is not _GRID:
        return None
    if _tables[0].shape[1] <= degree:
        arg = np.multiply.outer(_GRID, np.arange(degree + 1))
        _tables = np.sin(arg), np.cos(arg)
        for table in _tables:
            table.flags.writeable = False
    sin, cos = _tables
    return sin[:, :degree + 1], cos[:, :degree + 1]


def cell_width() -> float:
    return 2.0 * math.pi / N_CELLS


def intervals_to_mask(intervals) -> np.ndarray:
    """Cells of (-pi, pi) whose midpoints fall in one of the intervals."""
    mask = np.zeros(N_CELLS, dtype=bool)
    for a, b in intervals:
        mask |= (_GRID > a) & (_GRID < b)
    return mask


def mask_measure(mask: np.ndarray) -> float:
    return float(mask.sum()) * cell_width()


def random_interval_union(rng: np.random.Generator) -> np.ndarray:
    """Union of up to 5 random intervals on the N_CELLS grid, with |E| >= 0.1.

    Tiny sets are rejected: the Remez constant blows up as |E| -> 0 and
    float precision tests nothing there.
    """
    while True:
        k = int(rng.integers(1, 6))
        ends = rng.uniform(-math.pi, math.pi, size=(k, 2))
        mask = intervals_to_mask([tuple(sorted(e)) for e in ends])
        if mask_measure(mask) >= 0.1:
            return mask


@dataclass(frozen=True)
class TrigPoly:
    """f(theta) = sum_k a_k sin(k theta) + b_k cos(k theta), k = 0..n."""

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
        return self.sin_coeffs.shape[0] - 1

    def __call__(self, theta) -> np.ndarray:
        basis = _basis(theta, self.degree)
        if basis is None:
            theta = np.asarray(theta, dtype=float)
            arg = np.multiply.outer(theta, np.arange(self.degree + 1))
            basis = np.sin(arg), np.cos(arg)
        sin, cos = basis
        return sin @ self.sin_coeffs + cos @ self.cos_coeffs

    @staticmethod
    def random(rng: np.random.Generator, degree: int) -> "TrigPoly":
        return TrigPoly(rng.standard_normal(degree + 1),
                        rng.standard_normal(degree + 1))

@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    holds: bool


def remez_check(f: TrigPoly, E: np.ndarray, p: float) -> CheckResult:
    """L^p norm over (-pi, pi) against the Remez constant times the norm on E,
    a mask over the grid."""
    if E.shape != _GRID.shape:
        raise ValueError(f"E must be a mask of the {N_CELLS}-cell grid")
    if not 1.0 <= p <= 8.0:
        raise ValueError("p must lie in [1, 8]")
    measure = mask_measure(E)
    if measure <= 0:
        raise ValueError("the subset E must have positive measure")
    h = cell_width()
    powers = np.abs(f(_GRID)) ** p
    lhs = float(powers.sum() * h) ** (1.0 / p)
    on_E = float(powers[E].sum() * h) ** (1.0 / p)
    const = (64.0 / math.sin(measure / 4.0)) ** (2.0 * (f.degree + 1.0 / p))
    rhs = const * on_E
    return CheckResult(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))


@dataclass(frozen=True)
class SineBoundCase:
    """A subset F of the window [delta, lam*b*S + delta] for the |sin| bound."""

    lam: float
    b: float
    S: float
    delta: float
    F: np.ndarray             # bool over a uniform grid of the window

    def __post_init__(self):
        if self.lam <= 0 or self.b <= 0 or self.S <= 0:
            raise ValueError("lam, b, S must be positive")
        if not -math.pi / 2 <= self.delta <= math.pi / 2:
            raise ValueError("phase delta must lie in [-pi/2, pi/2]")
        m = np.asarray(self.F, dtype=bool).copy()
        m.flags.writeable = False
        object.__setattr__(self, "F", m)

    @property
    def window_length(self) -> float:
        return self.lam * self.b * self.S

    @property
    def cell(self) -> float:
        return self.window_length / self.F.shape[0]

    def measure(self) -> float:
        return float(self.F.sum()) * self.cell

    @staticmethod
    def random(rng: np.random.Generator) -> "SineBoundCase":
        """A case with window length lam*b*S below 100, F on 1024 cells."""
        n_cells = 1024
        lam = float(rng.uniform(0.5, 10.0))
        b = float(rng.uniform(0.1, 5.0))
        S = float(rng.uniform(0.05, 100.0 / (lam * b)))
        delta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        # 1-4 boxes of at least one cell each: F is never empty
        mask = np.zeros(n_cells, dtype=bool)
        for _ in range(int(rng.integers(1, 5))):
            i0 = int(rng.integers(0, n_cells))
            i1 = int(rng.integers(i0 + 1, n_cells + 1))
            mask[i0:i1] = True
        return SineBoundCase(lam, b, S, delta, mask)


def sine_integral_bound(case: SineBoundCase) -> CheckResult:
    """2^-50 (lam*b*S + pi/2)^-4 |F|^4 <= integral of |sin| over F."""
    measure = case.measure()
    if measure <= 0:
        raise ValueError("F must have positive measure")
    lhs = 2.0 ** -50 * (case.window_length + math.pi / 2.0) ** -4 * measure ** 4
    mids = case.delta + (np.nonzero(case.F)[0] + 0.5) * case.cell
    rhs = float(np.abs(np.sin(mids)).sum() * case.cell)
    return CheckResult(lhs, rhs, lhs <= rhs)
