"""Closed-form Dirichlet spectra and quadrature grids on canonical domains.

Domains are restricted to an interval (0, lx) and a rectangle
(0, lx) x (0, ly), where the Dirichlet Laplacian has an explicit
eigenbasis.  All quadrature is the midpoint rule on a uniform grid so
that set measures are exact sums of cell volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_INTERVAL_CELLS = 512
DEFAULT_RECTANGLE_CELLS = 128
DEFAULT_INTERVAL_MODES = 32
DEFAULT_RECTANGLE_MODES = 64


@dataclass(frozen=True)
class SpectralDomain:
    """An interval or rectangle with its Dirichlet eigenpairs and grid.

    The eigenvalues are sorted non-decreasingly; rectangle degeneracies
    are broken lexicographically by the lattice index (j, k).  The grid
    stores cell midpoints; ``cell_volume * n_cells`` equals the domain
    volume exactly.
    """

    lengths: tuple[float, ...]          # (lx,) or (lx, ly)
    n_modes: int
    cells: tuple[int, ...]              # cells per axis

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if len(self.lengths) not in (1, 2):
            raise ValueError("only interval and rectangle domains are supported")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("side lengths must be positive")
        if any(c < 1 for c in self.cells):
            raise ValueError("cell counts must be positive")

    # -- geometry -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    @property
    def cell_volume(self) -> float:
        return self.volume / self.n_cells

    @cached_property
    def points(self) -> np.ndarray:
        """Cell midpoints, shape (n_cells, dim), C-order over axes."""
        axes = [
            (np.arange(nc) + 0.5) * (l / nc)
            for l, nc in zip(self.lengths, self.cells)
        ]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    # -- spectrum -----------------------------------------------------

    @cached_property
    def _modes(self) -> list[tuple[float, tuple[int, ...]]]:
        if self.dim == 1:
            lx = self.lengths[0]
            return [((j * math.pi / lx) ** 2, (j,)) for j in range(1, self.n_modes + 1)]
        lx, ly = self.lengths
        jmax = self.n_modes + 1
        pool = [
            ((j * math.pi / lx) ** 2 + (k * math.pi / ly) ** 2, (j, k))
            for j in range(1, jmax + 1)
            for k in range(1, jmax + 1)
        ]
        pool.sort(key=lambda m: (m[0], m[1]))
        return pool[: self.n_modes]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        vals = np.array([m[0] for m in self._modes])
        vals.flags.writeable = False
        return vals

    @cached_property
    def mode_indices(self) -> list[tuple[int, ...]]:
        return [m[1] for m in self._modes]

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """Eigenfunction values at the grid midpoints, shape (n_modes, n_cells)."""
        pts = self.points
        rows = []
        if self.dim == 1:
            lx = self.lengths[0]
            norm = math.sqrt(2.0 / lx)
            for (j,) in self.mode_indices:
                rows.append(norm * np.sin(j * math.pi * pts[:, 0] / lx))
        else:
            lx, ly = self.lengths
            norm = 2.0 / math.sqrt(lx * ly)
            for j, k in self.mode_indices:
                rows.append(
                    norm
                    * np.sin(j * math.pi * pts[:, 0] / lx)
                    * np.sin(k * math.pi * pts[:, 1] / ly)
                )
        mat = np.array(rows)
        mat.flags.writeable = False
        return mat


def interval(length: float, n_modes: int = DEFAULT_INTERVAL_MODES,
             n_cells: int = DEFAULT_INTERVAL_CELLS) -> SpectralDomain:
    return SpectralDomain(lengths=(float(length),), n_modes=n_modes, cells=(n_cells,))


def rectangle(lx: float, ly: float, n_modes: int = DEFAULT_RECTANGLE_MODES,
              cells: tuple[int, int] = (DEFAULT_RECTANGLE_CELLS, DEFAULT_RECTANGLE_CELLS)
              ) -> SpectralDomain:
    return SpectralDomain(lengths=(float(lx), float(ly)), n_modes=n_modes,
                          cells=tuple(cells))


@dataclass(frozen=True)
class PhysicalParams:
    """Diffusion a > 0 and coupling b != 0 of the two-component system."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("diffusion coefficient a must be positive")
        if self.b == 0:
            raise ValueError("coupling coefficient b must be nonzero")
