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
    def _axes(self) -> list[np.ndarray]:
        """Cell midpoints along each axis."""
        return [(np.arange(nc) + 0.5) * (l / nc)
                for l, nc in zip(self.lengths, self.cells)]

    @cached_property
    def points(self) -> np.ndarray:
        """Cell midpoints, shape (n_cells, dim), C-order over axes."""
        if self.dim == 1:
            return self._axes[0][:, None]
        xx, yy = np.meshgrid(*self._axes, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    # -- spectrum -----------------------------------------------------

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The n_modes least eigenvalues and their lattice indices (n_modes, dim).

        A rectangle's candidates are the indices 1..n_modes+1 on each axis,
        ordered by (value, j, k).  float_power calls the C library's pow,
        as a Python float's ** does (** 2 on an array squares instead).
        """
        if self.dim == 1:
            idx = np.arange(1, self.n_modes + 1)[:, None]
        else:
            side = self.n_modes + 1
            idx = np.column_stack(np.divmod(np.arange(side * side), side)) + 1
        vals = np.float_power(idx * math.pi / np.array(self.lengths), 2).sum(axis=1)
        order = np.lexsort([*idx.T[::-1], vals])[: self.n_modes]
        vals = vals[order]
        vals.flags.writeable = False
        return vals, idx[order]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @cached_property
    def mode_indices(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self._spectrum[1].tolist()]

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """Eigenfunction values at the grid midpoints, shape (n_modes, n_cells).

        Each is a product of one sine per axis, so the sines are taken on
        the axis grids, not on every cell.
        """
        idx = np.array(self.mode_indices)
        sines = [np.sin(idx[:, [a]] * math.pi * x / l)
                 for a, (x, l) in enumerate(zip(self._axes, self.lengths))]
        if self.dim == 1:
            mat = math.sqrt(2.0 / self.lengths[0]) * sines[0]
        else:
            lx, ly = self.lengths
            sx, sy = sines
            mat = ((2.0 / math.sqrt(lx * ly)) * sx)[:, :, None] * sy[:, None, :]
            mat = mat.reshape(self.n_modes, self.n_cells)
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
