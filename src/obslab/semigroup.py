"""Mode-wise semigroup evolution and observation of two-component states.

A state is a finite vector of Fourier coefficient pairs (v1_j, v2_j).
The generator acts diagonally on modes; each pair evolves by the factor
exp(-a*lambda_j*t) times the rotation through angle lambda_j*b*t, so
time evolution is exact (no time stepping).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import PhysicalParams, SpectralDomain


@dataclass(frozen=True)
class SpectralState:
    """Truncated two-component state: coeffs shape (n_modes, 2)."""

    coeffs: np.ndarray
    domain: SpectralDomain

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.domain.n_modes, 2):
            raise ValueError(
                f"coeffs must have shape ({self.domain.n_modes}, 2), got {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        """L2 norm via Parseval: Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    @staticmethod
    def single_mode(domain: SpectralDomain, j: int, pair) -> "SpectralState":
        """State supported on mode j (1-based) with the given pair."""
        c = np.zeros((domain.n_modes, 2))
        c[j - 1] = pair
        return SpectralState(c, domain)

    @staticmethod
    def random(domain: SpectralDomain, rng: np.random.Generator,
               unit: bool = True) -> "SpectralState":
        c = rng.standard_normal((domain.n_modes, 2))
        if unit:
            c /= np.linalg.norm(c)
        return SpectralState(c, domain)


class SelectorKind(Enum):
    FIRST = "first"
    DIRECTION = "direction"
    FULL = "full"


@dataclass(frozen=True)
class ObservationSelector:
    """Which component combination of the state is observed."""

    kind: SelectorKind
    mu1: float = 1.0
    mu2: float = 0.0

    def __post_init__(self):
        if self.kind is SelectorKind.DIRECTION and abs(self.mu1) + abs(self.mu2) == 0:
            raise ValueError("direction selector requires |mu1| + |mu2| != 0")

    @staticmethod
    def first() -> "ObservationSelector":
        return ObservationSelector(SelectorKind.FIRST)

    @staticmethod
    def direction(mu1: float, mu2: float) -> "ObservationSelector":
        return ObservationSelector(SelectorKind.DIRECTION, mu1, mu2)

    @staticmethod
    def full() -> "ObservationSelector":
        return ObservationSelector(SelectorKind.FULL)


def mode_factors(domain: SpectralDomain, params: PhysicalParams, t):
    """Per-mode decay and rotation (cos, sin) at time t, a scalar or an array.

    Each of the three tables has shape t.shape + (n_modes,).
    """
    lam = domain.eigenvalues
    t = np.asarray(t, dtype=float)[..., None]
    phi = lam * params.b * t
    return np.exp(-params.a * lam * t), np.cos(phi), np.sin(phi)


def propagate(factors, coeffs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Apply mode_factors tables to coefficient pairs of shape (..., n_modes, 2).

    transpose=True applies the transposed 2x2 block of each mode (the
    generator of the controlled system).  The result has the broadcast of
    the tables' and the coefficients' leading shapes + (n_modes, 2).
    """
    decay, c, s = factors
    if transpose:
        s = -s
    v1, v2 = coeffs[..., 0], coeffs[..., 1]
    return np.stack([decay * (c * v1 + s * v2), decay * (-s * v1 + c * v2)],
                    axis=-1)


def evolve(state: SpectralState, params: PhysicalParams, t: float,
           transpose: bool = False) -> SpectralState:
    """Apply the semigroup (or its transpose) for time t >= 0, exactly per mode."""
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    factors = mode_factors(state.domain, params, t)
    return SpectralState(propagate(factors, state.coeffs, transpose), state.domain)


def observe(state: SpectralState, sel: ObservationSelector) -> np.ndarray:
    """Observed scalar field on the grid (or both fields for FULL).

    Returns shape (n_cells,) for FIRST/DIRECTION and (2, n_cells) for FULL.
    """
    eig = state.domain.eigenfunctions
    f1 = state.coeffs[:, 0] @ eig
    if sel.kind is SelectorKind.FIRST:
        return f1
    f2 = state.coeffs[:, 1] @ eig
    if sel.kind is SelectorKind.DIRECTION:
        return sel.mu1 * f1 + sel.mu2 * f2
    return np.stack([f1, f2])


def masked_l1(field: np.ndarray, mask: np.ndarray, cell_volume: float) -> float:
    """Quadrature L1 norm of the field restricted to the spatial mask.

    For a two-component field the pointwise Euclidean magnitude is used.
    """
    mask = np.asarray(mask, dtype=bool)
    if field.ndim == 2:
        mag = np.hypot(field[0], field[1])
    else:
        mag = np.abs(field)
    if mask.shape != mag.shape:
        raise ValueError(f"mask shape {mask.shape} does not match grid {mag.shape}")
    return float(mag[mask].sum() * cell_volume)


def observed_trace_L1(state: SpectralState, params: PhysicalParams,
                      sel: ObservationSelector, t: float,
                      spatial_mask: np.ndarray) -> float:
    """L1 norm over the mask of the observed field at time t."""
    return masked_l1(observe(evolve(state, params, t), sel), spatial_mask,
                     state.domain.cell_volume)
