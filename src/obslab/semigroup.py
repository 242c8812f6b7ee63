"""Exact mode-wise evolution of two-component states; observation tables.

A state is an (n_modes, 2) array of Fourier coefficient pairs (v1_j, v2_j),
a batch of states lanes (..., n_modes, 2).  The generator acts diagonally
on modes; each pair evolves by exp(-a*lambda_j*t) times the rotation through
angle lambda_j*b*t, so time evolution is exact (no time stepping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import PhysicalParams, SpectralDomain


@dataclass(frozen=True)
class SpectralState:
    """A state wrapped with its domain: the per-state reference for lanes."""

    coeffs: np.ndarray
    domain: SpectralDomain

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.shape != (self.domain.n_modes, 2):
            raise ValueError(f"coeffs must have shape ({self.domain.n_modes}, 2)")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        """L2 norm via Parseval: Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    @staticmethod
    def single_mode(domain: SpectralDomain, j: int, pair) -> "SpectralState":
        return SpectralState(single_mode(domain, j, pair), domain)


def single_mode(domain: SpectralDomain, j: int, pair) -> np.ndarray:
    """State supported on mode j (1-based) with the given pair."""
    c = np.zeros((domain.n_modes, 2))
    c[j - 1] = pair
    return c


def mode_factors(domain: SpectralDomain, params: PhysicalParams, t):
    """Per-mode decay and rotation (cos, sin) at time t, a scalar or an array.

    Each of the three tables has shape t.shape + (n_modes,).  Raises
    ArithmeticError when one is not finite (lambda * a * t or lambda * b * t
    overflows), before any solver reads it.
    """
    lam = domain.eigenvalues
    t = np.asarray(t, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        phi = lam * params.b * t
        tables = np.exp(-params.a * lam * t), np.cos(phi), np.sin(phi)
    if not all(np.isfinite(f).all() for f in tables):
        raise ArithmeticError("the mode tables are not finite: lambda * a * t "
                              "or lambda * b * t overflows")
    return tables


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


# An observation B is a tuple of rows (b1, b2), each observing b1 v1 + b2 v2:
# the first component, as the paper observes, and full observation
FIRST = ((1.0, 0.0),)
FULL = ((1.0, 0.0), (0.0, 1.0))


def observation_table(domain: SpectralDomain, params: PhysicalParams, t, B):
    """What each row of B sees of each mode at time t: (decay, g).

    decay is mode_factors' decay, and g[j] = (b1 cos - b2 sin, b1 sin + b2 cos)
    for row j = (b1, b2), of shape (len(B), 2) + t.shape + (n_modes,).  Row j
    observes decay * (z[..., 0] * g[j, 0] + z[..., 1] * g[j, 1]) of a state's
    modes z; under FIRST and FULL these are propagate's components bit for
    bit, since 1 * c - 0 * s = c.
    """
    decay, c, s = mode_factors(domain, params, t)
    return decay, np.array([(b1 * c - b2 * s, b1 * s + b2 * c) for b1, b2 in B])


def evolve(state: SpectralState, params: PhysicalParams, t: float,
           transpose: bool = False) -> SpectralState:
    """Apply the semigroup (or its transpose) for time t >= 0, exactly per mode."""
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    factors = mode_factors(state.domain, params, t)
    return SpectralState(propagate(factors, state.coeffs, transpose), state.domain)
