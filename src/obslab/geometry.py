"""Measurable space-time sets on grids: slices, good-time sets, density points.

A "measurable set" here is any union of grid cells; measures are exact
cell counts times cell volumes.  Time cells are the half-open intervals
[i*dt, (i+1)*dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PropertyViolation, ResolutionError
from .spectral import SpectralDomain


def ball_volume(dim: int, radius: float) -> float:
    """Volume of a ball in dimension 1 or 2, the only domain dimensions."""
    return 2.0 * radius if dim == 1 else math.pi * radius * radius


@dataclass(frozen=True)
class TimeSet:
    """A union of time cells inside (0, horizon)."""

    mask: np.ndarray          # (n_time,) bool
    horizon: float

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).copy()
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def n_time(self) -> int:
        return self.mask.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_time

    def measure(self) -> float:
        return float(self.mask.sum()) * self.dt

    def measure_in(self, a, b):
        """Exact measure of the set intersected with the interval (a, b).

        a and b broadcast, and each pair is summed alone over the set's
        cells, so it gets the bits a call of its own would; floats in give
        a float out.
        """
        dt = self.dt
        idx = np.nonzero(self.mask)[0]
        lo = np.maximum(idx * dt, np.asarray(a, dtype=float)[..., None])
        hi = np.minimum((idx + 1) * dt, np.asarray(b, dtype=float)[..., None])
        out = np.clip(hi - lo, 0.0, None).sum(axis=-1)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpaceTimeSet:
    """Boolean occupancy over (time cells) x (space cells) of a domain grid."""

    mask: np.ndarray          # (n_time, n_cells) bool
    horizon: float
    domain: SpectralDomain

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).copy()
        if m.ndim != 2 or m.shape[1] != self.domain.n_cells or not len(m):
            raise ValueError(f"mask must have shape (n_time >= 1, "
                             f"{self.domain.n_cells}), got {m.shape}")
        if not self.horizon > 0:
            raise ValueError("time horizon must be positive")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def n_time(self) -> int:
        return self.mask.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_time

    @property
    def midpoints(self) -> np.ndarray:
        """Midpoints of the time cells, shape (n_time,)."""
        return (np.arange(self.n_time) + 0.5) * self.dt

    def measure(self) -> float:
        return float(self.mask.sum()) * self.domain.cell_volume * self.dt

    # -- constructors -------------------------------------------------

    @staticmethod
    def full_cylinder(domain: SpectralDomain, horizon: float, n_time: int
                      ) -> "SpaceTimeSet":
        return SpaceTimeSet(np.ones((n_time, domain.n_cells), dtype=bool),
                            horizon, domain)

    @staticmethod
    def random(domain: SpectralDomain, horizon: float, n_time: int,
               rng: np.random.Generator, fill: float = 0.3,
               min_measure_fraction: float = 0.0) -> "SpaceTimeSet":
        """Random union of space-time boxes with roughly the target fill.

        Boxes are drawn until the occupied fraction reaches ``fill``;
        the result is rejected and redrawn while its measure is below
        ``min_measure_fraction`` of the full cylinder, at most 1000 times.
        """
        for _ in range(1000):
            mask = np.zeros((n_time, domain.n_cells), dtype=bool)
            if random_boxes(mask, rng, fill) >= min_measure_fraction * mask.size:
                return SpaceTimeSet(mask, horizon, domain)
        raise ResolutionError(
            f"observation.min_fraction: no random set of fill {fill} covered "
            f"{min_measure_fraction} of the cylinder in 1000 draws")

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_rle(text: str, domain: SpectralDomain) -> "SpaceTimeSet":
        """Parse 'nt=.. nx=.. T=..', then one 'start:length,...' line per row."""
        lines = text.strip("\n").split("\n")
        header = dict(kv.split("=") for kv in lines[0].split())
        nt, nx = int(header["nt"]), int(header["nx"])
        horizon = float(header["T"])
        if nx != domain.n_cells:
            raise ValueError(f"fixture has {nx} space cells, domain has {domain.n_cells}")
        mask = np.zeros((nt, nx), dtype=bool)
        for i, line in enumerate(lines[1:]):
            if not line:
                continue
            for run in line.split(","):
                s, n = (int(v) for v in run.split(":"))
                if not 0 <= s < s + n <= nx:
                    raise ValueError(
                        f"row {i}: run {run!r} is not a nonempty run in 0..{nx - 1}")
                mask[i, s:s + n] = True
        return SpaceTimeSet(mask, horizon, domain)


def random_boxes(mask: np.ndarray, rng: np.random.Generator,
                 fill: float) -> int:
    """Set random boxes of an empty (n_time, n_cells) mask until at least
    ``fill`` of it is set; the number of cells set."""
    n_time, n_cells = mask.shape
    target = fill * mask.size
    occupied = 0
    while occupied < target:
        t0 = rng.integers(0, n_time)
        t1 = rng.integers(t0 + 1, n_time + 1)
        x0 = rng.integers(0, n_cells)
        x1 = rng.integers(x0 + 1, n_cells + 1)
        box = mask[t0:t1, x0:x1]
        occupied += box.size - int(np.count_nonzero(box))
        box[...] = True
    return occupied


def good_times(masks: np.ndarray, horizon: float, domain: SpectralDomain):
    """The good-time mask of each of a stack of space-time masks (..., n_time,
    n_cells), and whether |E| >= |D| / (2 |ball|) holds for it.

    E is the times t with |D_t| >= |D|/(2T).  The ball is the one about the
    domain's center through its corners: it contains every cell, so every
    slice of D fits in it, which is what the |E| lower bound needs.  Every
    measure is an integer cell count times cell sizes, so a set gets the
    bits it gets alone.
    """
    counts = np.count_nonzero(masks, axis=-1)   # cells of each time slice
    dt = horizon / masks.shape[-2]
    measure = counts.sum(axis=-1) * domain.cell_volume * dt
    if not np.all(measure > 0):
        raise ValueError("the space-time set must have positive measure")
    radius = float(np.linalg.norm(np.asarray(domain.lengths) / 2.0))
    vol_ball = ball_volume(domain.dim, radius)
    good = counts * domain.cell_volume >= (measure / (2.0 * horizon))[..., None]
    holds = ~(np.count_nonzero(good, axis=-1) * dt
              < measure / (2.0 * vol_ball) - 1e-12)
    return good, holds


def good_time_set(D: SpaceTimeSet) -> TimeSet:
    """The good-time set E of D, with |E| >= |D| / (2 |ball|) checked: the
    one-set call of good_times."""
    good, holds = good_times(D.mask, D.horizon, D.domain)
    # the slice-set conclusion, checked on every call
    if not holds:
        raise PropertyViolation("good-time set is below |D| / (2 |ball|)")
    return TimeSet(good, D.horizon)


DENSITY_RADIUS_DIVISORS = (8, 16, 32, 64)


def density_proxy(E: TimeSet, ell):
    """min over the radius ladder T/d, d in DENSITY_RADIUS_DIVISORS, of
    |E cap (ell-r, ell+r)| / (2r), for a time ell or each of an array of
    them; by measure_in's contract, each gets the bits a call of its own
    would."""
    radii = E.horizon / np.array(DENSITY_RADIUS_DIVISORS)
    ell = np.asarray(ell, dtype=float)[..., None]
    proxy = (E.measure_in(ell - radii, ell + radii) / (2.0 * radii)).min(axis=-1)
    return float(proxy) if proxy.ndim == 0 else proxy


def find_density_point(E: TimeSet) -> float:
    """A time in E whose small-radius density proxy is maximal (and >= 1/2)."""
    if E.measure() <= 0:
        raise ValueError("the time set must have positive measure")
    candidates = (np.nonzero(E.mask)[0] + 0.5) * E.dt
    # a candidate's measure_in call holds 4 radii x len(candidates) overlaps;
    # blocks of candidates keep a call within 2^16 of them, not n_time^2
    blk = max(1, (1 << 16) // (4 * len(candidates)))
    proxies = np.concatenate([density_proxy(E, candidates[lo:lo + blk])
                              for lo in range(0, len(candidates), blk)])
    best = int(np.argmax(proxies))
    if proxies[best] < 0.5 - 1e-12:
        raise ResolutionError(
            f"no grid point reaches density proxy 1/2 (best {proxies[best]:.4f}); "
            "refine the time grid"
        )
    return float(candidates[best])


@dataclass(frozen=True)
class DensitySequence:
    """Certified telescoping times ell_m decreasing to the density point."""

    ell1: float
    mu: float
    terms: np.ndarray         # ell_1, ..., ell_depth

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=float).copy()
        t.flags.writeable = False
        object.__setattr__(self, "terms", t)


def sequence_terms(ell: float, ell1: float, mu: float, depth: int) -> np.ndarray:
    """ell_{m+1} = ell + mu^(-m) (ell_1 - ell), m = 0..depth-1."""
    m = np.arange(depth)
    return ell + mu ** (-m.astype(float)) * (ell1 - ell)


def certificate_holds(E: TimeSet, terms: np.ndarray) -> bool:
    """ell_m - ell_{m+1} <= 3 |E cap (ell_{m+1}, ell_m)| for all pairs."""
    hi, lo = terms[:-1], terms[1:]
    return not np.any(hi - lo > 3.0 * E.measure_in(lo, hi) + 1e-12)


def mu_from_beta(beta: float) -> float:
    return math.sqrt((beta + 2.0) / (beta + 1.0))


def telescoping_sequence(E: TimeSet, ell: float, beta: float, depth: int
                         ) -> DensitySequence:
    """Largest ell_1 in (ell, T) whose sequence, with mu = mu_from_beta(beta),
    passes the certificate.

    Scans ell_1 downward from the horizon in steps of one time cell.  ell
    is find_density_point(E), which has checked its proxy.
    """
    mu = mu_from_beta(beta)
    dt = E.dt
    ell1 = E.horizon - dt
    while ell1 > ell + dt / 2:
        terms = sequence_terms(ell, ell1, mu, depth)
        if certificate_holds(E, terms):
            return DensitySequence(ell1=ell1, mu=mu, terms=terms)
        ell1 -= dt
    raise ResolutionError(
        "no ell_1 passes the telescoping certificate at this grid resolution"
    )
