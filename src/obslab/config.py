"""Experiment configuration: flat key = value text with sections.

The format is INI-style (configparser); every field has a default so a
missing section or key falls back cleanly.  This is the one place
parameter ranges are checked: each is validated at parse time, so a bad
config fails with the offending field named before any computation
starts, and the library types (SpectralDomain, PhysicalParams,
InterpolationParams, ControlProblem, ...) take config values as given.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError
from .spectral import PhysicalParams, SpectralDomain

_DOMAIN_KINDS = ("interval", "rectangle")
_GENERATORS = ("random", "full", "fixture")
_SELECTORS = ("first", "direction", "full")
# every norm sums squares, so the slowest decay's square exp(-2 x) must be a
# normal float: x up to this, about 354.2
_DECAY_LIMIT = -math.log(sys.float_info.min) / 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    # [domain]
    kind: str = "interval"
    lx: float = math.pi
    ly: float = math.pi
    nx: int = 256
    ny: int = 64
    n_modes: int = 16
    # [system]
    a: float = 1.0
    b: float = 1.0
    horizon: float = 1.0
    # [observation]
    generator: str = "random"
    fill: float = 0.3
    min_fraction: float = 0.1
    n_time: int = 64
    fixture: str = ""
    selector: str = "first"
    mu1: float = 1.0
    mu2: float = 0.0
    # [interpolation]
    theta: float = 0.5
    beta: float = 1.0
    s1: float = 0.25
    s2: float = 0.75
    depth: int = 6
    # [control]
    nu1: float = -1.0
    nu2: float = 1.0
    radius: float = 0.1
    tol: float = 0.01
    # [sweep]
    remez_cases: int = 10_000
    sine_cases: int = 10_000
    geometry_cases: int = 1_000
    equivalence_cases: int = 100
    batch: int = 32
    # [run]
    seed: int = 0

    _SECTIONS = {
        "domain": ("kind", "lx", "ly", "nx", "ny", "n_modes"),
        "system": ("a", "b", "horizon"),
        "observation": ("generator", "fill", "min_fraction", "n_time",
                        "fixture", "selector", "mu1", "mu2"),
        "interpolation": ("theta", "beta", "s1", "s2", "depth"),
        "control": ("nu1", "nu2", "radius", "tol"),
        "sweep": ("remez_cases", "sine_cases", "geometry_cases",
                  "equivalence_cases", "batch"),
        "run": ("seed",),
    }

    def __post_init__(self):
        def bad(section, key, msg):
            raise ConfigError(f"{section}.{key}", msg)

        # NaN passes every comparison check below; each float must be finite
        for section, keys in self._SECTIONS.items():
            for key in keys:
                value = getattr(self, key)
                if isinstance(value, float) and not math.isfinite(value):
                    bad(section, key, f"must be finite, got {value!r}")
        if self.kind not in _DOMAIN_KINDS:
            bad("domain", "kind", f"must be one of {_DOMAIN_KINDS}")
        for key in ("lx", "ly"):
            if getattr(self, key) <= 0:
                bad("domain", key, "side length must be positive")
        for key in ("nx", "ny", "n_modes"):
            if getattr(self, key) < 1:
                bad("domain", key, "must be a positive integer")
        if self.a <= 0:
            bad("system", "a", "diffusion coefficient must be positive")
        if self.b == 0:
            bad("system", "b", "coupling coefficient must be nonzero")
        if self.horizon <= 0:
            bad("system", "horizon", "time horizon must be positive")
        # lam(i) sums (i pi / side)^2 over the sides, inf on overflow; the
        # spectrum squares indices up to n_modes, n_modes + 1 per axis on a
        # rectangle, so lam(top) bounds every eigenvalue it computes
        sides = ("lx",) if self.kind == "interval" else ("lx", "ly")

        def lam(i):
            return sum(x * x for x in (i * math.pi / getattr(self, s) for s in sides))

        lam_1, lam_top = lam(1), lam(self.n_modes + len(sides) - 1)
        longest = max(sides, key=lambda s: getattr(self, s))
        if not math.isfinite(lam_top):
            bad("domain", min(sides, key=lambda s: getattr(self, s)),
                "side too short: the eigenvalues overflow")
        if not lam_1 >= sys.float_info.min:
            bad("domain", longest, "side too long: lambda_1 is not a normal float")
        decay = self.a * lam_1 * self.horizon
        if decay > _DECAY_LIMIT:
            key = "a" if self.a * lam_1 >= self.horizon else "horizon"
            bad("system", key, f"a * lambda_1 * horizon = {decay:.6g} exceeds "
                f"{_DECAY_LIMIT:.6g}: the square of the slowest mode's decay, "
                "which every norm sums, falls below the normal floats")
        for key in ("a", "b"):       # mode_factors' exponents lambda * a|b * t
            rate = abs(getattr(self, key)) * lam_top * max(1.0, self.horizon)
            if not math.isfinite(rate):
                bad("system", key, f"lambda * {key} * t overflows in the mode tables")
        if self.generator not in _GENERATORS:
            bad("observation", "generator", f"must be one of {_GENERATORS}")
        if self.generator == "fixture" and not self.fixture:
            bad("observation", "fixture", "fixture generator needs a path")
        if not 0.0 < self.fill <= 1.0:
            bad("observation", "fill", "must lie in (0, 1]")
        if not 0.0 <= self.min_fraction <= 1.0:
            bad("observation", "min_fraction", "must lie in [0, 1]")
        if self.n_time < 2:
            bad("observation", "n_time", "need at least 2 time cells")
        # the Gram weighs a region cell by (dt * cell volume)^2
        cells = self.nx if self.kind == "interval" else self.nx * self.ny
        dt = self.horizon / self.n_time
        volume = math.prod(getattr(self, s) for s in sides) / cells
        weight = dt * volume
        if not math.isfinite(weight * weight):
            section, key, what = (("system", "horizon", "horizon") if dt >= volume
                                  else ("domain", longest, "side"))
            bad(section, key, f"{what} too long: the squared cell weight "
                "(dt * cell volume)^2 overflows")
        if self.selector not in _SELECTORS:
            bad("observation", "selector", f"must be one of {_SELECTORS}")
        if self.selector == "direction" and abs(self.mu1) + abs(self.mu2) == 0:
            bad("observation", "mu1", "direction selector needs a nonzero (mu1, mu2)")
        if not 0.0 < self.theta < 1.0:
            bad("interpolation", "theta", "must lie in (0, 1)")
        if self.beta <= 0:
            bad("interpolation", "beta", "must be positive")
        if not 0.0 < self.s1 < self.s2:
            bad("interpolation", "s1", "require 0 < s1 < s2")
        if self.s2 > self.horizon:
            bad("interpolation", "s2", "must not exceed the horizon")
        if self.depth < 4:
            bad("interpolation", "depth", "need depth >= 4: the telescoping "
                "chain's first ring observation term is ring m = 2")
        if not self.nu1 < self.nu2:
            bad("control", "nu1", "bounds must satisfy nu1 < nu2")
        if self.radius <= 0:
            bad("control", "radius", "target radius must be positive")
        if not 1e-6 < self.tol < 1e-1:
            bad("control", "tol", "must lie in (1e-6, 1e-1)")
        for key in ("remez_cases", "sine_cases", "geometry_cases",
                    "equivalence_cases", "batch"):
            if getattr(self, key) < 1:
                bad("sweep", key, "must be a positive integer")
        if self.seed < 0:
            bad("run", "seed", "must be a nonnegative integer")

    # -- parsing ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError("<file>", f"not parseable: {exc}") from exc
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ConfigError(section, "unknown section")
            for key, raw in parser.items(section):
                if key not in cls._SECTIONS[section]:
                    raise ConfigError(f"{section}.{key}", "unknown key")
                kind = types[key]
                try:
                    if kind == "int":
                        values[key] = int(raw)
                    elif kind == "float":
                        values[key] = float(raw)
                    else:
                        values[key] = raw
                except ValueError:
                    raise ConfigError(f"{section}.{key}",
                                      f"cannot parse {raw!r} as {kind}")
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("<file>", str(exc)) from exc
        return cls.from_text(text)

    def to_text(self) -> str:
        """Canonical echo: every field, fixed section and key order."""
        lines = []
        for section, keys in self._SECTIONS.items():
            lines.append(f"[{section}]")
            for key in keys:
                value = getattr(self, key)
                text = value if isinstance(value, str) else repr(value)
                lines.append(f"{key} = {text}")
            lines.append("")
        return "\n".join(lines)

    def experiment_id(self) -> str:
        digest = hashlib.sha256(self.to_text().encode()).hexdigest()
        return digest[:12]

    # -- builders -----------------------------------------------------

    def build_domain(self) -> SpectralDomain:
        if self.kind == "interval":
            return SpectralDomain((self.lx,), self.n_modes, (self.nx,))
        return SpectralDomain((self.lx, self.ly), self.n_modes, (self.nx, self.ny))

    def build_params(self) -> PhysicalParams:
        return PhysicalParams(self.a, self.b)

    def replaced(self, **changes) -> "ExperimentConfig":
        from dataclasses import replace
        return replace(self, **changes)
