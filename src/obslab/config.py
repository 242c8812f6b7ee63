"""Experiment configuration: flat key = value text with sections.

The format is INI-style (configparser); every field has a default so a
missing section or key falls back cleanly.  All numeric constraints of
the downstream types are validated at parse time so a bad config fails
with the offending field named, before any computation starts.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .spectral import PhysicalParams, SpectralDomain

_DOMAIN_KINDS = ("interval", "rectangle")
_GENERATORS = ("random", "full", "fixture")
_SELECTORS = ("first", "direction", "full")


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
