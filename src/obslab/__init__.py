"""Numerical laboratory for observability of a coupled parabolic system."""

from .config import ExperimentConfig
from .control import (ControlField, ControlProblem, DualityCertificate,
                      estimate_L, solve_time_optimal, synthesize_null_control,
                      verify_bang_bang)
from .errors import (ConfigError, ConvergenceError, InfeasibleError,
                     InsufficientTruncationError, ObsLabError,
                     ResolutionError)
from .geometry import GoodTimeSet, SpaceTimeSet, TimeSet, good_time_set
from .observability import (InterpolationParams, interp_equivalence,
                            pointwise_failure_demo, telescope_chain_demo,
                            verify_integral_interpolation)
from .semigroup import ObservationSelector
from .spectral import PhysicalParams, SpectralDomain, interval, rectangle
from .trigpoly import TrigPoly, remez_check, sine_integral_bound

__all__ = [
    "ConfigError", "ControlField", "ControlProblem", "ConvergenceError",
    "DualityCertificate", "ExperimentConfig", "GoodTimeSet",
    "InfeasibleError", "InsufficientTruncationError", "InterpolationParams",
    "ObsLabError", "ObservationSelector", "PhysicalParams",
    "ResolutionError", "SpaceTimeSet", "SpectralDomain", "TimeSet",
    "TrigPoly", "estimate_L", "good_time_set", "interp_equivalence",
    "interval", "pointwise_failure_demo", "rectangle", "remez_check",
    "sine_integral_bound", "solve_time_optimal", "synthesize_null_control",
    "telescope_chain_demo", "verify_bang_bang", "verify_integral_interpolation",
]

__version__ = "0.1.0"
