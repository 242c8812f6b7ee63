"""Exception types shared across the laboratory modules."""


class ObsLabError(Exception):
    """Base class for all obslab-specific failures."""


class InsufficientTruncationError(ObsLabError):
    """The stored spectral truncation cannot answer the query exactly."""


class ResolutionError(ObsLabError):
    """The grid is too coarse to certify the requested property."""


class ConvergenceError(ObsLabError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class InfeasibleError(ObsLabError):
    """A feasibility problem has no admissible solution at the given horizon."""


class PropertyViolation(ObsLabError):
    """A property the laboratory verifies on every call failed to hold."""


def require(holds, message: str) -> None:
    """Raise PropertyViolation(message) unless holds; stays on under -O."""
    if not holds:
        raise PropertyViolation(message)


class ConfigError(ObsLabError):
    """A configuration file failed validation; carries the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
