"""Exception types shared across the package."""


class HsvarError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(HsvarError, ValueError):
    """A scalar parameter is outside its admissible range."""


class InvalidGridError(HsvarError, ValueError):
    """Grid construction arguments are malformed."""


class GridMismatchError(HsvarError, ValueError):
    """Two operands live on different grids."""


class DegenerateInputError(HsvarError, ValueError):
    """An operation received an identically-zero state."""


class NoProjectionError(HsvarError, RuntimeError):
    """The scaling equation onto the constraint set has no solution."""


class PreconditionError(HsvarError, RuntimeError):
    """A precondition (e.g. on-manifold input) is violated."""


class DegeneratePathError(HsvarError, RuntimeError):
    """A min-max path collapsed onto one of its endpoints."""


class ConfigError(HsvarError, ValueError):
    """A run configuration failed validation."""
