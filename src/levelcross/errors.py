"""Exception types shared across the package."""


class LevelCrossError(Exception):
    """Base class for all package-specific errors."""


class SpecParseError(LevelCrossError, ValueError):
    """A distribution spec string could not be parsed."""


class MomentUndefinedError(LevelCrossError, ValueError):
    """A required moment does not exist for the given parameters."""


class PrecisionError(LevelCrossError, ValueError):
    """The float arithmetic of a closed form broke down at the given inputs."""


class QuadratureError(LevelCrossError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SeriesTruncationError(LevelCrossError, RuntimeError):
    """A series was truncated before its tail bound was met."""
