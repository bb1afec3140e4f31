"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that filter loops and the benchmark harness can distinguish a numerically
broken update (recorded as a divergence) from a misconfigured campaign
(reported to the user) without string matching.
"""


class PukfError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveSemiDefinite(PukfError):
    """A matrix that must be PSD (a covariance, usually) is not."""


class NonSymmetricInput(PukfError):
    """A matrix that must be symmetric is asymmetric beyond tolerance."""


class NonFiniteEvaluation(PukfError):
    """A measurement or transition function returned NaN or infinity."""


class SingularInnovation(PukfError):
    """The innovation covariance is numerically singular."""


class SingularNoiseSqrt(PukfError):
    """The measurement-noise square root cannot be inverted."""


class EmptySample(PukfError):
    """A statistic was requested from an empty sample."""


class SingularCovariance(PukfError):
    """An estimate covariance cannot be inverted for a Mahalanobis norm."""


class GridTooSmall(PukfError):
    """A histogram grid misses more than the allowed particle mass."""


class ConfigError(PukfError):
    """A campaign configuration is invalid or inconsistent."""


class ReportIoError(PukfError):
    """A report or partial-result file could not be read or written."""
