"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that a campaign books a filter step's ``NumericalFailure``, and nothing else,
as a divergence, and stops on any other error (a misconfigured campaign, say)
without string matching.
"""


class PukfError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(PukfError):
    """A filter step failed numerically; the harness records a divergence."""


class NotPositiveSemiDefinite(NumericalFailure):
    """A matrix that must be PSD (a covariance, usually) is not."""


class NonSymmetricInput(NumericalFailure):
    """A matrix that must be symmetric is asymmetric beyond tolerance."""


class NonFiniteEvaluation(NumericalFailure):
    """A measurement or transition function returned NaN or infinity."""


class SingularInnovation(NumericalFailure):
    """The innovation covariance is numerically singular."""


class SingularNoiseSqrt(NumericalFailure):
    """The measurement-noise square root cannot be inverted."""


class EigenSolverFailure(NumericalFailure):
    """A LAPACK symmetric eigensolver did not converge."""


class EmptySample(PukfError):
    """A statistic was requested from an empty sample."""


class SingularCovariance(NumericalFailure):
    """An estimate covariance cannot be inverted for a Mahalanobis norm."""


class GridTooSmall(PukfError):
    """A histogram grid misses more than the allowed particle mass."""


class ConfigError(PukfError):
    """A campaign configuration is invalid or inconsistent."""


class ReportIoError(PukfError):
    """A report or partial-result file could not be read or written."""
