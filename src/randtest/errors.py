"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of RandtestError so the CLI can map
them onto structured JSON error objects and exit code 1, leaving exit code 2
for usage errors.
"""

from __future__ import annotations


class RandtestError(Exception):
    """Base class for all domain errors raised by this package.

    Pickling keeps the type, the message and every field: a subclass whose
    constructor takes fields beyond its message is rebuilt without calling
    it, from `args` and the instance dict.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, fields):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(fields)
    return exc


class DimensionMismatch(RandtestError):
    """Input arrays have incompatible shapes."""


class RankDeficient(RandtestError):
    """Design matrix is numerically rank deficient."""


class DegenerateArm(RandtestError):
    """A treatment arm is too small for the requested estimator."""


class MixedClusterTreatment(RandtestError):
    """Treatment varies within a cluster."""


class EmptyStratum(RandtestError):
    """A stratum has no units or no weight."""


class InvalidSizes(RandtestError):
    """Design arm sizes are out of range."""


class SingularCovariance(RandtestError):
    """Covariate covariance matrix is singular."""


class AcceptanceTimeout(RandtestError):
    """Rejection sampling ran out of its budget of candidates."""

    def __init__(self, message: str, tries: int, acceptance_rate: float):
        super().__init__(message)
        self.tries = tries
        self.acceptance_rate = acceptance_rate


class TooLarge(RandtestError):
    """Assignment space exceeds the enumeration cap."""


class EmptyAcceptanceRegion(RandtestError):
    """No grid point survived CI inversion."""

    def __init__(self, message: str, nearest: float, max_p: float):
        super().__init__(message)
        self.nearest = nearest
        self.max_p = max_p


class ZeroSe(RandtestError):
    """Robust standard error is zero where a positive one is required."""


class ZeroDenominator(RandtestError):
    """Treatment column is fully explained by the covariates."""


class ParseError(RandtestError):
    """CSV cell failed to parse."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class InvalidConfig(RandtestError, ValueError):
    """A statistic, scheme or scenario setting is malformed."""


class InvariantViolation(RandtestError):
    """Loaded data violates a Dataset invariant."""


class UnknownScenario(RandtestError):
    """Scenario name is not a built-in."""
