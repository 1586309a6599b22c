"""Exception hierarchy shared across the package.

The command line maps these onto exit codes: parameter/config/domain
problems exit with 2, numerical failures with 3, and cross-check
disagreements with 4.
"""


class OvwaveError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(OvwaveError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ParameterError):
    """An experiment configuration file is malformed or inconsistent."""


class BracketError(ParameterError):
    """A supplied interval does not bracket the requested sign change."""


class DomainError(OvwaveError, ValueError):
    """Evaluation was requested outside a function's or trajectory's domain."""


class NumericalError(OvwaveError, RuntimeError):
    """A numerical procedure failed to converge or produced invalid values."""


class StepSizeError(NumericalError):
    """The adaptive step size underflowed; the problem defeats this method."""


class RootFinderError(NumericalError):
    """Located complex roots could not be reconciled with the phase count."""


class SingularityError(NumericalError):
    """A formula was evaluated where its denominator vanishes."""


class ConsistencyError(OvwaveError):
    """Two independent computations of the same quantity disagree."""
