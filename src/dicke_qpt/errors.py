"""Exception types raised across the package."""


class DickeError(Exception):
    """Base class for all package errors."""


class ParameterError(DickeError, ValueError):
    """A model parameter or input is outside its allowed domain."""


class CapacityError(DickeError):
    """A requested basis or matrix exceeds the configured size ceiling."""


class SolverError(DickeError):
    """The eigensolver failed to certify an eigenpair.

    Carries the best residual reached in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CutoffConvergenceError(DickeError):
    """The boson-cutoff escalation hit the capacity ceiling before converging.

    ``energy_history`` records the ground-energy sequence observed.
    """

    def __init__(self, message, energy_history=()):
        super().__init__(message)
        self.energy_history = tuple(energy_history)


class IntegrityError(DickeError):
    """A numerical invariant (trace, positivity, normalization) was violated."""


class PhaseError(DickeError, ValueError):
    """A closed-form expression was evaluated in the wrong coupling phase."""


class FitError(DickeError):
    """A scaling fit could not be performed on the given data."""


class ConfigError(DickeError, ValueError):
    """A sweep configuration is invalid."""
