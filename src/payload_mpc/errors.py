"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or inconsistent problem dimensions."""


class ParameterRangeError(ValueError):
    """Wrench parameter outside the numerically safe range."""


class InversionError(RuntimeError):
    """The wrench parametrization could not be inverted for the given target."""


class InfeasiblePhaseError(RuntimeError):
    """A prediction stage has no active contact (flight phases are unsupported)."""


class SolverFailure(RuntimeError):
    """Hard solver failure; carries the best iterate found so far."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NonFiniteStartError(SolverFailure, ValueError):
    """The solver's starting point, or its objective there, is not finite.

    A `SolverFailure`, so a closed loop ends the run with the reason, and a
    `ValueError`, because the caller handed the solver an unusable point.
    """
