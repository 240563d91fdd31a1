"""Exception taxonomy shared across the package.

``ConfigError`` maps to CLI exit code 2, every ``NumericalError`` subclass
to exit code 3.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid experiment configuration or command-line usage."""


class NumericalError(Exception):
    """Base class for runtime numerical failures. ``at``, where given, is
    the value of the integration variable at which the failure happened."""

    def __init__(self, message: str = "", at: float | None = None) -> None:
        super().__init__(message)
        self.at = at


class DomainError(NumericalError):
    """A point lies outside the domain of validity of an operation."""


class NonFinite(NumericalError):
    """A sampled or computed value is NaN or infinite."""


class CriticalPoint(NumericalError):
    """Schwarzian derivative requested where |f'| is numerically zero."""


class NoRealRoot(NumericalError):
    """The shifted polynomial equation has no positive real root."""


class Pole(NumericalError):
    """Fractional linear transformation evaluated too close to its pole."""


class RangeError(NumericalError):
    """Conjugation target leaves the range of the conjugating map."""


class StepSizeUnderflow(NumericalError):
    """Adaptive integrator was forced below the smallest usable step."""


class StepBudgetExhausted(NumericalError):
    """Adaptive integrator used up its attempt budget before x_end."""


class BlowUp(NumericalError):
    """Integrated state exceeded the blow-up guard."""


class AmplitudeCollapse(NumericalError):
    """Amplitude fell below the collapse floor where the equation is singular."""


class GridTooSmall(NumericalError):
    """Grid has too few points for the requested stencil."""


class OutOfRange(NumericalError):
    """Requested point lies outside an interpolant's covered interval."""


class DomainEscape(NumericalError):
    """The map sends requested points outside the seed solution's domain."""


class NegativeJacobian(NumericalError):
    """f'(x) <= 0 where a positive Jacobian is required."""


class ConstraintViolated(UserWarning):
    """Closed-form amplitude requested with b*v^6 + c^2 != 0."""
