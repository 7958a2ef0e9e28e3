"""Exception types shared across the package, and the probability rule.

Validation errors subclass ValueError so callers can catch either the
specific class or the built-in.
"""

# Absorbs decimal round-off in user-entered vectors, nothing more.
PROB_SUM_TOL = 1e-12


class BoundedAgentsError(Exception):
    """Base class for all package errors."""


class ValidationError(BoundedAgentsError, ValueError):
    """Invalid user-supplied input."""


class NonStochasticError(ValidationError):
    """A probability vector has an entry outside [0, 1] or does not sum to 1
    within PROB_SUM_TOL."""


class BadPayoffSignError(ValidationError):
    """Risky payoffs must satisfy xG > 0 > xB."""


class BadFlipProbError(ValidationError):
    """Nature flip probability must lie in (0, 0.5]."""


class SignalOutOfRangeError(ValidationError):
    """A signal index is outside 1..k."""


class BadProbabilityError(ValidationError):
    """A probability is outside [0, 1]."""


class BadEtaError(ValidationError):
    """Stopping probability must lie in (0, 1]."""


class DimensionMismatchError(ValidationError):
    """Policy and setting disagree on the signal count, or shapes clash."""


class TrivialSettingError(ValidationError):
    """The setting carries no information (pG == pB everywhere)."""


class TooManySignalsError(ValidationError):
    """Exhaustive partition search supports at most 6 signals."""


class GridTooLargeError(ValidationError):
    """Brute-force enumeration exceeds the candidate cap."""


class LengthMismatchError(ValidationError):
    """A supplied sequence has the wrong length."""


class MismatchedProblemsError(ValidationError):
    """Two reader problems differ in more than the prior."""


class NoMachinesError(ValidationError):
    """A machine-selection problem has no machines."""


class MissingUtilityEntryError(BoundedAgentsError):
    """The utility table lacks an entry a machine can produce."""


class ReducibleChainError(BoundedAgentsError):
    """The joint chain is not irreducible; stationary analysis is undefined.

    Carries the offending state labels in ``unreachable`` (states the initial
    pattern analysis found cut off in either direction).
    """

    def __init__(self, message, unreachable=()):
        super().__init__(message)
        self.unreachable = tuple(unreachable)


class SolveFailedError(BoundedAgentsError):
    """The stationary linear solve failed or left too large a residual."""


def check_distribution(probs, label: str, *label_args) -> None:
    """Raise NonStochasticError unless every entry of ``probs`` lies in [0, 1]
    and they sum to within PROB_SUM_TOL of 1; never normalizes. The message
    names the vector ``label % label_args``, formatted only on failure."""
    total = 0.0
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise NonStochasticError(f"{label % label_args} has entry {p!r} outside [0, 1]")
        total += p
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NonStochasticError(f"{label % label_args} sums to {total!r}, not 1")
