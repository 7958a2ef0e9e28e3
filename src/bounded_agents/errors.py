"""Exception types shared across the package, and the probability rule.

Validation errors subclass ValueError so callers can catch either the
specific class or the built-in.
"""

import numpy as np

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


def stochastic_rows(probs) -> np.ndarray:
    """Mask of the rows of ``probs`` along its last axis that are
    distributions: every entry in [0, 1] and a sum, taken left to right,
    within PROB_SUM_TOL of 1."""
    probs = np.asarray(probs, dtype=float)
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=-1)
    return in_range & (np.abs(_sum(probs) - 1.0) <= PROB_SUM_TOL)


def _sum(probs: np.ndarray) -> np.ndarray:
    return np.add.accumulate(probs, axis=-1)[..., -1] if probs.shape[-1] else probs.sum(-1)


def check_distribution(probs, label) -> None:
    """Raise NonStochasticError unless every row of ``probs`` is a
    distribution (see stochastic_rows); never normalizes. The message names
    the first faulty row: ``label`` for a vector, ``label(*index)`` for a row
    of a larger array, so that name is formatted only on failure."""
    probs = np.asarray(probs, dtype=float)
    ok = stochastic_rows(probs)
    if ok.all():
        return
    index = np.unravel_index(np.argmin(ok), ok.shape)
    row = probs[index]
    name = label(*map(int, index)) if callable(label) else label
    outside = row[~((row >= 0.0) & (row <= 1.0))]
    if outside.size:
        raise NonStochasticError(f"{name} has entry {float(outside[0])!r} outside [0, 1]")
    raise NonStochasticError(f"{name} sums to {float(_sum(row))!r}, not 1")
