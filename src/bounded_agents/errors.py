"""Exception types shared across the package, and the probability, number, list and key rules.

Validation errors subclass ValueError so callers can catch either the
specific class or the built-in.
"""

from collections.abc import Iterable, Mapping
from numbers import Integral, Real

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
    """Nature flip probability must lie in [sys.float_info.min, 0.5]."""


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


def check_real(value, name, interval=None, error=ValidationError) -> None:
    """Raise ``error``, naming ``name``, unless ``value`` is a number (a Real,
    and not a bool) that a float can hold and that lies in ``interval``, if
    one is given."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise error(f"{name} is beyond the float range") from None
    _check_interval(value, name, interval, error)


def check_integer(value, name, interval=None, error=ValidationError) -> None:
    """Raise ``error``, naming ``name``, unless ``value`` is an integer (an
    Integral, and not a bool) that lies in ``interval``, if one is given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    _check_interval(value, name, interval, error)


def _check_interval(value, name, interval, error) -> None:
    """``interval`` is written as the message shows it, such as "(0, 1]" or
    "[0, inf)". NaN lies in no interval, and an infinity only at a closed end."""
    if interval is None:
        return
    lo, hi, lo_open, hi_open = _bounds(interval)
    if not ((lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
        raise error(f"{name} must be in {interval}, got {value}")


def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "(", interval[-1] == ")"


def check_list(value, name, length=None, each=None, interval=None, error=ValidationError) -> tuple:
    """``value`` as a tuple, once it is a list (any iterable but a string, bytes or a
    mapping) of ``length`` entries, if given, each passing ``each`` (check_real or
    check_integer) with ``interval``; else raise ``error``, naming ``name``."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise error(f"{name} must be a list, got {value!r}")
    items = tuple(value)
    if length is not None and len(items) != length:
        raise error(f"{name} must have {length} entries, got {len(items)}")
    if each is not None:
        for item in items:
            each(item, f"{name} entry", interval, error)
    return items


def check_object(doc, what) -> None:
    """Raise ValidationError, naming ``what``, unless ``doc`` is a JSON object."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")


def check_keys(doc, what, required, optional=()) -> None:
    """Raise ValidationError, naming ``what`` and the keys, unless ``doc`` is a JSON
    object with every key in ``required`` and none outside ``required`` and ``optional``."""
    check_object(doc, what)
    if missing := [key for key in required if key not in doc]:
        raise ValidationError(f"{what} missing keys: {missing}")
    allowed = {*required, *optional}
    if unknown := [key for key in doc if key not in allowed]:
        raise ValidationError(f"{what} has unknown keys: {unknown}")
