"""Costly sequential evidence reading with an exactly optimal stopping rule.

A hidden bit is 1 with probability prior1; each of n available signals
independently equals the bit with probability rho > 1/2, and reading one
costs c. Guessing right pays 1 minus total reading cost, guessing wrong
pays minus the cost alone. The posterior depends on the evidence only
through d = #ones - #zeros, so backward induction runs on the O(n^2)
grid of (reads so far, count difference):

    W(n, d) = max(post, 1 - post)
    W(i, d) = max(W_stop, -c + P(next=1 | d) W(i+1, d+1)
                          + P(next=0 | d) W(i+1, d-1))

W values are net of future reading costs and exclude sunk ones, so the
total expected utility of the optimal reader is W(0, 0). Ties between
stopping and continuing resolve to stop, which makes the boundary
deterministic and is what produces order effects: two readings of the
same evidence can exit at different boundary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MismatchedProblemsError,
    ValidationError,
    check_integer,
    check_list,
    check_real,
)


@dataclass(frozen=True)
class ReaderProblem:
    n: int
    rho: float
    c: float
    prior1: float = 0.5

    def __post_init__(self):
        # The upper end keeps W and stop, 9 bytes a cell over (n + 1)(2n + 1)
        # cells, under 300 MB, so every accepted n can be solved.
        check_integer(self.n, "n", "[1, 4000]")
        check_real(self.rho, "rho", "(0.5, 1)")
        check_real(self.c, "c", "[0, inf)")
        check_real(self.prior1, "prior1", "(0, 1)")


def posterior(problem: ReaderProblem, d: int) -> float:
    """P(bit = 1) after count difference d, via log-odds for stability."""
    if abs(d) > problem.n:
        raise ValidationError(f"|d| = {abs(d)} exceeds n = {problem.n}")
    if d == 0:
        return problem.prior1
    logit = math.log(problem.prior1 / (1.0 - problem.prior1))
    logit += d * math.log(problem.rho / (1.0 - problem.rho))
    if logit >= 0:
        return 1.0 / (1.0 + math.exp(-logit))
    e = math.exp(logit)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ReaderDPTable:
    """Tables over the full grid |d| <= i, as (n + 1, 2n + 1) arrays indexed [i, d + n].

    Row i covers d = -i..i in steps of 1; cells with |d| > i hold NaN in W
    and False in stop. Walks only visit d with the parity of i, but the
    recursion is parity-independent, so the whole triangle is computed; that
    makes boundary statements checkable at every (i, d), not just reachable ones.
    """

    problem: ReaderProblem
    W: np.ndarray
    stop: np.ndarray

    def value(self, i: int, d: int) -> float:
        return float(self.W[self._cell(i, d)])

    def should_stop(self, i: int, d: int) -> bool:
        return bool(self.stop[self._cell(i, d)])

    def _cell(self, i: int, d: int) -> tuple[int, int]:
        if abs(d) > i or not (0 <= i <= self.problem.n):
            raise ValidationError(f"(i={i}, d={d}) is outside the table")
        return i, d + self.problem.n


def solve_reader_dp(problem: ReaderProblem) -> ReaderDPTable:
    """Backward induction over (reads, count difference), one row per step."""
    n, rho, c = problem.n, problem.rho, problem.c
    W = np.full((n + 1, 2 * n + 1), np.nan)
    stop = np.zeros((n + 1, 2 * n + 1), dtype=bool)
    post = np.array([posterior(problem, d) for d in range(-n, n + 1)])
    stop_value = np.maximum(post, 1.0 - post)
    p_next_one = post * rho + (1.0 - post) * (1.0 - rho)
    W[n] = stop_value
    stop[n] = True
    for i in range(n - 1, -1, -1):
        row = slice(n - i, n + i + 1)
        up = W[i + 1, n - i + 1:n + i + 2]
        down = W[i + 1, n - i - 1:n + i]
        p1 = p_next_one[row]
        cont = -c + p1 * up + (1.0 - p1) * down
        stop[i, row] = ~(cont > stop_value[row])  # ties stop
        W[i, row] = np.where(stop[i, row], stop_value[row], cont)
    return ReaderDPTable(problem=problem, W=W, stop=stop)


@dataclass(frozen=True)
class ReaderRun:
    guess: int
    reads: int
    trajectory: tuple[int, ...]  # count difference after each processed read


def _guess_from_d(problem: ReaderProblem, d: int) -> int:
    return 1 if posterior(problem, d) >= 0.5 else 0


def _bits(problem: ReaderProblem, sequence: Sequence[int]) -> tuple[int, ...]:
    """``sequence`` as a tuple, once it is n bits."""
    return check_list(sequence, "sequence", problem.n, check_integer, "[0, 1]")


def simulate_reader(table: ReaderDPTable, sequence: Sequence[int]) -> ReaderRun:
    """Walk an explicit bit sequence, stopping at the first stop state."""
    return _walk(table, _bits(table.problem, sequence))


def _walk(table: ReaderDPTable, seq: tuple[int, ...]) -> ReaderRun:
    """simulate_reader on a checked sequence."""
    problem = table.problem
    i = 0
    d = 0
    trajectory = []
    while i < problem.n and not table.should_stop(i, d):
        d += 1 if seq[i] else -1
        i += 1
        trajectory.append(d)
    return ReaderRun(
        guess=_guess_from_d(problem, d), reads=i, trajectory=tuple(trajectory)
    )


@dataclass(frozen=True)
class FirstImpressionReport:
    forward: int
    reversed: int
    differs: bool
    full_info_guess: int


def first_impression_reader(
    table: ReaderDPTable, sequence: Sequence[int]
) -> FirstImpressionReport:
    """Run the optimal reader on a sequence and its reversal.

    full_info_guess uses all n bits and is order-free; a differing pair of
    guesses around it is pure order sensitivity.
    """
    seq = _bits(table.problem, sequence)
    fwd, rev = _walk(table, seq), _walk(table, seq[::-1])
    d_total = sum(1 if b else -1 for b in seq)
    return FirstImpressionReport(
        forward=fwd.guess,
        reversed=rev.guess,
        differs=fwd.guess != rev.guess,
        full_info_guess=_guess_from_d(table.problem, d_total),
    )


@dataclass(frozen=True)
class PolarizationReport:
    guess_a: int
    guess_b: int
    diverged: bool


def polarization_reader(
    table_a: ReaderDPTable, table_b: ReaderDPTable, sequence: Sequence[int]
) -> PolarizationReport:
    """Two readers differing only in prior see the same evidence."""
    a, b = table_a.problem, table_b.problem
    if (a.n, a.rho, a.c) != (b.n, b.rho, b.c):
        raise MismatchedProblemsError(
            "problems must be identical except for the prior"
        )
    seq = _bits(a, sequence)
    guess_a, guess_b = _walk(table_a, seq).guess, _walk(table_b, seq).guess
    return PolarizationReport(guess_a=guess_a, guess_b=guess_b, diverged=guess_a != guess_b)


def disregard_index(table: ReaderDPTable) -> int:
    """First read count at which every reachable d stops.

    Reachable means d with the parity of i (paths change d by one per
    read), so this bounds the reads m along any path. Row n stops by
    construction, so the index always exists.
    """
    n = table.problem.n
    for i in range(n + 1):
        if table.stop[i, n - i:n + i + 1:2].all():
            return i
    raise AssertionError("unreachable: terminal row always stops")
