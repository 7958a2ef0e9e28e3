"""Single-decision problem against a fixed hidden state.

Nature is G or B once and for all; the agent consumes signals until a
geometric deadline (probability eta per round, applied after the
transition) and then reads a decision off its final state. Evaluation is
exact: the stopped-state distribution under each truth comes from the
resolvent formula, and the demos propagate full distributions instead of
sampling, so their outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automaton import AutomatonPolicy, check_policy
from .errors import (
    BadEtaError,
    SignalOutOfRangeError,
    ValidationError,
    check_integer,
    check_list,
    check_real,
)
from .dynamic_env import check_signals
from .markov_exact import (
    ETA_INTERVAL, agent_step_matrix, dense_matrix, stopped_state_distribution,
)

DECISIONS = ("G", "B")


@dataclass(frozen=True)
class StaticSetting:
    """Signal model, deadline, decision utilities, and prior for one decision.

    utility[d][t] is the payoff of deciding DECISIONS[d] when the truth is
    DECISIONS[t].
    """

    k: int
    pG: tuple[float, ...]
    pB: tuple[float, ...]
    eta: float
    utility: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))
    prior_G: float = 0.5

    def __post_init__(self):
        pG, pB = check_signals(self.k, self.pG, self.pB)
        object.__setattr__(self, "pG", pG)
        object.__setattr__(self, "pB", pB)
        check_real(self.eta, "eta", ETA_INTERVAL, BadEtaError)
        check_real(self.prior_G, "prior_G", "[0, 1]")
        rows = check_list(self.utility, "utility", 2)
        object.__setattr__(self, "utility", tuple(
            tuple(map(float, check_list(row, "utility row", 2, check_real, "(-inf, inf)")))
            for row in rows))


@dataclass(frozen=True)
class DecisionRule:
    """A decision label per automaton state."""

    decide: tuple[str, ...]

    def __post_init__(self):
        decide = check_list(self.decide, "rule")
        if other := [d for d in decide if d not in DECISIONS]:
            raise ValidationError(f"rule entry must be one of {DECISIONS}, got {other[0]!r}")
        object.__setattr__(self, "decide", decide)


def threshold_rule(num_states: int) -> DecisionRule:
    """Midpoint rule: decide G iff the state index is below num_states/2."""
    return DecisionRule(
        decide=tuple("G" if q < num_states / 2 else "B" for q in range(num_states))
    )


def static_expected_utility(
    setting: StaticSetting, policy: AutomatonPolicy, rule: DecisionRule
) -> float:
    """Exact expected utility of (policy, rule) under the geometric deadline."""
    check_policy(policy, setting.k)
    # The dense step and resolvent matrices peak at 24 bytes a pair of
    # states (tracemalloc), so 2000 states stay under 100 MB.
    check_integer(policy.num_states, "policy state count", "[1, 2000]")
    check_list(rule.decide, "rule", policy.num_states)
    d0 = np.zeros(policy.num_states)
    d0[policy.initial_state] = 1.0
    total = 0.0
    for truth_idx, (prior, probs) in enumerate(
        ((setting.prior_G, setting.pG), (1.0 - setting.prior_G, setting.pB))
    ):
        if prior == 0.0:
            continue
        step = dense_matrix(agent_step_matrix(policy, probs))
        stopped = stopped_state_distribution(step, d0, setting.eta)
        for q in range(policy.num_states):
            d_idx = DECISIONS.index(rule.decide[q])
            total += prior * stopped[q] * setting.utility[d_idx][truth_idx]
    return total


def propagate_sequence(
    policy: AutomatonPolicy, start: int, sequence: Sequence[int]
) -> list[np.ndarray]:
    """State distribution after each prefix of an explicit signal sequence.

    The empty prefix is included, so the result has len(sequence) + 1
    entries and starts with the point mass at ``start``. A signal outside
    1..k raises SignalOutOfRangeError before any signal is read.
    """
    check_integer(start, "start", f"[0, {policy.num_states})")
    k = policy.prob.shape[1]
    sequence = check_list(sequence, "sequence", each=check_integer, interval=f"[1, {k}]",
                          error=SignalOutOfRangeError)
    dist = np.zeros(policy.num_states)
    dist[start] = 1.0
    out = [dist]
    for s in sequence:
        dist = np.zeros_like(dist)
        np.add.at(dist, policy.next_state[:, s - 1], out[-1][:, None] * policy.prob[:, s - 1])
        out.append(dist)
    return out


def decision_distribution(dist: np.ndarray, rule: DecisionRule) -> dict[str, float]:
    masses = {d: 0.0 for d in DECISIONS}
    for q, mass in enumerate(dist):
        masses[rule.decide[q]] += float(mass)
    return masses


def modal_decision(masses: dict[str, float]) -> str:
    # Ties break toward G so demos stay deterministic.
    return "G" if masses["G"] >= masses["B"] else "B"


@dataclass(frozen=True)
class PolarizationResult:
    decision_dist_a: dict[str, float]
    decision_dist_b: dict[str, float]
    modal_a: str
    modal_b: str
    diverged: bool


def polarization_demo(
    policy: AutomatonPolicy,
    start_a: int,
    start_b: int,
    sequence: Sequence[int],
    rule: DecisionRule,
) -> PolarizationResult:
    """Two starts, one signal sequence; do the modal decisions differ?

    Identical starts are allowed as a negative control and trivially never
    diverge.
    """
    check_list(rule.decide, "rule", policy.num_states)
    check_integer(start_a, "start_a", f"[0, {policy.num_states})")
    check_integer(start_b, "start_b", f"[0, {policy.num_states})")
    final_a = propagate_sequence(policy, start_a, sequence)[-1]
    final_b = propagate_sequence(policy, start_b, sequence)[-1]
    dist_a = decision_distribution(final_a, rule)
    dist_b = decision_distribution(final_b, rule)
    modal_a, modal_b = modal_decision(dist_a), modal_decision(dist_b)
    return PolarizationResult(
        decision_dist_a=dist_a,
        decision_dist_b=dist_b,
        modal_a=modal_a,
        modal_b=modal_b,
        diverged=modal_a != modal_b,
    )


@dataclass(frozen=True)
class FirstImpressionResult:
    forward: str
    reversed: str
    order_sensitive: bool


def first_impression_demo(
    policy: AutomatonPolicy,
    start: int,
    sequence: Sequence[int],
    rule: DecisionRule,
) -> FirstImpressionResult:
    """Same evidence in both orders; does the modal decision change?"""
    check_list(rule.decide, "rule", policy.num_states)
    seq = check_list(sequence, "sequence")
    if not seq:
        raise ValidationError("sequence must be nonempty")
    fwd = propagate_sequence(policy, start, seq)[-1]
    rev = propagate_sequence(policy, start, seq[::-1])[-1]
    d_fwd = modal_decision(decision_distribution(fwd, rule))
    d_rev = modal_decision(decision_distribution(rev, rule))
    return FirstImpressionResult(forward=d_fwd, reversed=d_rev, order_sensitive=d_fwd != d_rev)
