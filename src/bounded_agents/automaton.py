"""Probabilistic finite-state policies over signal observations.

A policy has one action label per state and, for each (state, observation)
pair, a distribution over next states. States whose action is SAFE observe
nothing (the distinct NO_SIGNAL observation); every other state observes
one of the signals 1..k.

Two constructors cover the families used elsewhere:

* ``build_a_family``: a ladder of N+1 states. State 0 plays safe and
  explores with probability ``p_exp``; states 1..N play risky and climb on
  signals in ``pos`` (probability ``r_u``), descend on signals in ``neg``
  (probability ``r_d``, from state 1 back to the safe state), and ignore
  the rest. The top rung absorbs further positive signals.
* ``build_linear_sticky``: a left-to-right ladder that reacts to exactly
  two signals with per-state move probabilities; small escape
  probabilities at the ends make first impressions persistent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    BadProbabilityError,
    DimensionMismatchError,
    SignalOutOfRangeError,
    ValidationError,
    check_distribution,
)

SAFE = "Safe"
RISKY = "Risky"
HOLD = "hold"

# Observation key used by SAFE states; risky/hold states use signals 1..k.
NO_SIGNAL = None

# kernel maps (state, observation) -> {next_state: probability}
Kernel = Mapping[tuple[int, "int | None"], Mapping[int, float]]


@dataclass(frozen=True)
class AutomatonPolicy:
    """Immutable finite-state policy; safe to share across threads."""

    num_states: int
    initial_state: int
    actions: tuple[str, ...]
    kernel: dict[tuple[int, int | None], dict[int, float]]

    def observations(self, state: int, k: int) -> tuple:
        """Observation keys consumed in ``state`` for a k-signal environment."""
        if self.actions[state] == SAFE:
            return (NO_SIGNAL,)
        return tuple(range(1, k + 1))


def kernel_row(policy: AutomatonPolicy, state: int, signal: int) -> Mapping[int, float]:
    """Next-state distribution of ``state`` on ``signal``. A Safe state
    observes nothing, so it takes its NoSignal row whatever the signal; any
    other state without a row for ``signal`` raises SignalOutOfRangeError."""
    obs = NO_SIGNAL if policy.actions[state] == SAFE else signal
    try:
        return policy.kernel[(state, obs)]
    except KeyError:
        raise SignalOutOfRangeError(f"state {state} has no row for signal {signal}") from None


def check_policy(policy: AutomatonPolicy, k: int) -> None:
    """Raise unless every kernel row is stochastic and keyed as required; keys
    other than the observations of signals 1..k raise DimensionMismatchError."""
    if not (0 <= policy.initial_state < policy.num_states):
        raise ValidationError(f"initial state {policy.initial_state} out of range")
    if len(policy.actions) != policy.num_states:
        raise ValidationError("one action label required per state")
    expected_keys = set()
    for q in range(policy.num_states):
        for obs in policy.observations(q, k):
            expected_keys.add((q, obs))
    if set(policy.kernel) != expected_keys:
        extra = set(policy.kernel) - expected_keys
        missing = expected_keys - set(policy.kernel)
        raise DimensionMismatchError(
            f"kernel keys do not match observations of signals 1..{k} "
            f"(extra={sorted(map(str, extra))}, missing={sorted(map(str, missing))})"
        )
    for key, row in policy.kernel.items():
        for nxt in row:
            if not (0 <= nxt < policy.num_states):
                raise ValidationError(f"row {key} targets invalid state {nxt}")
        check_distribution(row.values(), "kernel row %s", key)


def check_dynamic_policy(policy: AutomatonPolicy, k: int) -> None:
    """Raise unless ``policy`` can act in the k-signal dynamic environment:
    Safe/Risky action labels (else DimensionMismatchError), then
    ``check_policy``."""
    if not all(a in (SAFE, RISKY) for a in policy.actions):
        raise DimensionMismatchError(
            "the dynamic model needs Safe/Risky action labels, got "
            f"{sorted(set(policy.actions))}"
        )
    check_policy(policy, k)


@dataclass(frozen=True)
class AFamilyParams:
    """Parameters of the ladder family: the automaton has n+1 states."""

    n: int
    p_exp: float
    pos: frozenset[int]
    neg: frozenset[int]
    r_u: float = 1.0
    r_d: float = 1.0

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValidationError(f"n must be a positive integer, got {self.n}")
        if not (0.0 < self.p_exp <= 1.0):
            raise BadProbabilityError(f"p_exp must be in (0, 1], got {self.p_exp}")
        for name, r in (("r_u", self.r_u), ("r_d", self.r_d)):
            if not (0.0 < r <= 1.0):
                raise BadProbabilityError(f"{name} must be in (0, 1], got {r}")
        pos, neg = frozenset(self.pos), frozenset(self.neg)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if not pos or not neg:
            raise ValidationError("pos and neg must both be nonempty")
        if pos & neg:
            raise ValidationError(f"pos and neg overlap: {sorted(pos & neg)}")

    def ignored(self, k: int) -> frozenset[int]:
        """The ignore set is derived, never stored."""
        return frozenset(range(1, k + 1)) - self.pos - self.neg


def _two_point(target: int, move_prob: float, stay: int) -> dict[int, float]:
    if move_prob >= 1.0:
        return {target: 1.0}
    return {target: move_prob, stay: 1.0 - move_prob}


def build_a_family(k: int, params: AFamilyParams) -> AutomatonPolicy:
    """Construct the (n+1)-state ladder policy for a k-signal environment."""
    for s in params.pos | params.neg:
        if not (1 <= s <= k):
            raise SignalOutOfRangeError(f"signal {s} outside 1..{k}")
    n = params.n
    actions = (SAFE,) + (RISKY,) * n
    kernel: dict[tuple[int, int | None], dict[int, float]] = {}
    kernel[(0, NO_SIGNAL)] = _two_point(1, params.p_exp, 0)
    for i in range(1, n + 1):
        for s in range(1, k + 1):
            if s in params.pos:
                if i == n:
                    kernel[(i, s)] = {n: 1.0}
                else:
                    kernel[(i, s)] = _two_point(i + 1, params.r_u, i)
            elif s in params.neg:
                kernel[(i, s)] = _two_point(i - 1, params.r_d, i)
            else:
                kernel[(i, s)] = {i: 1.0}
    return AutomatonPolicy(
        num_states=n + 1, initial_state=0, actions=actions, kernel=kernel
    )


def build_linear_sticky(
    num_states: int,
    left_prob: Sequence[float],
    right_prob: Sequence[float],
    good_signal: int,
    bad_signal: int,
    k: int,
    initial_state: int = 0,
) -> AutomatonPolicy:
    """Construct a linear hold-action policy reacting to two signals.

    State i moves to i-1 with probability left_prob[i] on the good signal
    (state 0 stays) and to i+1 with probability right_prob[i] on the bad
    signal (the last state stays). All other signals are ignored. Decisions
    are applied by the caller; every state carries the opaque HOLD action.
    """
    if num_states < 1:
        raise ValidationError("need at least one state")
    if not (0 <= initial_state < num_states):
        raise ValidationError(f"initial state {initial_state} out of range")
    if len(left_prob) != num_states or len(right_prob) != num_states:
        raise ValidationError("left_prob and right_prob must have one entry per state")
    for name, probs in (("left_prob", left_prob), ("right_prob", right_prob)):
        for p in probs:
            if not (0.0 <= p <= 1.0):
                raise BadProbabilityError(f"{name} entry {p} outside [0, 1]")
    for name, s in (("good_signal", good_signal), ("bad_signal", bad_signal)):
        if not (1 <= s <= k):
            raise SignalOutOfRangeError(f"{name} {s} outside 1..{k}")
    if good_signal == bad_signal:
        raise ValidationError("good and bad signals must differ")

    kernel: dict[tuple[int, int | None], dict[int, float]] = {}
    last = num_states - 1
    for q in range(num_states):
        for s in range(1, k + 1):
            if s == good_signal and q > 0:
                kernel[(q, s)] = _two_point(q - 1, left_prob[q], q)
            elif s == bad_signal and q < last:
                kernel[(q, s)] = _two_point(q + 1, right_prob[q], q)
            else:
                kernel[(q, s)] = {q: 1.0}
    return AutomatonPolicy(
        num_states=num_states,
        initial_state=initial_state,
        actions=(HOLD,) * num_states,
        kernel=kernel,
    )


def _obs_key(obs) -> str:
    return "NoSignal" if obs is NO_SIGNAL else str(obs)


def _obs_from_key(key: str):
    return NO_SIGNAL if key == "NoSignal" else int(key)


def policy_to_dict(policy: AutomatonPolicy) -> dict:
    """JSON-ready form: kernel keyed "state:obs" with sparse rows."""
    kernel = {
        f"{q}:{_obs_key(obs)}": {str(nxt): p for nxt, p in sorted(row.items())}
        for (q, obs), row in sorted(
            policy.kernel.items(), key=lambda kv: (kv[0][0], _obs_key(kv[0][1]))
        )
    }
    return {
        "num_states": policy.num_states,
        "initial_state": policy.initial_state,
        "actions": list(policy.actions),
        "kernel": kernel,
    }


def policy_from_dict(doc: dict) -> AutomatonPolicy:
    kernel: dict[tuple[int, int | None], dict[int, float]] = {}
    for key, row in doc["kernel"].items():
        state_part, obs_part = key.split(":", 1)
        kernel[(int(state_part), _obs_from_key(obs_part))] = {
            int(nxt): float(p) for nxt, p in row.items()
        }
    return AutomatonPolicy(
        num_states=int(doc["num_states"]),
        initial_state=int(doc["initial_state"]),
        actions=tuple(doc["actions"]),
        kernel=kernel,
    )


def policy_to_json(policy: AutomatonPolicy) -> str:
    return json.dumps(policy_to_dict(policy), indent=2, sort_keys=True)


def policy_from_json(text: str) -> AutomatonPolicy:
    return policy_from_dict(json.loads(text))
