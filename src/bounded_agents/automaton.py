"""Probabilistic finite-state policies over signal observations.

A policy has one action label per state and, for each (state, observation)
pair, a distribution over next states. States whose action is SAFE observe
nothing (the distinct NO_SIGNAL observation); every other state observes
one of the signals 1..k.

A policy is stored as two (m, k, r) arrays: ``next_state[q, s - 1]`` and
``prob[q, s - 1]`` hold the r entries of the row of state q on signal s, in
the order given. Shorter rows are padded with probability-0 entries to q
itself, and a Safe state's one row is copied into every signal slot, so a
reader takes row (q, s) whatever the action. ``kernel`` is a derived view in
the dict form {(state, observation): {next_state: probability}};
``policy_from_dict`` is the one way in from that form.

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
from typing import Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class AutomatonPolicy:
    """Finite-state policy; nothing writes its arrays, so threads may share it."""

    num_states: int
    initial_state: int
    actions: tuple[str, ...]
    next_state: np.ndarray
    prob: np.ndarray

    def row_key(self, q: int, s: int) -> tuple[int, int | None]:
        """Dict-form key of slot s (0-based) of state q."""
        return (q, NO_SIGNAL if self.actions[q] == SAFE else s + 1)

    @property
    def kernel(self) -> dict[tuple[int, int | None], dict[int, float]]:
        """The rows as {(state, observation): {next_state: probability}}, positive
        entries only, (q, NO_SIGNAL) for a Safe state; a new dict on each read."""
        return {
            self.row_key(q, s): {n: p for n, p in zip(nexts, probs) if p > 0.0}
            for q, rows in enumerate(zip(self.next_state.tolist(), self.prob.tolist()))
            for s, (nexts, probs) in enumerate(zip(*rows))
            if s == 0 or self.actions[q] != SAFE
        }


def check_policy(policy: AutomatonPolicy, k: int) -> None:
    """Raise unless the arrays hold one stochastic row per state and signal
    1..k, each targeting a state; arrays not shaped (num_states, k, r) raise
    DimensionMismatchError. Builders copy a Safe state's row to every slot."""
    m = policy.num_states
    if not (0 <= policy.initial_state < m):
        raise ValidationError(f"initial state {policy.initial_state} out of range")
    if len(policy.actions) != m:
        raise ValidationError("one action label required per state")
    nxt, prob = policy.next_state, policy.prob
    if nxt.shape != prob.shape or prob.ndim != 3 or prob.shape[:2] != (m, k):
        raise DimensionMismatchError(f"rows shaped {nxt.shape} and {prob.shape} do not "
                                     f"match {m} states and signals 1..{k}")
    outside = np.argwhere((nxt < 0) | (nxt >= m))
    if len(outside):
        q, s, j = map(int, outside[0])
        raise ValidationError(f"row {policy.row_key(q, s)} targets invalid state {nxt[q, s, j]}")
    check_distribution(prob, lambda q, s: f"kernel row {policy.row_key(q, s)}")


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


def _move_or_stay(actions: tuple[str, ...], target: np.ndarray, move: np.ndarray,
                  initial_state: int = 0) -> AutomatonPolicy:
    """Policy whose row (q, s) moves to target[q, s - 1] with probability
    move[q, s - 1] and otherwise stays at q (a probability-0 pad if it moves surely)."""
    stay = np.broadcast_to(np.arange(len(target))[:, None], target.shape)
    return AutomatonPolicy(num_states=len(target), initial_state=initial_state, actions=actions,
                           next_state=np.stack([target, stay], axis=-1),
                           prob=np.stack([move, 1.0 - move], axis=-1))


def build_a_family(k: int, params: AFamilyParams) -> AutomatonPolicy:
    """Construct the (n+1)-state ladder policy for a k-signal environment."""
    for s in params.pos | params.neg:
        if not (1 <= s <= k):
            raise SignalOutOfRangeError(f"signal {s} outside 1..{k}")
    n = params.n
    signals = range(1, k + 1)
    pos, neg = (np.array([s in side for s in signals]) for side in (params.pos, params.neg))
    rung = np.arange(n + 1)[:, None]
    target = np.where(pos, np.minimum(rung + 1, n), np.where(neg, rung - 1, rung))
    move = np.where(pos, np.where(rung == n, 1.0, params.r_u), np.where(neg, params.r_d, 1.0))
    # The Safe state explores whatever the signal.
    target[0], move[0] = 1, params.p_exp
    return _move_or_stay((SAFE,) + (RISKY,) * n, target, move)


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

    signals = np.arange(1, k + 1)
    q = np.arange(num_states)[:, None]
    left = (signals == good_signal) & (q > 0)
    right = (signals == bad_signal) & (q < num_states - 1)
    target = np.where(left, q - 1, np.where(right, q + 1, q))
    move = np.where(left, np.asarray(left_prob, dtype=float)[:, None],
                    np.where(right, np.asarray(right_prob, dtype=float)[:, None], 1.0))
    return _move_or_stay((HOLD,) * num_states, target, move, initial_state)


def _parse_key(key) -> tuple[int, int | None]:
    """(state, observation) of a "state:obs" kernel key."""
    try:
        q, obs = key.split(":")
        return int(q), NO_SIGNAL if obs == "NoSignal" else int(obs)
    except (AttributeError, ValueError):
        raise ValidationError(f"kernel key {key!r} is not state:obs") from None


def policy_to_dict(policy: AutomatonPolicy) -> dict:
    """JSON-ready form: kernel keyed "state:obs" with sparse rows."""
    return {
        "num_states": policy.num_states, "initial_state": policy.initial_state,
        "actions": list(policy.actions),
        "kernel": {f"{q}:{'NoSignal' if obs is NO_SIGNAL else obs}":
                   {str(nxt): p for nxt, p in sorted(row.items())}
                   for (q, obs), row in policy.kernel.items()},
    }


def policy_from_dict(doc: dict, k: int) -> AutomatonPolicy:
    """Policy from its JSON form (see policy_to_dict), one state per action
    label. The kernel needs one row "q:NoSignal" per Safe state and "q:s" per
    other state and signal 1..k, else DimensionMismatchError names the extra
    and missing keys; check_policy checks the rest."""
    missing = [f for f in ("num_states", "initial_state", "actions", "kernel") if f not in doc]
    if missing:
        raise ValidationError(f"policy missing fields: {missing}")
    for name in ("num_states", "initial_state"):
        if not isinstance(doc[name], int):
            raise ValidationError(f"policy {name} must be an integer, got {doc[name]!r}")
    actions = tuple(doc["actions"])
    m = len(actions)
    rows = {_parse_key(key): {int(nxt): float(p) for nxt, p in row.items()}
            for key, row in doc["kernel"].items()}
    expected = {(q, obs) for q, a in enumerate(actions)
                for obs in ((NO_SIGNAL,) if a == SAFE else range(1, k + 1))}
    if rows.keys() != expected:
        extra, missing = rows.keys() - expected, expected - rows.keys()
        raise DimensionMismatchError(
            f"kernel keys do not match observations of signals 1..{k} "
            f"(extra={sorted(map(str, extra))}, missing={sorted(map(str, missing))})")
    r = max([1, *map(len, rows.values())])
    next_state = np.repeat(np.arange(m), k * r).reshape(m, k, r)
    prob = np.zeros((m, k, r))
    for (q, obs), row in rows.items():
        slots = slice(None) if obs is NO_SIGNAL else obs - 1
        next_state[q, slots, :len(row)] = list(row)
        prob[q, slots, :len(row)] = list(row.values())
    return AutomatonPolicy(num_states=doc["num_states"], initial_state=doc["initial_state"],
                           actions=actions, next_state=next_state, prob=prob)


def policy_to_json(policy: AutomatonPolicy) -> str:
    return json.dumps(policy_to_dict(policy), indent=2, sort_keys=True)


def policy_from_json(text: str, k: int) -> AutomatonPolicy:
    return policy_from_dict(json.loads(text), k)
