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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamic_env import LADDER_PROB_INTERVAL
from .errors import (
    BadProbabilityError,
    DimensionMismatchError,
    SignalOutOfRangeError,
    ValidationError,
    check_distribution,
    check_integer,
    check_keys,
    check_list,
    check_object,
    check_real,
)

SAFE = "Safe"
RISKY = "Risky"
HOLD = "hold"

# Observation key used by SAFE states; risky/hold states use signals 1..k.
NO_SIGNAL = None

# Most rungs of one ladder, and of all the ladders one search holds at once.
MAX_RUNGS = 100_000


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
    1..k, each targeting a state, and a Safe state's row is the same in every
    slot; arrays not shaped (num_states, k, r) raise DimensionMismatchError."""
    m = policy.num_states
    check_integer(policy.initial_state, "initial_state", f"[0, {m})")
    check_list(policy.actions, "actions", m)
    nxt, prob = policy.next_state, policy.prob
    if nxt.shape != prob.shape or prob.ndim != 3 or prob.shape[:2] != (m, k):
        raise DimensionMismatchError(f"rows shaped {nxt.shape} and {prob.shape} do not "
                                     f"match {m} states and signals 1..{k}")
    outside = np.argwhere((nxt < 0) | (nxt >= m))
    if len(outside):
        q, s, j = map(int, outside[0])
        raise ValidationError(f"row {policy.row_key(q, s)} targets invalid state {nxt[q, s, j]}")
    check_distribution(prob, lambda q, s: f"kernel row {policy.row_key(q, s)}")
    safe = np.array([a == SAFE for a in policy.actions])
    differs = np.argwhere(safe[:, None] & ((nxt != nxt[:, :1]) | (prob != prob[:, :1])).any(-1))
    if len(differs):
        q, s = map(int, differs[0])
        raise ValidationError(f"Safe state {q} has different rows in signal slots 1 and {s + 1}")


def check_dynamic_policy(policy: AutomatonPolicy, k: int) -> None:
    """Raise unless ``policy`` can act in the k-signal dynamic environment:
    Safe/Risky action labels (else DimensionMismatchError), then
    ``check_policy``."""
    if other := [a for a in policy.actions if a not in (SAFE, RISKY)]:
        raise DimensionMismatchError(
            f"the dynamic model needs Safe/Risky action labels, got {other[0]!r}")
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
        # An exact solve peaks at about 400 bytes a rung and the Monte Carlo
        # tables at about 940, so a ladder of MAX_RUNGS takes under 100 MB.
        check_integer(self.n, "n", f"[1, {MAX_RUNGS}]")
        for name in ("p_exp", "r_u", "r_d"):
            check_real(getattr(self, name), name, LADDER_PROB_INTERVAL, BadProbabilityError)
        pos, neg = (frozenset(check_list(getattr(self, name), name, each=check_integer))
                    for name in ("pos", "neg"))
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if not pos or not neg:
            raise ValidationError("pos and neg must both be nonempty")
        if pos & neg:
            raise ValidationError(f"pos and neg overlap: {sorted(pos & neg)}")


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
    check_integer(k, "k", "[1, inf)")
    check_list(params.pos, "pos", each=check_integer, interval=f"[1, {k}]",
               error=SignalOutOfRangeError)
    check_list(params.neg, "neg", each=check_integer, interval=f"[1, {k}]",
               error=SignalOutOfRangeError)
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
    check_integer(k, "k", "[1, inf)")
    check_integer(num_states, "num_states", "[1, inf)")
    check_integer(initial_state, "initial_state", f"[0, {num_states})")
    left_prob, right_prob = (
        check_list(probs, name, num_states, check_real, "[0, 1]", BadProbabilityError)
        for name, probs in (("left_prob", left_prob), ("right_prob", right_prob)))
    for name, s in (("good_signal", good_signal), ("bad_signal", bad_signal)):
        check_integer(s, name, f"[1, {k}]", SignalOutOfRangeError)
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


def _parse_row(key, row) -> tuple[tuple[int, int | None], dict[int, float]]:
    """(state, observation) of a "state:obs" kernel key, and its row as {next: p},
    each p a number."""
    try:
        q, obs = key.split(":")
        state_obs = int(q), NO_SIGNAL if obs == "NoSignal" else int(obs)
    except (AttributeError, ValueError):
        raise ValidationError(f"kernel key {key!r} is not state:obs") from None
    try:
        parsed = {int(nxt): p for nxt, p in row.items()}
        check_list(parsed.values(), "kernel row", each=check_real)
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"kernel row {key!r} is not an object of next state: "
                              f"probability, got {row!r}") from None
    return state_obs, parsed


def policy_from_dict(doc: dict, k: int) -> AutomatonPolicy:
    """Policy from its JSON form, one state per action
    label. The kernel needs one row "q:NoSignal" per Safe state and "q:s" per
    other state and signal 1..k, else DimensionMismatchError names the extra
    and missing keys; check_policy checks the rest."""
    check_keys(doc, "policy", ("num_states", "initial_state", "actions", "kernel"))
    check_object(doc["kernel"], "kernel")
    for name in ("num_states", "initial_state"):
        check_integer(doc[name], f"policy {name}")
    check_integer(k, "k", "[1, inf)")
    actions = check_list(doc["actions"], "policy actions")
    m = len(actions)
    rows = dict(_parse_row(key, row) for key, row in doc["kernel"].items())
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
        try:
            next_state[q, slots, :len(row)] = list(row)
        except OverflowError:  # a target past int64, and so past every state
            raise ValidationError(f"row {(q, obs)} targets invalid state "
                                  f"{max(row, key=abs)}") from None
        prob[q, slots, :len(row)] = list(row.values())
    return AutomatonPolicy(num_states=doc["num_states"], initial_state=doc["initial_state"],
                           actions=actions, next_state=next_state, prob=prob)
