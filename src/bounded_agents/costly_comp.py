"""Decision problems where the chooser picks a machine, not an action.

A problem fixes finite state and type spaces, a joint prior, and a set of
machines given extensionally: each machine is just its output table and
its complexity table over (state, type). Utility sees the complexity, so
slow-but-right and fast-but-wrong machines trade off inside one expected
value: EU(M) = sum over (s, t) of prior(s, t) * u(s, t, out(s, t), c(s, t)).

Tables are arrays over the cells, the (state, type) pairs in state-major
order: a float prior, and per machine int arrays of action indices and
complexities. The utility maps equal-length arrays of state, type and
action indices and complexities to utilities, so an expected utility is one
utility call and one product-sum. Label rows, as the CLI reads them, become
arrays in ``utility_from_table`` and ``problem_from_dict``.

The bundled primality instance asks whether a uniformly drawn integer is
prime. Division machines probe ascending divisors d while d*d <= t (the
probe count is the number of divisors tested); a probe count over the
step cap maps to complexity charge 10, otherwise 0. Correct answers pay
10 - c, passing pays 1 - c, and a wrong answer pays -10 - c. The wrong
case is our reading of the narrative's symmetric thousand-dollar loss;
the formal story only fixes the first two.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import (
    MissingUtilityEntryError,
    NoMachinesError,
    ValidationError,
    check_distribution,
)

Label = Hashable
# (state indices, type indices, action indices, complexities) -> utilities
UtilityFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MachineSpec:
    """Extensional machine: action index and complexity per cell."""

    name: str
    out: np.ndarray
    complexity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "out", np.asarray(self.out))
        object.__setattr__(self, "complexity", np.asarray(self.complexity))


def _check_labels(states, types, actions) -> None:
    """Raise ValidationError naming the first axis that repeats a label, and the label."""
    for axis, labels in (("state", states), ("type", types), ("action", actions)):
        if len(set(labels)) < len(labels):
            label, count = Counter(labels).most_common(1)[0]
            raise ValidationError(f"{axis} label {label!r} is declared {count} times")


@dataclass(frozen=True)
class CompProblem:
    """Machine choice over the cells (state, type) in state-major order."""

    states: tuple[Label, ...]
    types: tuple[Label, ...]
    actions: tuple[Label, ...]
    prior: np.ndarray
    machines: tuple[MachineSpec, ...]
    utility: UtilityFn

    def __post_init__(self):
        _check_labels(self.states, self.types, self.actions)
        shape = (len(self.states) * len(self.types),)
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != shape:
            raise ValidationError(f"prior has shape {prior.shape}, not {shape}")
        check_distribution(prior, "prior")
        object.__setattr__(self, "prior", prior)
        for m in self.machines:
            if any(x.shape != shape or x.dtype.kind not in "iu" for x in (m.out, m.complexity)):
                raise ValidationError(
                    f"machine {m.name!r} needs integer tables of shape {shape}, got "
                    f"{m.out.dtype} {m.out.shape} and {m.complexity.dtype} {m.complexity.shape}"
                )
            bad = np.flatnonzero((m.out < 0) | (m.out >= len(self.actions)))
            if bad.size:
                s, t = divmod(int(bad[0]), len(self.types))
                raise ValidationError(
                    f"machine {m.name!r} outputs action index {m.out[bad[0]]} at cell "
                    f"{(self.states[s], self.types[t])!r}, outside 0..{len(self.actions) - 1}"
                )


def _keys(rows, axes, what: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index over ``axes`` (pairs of declared labels and their kind) of
    each row's leading labels, and the row count at each index. Rows not
    ``width`` long, naming undeclared labels or repeating an index raise."""
    indexes = [{label: i for i, label in enumerate(labels)} for labels, _ in axes]
    keys = np.zeros(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"{what} row {row!r} needs {width} entries")
        for (labels, kind), index, label in zip(axes, indexes, row):
            if label not in index:
                raise ValidationError(f"{what} row {row!r} names undeclared {kind} {label!r}")
            keys[r] = keys[r] * len(labels) + index[label]
    count = np.bincount(keys, minlength=math.prod(len(labels) for labels, _ in axes))
    _one_row_each(count, count > 1, axes, what)
    return keys, count


def _one_row_each(count, wrong, axes, what: str) -> None:
    """Raise ValidationError at the first index where ``wrong`` holds."""
    if wrong.any():
        key = int(np.argmax(wrong))
        at = np.unravel_index(key, [len(labels) for labels, _ in axes])
        labels = tuple(labels[i] for (labels, _), i in zip(axes, at))
        raise ValidationError(f"{what} has {count[key]} rows for {labels!r}, not 1")


def utility_from_table(rows, states, types, actions) -> UtilityFn:
    """Utility over index arrays from label rows [state, type, action,
    complexity, utility], no key twice; a lookup with no row raises
    MissingUtilityEntryError."""
    charges = np.unique([row[3] for row in rows if len(row) == 5])  # _keys rejects the rest
    if charges.size and charges.dtype.kind not in "iu":
        raise ValidationError(f"utility complexities must be integers, got {charges.tolist()}")
    # The last complexity label, None, stands for every charge no row names.
    axes = ((states, "state"), (types, "type"), (actions, "action"),
            (tuple(charges.tolist()) + (None,), "complexity"))
    keys, count = _keys(rows, axes, "utility", 5)
    table = np.zeros(len(count))
    table[keys] = [row[4] for row in rows]

    def u(s, t, a, c):
        j = np.where(np.isin(c, charges), np.searchsorted(charges, c), len(charges))
        key = ((s * len(types) + t) * len(actions) + a) * (len(charges) + 1) + j
        hit = count[key] == 1
        if not hit.all():
            i = int(np.argmin(hit))
            raise MissingUtilityEntryError(
                f"no utility entry for (s={states[s[i]]!r}, t={types[t[i]]!r}, "
                f"a={actions[a[i]]!r}, c={c[i]})"
            )
        return table[key]

    return u


def expected_utility(problem: CompProblem, machine_index: int) -> float:
    """EU of one machine: one utility call over the positive-prior cells."""
    if not (0 <= machine_index < len(problem.machines)):
        raise IndexError(f"machine index {machine_index} not in 0..{len(problem.machines) - 1}")
    machine = problem.machines[machine_index]
    cells = np.flatnonzero(problem.prior)
    s, t = np.divmod(cells, len(problem.types))
    u = problem.utility(s, t, machine.out[cells], machine.complexity[cells])
    # Summed left to right in cell order, so the bits do not depend on how
    # numpy blocks a pairwise sum.
    return float(np.add.accumulate(problem.prior[cells] * u)[-1])


def best_of(eus: Sequence[float]) -> tuple[int, float]:
    """Index and value of the largest expected utility; ties break to the
    lowest index."""
    if not eus:
        raise NoMachinesError("problem has no machines")
    best_idx = max(range(len(eus)), key=eus.__getitem__)
    return best_idx, eus[best_idx]


def best_machine(problem: CompProblem) -> tuple[int, float]:
    """Argmax of expected utility; ties break to the lowest index."""
    return best_of([expected_utility(problem, i) for i in range(len(problem.machines))])


def value_of_refinement(problem_before: CompProblem, problem_after: CompProblem) -> float:
    """EU gain of the refined problem's best machine over the original's."""
    return best_machine(problem_after)[1] - best_machine(problem_before)[1]


# ---------------------------------------------------------------------------
# Primality instance

_ACTIONS = ("prime", "composite", "pass")
_PRIME, _COMPOSITE, _PASS = range(3)
# Payoff before the charge, by action index and truth (0 composite, 1 prime).
_PAYOFF = np.array([[-10.0, 10.0], [10.0, -10.0], [1.0, 1.0]])
_CONSTANT_OUTPUT = {"always_prime": _PRIME, "always_composite": _COMPOSITE, "always_pass": _PASS}


@dataclass(frozen=True)
class PrimalityConfig:
    """Desk-scale primality instance over types 2..type_bound.

    machines entries are spec strings: always_pass, always_prime,
    always_composite, trial_division_full, or trial_division_budget:<B>.
    """

    type_bound: int = 2**16
    step_cap: int = 2**20
    machines: tuple[str, ...] = (
        "always_pass", "always_prime", "always_composite", "trial_division_full",
    )

    def __post_init__(self):
        if self.type_bound < 2:
            raise ValidationError(f"type_bound must be >= 2, got {self.type_bound}")
        if self.step_cap < 0:
            raise ValidationError("step_cap must be nonnegative")
        if not self.machines:
            raise NoMachinesError("primality config lists no machines")
        for spec in self.machines:
            _parse_machine_spec(spec)


def _parse_machine_spec(spec: str) -> tuple[str, int | None]:
    if spec in ("always_pass", "always_prime", "always_composite", "trial_division_full"):
        return spec, None
    if spec.startswith("trial_division_budget:"):
        budget = int(spec.split(":", 1)[1])
        if budget < 0:
            raise ValidationError(f"budget must be nonnegative in {spec!r}")
        return "trial_division_budget", budget
    raise ValidationError(f"unknown machine spec {spec!r}")


def _probe_table(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Primality and full-division probe count of each t in 2..bound: a
    composite with smallest factor f costs f - 1 probes, a prime isqrt(t) - 1."""
    # Smallest-prime-factor sieve: a multiple of p from p*p on holds either
    # itself or a smaller prime factor, so the minimum keeps the smallest.
    spf = np.arange(bound + 1)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    t = np.arange(2, bound + 1)
    is_prime = spf[2:] == t
    root = np.sqrt(t).astype(np.int64)
    root -= root * root > t  # a rounded-up square root of k*k - 1
    return is_prime, np.where(is_prime, root - 1, spf[2:] - 1)


def make_primality_instance(config: PrimalityConfig) -> CompProblem:
    """Build the primality CompProblem from a config: one state "true" and
    the types 2..type_bound under a uniform prior."""
    is_prime, probes_full = _probe_table(config.type_bound)
    n_types = len(is_prime)
    answer = np.where(is_prime, _PRIME, _COMPOSITE)
    machines = []
    for spec in config.machines:
        kind, budget = _parse_machine_spec(spec)
        if kind == "trial_division_full":
            out, probes = answer, probes_full
        elif kind == "trial_division_budget":
            done = probes_full <= budget
            out, probes = np.where(done, answer, _PASS), np.where(done, probes_full, budget)
        else:
            out, probes = np.full(n_types, _CONSTANT_OUTPUT[kind]), np.zeros(n_types, int)
        machines.append(MachineSpec(spec, out, np.where(probes <= config.step_cap, 0, 10)))
    truth = is_prime.astype(np.int64)

    def u(s, t, a, c):
        return _PAYOFF[a, truth[t]] - c

    return CompProblem(
        states=("true",),
        types=tuple(range(2, config.type_bound + 1)),
        actions=_ACTIONS,
        prior=np.full(n_types, 1.0 / n_types),
        machines=tuple(machines),
        utility=u,
    )


# ---------------------------------------------------------------------------
# Value of a question budget


@dataclass(frozen=True)
class ConversationSpec:
    """Guess a uniform secret in 1..domain_size after q yes/no answers."""

    domain_size: int
    questions: int
    payoff: float

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValidationError("domain_size must be >= 1")
        if self.questions < 0:
            raise ValidationError("questions must be >= 0")


def conversation_value(spec: ConversationSpec) -> float:
    """EU gain of q balanced questions over a blind uniform guess.

    Model: the answers split the domain into at most 2^q cells; with
    balanced questioning the guess lands with probability min(1, 2^q / n),
    against 1/n for guessing blind.
    """
    n, q, v = spec.domain_size, spec.questions, spec.payoff
    success = 1.0 if (1 << q) >= n else (1 << q) / n
    return v * success - v / n


# ---------------------------------------------------------------------------
# Serialization


def problem_to_dict(problem: CompProblem) -> dict:
    """JSON form: labels, then the prior and each machine's tables as rows
    [state, type, value] in cell order. The utility callable is not
    serialized; ``problem_from_dict`` takes it as rows."""
    cells = [(s, t) for s in problem.states for t in problem.types]

    def rows(values):
        return [[s, t, v] for (s, t), v in zip(cells, values)]

    return {
        "states": list(problem.states),
        "types": list(problem.types),
        "actions": list(problem.actions),
        "prior": rows(problem.prior.tolist()),
        "machines": [
            {"name": machine.name,
             "out": rows(problem.actions[a] for a in machine.out.tolist()),
             "complexity": rows(machine.complexity.tolist())}
            for machine in problem.machines
        ],
    }


def problem_from_dict(doc: dict) -> CompProblem:
    """Inverse of ``problem_to_dict``, with the utility as rows [state, type,
    action, complexity, utility] under the key "utility". A cell has at most
    one prior row (none means zero mass), one out row and one complexity row.
    """
    fields = ("states", "types", "actions", "prior", "machines", "utility")
    if missing := [key for key in fields if key not in doc]:
        raise ValidationError(f"problem missing keys: {missing}")
    states, types, actions = (tuple(doc[key]) for key in fields[:3])
    # Rows name cells by label, so repeats must be refused before any row is read.
    _check_labels(states, types, actions)
    cell_axes = ((states, "state"), (types, "type"))
    cells, count = _keys(doc["prior"], cell_axes, "prior", 3)
    prior = np.zeros(len(count))
    prior[cells] = [row[2] for row in doc["prior"]]
    machines = []
    for m in doc["machines"]:
        what = f"machine {m['name']!r}"
        keys, count = _keys(m["out"], cell_axes + ((actions, "action"),), f"{what} out", 3)
        per_cell = count.reshape(-1, len(actions)).sum(axis=1)
        _one_row_each(per_cell, per_cell != 1, cell_axes, f"{what} out")
        out = np.empty(len(per_cell), dtype=np.int64)
        out[keys // len(actions)] = keys % len(actions)
        cells, count = _keys(m["complexity"], cell_axes, f"{what} complexity", 3)
        _one_row_each(count, count == 0, cell_axes, f"{what} complexity")
        values = np.asarray([row[2] for row in m["complexity"]])
        complexity = np.empty(len(count), dtype=values.dtype)
        complexity[cells] = values
        machines.append(MachineSpec(m["name"], out, complexity))
    return CompProblem(
        states=states, types=types, actions=actions, prior=prior, machines=tuple(machines),
        utility=utility_from_table(doc["utility"], states, types, actions),
    )
