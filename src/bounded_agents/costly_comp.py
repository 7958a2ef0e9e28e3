"""Decision problems where the chooser picks a machine, not an action.

A problem fixes finite state and type spaces, a joint prior, and a set of
machines given extensionally: each machine is just its output table and
its complexity table over (state, type). Utility sees the complexity, so
slow-but-right and fast-but-wrong machines trade off inside one expected
value: EU(M) = sum over (s, t) of prior(s, t) * u(s, t, out(s, t), c(s, t)).

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
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from .errors import (
    MissingUtilityEntryError,
    NoMachinesError,
    ValidationError,
    check_distribution,
)

Label = Hashable
UtilityFn = Callable[[Label, Label, Label, int], float]


@dataclass(frozen=True)
class MachineSpec:
    """Extensional machine: output and complexity per (state, type)."""

    name: str
    out_table: dict[tuple[Label, Label], Label]
    complexity_table: dict[tuple[Label, Label], int]

    def out(self, s: Label, t: Label) -> Label:
        return self.out_table[(s, t)]

    def complexity(self, s: Label, t: Label) -> int:
        return self.complexity_table[(s, t)]


@dataclass(frozen=True)
class CompProblem:
    states: tuple[Label, ...]
    types: tuple[Label, ...]
    actions: tuple[Label, ...]
    prior: dict[tuple[Label, Label], float]
    machines: tuple[MachineSpec, ...]
    utility: UtilityFn

    def __post_init__(self):
        check_distribution(self.prior.values(), "prior")
        for machine in self.machines:
            for s in self.states:
                for t in self.types:
                    if (s, t) not in machine.out_table:
                        raise ValidationError(
                            f"machine {machine.name} out table misses ({s!r}, {t!r})"
                        )
                    if (s, t) not in machine.complexity_table:
                        raise ValidationError(
                            f"machine {machine.name} complexity table misses ({s!r}, {t!r})"
                        )


def utility_from_table(table: Mapping[tuple, float]) -> UtilityFn:
    """Wrap a dict keyed (s, t, a, c); misses raise MissingUtilityEntryError."""

    def u(s, t, a, c):
        try:
            return table[(s, t, a, c)]
        except KeyError as exc:
            raise MissingUtilityEntryError(
                f"no utility entry for (s={s!r}, t={t!r}, a={a!r}, c={c})"
            ) from exc

    return u


def expected_utility(problem: CompProblem, machine_index: int) -> float:
    """EU of one machine: exact sum over the S x T table in index order."""
    if not (0 <= machine_index < len(problem.machines)):
        raise IndexError(
            f"machine index {machine_index} out of range "
            f"(have {len(problem.machines)})"
        )
    machine = problem.machines[machine_index]
    total = 0.0
    for s in problem.states:
        for t in problem.types:
            pr = problem.prior.get((s, t), 0.0)
            if pr == 0.0:
                continue
            total += pr * problem.utility(
                s, t, machine.out(s, t), machine.complexity(s, t)
            )
    return total


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


@dataclass(frozen=True)
class PrimalityConfig:
    """Desk-scale primality instance over types 2..type_bound.

    machines entries are spec strings: always_pass, always_prime,
    always_composite, trial_division_full, or trial_division_budget:<B>.
    prime_truth, when given, overrides ground truth per (state, type).
    """

    type_bound: int = 2**16
    step_cap: int = 2**20
    machines: tuple[str, ...] = (
        "always_pass",
        "always_prime",
        "always_composite",
        "trial_division_full",
    )
    prime_truth: dict[tuple[Label, int], bool] | None = None

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


def division_probes(t: int) -> tuple[int, bool]:
    """(probe count, is_prime) under the fixed probing rule.

    Probes ascending divisors d = 2, 3, ... while d*d <= t; the count
    includes the successful divisor. Equivalent closed form: a composite
    with smallest factor f costs f - 1 probes, a prime costs isqrt(t) - 1.
    """
    root = math.isqrt(t)
    d = 2
    while d <= root:
        if t % d == 0:
            return d - 1, False
        d += 1
    return max(root - 1, 0), True


def _probe_table(bound: int) -> list[tuple[int, bool, int]]:
    """(t, is_prime, probes_full) for t in 2..bound."""
    # Smallest-prime-factor sieve gives every probe count in one pass.
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for multiple in range(p * p, bound + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    rows = []
    for t in range(2, bound + 1):
        root = math.isqrt(t)
        if spf[t] == t:
            rows.append((t, True, max(root - 1, 0)))
        else:
            rows.append((t, False, spf[t] - 1))
    return rows


def make_primality_instance(config: PrimalityConfig) -> CompProblem:
    """Build the primality CompProblem from a config.

    One "true" state by default; prime_truth may disagree with arithmetic,
    in which case division machines still report what division finds while
    correctness is judged against prime_truth.
    """
    state = "true"
    table = _probe_table(config.type_bound)
    types = tuple(t for t, _, _ in table)
    n_types = len(types)
    prior = {(state, t): 1.0 / n_types for t in types}

    def truth(t: int, arithmetic: bool) -> bool:
        if config.prime_truth is not None:
            return config.prime_truth[(state, t)]
        return arithmetic

    def charge(probes: int) -> int:
        return 0 if probes <= config.step_cap else 10

    machines = []
    for spec in config.machines:
        kind, budget = _parse_machine_spec(spec)
        out_table: dict[tuple[Label, Label], Label] = {}
        cplx_table: dict[tuple[Label, Label], int] = {}
        for t, arith_prime, probes_full in table:
            if kind == "always_pass":
                out, probes = "pass", 0
            elif kind == "always_prime":
                out, probes = "prime", 0
            elif kind == "always_composite":
                out, probes = "composite", 0
            elif kind == "trial_division_full":
                out = "prime" if arith_prime else "composite"
                probes = probes_full
            else:  # trial_division_budget
                if probes_full <= budget:
                    out = "prime" if arith_prime else "composite"
                    probes = probes_full
                else:
                    out, probes = "pass", budget
            out_table[(state, t)] = out
            cplx_table[(state, t)] = charge(probes)
        machines.append(
            MachineSpec(name=spec, out_table=out_table, complexity_table=cplx_table)
        )

    truth_by_type = {t: truth(t, arith) for t, arith, _ in table}

    def u(s, t, a, c):
        if a == "pass":
            return 1.0 - c
        correct = (a == "prime") == truth_by_type[t]
        return (10.0 - c) if correct else (-10.0 - c)

    return CompProblem(
        states=(state,),
        types=types,
        actions=("prime", "composite", "pass"),
        prior=prior,
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
    """JSON form: labels, prior as a flat table, machines as nested tables.

    The utility callable is not serialized.
    """
    return {
        "states": list(problem.states),
        "types": list(problem.types),
        "actions": list(problem.actions),
        "prior": [[s, t, p] for (s, t), p in sorted(problem.prior.items(), key=repr)],
        "machines": [
            {
                "name": machine.name,
                "out": [[s, t, machine.out(s, t)] for s in problem.states for t in problem.types],
                "complexity": [
                    [s, t, machine.complexity(s, t)]
                    for s in problem.states
                    for t in problem.types
                ],
            }
            for machine in problem.machines
        ],
    }
