import math
import random
import re

import numpy as np
import pytest

from oracles import division_probes, kahan_reversed_expected_utility, problem_to_dict

from bounded_agents.costly_comp import (
    CompProblem,
    ConversationSpec,
    MachineSpec,
    PrimalityConfig,
    best_machine,
    conversation_value,
    expected_utility,
    make_primality_instance,
    problem_from_dict,
    utility_from_table,
)
from bounded_agents.errors import (
    MissingUtilityEntryError,
    NoMachinesError,
    ValidationError,
)


def constant_machine(name, action, cells, complexity=0):
    """Machine answering action index ``action`` with one charge everywhere."""
    return MachineSpec(name, np.full(cells, action), np.full(cells, complexity))


def constant_utility(value):
    """Constant utility over the cells it is given."""
    return lambda s, t, a, c: np.full(len(s), value)


def random_problem_and_rows(seed):
    """Small random problem with a dense prior, and its utility label rows."""
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(3))
    types = tuple(f"t{i}" for i in range(4))
    actions = ("a", "b", "c")
    weights = [rng.random() for _ in range(len(states) * len(types))]
    total = sum(weights)
    prior = [w / total for w in weights]
    machines = []
    for mi in range(rng.randint(1, 4)):
        out = [rng.randrange(len(actions)) for _ in prior]
        cplx = [rng.randint(0, 5) for _ in prior]
        machines.append(MachineSpec(f"m{mi}", out, cplx))
    rows = [
        [s, t, a, c, rng.uniform(-10, 10)]
        for s in states for t in types for a in actions for c in range(6)
    ]
    problem = CompProblem(
        states=states, types=types, actions=actions, prior=prior,
        machines=tuple(machines),
        utility=utility_from_table(rows, states, types, actions),
    )
    return problem, rows


def random_problem(seed):
    return random_problem_and_rows(seed)[0]


class TestExpectedUtility:
    def test_single_cell_correct_answer(self):
        machine = constant_machine("m", 0, 1)
        problem = CompProblem(
            states=("s",), types=("t",), actions=("yes", "no"),
            prior=[1.0], machines=(machine,),
            utility=lambda s, t, a, c: 10.0 - c,
        )
        assert expected_utility(problem, 0) == pytest.approx(10.0, abs=0)

    def test_always_pass_value(self):
        machine = constant_machine("pass", 0, 2)
        problem = CompProblem(
            states=("s",), types=("t1", "t2"), actions=("pass",),
            prior=[0.5, 0.5], machines=(machine,),
            utility=lambda s, t, a, c: 1.0 - c,
        )
        assert expected_utility(problem, 0) == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reversed_compensated_sum(self, seed):
        problem = random_problem(seed)
        for i in range(len(problem.machines)):
            forward = expected_utility(problem, i)
            oracle = kahan_reversed_expected_utility(problem, i)
            assert forward == pytest.approx(oracle, abs=1e-12)

    def test_index_out_of_range(self):
        problem = random_problem(0)
        with pytest.raises(IndexError):
            expected_utility(problem, len(problem.machines))

    def test_missing_utility_entry(self):
        machine = constant_machine("m", 0, 1, complexity=7)
        problem = CompProblem(
            states=("s",), types=("t",), actions=("go",),
            prior=[1.0], machines=(machine,),
            utility=utility_from_table([["s", "t", "go", 0, 1.0]], ("s",), ("t",), ("go",)),
        )
        with pytest.raises(MissingUtilityEntryError, match="c=7"):
            expected_utility(problem, 0)

    def test_zero_prior_cells_never_reach_utility(self):
        def u(s, t, a, c):
            assert (t == 1).all()
            return 2.0 - c

        problem = CompProblem(
            states=("s",), types=("t0", "t1", "t2"), actions=("go",),
            prior=[0.0, 1.0, 0.0], machines=(MachineSpec("m", [0, 0, 0], [9, 0, 9]),),
            utility=u,
        )
        assert expected_utility(problem, 0) == 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_invariance(self, seed):
        problem = random_problem(seed)
        base = [expected_utility(problem, i) for i in range(len(problem.machines))]
        lam = 3.7
        scaled_problem = CompProblem(
            states=problem.states, types=problem.types, actions=problem.actions,
            prior=problem.prior, machines=problem.machines,
            utility=lambda s, t, a, c: lam * problem.utility(s, t, a, c),
        )
        scaled = [expected_utility(scaled_problem, i) for i in range(len(problem.machines))]
        for b, s in zip(base, scaled):
            assert s == pytest.approx(lam * b, rel=1e-12)
        if len(set(base)) == len(base):  # tie-free
            assert best_machine(problem)[0] == best_machine(scaled_problem)[0]

    def test_multi_state_output_uncertainty(self):
        # Three states encode a machine that passes with probability 2/3
        # and answers (correctly) otherwise.
        problem = CompProblem(
            states=("fast", "slow_a", "slow_b"), types=("n",), actions=("prime", "pass"),
            prior=[1 / 3, 1 / 3, 1 / 3],
            machines=(MachineSpec("m", [0, 1, 1], [0, 0, 0]),),
            utility=lambda s, t, a, c: np.where(a == 0, 10.0, 1.0) - c,
        )
        assert expected_utility(problem, 0) == pytest.approx(10 / 3 + 2 / 3, rel=1e-12)


class TestBestMachine:
    def test_tie_breaks_to_lowest_index(self):
        machine = constant_machine("m", 0, 1)
        clone = constant_machine("m2", 0, 1)
        problem = CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior=[1.0], machines=(machine, clone), utility=constant_utility(1.0),
        )
        assert best_machine(problem)[0] == 0

    def test_no_machines(self):
        problem = CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior=[1.0], machines=(), utility=constant_utility(1.0),
        )
        with pytest.raises(NoMachinesError):
            best_machine(problem)

    def test_exhaustive_argmax(self):
        problem = random_problem(3)
        values = [expected_utility(problem, i) for i in range(len(problem.machines))]
        idx, value = best_machine(problem)
        assert value == max(values)
        assert idx == values.index(max(values))


class TestDivisionProbes:
    def test_small_cases(self):
        assert division_probes(2) == (0, True)
        assert division_probes(3) == (0, True)
        assert division_probes(4) == (1, False)
        assert division_probes(7) == (1, True)  # tests 2 only; 3*3 > 7
        assert division_probes(9) == (2, False)
        assert division_probes(25) == (4, False)

    def test_matches_literal_loop(self):
        def literal(t):
            d, probes = 2, 0
            while d * d <= t:
                probes += 1
                if t % d == 0:
                    return probes, False
                d += 1
            return probes, True

        for t in range(2, 3000):
            assert division_probes(t) == literal(t)


@pytest.fixture(scope="module")
def instance_2_16():
    config = PrimalityConfig(
        type_bound=2**16, step_cap=64,
        machines=("always_pass", "always_prime", "always_composite",
                  "trial_division_full", "trial_division_budget:64"),
    )
    return make_primality_instance(config)


class TestPrimalityInstance:
    def test_types_and_prior(self, instance_2_16):
        assert instance_2_16.types[0] == 2
        assert instance_2_16.types[-1] == 2**16
        assert instance_2_16.prior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget_machine_passes_when_exhausted(self):
        config = PrimalityConfig(
            type_bound=16, machines=("trial_division_budget:1",)
        )
        problem = make_primality_instance(config)
        out = problem.machines[0].out
        assert problem.actions[out[problem.types.index(9)]] == "pass"  # only d=2 fits
        assert problem.actions[out[problem.types.index(4)]] == "composite"

    def test_tables_match_division_probes(self):
        cap, budget = 5, 10
        problem = make_primality_instance(PrimalityConfig(
            type_bound=3000, step_cap=cap,
            machines=("trial_division_full", f"trial_division_budget:{budget}"),
        ))
        full, budgeted = problem.machines
        for cell, t in enumerate(problem.types):
            probes, prime = division_probes(t)
            answer = "prime" if prime else "composite"
            assert problem.actions[full.out[cell]] == answer
            assert full.complexity[cell] == (0 if probes <= cap else 10)
            if probes <= budget:
                assert problem.actions[budgeted.out[cell]] == answer
            else:
                assert problem.actions[budgeted.out[cell]] == "pass"
            assert budgeted.complexity[cell] == (0 if min(probes, budget) <= cap else 10)

    def test_golden_expected_utilities(self, instance_2_16):
        golden = {
            "always_pass": 1.0,
            "always_prime": -8.003509575036,
            "always_composite": 8.003509575036,
            "trial_division_full": 8.781567101549,
            "trial_division_budget:64": 8.903410391394,
        }
        for i, machine in enumerate(instance_2_16.machines):
            assert expected_utility(instance_2_16, i) == pytest.approx(
                golden[machine.name], abs=1e-9
            )

    def test_sum_runs_left_to_right(self, instance_2_16):
        # Bit for bit the cell-by-cell loop, so reproduce output keeps its bits.
        problem = instance_2_16
        types = np.arange(len(problem.types))
        for i, machine in enumerate(problem.machines):
            u = problem.utility(np.zeros_like(types), types, machine.out, machine.complexity)
            total = 0.0
            for pr, x in zip(problem.prior.tolist(), u.tolist()):
                total += pr * x
            assert expected_utility(problem, i) == total

    def test_always_prime_formula_against_fresh_sieve(self, instance_2_16):
        bound = 2**16
        sieve = [True] * (bound + 1)
        sieve[0] = sieve[1] = False
        for p in range(2, int(math.isqrt(bound)) + 1):
            if sieve[p]:
                for q in range(p * p, bound + 1, p):
                    sieve[q] = False
        n_prime = sum(sieve[2:])
        n_types = bound - 1
        expected = 10.0 * n_prime / n_types - 10.0 * (n_types - n_prime) / n_types
        assert expected_utility(instance_2_16, 1) == pytest.approx(expected, rel=1e-12)

    def test_full_division_wins_under_huge_cap(self):
        problem = make_primality_instance(PrimalityConfig(type_bound=2**12))
        idx, value = best_machine(problem)
        assert problem.machines[idx].name == "trial_division_full"
        assert value == pytest.approx(10.0, rel=1e-12)

    def test_budget_wins_under_tiny_cap(self):
        config = PrimalityConfig(
            type_bound=2**16, step_cap=4,
            machines=("always_pass", "trial_division_full", "trial_division_budget:4"),
        )
        problem = make_primality_instance(config)
        idx, value = best_machine(problem)
        assert problem.machines[idx].name == "trial_division_budget:4"
        assert value == pytest.approx(7.601235980774, abs=1e-9)

    def test_unknown_machine_spec(self):
        with pytest.raises(ValidationError):
            PrimalityConfig(machines=("divide_and_hope",))


class TestConversationValue:
    def test_seven_questions_for_a_hundred(self):
        assert conversation_value(ConversationSpec(100, 7, 100.0)) == 99.0

    def test_no_questions_no_value(self):
        for n in (1, 2, 100):
            assert conversation_value(ConversationSpec(n, 0, 50.0)) == 0.0

    def test_small_case_formula(self):
        assert conversation_value(ConversationSpec(8, 2, 8.0)) == pytest.approx(3.0, abs=0)

    def test_nondecreasing_in_questions(self):
        values = [conversation_value(ConversationSpec(100, q, 10.0)) for q in range(12)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_saturates_at_log2_n(self):
        n, v = 100, 10.0
        saturated = v - v / n
        for q in range(math.ceil(math.log2(n)), 14):
            assert conversation_value(ConversationSpec(n, q, v)) == pytest.approx(
                saturated, abs=0
            )

    def test_huge_question_budget_builds_no_huge_integer(self):
        # 2^q would need about q / 8 bytes; the value only needs q against log2 n.
        for q in (10**12, 2**70):
            assert conversation_value(ConversationSpec(100, q, 10.0)) == 10.0 - 10.0 / 100
        n = 2**80 + 1  # one answer short of saturating at q = 80
        assert conversation_value(ConversationSpec(n, 80, 1.0)) == 2**80 / n - 1 / n

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            ConversationSpec(0, 1, 1.0)
        with pytest.raises(ValidationError):
            ConversationSpec(10, -1, 1.0)


def test_prior_must_sum_to_one():
    machine = constant_machine("m", 0, 1)
    with pytest.raises(ValidationError):
        CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior=[0.9], machines=(machine,), utility=constant_utility(1.0),
        )


def test_prior_of_the_wrong_shape_is_refused_naming_both_shapes():
    machine = constant_machine("m", 0, 2)
    with pytest.raises(ValidationError, match=r"^prior has shape \(3,\), not \(2,\)$"):
        CompProblem(
            states=("s",), types=("t1", "t2"), actions=("x",),
            prior=[0.5, 0.25, 0.25], machines=(machine,), utility=constant_utility(1.0),
        )


def test_machine_tables_must_be_total():
    machine = MachineSpec("m", [0], [0])
    with pytest.raises(ValidationError):
        CompProblem(
            states=("s",), types=("t1", "t2"), actions=("x",),
            prior=[0.5, 0.5], machines=(machine,), utility=constant_utility(1.0),
        )


@pytest.mark.parametrize("out,complexity,match", [
    ([0, 1], [0, 0], "action index 1 at cell \\('s', 't2'\\)"),
    ([0, -1], [0, 0], "action index -1"),
    ([0, 0], [0, 0.5], "needs integer tables"),
])
def test_machine_tables_hold_action_indices_and_integer_charges(out, complexity, match):
    with pytest.raises(ValidationError, match=match):
        CompProblem(
            states=("s",), types=("t1", "t2"), actions=("x",),
            prior=[0.5, 0.5], machines=(MachineSpec("m", out, complexity),),
            utility=constant_utility(1.0),
        )


def test_serialization_shape():
    problem = random_problem(1)
    doc = problem_to_dict(problem)
    assert set(doc) == {"states", "types", "actions", "prior", "machines"}
    assert doc["machines"][0].keys() == {"name", "out", "complexity"}
    assert sum(p for _, _, p in doc["prior"]) == pytest.approx(1.0, abs=1e-12)
    # problem_from_dict reads back the oracle's JSON form, utility rows added.
    for seed in range(12):
        problem, rows = random_problem_and_rows(seed)
        back = problem_from_dict({**problem_to_dict(problem), "utility": rows})
        for i in range(len(problem.machines)):
            assert expected_utility(back, i) == expected_utility(problem, i)


def _problem_with_labels(entry, states, types, actions):
    """A uniform-prior problem over the given labels with one row per declared
    cell, built directly or from its JSON form."""
    cells = [(s, t) for s in states for t in types]
    if entry == "CompProblem":
        return CompProblem(
            states=states, types=types, actions=actions,
            prior=np.full(len(cells), 1.0 / len(cells)),
            machines=(constant_machine("m", 0, len(cells)),),
            utility=constant_utility(1.0),
        )
    return problem_from_dict({
        "states": list(states), "types": list(types), "actions": list(actions),
        "prior": [[s, t, 1.0 / len(cells)] for s, t in cells],
        "machines": [{"name": "m", "out": [[s, t, actions[0]] for s, t in cells],
                      "complexity": [[s, t, 0] for s, t in cells]}],
        "utility": [[s, t, a, 0, 1.0] for s, t in cells for a in actions],
    })


@pytest.mark.parametrize("entry", ["CompProblem", "problem_from_dict"])
@pytest.mark.parametrize("axis", ["state", "type", "action"])
def test_repeated_label_is_refused_naming_axis_and_label(entry, axis):
    labels = {"state": ("s1", "s2"), "type": ("t1", "t2"), "action": ("a", "b")}
    _problem_with_labels(entry, *labels.values())
    labels[axis] = (labels[axis][0],) * 2
    with pytest.raises(ValidationError, match=f"{axis} label '{labels[axis][0]}' "):
        _problem_with_labels(entry, *labels.values())


@pytest.mark.parametrize("entry", ["CompProblem", "problem_from_dict"])
@pytest.mark.parametrize("label", [["x"], {"x": 1}, ("a", [1])])
def test_unhashable_label_is_refused_naming_axis_and_label(entry, label):
    # A tuple holding a list passes an isinstance(Hashable) test but cannot be hashed.
    with pytest.raises(ValidationError,
                       match=re.escape(f"type label {label!r} must not be a list or object")):
        _problem_with_labels(entry, ("s1", "s2"), ("t1", label), ("a", "b"))
