import math
import random

import pytest

from oracles import kahan_reversed_expected_utility

from bounded_agents.costly_comp import (
    CompProblem,
    ConversationSpec,
    MachineSpec,
    PrimalityConfig,
    best_machine,
    conversation_value,
    division_probes,
    expected_utility,
    make_primality_instance,
    problem_to_dict,
    utility_from_table,
    value_of_refinement,
)
from bounded_agents.errors import (
    MissingUtilityEntryError,
    NoMachinesError,
    ValidationError,
)


def constant_machine(name, action, states, types, complexity=0):
    table = {(s, t): action for s in states for t in types}
    cplx = {(s, t): complexity for s in states for t in types}
    return MachineSpec(name=name, out_table=table, complexity_table=cplx)


def random_problem(seed):
    """Small random problem with integer-ish utilities and a dense prior."""
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(3))
    types = tuple(f"t{i}" for i in range(4))
    actions = ("a", "b", "c")
    weights = [[rng.random() for _ in types] for _ in states]
    total = sum(sum(row) for row in weights)
    prior = {
        (s, t): weights[i][j] / total
        for i, s in enumerate(states)
        for j, t in enumerate(types)
    }
    machines = []
    for mi in range(rng.randint(1, 4)):
        out = {(s, t): rng.choice(actions) for s in states for t in types}
        cplx = {(s, t): rng.randint(0, 5) for s in states for t in types}
        machines.append(MachineSpec(f"m{mi}", out, cplx))
    utab = {}
    for s in states:
        for t in types:
            for a in actions:
                for c in range(6):
                    utab[(s, t, a, c)] = rng.uniform(-10, 10)
    return CompProblem(
        states=states, types=types, actions=actions, prior=prior,
        machines=tuple(machines), utility=utility_from_table(utab),
    )


class TestExpectedUtility:
    def test_single_cell_correct_answer(self):
        machine = constant_machine("m", "yes", ("s",), ("t",))
        problem = CompProblem(
            states=("s",), types=("t",), actions=("yes", "no"),
            prior={("s", "t"): 1.0}, machines=(machine,),
            utility=lambda s, t, a, c: 10.0 - c,
        )
        assert expected_utility(problem, 0) == pytest.approx(10.0, abs=0)

    def test_always_pass_value(self):
        machine = constant_machine("pass", "pass", ("s",), ("t1", "t2"))
        problem = CompProblem(
            states=("s",), types=("t1", "t2"), actions=("pass",),
            prior={("s", "t1"): 0.5, ("s", "t2"): 0.5}, machines=(machine,),
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
        machine = constant_machine("m", "go", ("s",), ("t",), complexity=7)
        problem = CompProblem(
            states=("s",), types=("t",), actions=("go",),
            prior={("s", "t"): 1.0}, machines=(machine,),
            utility=utility_from_table({("s", "t", "go", 0): 1.0}),
        )
        with pytest.raises(MissingUtilityEntryError):
            expected_utility(problem, 0)

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
        states = ("fast", "slow_a", "slow_b")
        types = ("n",)
        out = {("fast", "n"): "prime", ("slow_a", "n"): "pass", ("slow_b", "n"): "pass"}
        cplx = {("fast", "n"): 0, ("slow_a", "n"): 0, ("slow_b", "n"): 0}
        problem = CompProblem(
            states=states, types=types, actions=("prime", "pass"),
            prior={("fast", "n"): 1 / 3, ("slow_a", "n"): 1 / 3, ("slow_b", "n"): 1 / 3},
            machines=(MachineSpec("m", out, cplx),),
            utility=lambda s, t, a, c: (10.0 if a == "prime" else 1.0) - c,
        )
        assert expected_utility(problem, 0) == pytest.approx(10 / 3 + 2 / 3, rel=1e-12)


class TestBestMachine:
    def test_tie_breaks_to_lowest_index(self):
        machine = constant_machine("m", "x", ("s",), ("t",))
        clone = constant_machine("m2", "x", ("s",), ("t",))
        problem = CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior={("s", "t"): 1.0}, machines=(machine, clone),
            utility=lambda s, t, a, c: 1.0,
        )
        assert best_machine(problem)[0] == 0

    def test_no_machines(self):
        problem = CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior={("s", "t"): 1.0}, machines=(),
            utility=lambda s, t, a, c: 1.0,
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
        assert sum(instance_2_16.prior.values()) == pytest.approx(1.0, abs=1e-12)

    def test_budget_machine_passes_when_exhausted(self):
        config = PrimalityConfig(
            type_bound=16, machines=("trial_division_budget:1",)
        )
        problem = make_primality_instance(config)
        machine = problem.machines[0]
        assert machine.out("true", 9) == "pass"  # only d=2 fits in the budget
        assert machine.out("true", 4) == "composite"

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

    def test_prime_truth_override(self):
        # Division still reports arithmetic, but correctness is judged
        # against the supplied (possibly wrong) truth table.
        truth = {("true", t): False for t in range(2, 11)}
        problem = make_primality_instance(
            PrimalityConfig(type_bound=10, machines=("always_composite",),
                            prime_truth=truth)
        )
        assert expected_utility(problem, 0) == pytest.approx(10.0, rel=1e-12)

    def test_unknown_machine_spec(self):
        with pytest.raises(ValidationError):
            PrimalityConfig(machines=("divide_and_hope",))


class TestValueOfRefinement:
    def guessing_problem(self, key_bits, payoff=1000.0):
        types = tuple(range(2**key_bits))
        prior = {(0, t): 1.0 / len(types) for t in types}
        machine = constant_machine("guess_zero", 0, (0,), types)
        return CompProblem(
            states=(0,), types=types, actions=types, prior=prior,
            machines=(machine,),
            utility=lambda s, t, a, c: (payoff if a == t else 0.0) - c,
        )

    def test_identity_refinement_is_zero(self):
        problem = random_problem(7)
        assert value_of_refinement(problem, problem) == 0.0

    def test_added_dominating_machine_never_hurts(self):
        problem = random_problem(8)
        best_existing = best_machine(problem)[1]
        dominating = MachineSpec(
            "dom",
            dict(problem.machines[0].out_table),
            {k: 0 for k in problem.machines[0].complexity_table},
        )
        richer = CompProblem(
            states=problem.states, types=problem.types, actions=problem.actions,
            prior=problem.prior, machines=problem.machines + (dominating,),
            utility=problem.utility,
        )
        assert value_of_refinement(problem, richer) >= 0.0
        assert best_machine(richer)[1] >= best_existing

    def test_learning_half_the_key(self):
        v = 1000.0
        before = self.guessing_problem(10, v)
        after = self.guessing_problem(5, v)
        value = value_of_refinement(before, after)
        assert value == pytest.approx(v * (1 / 32 - 1 / 1024), rel=1e-12)


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

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            ConversationSpec(0, 1, 1.0)
        with pytest.raises(ValidationError):
            ConversationSpec(10, -1, 1.0)


def test_prior_must_sum_to_one():
    machine = constant_machine("m", "x", ("s",), ("t",))
    with pytest.raises(ValidationError):
        CompProblem(
            states=("s",), types=("t",), actions=("x",),
            prior={("s", "t"): 0.9}, machines=(machine,),
            utility=lambda s, t, a, c: 1.0,
        )


def test_machine_tables_must_be_total():
    machine = MachineSpec("m", {("s", "t1"): "x"}, {("s", "t1"): 0})
    with pytest.raises(ValidationError):
        CompProblem(
            states=("s",), types=("t1", "t2"), actions=("x",),
            prior={("s", "t1"): 0.5, ("s", "t2"): 0.5}, machines=(machine,),
            utility=lambda s, t, a, c: 1.0,
        )


def test_serialization_shape():
    problem = random_problem(1)
    doc = problem_to_dict(problem)
    assert set(doc) == {"states", "types", "actions", "prior", "machines"}
    assert doc["machines"][0].keys() == {"name", "out", "complexity"}
    assert sum(p for _, _, p in doc["prior"]) == pytest.approx(1.0, abs=1e-12)
