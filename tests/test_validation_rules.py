"""Each validation rule, checked at every entry point that enforces it.

A rule lives in one helper, so every entry point must raise the same type
for the same fault.
"""

import numpy as np
import pytest

from bounded_agents.automaton import (
    HOLD,
    NO_SIGNAL,
    RISKY,
    SAFE,
    AFamilyParams,
    build_a_family,
    build_linear_sticky,
    check_policy,
)
from bounded_agents.costly_comp import CompProblem
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.errors import (
    PROB_SUM_TOL,
    DimensionMismatchError,
    NonStochasticError,
    check_distribution,
    stochastic_rows,
)
from bounded_agents.markov_exact import build_joint_chain, exact_average_payoff
from bounded_agents.montecarlo import SimConfig, simulate_run
from bounded_agents.static_model import StaticSetting
from oracles import dict_policy

# Each vector breaks exactly one clause of the distribution rule.
NOT_DISTRIBUTIONS = {
    "negative entry": (0.75, 0.5, -0.25),
    "entry above 1": (1.0 + 5e-13, 0.0, 0.0),
    "NaN entry": (float("nan"), 0.5, 0.5),
    "sum off by 1e-6": (0.5, 0.25, 0.250001),
}
FINE = (0.2, 0.3, 0.5)


def _kernel_rows(vec):
    check_policy(dict_policy((HOLD,) * 3, {(q, 1): dict(enumerate(vec)) for q in range(3)}, 1), 1)


DISTRIBUTION_ENTRY_POINTS = {
    "validate_setting": lambda vec: validate_setting(3, vec, FINE, 1.0, -1.0, 0.1),
    "StaticSetting": lambda vec: StaticSetting(k=3, pG=FINE, pB=vec, eta=0.1),
    "CompProblem": lambda vec: CompProblem(
        states=("s",), types=(1, 2, 3), actions=("a",),
        prior=vec,
        machines=(), utility=lambda s, t, a, c: 0.0,
    ),
    "check_policy": _kernel_rows,
}


@pytest.mark.parametrize("vec", NOT_DISTRIBUTIONS.values(), ids=NOT_DISTRIBUTIONS)
@pytest.mark.parametrize("entry", DISTRIBUTION_ENTRY_POINTS.values(),
                         ids=DISTRIBUTION_ENTRY_POINTS)
def test_distribution_rule(entry, vec):
    entry(FINE)
    with pytest.raises(NonStochasticError):
        entry(vec)


def _safe_risky(rows):
    kernel = {(0, NO_SIGNAL): {0: 0.5, 1: 0.5}}
    kernel.update({(1, s): row for s, row in rows.items()})
    return dict_policy((SAFE, RISKY), kernel, 4)


BAD_DYNAMIC_POLICIES = {
    "row sums to 0.5": (
        _safe_risky({1: {1: 0.5}, 2: {1: 1.0}, 3: {1: 1.0}, 4: {0: 1.0}}),
        NonStochasticError,
    ),
    "negative entry": (
        _safe_risky({1: {1: 1.5, 0: -0.5}, 2: {1: 1.0}, 3: {1: 1.0}, 4: {0: 1.0}}),
        NonStochasticError,
    ),
    "signals 1..3 in a 4-signal setting": (
        build_a_family(3, AFamilyParams(n=1, p_exp=0.2, pos=frozenset({1}),
                                        neg=frozenset({3}))),
        DimensionMismatchError,
    ),
    "hold labels": (
        build_linear_sticky(3, [1, 1, 1], [1, 1, 1], 1, 4, k=4),
        DimensionMismatchError,
    ),
}

DYNAMIC_ENTRY_POINTS = {
    "exact_average_payoff": exact_average_payoff,
    "build_joint_chain": build_joint_chain,
    "simulate_run": lambda setting, policy: simulate_run(
        setting, policy, SimConfig(rounds=100, seed=1)),
}


@pytest.mark.parametrize("policy,error", BAD_DYNAMIC_POLICIES.values(),
                         ids=BAD_DYNAMIC_POLICIES)
@pytest.mark.parametrize("entry", DYNAMIC_ENTRY_POINTS.values(), ids=DYNAMIC_ENTRY_POINTS)
def test_dynamic_policy_rule(paper_setting, entry, policy, error):
    with pytest.raises(error):
        entry(paper_setting, policy)


def _python_rule(row):
    total = 0.0
    for p in row:
        total += p
    return all(0.0 <= p <= 1.0 for p in row) and abs(total - 1.0) <= PROB_SUM_TOL


def test_array_rule_keeps_the_left_to_right_sum():
    # Long rows whose sequential sum lands within a few ulps of 1 + TOL,
    # where numpy's pairwise sum decides about a tenth of them differently.
    rng = np.random.default_rng(5)
    rows = rng.random((400, 300))
    rows /= rows.sum(axis=1, keepdims=True)
    prefix = np.add.accumulate(rows[:, :-1], axis=1)[:, -1]
    rows[:, -1] = (1.0 + PROB_SUM_TOL) - prefix + rng.integers(-8, 9, size=400) * 2.0**-52
    want = [_python_rule(row.tolist()) for row in rows]
    assert 0 < sum(want) < len(want)
    assert (np.abs(rows.sum(axis=1) - 1.0) <= PROB_SUM_TOL).tolist() != want
    assert stochastic_rows(rows).tolist() == want


def test_array_check_names_the_first_faulty_row():
    rows = np.full((2, 3, 2), 0.5)
    rows[1, 2] = (0.25, 0.25)
    rows[1, 1, 0] = 1.5
    with pytest.raises(NonStochasticError, match=r"^row \(1, 1\) has entry 1.5 outside"):
        check_distribution(rows, lambda q, s: f"row {(q, s)}")
