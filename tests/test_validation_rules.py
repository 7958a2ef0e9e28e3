"""Each validation rule, checked at every entry point that enforces it.

A rule lives in one helper, so every entry point must raise the same type
for the same fault.
"""

import ast
import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

import bounded_agents
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
from bounded_agents.automaton import policy_from_dict
from bounded_agents.bias_reader import ReaderProblem
from bounded_agents.cli import _section, run_cli
from bounded_agents.costly_comp import CompProblem, problem_from_dict
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.errors import (
    PROB_SUM_TOL,
    DimensionMismatchError,
    NonStochasticError,
    ValidationError,
    check_distribution,
    check_integer,
    check_keys,
    check_list,
    check_real,
    stochastic_rows,
)
from bounded_agents.markov_exact import (
    build_joint_chain,
    exact_average_payoff,
    stopped_state_distribution,
)
from bounded_agents.montecarlo import SimConfig, simulate_run
from bounded_agents.optimize import brute_force_policy_search
from bounded_agents.static_model import (
    DecisionRule,
    StaticSetting,
    first_impression_demo,
    polarization_demo,
    static_expected_utility,
)
from oracles import dict_policy, policy_to_dict

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


def _safe_moves_surely_on_signal_2():
    policy = _safe_risky({1: {1: 1.0}, 2: {1: 1.0}, 3: {1: 1.0}, 4: {0: 1.0}})
    policy.prob[0, 1] = (0.0, 1.0)
    return policy


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
    "Safe row differs by signal": (_safe_moves_surely_on_signal_2(), ValidationError),
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


def test_key_rule():
    check_keys({"a": 1, "b": 2}, "doc", ("a",), ("b",))
    check_keys({"a": 1}, "doc", ("a",), ("b",))
    with pytest.raises(ValidationError, match=r"^doc must be a JSON object, got \[1\]$"):
        check_keys([1], "doc", ("a",))
    with pytest.raises(ValidationError, match=r"^doc missing keys: \['a', 'c'\]$"):
        check_keys({"b": 2}, "doc", ("a", "c"), ("b",))
    with pytest.raises(ValidationError, match=r"^doc has unknown keys: \['x'\]$"):
        check_keys({"a": 1, "x": 3}, "doc", ("a",), ("b",))


# Each JSON reader, with a document it accepts; the first key is required.
KEY_ENTRY_POINTS = {
    "setting_from_dict": (lambda doc: _section(validate_setting, doc, "setting"), "setting", {
        "k": 2, "pG": [0.6, 0.4], "pB": [0.4, 0.6], "xG": 1.0, "xB": -1.0, "pi": 0.1}),
    "policy_from_dict": (lambda doc: policy_from_dict(doc, 2), "policy", policy_to_dict(
        build_linear_sticky(2, [1, 1], [1, 1], 1, 2, k=2))),
    "problem_from_dict": (problem_from_dict, "problem", {
        "states": ["s"], "types": ["t"], "actions": ["a"], "prior": [["s", "t", 1.0]],
        "machines": [{"name": "m", "out": [["s", "t", "a"]], "complexity": [["s", "t", 0]]}],
        "utility": [["s", "t", "a", 0, 1.0]]}),
}


@pytest.mark.parametrize("read,what,doc", KEY_ENTRY_POINTS.values(), ids=KEY_ENTRY_POINTS)
def test_key_rule_at_each_json_reader(read, what, doc):
    read(doc)
    first = next(iter(doc))
    with pytest.raises(ValidationError, match=rf"^{what} missing keys: \['{first}'\]$"):
        read({key: v for key, v in doc.items() if key != first})
    with pytest.raises(ValidationError, match=rf"^{what} has unknown keys: \['extra'\]$"):
        read({**doc, "extra": 1})
    with pytest.raises(ValidationError, match=rf"^{what} must be a JSON object"):
        read([doc])


@pytest.mark.parametrize("entry", [{"out": [], "complexity": []}, ["m"]],
                         ids=["no name", "not an object"])
def test_machines_entry_is_checked_by_the_key_rule(entry):
    doc = {**KEY_ENTRY_POINTS["problem_from_dict"][2]}
    doc["machines"] = [doc["machines"][0], entry]
    with pytest.raises(ValidationError, match=r"^machines entry 1 (missing keys: \['name'\]|must be)"):
        problem_from_dict(doc)


def test_policy_kernel_must_be_an_object():
    doc = {**KEY_ENTRY_POINTS["policy_from_dict"][2], "kernel": []}
    with pytest.raises(ValidationError, match=r"^kernel must be a JSON object, got \[\]$"):
        policy_from_dict(doc, 2)


# Each entry point of the integer rule, building from one integer field.
INTEGER_ENTRY_POINTS = {
    "SimConfig.rounds": (lambda n: SimConfig(rounds=n, seed=1), "rounds", 100),
    "AFamilyParams.n": (lambda n: AFamilyParams(n=n, p_exp=0.1, pos={1}, neg={2}), "n", 3),
    "ReaderProblem.n": (lambda n: ReaderProblem(n=n, rho=0.75, c=0.01), "n", 3),
    "policy num_states": (lambda n: policy_from_dict(
        {**KEY_ENTRY_POINTS["policy_from_dict"][2], "num_states": n}, 2), "policy num_states", 2),
}


@pytest.mark.parametrize("build,field,n", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
def test_integer_rule_at_each_entry_point(build, field, n):
    build(n)
    build(np.int64(n))
    for value in (float(n), str(n), True, None):
        with pytest.raises(ValidationError, match=rf"^{field} must be an integer, got {value!r}$"):
            build(value)


def test_integer_rule():
    check_integer(3, "n")
    with pytest.raises(ValidationError, match=r"^n must be an integer, got False$"):
        check_integer(False, "n")


def test_rule_length_rule_at_each_static_entry_point():
    policy = build_linear_sticky(3, [1, 1, 1], [1, 1, 1], 1, 2, k=2)
    setting = StaticSetting(k=2, pG=(0.6, 0.4), pB=(0.4, 0.6), eta=0.1)
    for labels in (2, 4):
        rule = DecisionRule(decide=("G",) * labels)
        for call in (lambda: static_expected_utility(setting, policy, rule),
                     lambda: polarization_demo(policy, 0, 1, [1], rule),
                     lambda: first_impression_demo(policy, 0, [1, 2], rule)):
            with pytest.raises(ValidationError,
                               match=rf"^rule must have 3 entries, got {labels}$"):
                call()


def test_number_rule():
    check_real(0.5, "p", "(0, 1]")
    check_real(np.float64(1.0), "p", "(0, 1]")
    check_real(float("inf"), "x")
    check_integer(3, "n", "[1, 3]")
    for value, message in ((0.0, r"^p must be in \(0, 1\], got 0.0$"),
                           (float("nan"), r"^p must be in \(0, 1\], got nan$"),
                           ("0.5", r"^p must be a number, got '0.5'$"),
                           (True, r"^p must be a number, got True$"),
                           (None, r"^p must be a number, got None$")):
        with pytest.raises(ValidationError, match=message):
            check_real(value, "p", "(0, 1]")
    with pytest.raises(ValidationError, match=r"^c must be in \[0, inf\), got inf$"):
        check_real(float("inf"), "c", "[0, inf)")
    with pytest.raises(NonStochasticError, match=r"^n must be in \[1, 3\], got 4$"):
        check_integer(4, "n", "[1, 3]", NonStochasticError)


SETTING = {"k": 4, "pG": [0.4, 0.3, 0.2, 0.1], "pB": [0.1, 0.2, 0.3, 0.4],
           "xG": 1.0, "xB": -1.0, "pi": 0.001}
LADDER = {"type": "a_family", "n": 2, "p_exp": 0.1, "pos": [1], "neg": [4],
          "r_u": 1.0, "r_d": 1.0}
STICKY = {"type": "linear_sticky", "k": 2, "num_states": 3, "initial_state": 0,
          "left_prob": [1, 1, 1], "right_prob": [1, 1, 1], "good_signal": 1, "bad_signal": 2}
PROBLEM = {"states": ["s"], "types": ["t"], "actions": ["a"], "prior": [["s", "t", 1.0]],
           "machines": [{"name": "m", "out": [["s", "t", "a"]], "complexity": [["s", "t", 0]]}],
           "utility": [["s", "t", "a", 0, 1.0]]}
STATIC = {"k": 2, "pG": [0.6, 0.4], "pB": [0.4, 0.6], "eta": 0.1, "prior_G": 0.5,
          "utility": [[1, 0], [0, 1]]}

# A config of each command that runs, and the numeric fields it sets: the
# field's path in the config, the name its error gives, and whether it is a count.
NUMERIC_CONFIGS = [
    ("eval-exact", {"setting": SETTING, "automaton": LADDER}, [
        (("setting", "k"), "k", int), (("setting", "pG", 0), "pG", float),
        (("setting", "pB", 0), "pB", float), (("setting", "xG"), "xG", float),
        (("setting", "xB"), "xB", float), (("setting", "pi"), "pi", float),
        (("automaton", "n"), "n", int), (("automaton", "p_exp"), "p_exp", float),
        (("automaton", "r_u"), "r_u", float), (("automaton", "r_d"), "r_d", float),
        (("automaton", "pos", 0), "pos", int), (("automaton", "neg", 0), "neg", int),
    ]),
    ("simulate", {"setting": SETTING, "automaton": LADDER, "rounds": 400, "seed": 1,
                  "burn_in": 4, "batches": 4}, [
        (("rounds",), "rounds", int), (("seed",), "seed", int),
        (("burn_in",), "burn_in", int), (("batches",), "batches", int),
    ]),
    ("optimize", {"setting": SETTING, "n": 1, "mode": "rates", "rate_grid": [1.0],
                  "grid": [0.5]}, [
        (("n",), "n", int), (("rate_grid", 0), "rate_grid", float),
        (("grid", 0), "p_exp", float),
    ]),
    ("limit-curve", {"setting": SETTING, "schedule": {"c1": 1.0, "a": 2.0, "c2": 1.0,
                                                      "b": 1.0, "n_list": [5, 10]}}, [
        (("schedule", "c1"), "c1", float), (("schedule", "a"), "a", float),
        (("schedule", "c2"), "c2", float), (("schedule", "b"), "b", float),
        (("schedule", "n_list", 0), "n_list", int),
    ]),
    ("static-demo", {"policy": STICKY, "demo": "expected_utility", "setting": STATIC}, [
        (("policy", "k"), "k", int), (("policy", "num_states"), "num_states", int),
        (("policy", "initial_state"), "initial_state", int),
        (("policy", "left_prob", 0), "left_prob", float),
        (("policy", "right_prob", 0), "right_prob", float),
        (("policy", "good_signal"), "good_signal", int),
        (("policy", "bad_signal"), "bad_signal", int),
        (("setting", "k"), "k", int), (("setting", "pG", 0), "pG", float),
        (("setting", "pB", 0), "pB", float), (("setting", "eta"), "eta", float),
        (("setting", "prior_G"), "prior_G", float),
        (("setting", "utility", 0, 0), "utility", float),
    ]),
    ("static-demo", {"policy": STICKY, "demo": "first_impression", "start": 1,
                     "sequence": [1, 2]}, [(("start",), "start", int)]),
    ("static-demo", {"policy": STICKY, "demo": "polarization", "start_a": 1, "start_b": 2,
                     "sequence": [1, 2]}, [(("start_a",), "start_a", int),
                                           (("start_b",), "start_b", int)]),
    ("reader", {"problem": {"n": 4, "rho": 0.75, "c": 0.01, "prior1": 0.5},
                "polarization": {"prior_b": 0.25, "sequence": [1, 0, 0, 0]}}, [
        (("problem", "n"), "n", int), (("problem", "rho"), "rho", float),
        (("problem", "c"), "c", float), (("problem", "prior1"), "prior1", float),
        (("polarization", "prior_b"), "prior_b", float),
    ]),
    ("machine", {"primality": {"type_bound": 64, "step_cap": 4},
                 "conversation": {"domain_size": 100, "questions": 3, "payoff": 10.0}}, [
        (("primality", "type_bound"), "type_bound", int),
        (("primality", "step_cap"), "step_cap", int),
        (("conversation", "domain_size"), "domain_size", int),
        (("conversation", "questions"), "questions", int),
        (("conversation", "payoff"), "payoff", float),
    ]),
    ("machine", {"problem": PROBLEM}, [
        (("problem", "prior", 0, 2), "prior", float),
        (("problem", "machines", 0, "complexity", 0, 2), "complexity", int),
        (("problem", "utility", 0, 3), "utility complexity", int),
        (("problem", "utility", 0, 4), "utility", float),
    ]),
]
NUMERIC_FIELDS = {f"{command} {'.'.join(map(str, path))}": (command, doc, path, name, kind)
                  for command, doc, fields in NUMERIC_CONFIGS for path, name, kind in fields}


def _run(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli([command, "--config", str(path)])
    return code, capsys.readouterr()


def _with(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    changed = copy.deepcopy(doc)
    *parents, key = path
    section = changed
    for step in parents:
        section = section[step]
    section[key] = value
    return changed


@pytest.mark.parametrize("command,doc,path,name,kind", NUMERIC_FIELDS.values(),
                         ids=NUMERIC_FIELDS)
def test_number_rule_at_every_numeric_config_field(tmp_path, capsys, command, doc, path,
                                                   name, kind):
    assert _run(tmp_path, capsys, command, doc)[0] == 0
    valid = doc
    for step in path:
        valid = valid[step]
    # A numeric string, NaN and a bool; a count also refuses a fraction and
    # an integer-valued float.
    bad = [str(valid), float("nan"), True]
    if kind is int:
        bad += [2.5, float(valid)]
    for value in bad:
        code, captured = _run(tmp_path, capsys, command, _with(doc, path, value))
        assert code == 1, value
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.match(rf"error: .*\b{name}\b", captured.err), captured.err


POLICY = {"type": "policy", "num_states": 2, "initial_state": 0, "actions": ["Safe", "Risky"],
          "kernel": {"0:NoSignal": {"0": 0.5, "1": 0.5}, "1:1": {"1": 1.0}, "1:2": {"1": 1.0},
                     "1:3": {"0": 1.0}, "1:4": {"0": 1.0}}}

# A config of each command that runs, and the array-shaped fields it sets: the
# field's path in the config and the name its error gives.
LIST_CONFIGS = [
    ("eval-exact", {"setting": SETTING, "automaton": LADDER}, [
        (("setting", "pG"), "pG"), (("setting", "pB"), "pB"),
        (("automaton", "pos"), "pos"), (("automaton", "neg"), "neg"),
    ]),
    ("eval-exact", {"setting": SETTING, "automaton": POLICY}, [
        (("automaton", "actions"), "actions"),
    ]),
    ("simulate", {"setting": SETTING, "automaton": LADDER, "rounds": 400, "seeds": [1, 2]}, [
        (("seeds",), "seeds"),
    ]),
    ("optimize", {"setting": SETTING, "n": 1, "mode": "rates", "rate_grid": [1.0],
                  "grid": [0.5], "partition": [[1], [4]]}, [
        (("rate_grid",), "rate_grid"), (("grid",), "grid"), (("partition",), "partition"),
        (("partition", 0), "pos"), (("partition", 1), "neg"),
    ]),
    ("limit-curve", {"setting": SETTING, "partition": [[1], [4]], "schedule": {
        "c1": 1.0, "a": 2.0, "c2": 1.0, "b": 1.0, "n_list": [5, 10]}}, [
        (("schedule", "n_list"), "n_list"), (("partition",), "partition"),
    ]),
    ("static-demo", {"policy": STICKY, "demo": "expected_utility", "setting": STATIC,
                     "rule": ["G", "G", "B"]}, [
        (("policy", "left_prob"), "left_prob"), (("policy", "right_prob"), "right_prob"),
        (("rule",), "rule"), (("setting", "pG"), "pG"), (("setting", "pB"), "pB"),
        (("setting", "utility"), "utility"), (("setting", "utility", 0), "utility"),
    ]),
    ("static-demo", {"policy": STICKY, "demo": "first_impression", "start": 1,
                     "sequence": [1, 2]}, [(("sequence",), "sequence")]),
    ("static-demo", {"policy": STICKY, "demo": "polarization", "start_a": 1, "start_b": 2,
                     "sequence": [1, 2]}, [(("sequence",), "sequence")]),
    ("reader", {"problem": {"n": 4, "rho": 0.75, "c": 0.01}, "sequence": [1, 0, 1, 1],
                "polarization": {"prior_b": 0.25, "sequence": [1, 0, 0, 0]}}, [
        (("sequence",), "sequence"), (("polarization", "sequence"), "sequence"),
    ]),
    ("machine", {"primality": {"type_bound": 64, "machines": ["always_pass"]}}, [
        (("primality", "machines"), "machines"),
    ]),
    ("machine", {"problem": PROBLEM}, [
        *((("problem", key), key) for key in ("states", "types", "actions", "prior",
                                               "machines", "utility")),
        (("problem", "prior", 0), "prior"), (("problem", "utility", 0), "utility"),
        (("problem", "machines", 0, "out"), "out"),
        (("problem", "machines", 0, "out", 0), "out"),
        (("problem", "machines", 0, "complexity"), "complexity"),
        (("problem", "machines", 0, "complexity", 0), "complexity"),
    ]),
]
LIST_FIELDS = {f"{command} {'.'.join(map(str, path))}": (command, doc, path, name)
               for command, doc, fields in LIST_CONFIGS for path, name in fields}


@pytest.mark.parametrize("command,doc,path,name", LIST_FIELDS.values(), ids=LIST_FIELDS)
def test_list_rule_at_every_array_config_field(tmp_path, capsys, command, doc, path, name):
    assert _run(tmp_path, capsys, command, doc)[0] == 0
    # A scalar, a string (never read one character at a time) and an object.
    for value in (5, "1", {}):
        code, captured = _run(tmp_path, capsys, command, _with(doc, path, value))
        assert code == 1, value
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.match(rf"error: .*\b{name}\b", captured.err), captured.err


def test_list_rule():
    assert check_list(iter([1, 2]), "x", 2, check_integer, "[1, 2]") == (1, 2)
    assert check_list(frozenset({3}), "pos") == (3,)
    assert check_list(np.array([0.5, 0.5]), "pG", 2, check_real) == (0.5, 0.5)
    for value in (5, "ab", b"ab", {"a": 1}, None):
        message = rf"^x must be a list, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            check_list(value, "x")
    with pytest.raises(ValidationError, match=r"^x must have 3 entries, got 2$"):
        check_list([1, 2], "x", 3)
    with pytest.raises(NonStochasticError, match=r"^x entry must be in \[0, 1\], got 2$"):
        check_list([1, 2], "x", each=check_integer, interval="[0, 1]", error=NonStochasticError)


def test_no_loop_checks_list_entries_by_hand():
    """Entries of a list field are checked by check_list's ``each``: no loop over a
    value (a loop over a literal tuple of fields is fine) has a body that is one
    check_real or check_integer call."""
    found = []
    for path in sorted(Path(bounded_agents.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.For) or isinstance(node.iter, (ast.Tuple, ast.List)):
                continue
            body = node.body[0]
            if (len(node.body) == 1 and isinstance(body, ast.Expr)
                    and isinstance(body.value, ast.Call)
                    and getattr(body.value.func, "id", None) in ("check_real", "check_integer")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("call,name", [
    (lambda s, v: brute_force_policy_search(s, v), "num_states"),
    (lambda s, v: brute_force_policy_search(s, 1, prob_grid=(0.0, v, 1.0)), "prob_grid entry"),
    (lambda s, v: stopped_state_distribution(np.eye(2), np.array([1.0, 0.0]), v), "eta"),
], ids=["brute force num_states", "brute force prob_grid", "stopped eta"])
def test_number_rule_at_each_library_only_field(paper_setting, call, name):
    for value in ("0.5", float("nan"), True):
        with pytest.raises(ValidationError, match=rf"^{name} must be"):
            call(paper_setting, value)
