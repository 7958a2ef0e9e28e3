"""Recompute every headline number and diff against the committed goldens.

Each check recomputes a quantity from scratch, compares it with the value
stored in goldens/paper_numbers.json, and verifies the headline claims
(payoff thresholds, bound, curve shape, demo flags). Output files are
written with fixed 12-significant-digit formatting and sorted JSON keys,
so two runs of the same build produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .automaton import AFamilyParams, build_a_family, build_linear_sticky
from .bias_reader import (
    ReaderProblem,
    disregard_index,
    first_impression_reader,
    polarization_reader,
    solve_reader_dp,
)
from .costly_comp import (
    ConversationSpec,
    PrimalityConfig,
    best_of,
    conversation_value,
    expected_utility,
    make_primality_instance,
)
from .dynamic_env import validate_setting
from .markov_exact import build_joint_chain, stationary
from .montecarlo import SimConfig, compare_exact_mc
from .optimize import CurvePoint, ScheduleSpec, curve_csv, limit_schedule_curve, optimize_pexp
from .static_model import (
    StaticSetting,
    first_impression_demo,
    polarization_demo,
    static_expected_utility,
    threshold_rule,
)

GOLDEN_TOL = 1e-9
UPPER_BOUND_SLACK = 1e-9

PAPER_SETTING = dict(
    k=4, pG=(0.4, 0.3, 0.2, 0.1), pB=(0.1, 0.2, 0.3, 0.4), xG=1.0, xB=-1.0, pi=0.001
)
PARTITION = (frozenset({1}), frozenset({4}))
SCHEDULE = ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=(5, 10, 20, 40, 80))
MC_SEEDS = (1, 2, 3)


def fmt(x: float) -> str:
    return f"{x:.12g}"


def load_goldens() -> dict:
    with resources.files("bounded_agents").joinpath(
        "goldens/paper_numbers.json"
    ).open(encoding="utf-8") as fh:
        return json.load(fh)


def load_witnesses() -> dict:
    with resources.files("bounded_agents").joinpath(
        "goldens/witnesses.json"
    ).open(encoding="utf-8") as fh:
        return json.load(fh)


def compute_paper_numbers() -> dict:
    """Every golden quantity, recomputed from scratch."""
    setting = validate_setting(**PAPER_SETTING)
    numbers: dict = {}

    payoffs_seen: list[float] = []

    # Ladder optimizations for the three headline sizes.
    for key, n in (("five_states", 4), ("six_states", 5), ("two_states", 1)):
        result = optimize_pexp(setting, n, PARTITION)
        numbers[f"payoff_{key}"] = result.best_payoff
        numbers[f"pexp_{key}"] = result.best_pexp
        payoffs_seen.extend(v for _, v in result.grid_trace)

    # Limit-schedule curve.
    curve = limit_schedule_curve(setting, SCHEDULE, PARTITION)
    numbers["limit_schedule_curve"] = {str(pt.n): pt.payoff for pt in curve}
    payoffs_seen.extend(pt.payoff for pt in curve)
    numbers["max_payoff_seen"] = max(payoffs_seen)

    # Robustness: the five-state optimum reused for larger ladders.
    pexp_five = numbers["pexp_five_states"]
    robustness = {}
    for n in range(4, 10):
        own = optimize_pexp(setting, n, PARTITION).best_payoff
        fixed = optimize_pexp(
            setting, n, PARTITION, grid=(pexp_five,), refine_rounds=0
        ).best_payoff
        robustness[str(n + 1)] = {"own_optimum": own, "fixed_pexp": fixed}
    numbers["robustness"] = robustness

    # Stationary solve diagnostics on the ten-state joint chain.
    policy5 = build_a_family(
        4, AFamilyParams(n=4, p_exp=pexp_five, pos=PARTITION[0], neg=PARTITION[1])
    )
    chain = build_joint_chain(setting, policy5)
    dist = stationary(chain)
    numbers["paper_chain_residual"] = dist.residual
    numbers["paper_chain_matrix"] = [[float(x) for x in row] for row in chain.P]
    numbers["paper_chain_stationary"] = [float(x) for x in dist.mu]

    # Monte Carlo cross-check on the five-state configuration.
    mc = {}
    for seed in MC_SEEDS:
        report = compare_exact_mc(
            setting, policy5, SimConfig(rounds=1_000_000, seed=seed)
        )
        mc[str(seed)] = {
            "mean": report.mc_mean,
            "std_error": report.std_error,
            "z": report.z_score,
        }
    numbers["mc_checks"] = mc

    # Reader dynamic program.
    reader = ReaderProblem(n=20, rho=0.75, c=0.01)
    table = solve_reader_dp(reader)
    numbers["reader_value"] = table.value(0, 0)
    numbers["reader_disregard"] = {
        fmt(c): disregard_index(solve_reader_dp(replace(reader, c=c)))
        for c in (0.002, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2)
    }

    # Static-model golden value.
    sticky = build_linear_sticky(
        5, [1, 1, 1, 1, 1], [0.01, 1, 1, 1, 1],
        good_signal=1, bad_signal=4, k=4, initial_state=2,
    )
    static_setting = StaticSetting(
        k=4, pG=(0.4, 0.3, 0.2, 0.1), pB=(0.1, 0.2, 0.3, 0.4), eta=0.01
    )
    numbers["static_expected_utility"] = static_expected_utility(
        static_setting, sticky, threshold_rule(5)
    )

    # Machine-choice instance.
    config = PrimalityConfig(
        type_bound=2**16, step_cap=64,
        machines=("always_pass", "always_prime", "always_composite",
                  "trial_division_full", "trial_division_budget:64"),
    )
    problem = make_primality_instance(config)
    eus = [expected_utility(problem, i) for i in range(len(problem.machines))]
    numbers["primality_eu"] = {
        machine.name: eu for machine, eu in zip(problem.machines, eus)
    }
    best_idx, best_eu = best_of(eus)
    numbers["primality_best"] = problem.machines[best_idx].name
    numbers["primality_best_eu"] = best_eu
    numbers["conversation_value_100_7_100"] = conversation_value(
        ConversationSpec(100, 7, 100.0)
    )
    return numbers


def _diff(name: str, actual, golden, failures: list[str]) -> None:
    if isinstance(golden, dict):
        for key in golden:
            _diff(f"{name}.{key}", actual[key], golden[key], failures)
        return
    if isinstance(golden, list):
        a = np.asarray(actual, dtype=float)
        g = np.asarray(golden, dtype=float)
        if a.shape != g.shape or np.max(np.abs(a - g)) > GOLDEN_TOL:
            failures.append(f"{name}: matrix differs from golden")
        return
    if isinstance(golden, (str, int)):  # bool is an int
        if actual != golden:
            failures.append(f"{name}: {actual!r} != golden {golden!r}")
        return
    if abs(actual - golden) > GOLDEN_TOL * max(1.0, abs(golden)):
        failures.append(f"{name}: {fmt(actual)} != golden {fmt(golden)}")


def run_demo_checks() -> tuple[dict, list[str]]:
    """Witness demos: recompute flags and compare with the committed file."""
    witnesses = load_witnesses()
    failures: list[str] = []
    results: dict = {}

    spec = witnesses["reader_first_impression"]
    problem = ReaderProblem(**spec["problem"])
    report = first_impression_reader(problem, spec["sequence"])
    results["reader_first_impression"] = {
        "forward": report.guess_forward,
        "reversed": report.guess_reversed,
        "differs": report.differs,
        "full_info": report.full_info_guess,
    }
    _diff("reader_first_impression", results["reader_first_impression"],
          spec["expect"], failures)

    spec = witnesses["reader_polarization"]
    low = ReaderProblem(n=spec["n"], rho=spec["rho"], c=spec["c"], prior1=spec["prior_a"])
    high = ReaderProblem(n=spec["n"], rho=spec["rho"], c=spec["c"], prior1=spec["prior_b"])
    guess_a, guess_b, diverged = polarization_reader(low, high, spec["sequence"])
    results["reader_polarization"] = {
        "guess_a": guess_a, "guess_b": guess_b, "diverged": diverged,
    }
    _diff("reader_polarization", results["reader_polarization"], spec["expect"], failures)
    # Negative control: identical priors never diverge on the witness.
    _, _, control = polarization_reader(low, low, spec["sequence"])
    if control:
        failures.append("reader_polarization: identical-prior control diverged")

    pol = witnesses["static_polarization"]
    policy = build_linear_sticky(**witnesses["static_policy"])
    rule = threshold_rule(policy.num_states)
    result = polarization_demo(policy, pol["start_a"], pol["start_b"], pol["sequence"], rule)
    results["static_polarization"] = {
        "modal_a": result.modal_a, "modal_b": result.modal_b, "diverged": result.diverged,
    }
    _diff("static_polarization", results["static_polarization"], pol["expect"], failures)
    control = polarization_demo(policy, pol["start_a"], pol["start_a"], pol["sequence"], rule)
    if control.diverged:
        failures.append("static_polarization: identical-start control diverged")

    fi = witnesses["static_first_impression"]
    result = first_impression_demo(policy, fi["start"], fi["sequence"], rule)
    results["static_first_impression"] = {
        "forward": result.decision_forward,
        "reversed": result.decision_reversed,
        "order_sensitive": result.order_sensitive,
    }
    _diff("static_first_impression", results["static_first_impression"],
          fi["expect"], failures)
    return results, failures


def run_claim_checks(numbers: dict) -> list[tuple[str, bool, str]]:
    """The headline claims, independent of golden values."""
    checks = []
    checks.append((
        "payoff_5_states_above_0.4",
        numbers["payoff_five_states"] > 0.4,
        fmt(numbers["payoff_five_states"]),
    ))
    checks.append((
        "payoff_6_states_above_0.4",
        numbers["payoff_six_states"] > 0.4,
        fmt(numbers["payoff_six_states"]),
    ))
    checks.append((
        "payoff_2_states_above_0.15",
        numbers["payoff_two_states"] > 0.15,
        fmt(numbers["payoff_two_states"]),
    ))
    checks.append((
        "upper_bound_half_xG",
        numbers["max_payoff_seen"] <= 0.5 + UPPER_BOUND_SLACK,
        fmt(numbers["max_payoff_seen"]),
    ))
    curve = [numbers["limit_schedule_curve"][str(n)] for n in SCHEDULE.n_list]
    increasing = all(a < b for a, b in zip(curve, curve[1:]))
    halved = (0.5 - curve[-1]) <= (0.5 - curve[0]) / 2.0
    checks.append(("limit_curve_strictly_increasing", increasing, fmt(curve[-1])))
    checks.append(("limit_curve_gap_halved_by_n80", halved, fmt(0.5 - curve[-1])))
    robust = all(
        entry["own_optimum"] - entry["fixed_pexp"] <= 0.05
        for entry in numbers["robustness"].values()
    )
    checks.append(("robustness_within_0.05", robust, ""))
    checks.append((
        "stationary_residual_below_1e-10",
        numbers["paper_chain_residual"] <= 1e-10,
        fmt(numbers["paper_chain_residual"]),
    ))
    mc_ok = all(abs(entry["z"]) <= 3.0 for entry in numbers["mc_checks"].values())
    checks.append(("mc_z_scores_within_3", mc_ok, ""))
    checks.append((
        "conversation_value_is_99",
        numbers["conversation_value_100_7_100"] == 99.0,
        fmt(numbers["conversation_value_100_7_100"]),
    ))
    return checks


def write_outputs(out_dir: Path, numbers: dict, demo_results: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payoffs = numbers["limit_schedule_curve"]
    curve = [CurvePoint(n, SCHEDULE.pi_of_n(n), SCHEDULE.pexp_of_n(n), payoffs[str(n)])
             for n in SCHEDULE.n_list]
    (out_dir / "limit_schedule_curve.csv").write_text(curve_csv(curve), encoding="utf-8")

    report = {
        "numbers": _round_floats(numbers),
        "demos": demo_results,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _round_floats(obj):
    """Stable 12-significant-digit view for diffable output files."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, float):
        return float(fmt(obj))
    return obj


def golden_path() -> Path:
    return Path(__file__).parent / "goldens" / "paper_numbers.json"


def run_reproduce(out_dir: Path, write_goldens: bool = False, echo=print) -> int:
    numbers = compute_paper_numbers()
    if write_goldens:
        golden_path().write_text(
            json.dumps(_round_floats(numbers), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        echo(f"wrote goldens to {golden_path()}")

    failures: list[str] = []
    goldens = load_goldens()
    for key in goldens:
        _diff(key, numbers[key], goldens[key], failures)

    demo_results, demo_failures = run_demo_checks()
    failures.extend(demo_failures)

    claim_checks = run_claim_checks(numbers)
    write_outputs(out_dir, numbers, demo_results)

    ok = True
    for name, passed, detail in claim_checks:
        tag = "PASS" if passed else "FAIL"
        echo(f"{tag} {name}" + (f" ({detail})" if detail else ""))
        ok = ok and passed
    for failure in failures:
        echo(f"FAIL golden-diff {failure}")
    if failures:
        ok = False
    echo(f"report written to {out_dir / 'report.json'}")
    return 0 if ok else 2
