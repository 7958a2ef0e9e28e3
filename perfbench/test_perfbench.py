"""Self-tests of the benchmark: metric names, span arithmetic, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import calibrate
import gth
import run
import tracer
import workloads
from bounded_agents import markov_exact, optimize
from bounded_agents.automaton import AFamilyParams, build_a_family
from bounded_agents.dynamic_env import validate_setting

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_names_and_units_match_benchmark_json():
    measured = {"ref_pass_s": [1.0, 1.2, 1.1], "peak_rss_mb": 90.0}
    metrics = run.end_to_end([0.2, 0.3, 0.25], measured)
    assert {n: run.unit_of(n) for n in metrics} == spec_units("end_to_end")


def test_pass_time_is_rescaled_by_the_calibration_runs_around_it():
    ref = calibrate.REF_S["mixed"]
    got = calibrate.rescale("mixed", [1.0, 2.0], [0.1, 0.3, 0.1])
    assert got == pytest.approx([ref * 5.0, ref * 10.0])


def test_every_workload_names_a_calibration_loop():
    for w in workloads.WORKLOADS.values():
        assert w.calibration in calibrate.REF_S


def test_per_layer_names_and_units_match_benchmark_json():
    layers = tracer.layer_metrics([], 1.0)
    layers["trace.overhead_s"] = 0.0
    for blas1 in (None, {"layers": layers}):
        metrics = run.per_layer({"layers": layers}, blas1)
        assert {n: run.unit_of(n) for n in metrics} == spec_units("per_layer")


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def span(name, start, end, parent):
    return [name, start, end, parent, False, None]


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        span("reproduce.run_reproduce", 0.0, 10.0, -1),
        span("optimize.optimize_pexp", 1.0, 4.0, 0),
        span("markov_exact.stationary", 5.0, 9.0, 0),
        span("markov_exact.check_irreducible", 6.0, 8.0, 2),
        span("cli.run_cli", 10.5, 11.0, -1),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 0.5]
    m = tracer.layer_metrics(spans, wall_s=12.0)
    assert m["reproduce.self_s"] == 3.0
    assert m["optimize.self_s"] == 3.0
    assert m["markov_exact.self_s"] == 4.0
    assert m["markov_exact.stationary.self_s"] == 2.0
    assert m["cli.self_s"] == 0.5
    assert m["trace.outside_s"] == 1.5
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["trace.outside_s"]
    assert total == pytest.approx(12.0, abs=1e-12)


def test_tracer_wraps_every_lookup_site_and_restores_them():
    setting = validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0, 1e-3)
    policy = build_a_family(4, AFamilyParams(n=4, p_exp=0.03, pos={1}, neg={4}))
    originals = (markov_exact.stationary, optimize.exact_average_payoff)
    tr = tracer.Tracer()
    tr.install()
    try:
        optimize.exact_average_payoff(setting, policy)
    finally:
        tr.uninstall()
    assert (markov_exact.stationary, optimize.exact_average_payoff) == originals
    names = [s[tracer.NAME] for s in tr.spans]
    assert names[0] == "markov_exact.exact_average_payoff"
    by_name = {s[tracer.NAME]: s for s in tr.spans}
    root = names.index("markov_exact.exact_average_payoff")
    assert by_name["markov_exact.stationary"][tracer.PARENT] == root
    stationary = names.index("markov_exact.stationary")
    assert by_name["markov_exact.check_irreducible"][tracer.PARENT] == stationary
    m = tracer.layer_metrics(tr.spans, wall_s=1.0)
    assert m["markov_exact.stationary.calls"] == 1
    assert m["markov_exact.joint_matrix_mb"] == 10 * 10 * 8 / tracer.MB


def fixed_ops(results):
    """Stands in for a workload's ``ops``: each op returns the given result."""
    return lambda: [(op, lambda r=r: r) for op, r in results]


def reference(key: str) -> dict:
    return json.loads(workloads.REFERENCE_PATH.read_text())[key]["payoffs"]


def ladder_curve(scale_last: float = 1.0):
    ref = reference("optimize.limit_schedule_curve")
    curve = [optimize.CurvePoint(n=n, pi=1.0 / n**2, p_exp=1.0 / n, payoff=ref[str(n)])
             for n in workloads.LADDER_N]
    last = curve[-1]
    curve[-1] = optimize.CurvePoint(last.n, last.pi, last.p_exp, last.payoff * scale_last)
    return curve


def test_reference_payoffs_pass_the_ladder_check(tmp_path):
    w = workloads.LadderScaling(workloads.DEFAULT_SEED, tmp_path)
    w.ops = fixed_ops([("optimize.limit_schedule_curve", ladder_curve())])
    _, attempted, failures = workloads.run_pass(w, workloads.ResidualLog())
    assert (attempted, failures) == (1, [])


def test_wrong_payoff_counts_as_a_failed_operation(tmp_path):
    w = workloads.LadderScaling(workloads.DEFAULT_SEED, tmp_path)
    w.ops = fixed_ops([("optimize.limit_schedule_curve", ladder_curve(1.0 + 1e-6))])
    _, attempted, failures = workloads.run_pass(w, workloads.ResidualLog())
    assert attempted == 1 and len(failures) == 1
    assert "differs from the reference" in failures[0]

    p = workloads.PolicySearch(workloads.DEFAULT_SEED, tmp_path)
    want = reference("policy_search")["optimize.exhaustive_partition_search"]
    wrong = optimize.OptResult(best_pexp=0.1, best_payoff=want * (1.0 - 1e-6),
                               grid_trace=(), partition=(frozenset({1}), frozenset({2})))
    right = optimize.OptResult(best_pexp=0.1, best_payoff=want,
                               grid_trace=(), partition=(frozenset({1}), frozenset({2})))
    p.ops = fixed_ops([("optimize.exhaustive_partition_search", wrong),
                      ("optimize.exhaustive_partition_search", right)])
    _, attempted, failures = workloads.run_pass(p, workloads.ResidualLog())
    assert attempted == 2 and len(failures) == 1


def test_large_residual_and_raised_call_count_as_failed_operations(tmp_path):
    w = workloads.LadderScaling(workloads.DEFAULT_SEED, tmp_path)
    assert workloads.residual_failures("op", [(10, 1e-17), (10, 2e-10)]) != []
    assert workloads.residual_failures("op", [(10, 1e-17)]) == []

    def boom():
        raise RuntimeError("solver broke")

    w.ops = lambda: [("optimize.limit_schedule_curve", boom)]
    _, attempted, failures = workloads.run_pass(w, workloads.ResidualLog())
    assert attempted == 1 and "solver broke" in failures[0]


def test_reproduce_outputs_must_repeat_byte_for_byte(tmp_path):
    w = workloads.PaperReproduce(0, tmp_path)
    for i, text in enumerate(("a", "a", "b")):
        out = tmp_path / f"out{i}"
        out.mkdir()
        for name in w.OUTPUTS:
            (out / name).write_text(text)
        faults = w.check("reproduce", (out, 0), [])
        assert bool(faults) == (text == "b")
    assert w.check("reproduce", (tmp_path / "missing", 2), [])


def test_gth_matches_closed_form_and_the_package_solver():
    a, b = 0.3, 0.1
    mu = gth.gth_stationary(np.array([[1 - a, a], [b, 1 - b]]))
    assert mu == pytest.approx([b / (a + b), a / (a + b)], rel=1e-15)

    setting = validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0, 1e-3)
    policy = build_a_family(4, AFamilyParams(n=4, p_exp=0.03, pos={1}, neg={4}))
    ours = gth.payoff(*gth.policy_agents(policy, setting.pG, setting.pB), 1e-3, 1.0, -1.0)
    ladder = gth.payoff(*gth.ladder_agents(setting.pG, setting.pB, 4, 0.03, {1}, {4}),
                        1e-3, 1.0, -1.0)
    theirs = markov_exact.exact_average_payoff(setting, policy)
    assert ours == pytest.approx(theirs, rel=1e-12)
    assert ladder == pytest.approx(theirs, rel=1e-12)
