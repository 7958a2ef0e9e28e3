import inspect
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from bounded_agents import bias_reader, cli, reproduce as reproduce_mod
from bounded_agents.automaton import AFamilyParams, build_a_family
from bounded_agents.bias_reader import ReaderProblem, disregard_index, solve_reader_dp
from bounded_agents.cli import run_cli
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.markov_exact import exact_average_payoff
from bounded_agents.montecarlo import SimConfig
from bounded_agents.optimize import (
    exhaustive_partition_search,
    limit_schedule_curve,
    optimize_pexp,
    optimize_rates,
)
from bounded_agents.static_model import (
    first_impression_demo,
    polarization_demo,
    static_expected_utility,
)

PAPER_SETTING = {
    "k": 4, "pG": [0.4, 0.3, 0.2, 0.1], "pB": [0.1, 0.2, 0.3, 0.4],
    "xG": 1.0, "xB": -1.0, "pi": 0.001,
}
LADDER = {"type": "a_family", "n": 4, "p_exp": 0.0273668, "pos": [1], "neg": [4]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestEvalExact:
    def test_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path, {"setting": PAPER_SETTING, "automaton": LADDER})
        assert run_cli(["eval-exact", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payoff"] == pytest.approx(0.413796569301, abs=1e-6)
        assert out["residual"] <= 1e-10

    def test_chain_csv_written(self, tmp_path):
        config = write_config(tmp_path, {"setting": PAPER_SETTING, "automaton": LADDER})
        csv_path = tmp_path / "chain.csv"
        out_path = tmp_path / "result.json"
        assert run_cli([
            "eval-exact", "--config", config,
            "--out", str(out_path), "--chain-csv", str(csv_path),
        ]) == 0
        assert csv_path.read_text().startswith("nature,agent_state,reward,stationary_mass")

    def test_chain_csv_layout(self, tmp_path):
        config = write_config(tmp_path, {"setting": PAPER_SETTING, "automaton": LADDER})
        csv_path = tmp_path / "chain.csv"
        assert run_cli(["eval-exact", "--config", config, "--out", str(tmp_path / "out.json"),
                        "--chain-csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "nature,agent_state,reward,stationary_mass"
        assert len(lines) == 1 + 2 * 5  # a G and a B row per ladder state
        assert lines[1].startswith("G,0,0,")
        assert lines[6].startswith("B,0,0,")

    def test_reducible_chain_exits_one_and_names_states(self, tmp_path, capsys):
        policy = {
            "type": "policy",
            "num_states": 2, "initial_state": 0,
            "actions": ["Safe", "Risky"],
            "kernel": {
                "0:NoSignal": {"1": 1.0},
                "1:1": {"1": 1.0}, "1:2": {"1": 1.0},
                "1:3": {"1": 1.0}, "1:4": {"1": 1.0},
            },
        }
        config = write_config(tmp_path, {"setting": PAPER_SETTING, "automaton": policy})
        assert run_cli(["eval-exact", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "not irreducible" in err
        assert "q=0" in err

    def test_missing_config_key_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, {"setting": PAPER_SETTING})
        assert run_cli(["eval-exact", "--config", config]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_subnormal_pi_exits_one_naming_pi(self, tmp_path, capsys):
        setting = {**PAPER_SETTING, "pi": 5e-324}
        config = write_config(tmp_path, {"setting": setting, "automaton": LADDER})
        assert run_cli(["eval-exact", "--config", config]) == 1
        assert "flip probability pi must be in [2.2250738585072014e-308, 0.5]" in (
            capsys.readouterr().err)

    def test_bad_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["eval-exact", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run_cli(["eval-exact", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: config file not found: {path}\n")


class TestSimulate:
    def config(self, tmp_path, extra=None):
        doc = {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 20000}
        doc.update(extra or {})
        return write_config(tmp_path, doc)

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        config = self.config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli([
                "simulate", "--config", config, "--seed", "7", "--out", str(out),
            ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sidecar_echoes_seed(self, tmp_path):
        # The config is echoed as given: its floats are not rounded.
        automaton = {**LADDER, "p_exp": 0.027366800000000002}
        config = self.config(tmp_path, {"automaton": automaton})
        sidecar = tmp_path / "meta.json"
        assert run_cli([
            "simulate", "--config", config, "--seed", "11",
            "--out", str(tmp_path / "run.csv"), "--sidecar", str(sidecar),
        ]) == 0
        assert json.loads(sidecar.read_text()).keys() == {"config", "seed"}
        assert json.loads(sidecar.read_text())["seed"] == 11
        assert json.loads(sidecar.read_text())["config"]["automaton"] == automaton

    def test_csv_layout(self, tmp_path):
        config = self.config(tmp_path, {"rounds": 5_000, "seed": 1, "batches": 4})
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "batch_index,batch_mean"
        assert len(lines) == 1 + 4 + 2
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std_error,")

    def test_seed_sweep_csv(self, tmp_path):
        config = self.config(tmp_path, {"seeds": [5, 6, 7]})
        out = tmp_path / "sweep.csv"
        assert run_cli(["simulate", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "seed,mean,std_error"
        assert len(lines) == 4

    def test_non_integer_rounds_exits_one_and_names_field(self, tmp_path, capsys):
        config = self.config(tmp_path, {"rounds": 20000.0})
        assert run_cli(["simulate", "--config", config]) == 1
        assert capsys.readouterr().err == "error: rounds must be an integer, got 20000.0\n"


class TestOptimize:
    def test_pexp_search(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "setting": PAPER_SETTING, "n": 1,
            "grid": [0.05, 0.1, 0.2, 0.4, 0.8],
        })
        trace = tmp_path / "trace.csv"
        assert run_cli([
            "optimize", "--config", config, "--trace-csv", str(trace),
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_payoff"] > 0.15
        assert out["pos"] == [1] and out["neg"] == [4]
        assert trace.read_text().startswith("p_exp,payoff")

    def test_rate_search_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "setting": PAPER_SETTING, "n": 1, "mode": "rates",
            "rate_grid": [0.5, 1.0], "grid": [0.1, 0.2, 0.4],
            "partition": [[1], [4]],
        })
        assert run_cli(["optimize", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {"r_u", "r_d", "best_payoff"} <= set(out)

    def test_partition_search_mode(self, tmp_path, capsys):
        setting = {
            "k": 2, "pG": [0.7, 0.3], "pB": [0.3, 0.7],
            "xG": 1.0, "xB": -1.0, "pi": 0.01,
        }
        config = write_config(tmp_path, {
            "setting": setting, "n": 1, "mode": "partition",
            "grid": [0.1, 0.3, 0.6, 1.0],
        })
        assert run_cli(["optimize", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pos"] == [1] and out["neg"] == [2]


class TestLimitCurve:
    def test_curve_csv(self, tmp_path):
        config = write_config(tmp_path, {
            "setting": PAPER_SETTING,
            "schedule": {"c1": 1.0, "a": 2.0, "c2": 1.0, "b": 1.0, "n_list": [5, 10]},
            "partition": [[1], [4]],
        })
        out = tmp_path / "curve.csv"
        assert run_cli(["limit-curve", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,pi,p_exp,payoff"
        assert lines[1].startswith("5,0.04,0.2,")

    def test_csv_columns(self, tmp_path):
        config = write_config(tmp_path, {
            "setting": PAPER_SETTING, "partition": [[1], [4]],
            "schedule": {**SCHEDULE, "n_list": [5, 10, 20, 40, 80]},
        })
        out = tmp_path / "curve.csv"
        assert run_cli(["limit-curve", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,pi,p_exp,payoff"
        assert len(lines) == 6

    def test_bad_schedule_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "setting": PAPER_SETTING,
            "schedule": {"c1": 1.0, "a": 0.5, "c2": 1.0, "b": 1.0, "n_list": [5, 10]},
        })
        assert run_cli(["limit-curve", "--config", config]) == 1
        assert capsys.readouterr().err == "error: a must be in (1, inf), got 0.5\n"

    @pytest.mark.parametrize("n_list, rule", [
        ([5.5, 10], "an integer, got 5.5"), ([0, 10], "in [1, 100000], got 0"),
    ])
    def test_bad_schedule_point_exits_one(self, tmp_path, capsys, n_list, rule):
        err = one_error_line(tmp_path, capsys, "limit-curve", {
            "setting": PAPER_SETTING, "schedule": {**SCHEDULE, "n_list": n_list}})
        assert err == f"error: n_list entry must be {rule}\n"

    @pytest.mark.parametrize("schedule", [{"n_list": [5, 10**400]}, {"a": 400.0}],
                             ids=["n past 1e18", "n**a past the float range"])
    def test_schedule_past_the_float_range_exits_one(self, tmp_path, capsys, schedule):
        err = one_error_line(tmp_path, capsys, "limit-curve", {
            "setting": PAPER_SETTING, "schedule": {**SCHEDULE, **schedule}})
        assert "n_list" in err


class TestStaticDemo:
    STICKY = {
        "type": "linear_sticky", "num_states": 5, "k": 4,
        "left_prob": [1, 1, 1, 1, 1], "right_prob": [0.01, 1, 1, 1, 1],
        "good_signal": 1, "bad_signal": 4,
    }

    def test_polarization(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "policy": self.STICKY, "demo": "polarization",
            "start_a": 1, "start_b": 2, "sequence": [1, 4, 4, 4, 4],
        })
        prop = tmp_path / "prop.csv"
        assert run_cli([
            "static-demo", "--config", config, "--propagation-csv", str(prop),
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["modal_a"], out["modal_b"], out["diverged"]) == ("G", "B", True)
        assert prop.read_text().startswith("step,state_0")

    def test_first_impression(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "policy": self.STICKY, "demo": "first_impression",
            "start": 1, "sequence": [1, 4, 4, 4],
        })
        assert run_cli(["static-demo", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"forward": "G", "reversed": "B", "order_sensitive": True}

    def test_expected_utility(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "policy": {**self.STICKY, "initial_state": 2},
            "demo": "expected_utility",
            "setting": {"k": 4, "pG": [0.4, 0.3, 0.2, 0.1],
                        "pB": [0.1, 0.2, 0.3, 0.4], "eta": 0.01},
        })
        assert run_cli(["static-demo", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["expected_utility"] == pytest.approx(0.911938379076, abs=1e-9)

    def test_propagation_keys_are_read_under_any_demo(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "policy": {**self.STICKY, "initial_state": 2}, "demo": "expected_utility",
            "setting": {"k": 4, "pG": [0.4, 0.3, 0.2, 0.1],
                        "pB": [0.1, 0.2, 0.3, 0.4], "eta": 0.01},
            "start": 1, "sequence": [1, 4],
        })
        prop = tmp_path / "prop.csv"
        assert run_cli([
            "static-demo", "--config", config, "--propagation-csv", str(prop),
        ]) == 0
        assert "expected_utility" in json.loads(capsys.readouterr().out)
        assert prop.read_text().splitlines()[1] == "0,0,1,0,0,0,G"

    def test_propagation_csv_without_sequence_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "policy": {**self.STICKY, "initial_state": 2}, "demo": "expected_utility",
            "setting": {"k": 4, "pG": [0.4, 0.3, 0.2, 0.1],
                        "pB": [0.1, 0.2, 0.3, 0.4], "eta": 0.01},
        })
        prop = tmp_path / "prop.csv"
        assert run_cli([
            "static-demo", "--config", config, "--propagation-csv", str(prop),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: --propagation-csv needs a "sequence" in the config\n'
        assert not prop.exists()

    def test_non_stochastic_policy_exits_one_and_names_row(self, tmp_path, capsys):
        policy = {
            "type": "policy", "num_states": 1, "initial_state": 0, "actions": ["hold"],
            "kernel": {"0:1": {"0": 0.5}, "0:2": {"0": 0.3},
                       "0:3": {"0": 0.2}, "0:4": {"0": 0.1}},
        }
        config = write_config(tmp_path, {
            "policy": policy, "demo": "polarization",
            "start_a": 0, "start_b": 0, "sequence": [1, 2, 3, 4],
        })
        assert run_cli(["static-demo", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kernel row (0, 1) sums to 0.5" in captured.err

    @pytest.mark.parametrize("row", [[1.0], {"0": "abc"}, {"x": 1.0}])
    def test_malformed_kernel_row_exits_one_and_names_key(self, tmp_path, capsys, row):
        policy = {
            "type": "policy", "num_states": 1, "initial_state": 0, "actions": ["hold"],
            "kernel": {"0:1": row, "0:2": {"0": 1.0}, "0:3": {"0": 1.0}, "0:4": {"0": 1.0}},
        }
        config = write_config(tmp_path, {
            "policy": policy, "demo": "polarization",
            "start_a": 0, "start_b": 0, "sequence": [1, 2, 3, 4],
        })
        assert run_cli(["static-demo", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kernel row '0:1' is not an object") and err.count("\n") == 1

    def test_safe_state_takes_its_no_signal_row(self, tmp_path, capsys):
        # State 0 is Safe: on either signal it explores to 1 with p_exp 0.5.
        # Signal 4 then sends state 1 back to 0: (0.5*0.5 + 0.5, 0.5*0.5, 0).
        config = write_config(tmp_path, {
            "policy": {"type": "a_family", "n": 2, "p_exp": 0.5, "pos": [1], "neg": [4]},
            "demo": "first_impression", "start": 0, "sequence": [1, 4],
        })
        prop = tmp_path / "prop.csv"
        assert run_cli([
            "static-demo", "--config", config, "--propagation-csv", str(prop),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["forward"] == "G"
        assert prop.read_text().splitlines()[-1] == "2,0.75,0.25,0,G"

    def test_propagation_csv_layout(self, tmp_path):
        config = write_config(tmp_path, {
            "policy": self.STICKY, "demo": "first_impression", "start": 2, "sequence": [1, 4],
        })
        prop = tmp_path / "prop.csv"
        assert run_cli(["static-demo", "--config", config, "--out", str(tmp_path / "out.json"),
                        "--propagation-csv", str(prop)]) == 0
        lines = prop.read_text().strip().splitlines()
        assert lines[0] == "step,state_0,state_1,state_2,state_3,state_4,modal_decision"
        assert len(lines) == 4  # start row plus two steps
        assert lines[1].startswith("0,0,0,1,0,0,")


class TestReader:
    def test_solve_and_demos(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "problem": {"n": 7, "rho": 0.9, "c": 0.02},
            "sequence": [1, 1, 1, 0, 0, 0, 0],
            "polarization": {"prior_b": 0.55, "sequence": [1, 1, 0, 0, 0, 0, 0]},
        })
        table = tmp_path / "table.csv"
        assert run_cli(["reader", "--config", config, "--table-csv", str(table)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["first_impression"]["differs"] is True
        assert out["first_impression"]["full_info_guess"] == 0
        assert 0 <= out["disregard_index"] <= 7
        assert table.read_text().startswith("i,d,W,stop")

    def test_each_problem_is_solved_once(self, tmp_path, monkeypatch):
        solved = count_reader_solves(monkeypatch)
        config = write_config(tmp_path, {
            "problem": {"n": 7, "rho": 0.9, "c": 0.02},
            "sequence": [1, 1, 1, 0, 0, 0, 0],
            "polarization": {"prior_b": 0.55, "sequence": [1, 1, 0, 0, 0, 0, 0]},
        })
        assert run_cli(["reader", "--config", config]) == 0
        assert solved == [ReaderProblem(n=7, rho=0.9, c=0.02),
                          ReaderProblem(n=7, rho=0.9, c=0.02, prior1=0.55)]

    def test_each_output_walks_its_sequences(self, tmp_path, monkeypatch):
        walked = []

        def recording(table, sequence):
            walked.append(list(sequence))
            return walk(table, sequence)

        walk = bias_reader._walk
        monkeypatch.setattr(bias_reader, "_walk", recording)
        config = write_config(tmp_path, {
            "problem": {"n": 7, "rho": 0.9, "c": 0.02},
            "sequence": [1, 1, 1, 0, 0, 0, 0],
            "polarization": {"prior_b": 0.55, "sequence": [1, 1, 0, 0, 0, 0, 0]},
        })
        assert run_cli(["reader", "--config", config]) == 0
        # The run walks the sequence, the first impression walks it and its
        # reversal, and the two polarization readers each walk theirs.
        assert walked == [[1, 1, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1],
                          [1, 1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0]]

    def test_csv_covers_full_grid(self, tmp_path):
        config = write_config(tmp_path, {"problem": {"n": 4, "rho": 0.75, "c": 0.01}})
        table = tmp_path / "table.csv"
        assert run_cli(["reader", "--config", config, "--out", str(tmp_path / "out.json"),
                        "--table-csv", str(table)]) == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "i,d,W,stop"
        assert len(lines) == 1 + sum(2 * i + 1 for i in range(5))


class TestMachine:
    def test_primality_and_conversation(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "primality": {"type_bound": 4096},
            "conversation": {"domain_size": 100, "questions": 7, "payoff": 100.0},
        })
        assert run_cli(["machine", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_machine"] == "trial_division_full"
        assert out["conversation_value"] == 99.0

    def test_budget_past_int64_gives_the_full_machine(self, tmp_path, capsys):
        huge = "trial_division_budget:1" + "0" * 30
        config = write_config(tmp_path, {
            "primality": {"type_bound": 4096, "machines": ["trial_division_full", huge]}})
        assert run_cli(["machine", "--config", config]) == 0
        eus = json.loads(capsys.readouterr().out)["expected_utility"]
        assert eus[huge] == eus["trial_division_full"]

    def test_domain_size_past_the_float_range_exits_one_naming_it(self, tmp_path, capsys):
        err = one_error_line(tmp_path, capsys, "machine", {
            "primality": {"type_bound": 64, "step_cap": 4},
            "conversation": {"domain_size": 10**400, "questions": 3, "payoff": 10.0}})
        assert err == "error: domain_size is beyond the float range\n"

    @pytest.mark.parametrize("spec", [5, ["always_pass"], "trial_division_budget:x",
                                      "trial_division_budget:1.5", "trial_division_budget:-1"])
    def test_bad_machine_spec_exits_one_naming_it(self, tmp_path, capsys, spec):
        err = one_error_line(tmp_path, capsys, "machine",
                             {"primality": {"type_bound": 64, "machines": [spec]}})
        assert repr(spec) in err

    def test_inline_problem_tables(self, tmp_path, capsys):
        problem = {
            "states": ["s"], "types": ["t"], "actions": ["go", "stay"],
            "prior": [["s", "t", 1.0]],
            "machines": [
                {"name": "go", "out": [["s", "t", "go"]], "complexity": [["s", "t", 0]]},
                {"name": "stay", "out": [["s", "t", "stay"]], "complexity": [["s", "t", 2]]},
            ],
            "utility": [
                ["s", "t", "go", 0, 5.0],
                ["s", "t", "stay", 2, 1.0],
            ],
        }
        config = write_config(tmp_path, {"problem": problem})
        assert run_cli(["machine", "--config", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_machine"] == "go"
        assert out["best_eu"] == 5.0


    def test_output_outside_actions_exits_one(self, tmp_path, capsys):
        problem = {
            "states": ["s"], "types": ["t1"], "actions": ["a"],
            "prior": [["s", "t1", 1.0]],
            "machines": [{"name": "m", "out": [["s", "t1", "zzz"]],
                          "complexity": [["s", "t1", 0]]}],
            "utility": [["s", "t1", "zzz", 0, 3.0]],
        }
        config = write_config(tmp_path, {"problem": problem})
        assert run_cli(["machine", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "machine 'm' out row ['s', 't1', 'zzz'] names undeclared action 'zzz'" in captured.err

    TWO_CELLS = {
        "states": ["s"], "types": ["t1", "t2"], "actions": ["a", "b"],
        "prior": [["s", "t1", 0.5], ["s", "t2", 0.5]],
        "machines": [{"name": "m", "out": [["s", "t1", "a"], ["s", "t2", "b"]],
                      "complexity": [["s", "t1", 0], ["s", "t2", 0]]}],
        "utility": [["s", "t1", "a", 0, 1.0], ["s", "t2", "b", 0, 3.0],
                    ["s", "t1", "b", 0, 9.0]],
    }

    @pytest.mark.parametrize("change,expected", [
        ({}, 2.0),
        # A cell without a prior row has zero mass and needs no utility row.
        ({"prior": [["s", "t1", 1.0]], "utility": [["s", "t1", "a", 0, 1.0]]}, 1.0),
        ({"prior": [["s", "t1", 0.5], ["s", "t3", 0.5]]}, "undeclared type 't3'"),
        ({"prior": [["s", "t1", 0.5], ["s", "t2", 0.25], ["s", "t2", 0.5]]},
         "prior has 2 rows for ('s', 't2')"),
        ({"machines": [{"name": "m", "out": [["s", "t1", "a"], ["s", "t2", "b"],
                                             ["s", "t1", "b"]],
                        "complexity": [["s", "t1", 0], ["s", "t2", 0]]}]},
         "machine 'm' out has 2 rows for ('s', 't1')"),
        ({"machines": [{"name": "m", "out": [["s", "t1", "a"], ["s", "t2", "b"]],
                        "complexity": [["s", "t1", 0], ["s", "t2", 0], ["x", "t1", 0]]}]},
         "undeclared state 'x'"),
        ({"utility": [["s", "t1", "a", 0, 1.0], ["s", "t2", "b", 0, 3.0],
                      ["s", "t9", "b", 0, 9.0]]},
         "undeclared type 't9'"),
        ({"utility": [["s", "t1", "a", 0, 1.0], ["s", "t2", "b", 0, 3.0],
                      ["s", "t2", "b", 0, 5.0]]},
         "utility has 2 rows for ('s', 't2', 'b', 0)"),
        ({"utility": [["s", "t1", "a", 0, 1.0], ["s", "t2", "b", 0, 3.0],
                      ["s", "t2", "b", 0.5, 5.0]]},
         "utility complexity entry must be an integer, got 0.5"),
        ({"utility": [["s", "t1", "a"], ["s", "t2", "b", 0, 3.0]]},
         "utility row 0 must have 5 entries, got 3"),
    ], ids=["valid", "no prior row, no utility row", "prior on undeclared type",
            "prior cell twice", "out cell twice", "complexity on undeclared state",
            "utility on undeclared type", "utility entry twice", "utility charge 0.5",
            "short utility row"])
    def test_inline_rows_name_each_declared_cell_once(self, tmp_path, capsys, change, expected):
        config = write_config(tmp_path, {"problem": {**self.TWO_CELLS, **change}})
        code = run_cli(["machine", "--config", config])
        captured = capsys.readouterr()
        if isinstance(expected, float):
            assert code == 0
            assert json.loads(captured.out)["best_eu"] == expected
        else:
            assert code == 1
            assert expected in captured.err


def count_reader_solves(monkeypatch):
    """Route every reader DP solve through a recorder; returns the list of solved problems."""
    solved = []

    def counting(problem):
        solved.append(problem)
        return solve_reader_dp(problem)

    for module in (bias_reader, cli, reproduce_mod):
        monkeypatch.setattr(module, "solve_reader_dp", counting)
    return solved


def fail_lines(tmp_path, capsys) -> list[str]:
    """The FAIL lines of a reproduce run that must exit 2."""
    assert run_cli(["reproduce", "--out", str(tmp_path / "rep")]) == 2
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]


def replay_first_call(real):
    """``real``, except that every call returns what the first call's arguments give."""
    calls = []

    def replayed(*args):
        calls.append(args)
        return real(*calls[0])
    return replayed


class TestReproduce:
    @pytest.mark.parametrize("key,value,lines", [
        ("payoff_five_states", 0.399,
         ["FAIL payoff_5_states_above_0.4 (0.399)",
          "FAIL golden-diff payoff_five_states: 0.399 != golden 0.413796569301"]),
        ("primality_best", "always_pass",
         ["FAIL golden-diff primality_best: 'always_pass' != golden 'trial_division_budget:64'"]),
        ("paper_chain_matrix", [[0.5] * 10] * 10,
         ["FAIL golden-diff paper_chain_matrix: matrix differs from golden"]),
    ], ids=["payoff_five_states", "primality_best", "paper_chain_matrix"])
    def test_golden_mismatch_exits_two(self, tmp_path, monkeypatch, capsys, key, value, lines):
        # Cheap path: feed perturbed numbers instead of recomputing.
        fake = {**reproduce_mod.load_goldens(), key: value}
        monkeypatch.setattr(reproduce_mod, "compute_paper_numbers", lambda: fake)
        assert fail_lines(tmp_path, capsys) == lines

    @pytest.mark.parametrize("demo,key,value,line", [
        ("reader_first_impression", "full_info", 1,
         "reader_first_impression.full_info: 0 != golden 1"),
        ("reader_polarization", "diverged", False,
         "reader_polarization.diverged: True != golden False"),
        ("static_polarization", "modal_a", "B", "static_polarization.modal_a: 'G' != golden 'B'"),
        ("static_first_impression", "order_sensitive", False,
         "static_first_impression.order_sensitive: True != golden False"),
    ])
    def test_witness_mismatch_exits_two(self, tmp_path, monkeypatch, capsys, demo, key, value,
                                        line):
        witnesses = reproduce_mod.load_witnesses()
        witnesses[demo]["expect"][key] = value
        monkeypatch.setattr(reproduce_mod, "load_witnesses", lambda: witnesses)
        monkeypatch.setattr(reproduce_mod, "compute_paper_numbers", reproduce_mod.load_goldens)
        assert fail_lines(tmp_path, capsys) == [f"FAIL golden-diff {line}"]

    @pytest.mark.parametrize("demo,line", [
        ("polarization_reader", "reader_polarization: identical-prior control diverged"),
        ("polarization_demo", "static_polarization: identical-start control diverged"),
    ])
    def test_diverging_control_exits_two(self, tmp_path, monkeypatch, capsys, demo, line):
        # The control call gets the witness's result, which diverges.
        monkeypatch.setattr(reproduce_mod, demo, replay_first_call(getattr(reproduce_mod, demo)))
        monkeypatch.setattr(reproduce_mod, "compute_paper_numbers", reproduce_mod.load_goldens)
        assert fail_lines(tmp_path, capsys) == [f"FAIL golden-diff {line}"]

    def test_each_ladder_size_is_searched_once(self, monkeypatch):
        searched = []

        def counting(setting, n, partition, **options):
            if not options:  # the fixed-p_exp evaluations pass a grid
                searched.append(n)
            return optimize_pexp(setting, n, partition, **options)

        monkeypatch.setattr(reproduce_mod, "optimize_pexp", counting)
        monkeypatch.setattr(reproduce_mod, "compare_exact_mc", lambda *args: SimpleNamespace(
            mc_mean=0.0, std_error=1.0, z_score=0.0))
        numbers = reproduce_mod.compute_paper_numbers()
        assert sorted(searched) == [1, 4, 5, 6, 7, 8, 9]
        assert numbers["robustness"]["5"]["own_optimum"] == numbers["payoff_five_states"]

    def test_each_reader_problem_is_solved_once(self, monkeypatch):
        solved = count_reader_solves(monkeypatch)
        monkeypatch.setattr(reproduce_mod, "compare_exact_mc", lambda *args: SimpleNamespace(
            mc_mean=0.0, std_error=1.0, z_score=0.0))
        reproduce_mod.compute_paper_numbers()
        reproduce_mod.run_demo_checks()
        assert len(solved) == len(set(solved)) == 13

    def test_goldens_have_expected_keys(self):
        goldens = reproduce_mod.load_goldens()
        for key in ("payoff_five_states", "payoff_two_states", "limit_schedule_curve",
                    "robustness", "reader_value", "primality_eu", "mc_checks",
                    "paper_chain_matrix"):
            assert key in goldens


STICKY = {
    "type": "linear_sticky", "num_states": 5,
    "left_prob": [1, 1, 1, 1, 1], "right_prob": [0.01, 1, 1, 1, 1],
    "good_signal": 1, "bad_signal": 4,
}
STATIC_SETTING = {"k": 4, "pG": [0.4, 0.3, 0.2, 0.1], "pB": [0.1, 0.2, 0.3, 0.4], "eta": 0.01}
SCHEDULE = {"c1": 1.0, "a": 2.0, "c2": 1.0, "b": 1.0, "n_list": [5, 10]}
INLINE_PROBLEM = {
    "states": ["s"], "types": ["t"], "actions": ["go"], "prior": [["s", "t", 1.0]],
    "machines": [{"name": "go", "out": [["s", "t", "go"]], "complexity": [["s", "t", 0]]}],
    "utility": [["s", "t", "go", 0, 5.0]],
}


def one_error_line(tmp_path, capsys, command, doc):
    config = write_config(tmp_path, doc)
    assert run_cli([command, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


# A key that no code path of the subcommand and mode reads (or a typo that leaves a
# required key out), and the one error line that names it.
UNREAD_KEYS = {
    "automaton rd": ("eval-exact", {"setting": PAPER_SETTING, "automaton": {**LADDER, "rd": 0.3}},
                     "automaton has unknown keys: ['rd']"),
    "automaton k": ("eval-exact", {"setting": PAPER_SETTING, "automaton": {**LADDER, "k": 4}},
                    "automaton has unknown keys: ['k']"),
    "top level": ("eval-exact", {"setting": PAPER_SETTING, "automaton": LADDER, "seed": 1},
                  "config has unknown keys: ['seed']"),
    "setting": ("eval-exact", {"setting": {**PAPER_SETTING, "p": 0.1}, "automaton": LADDER},
                "setting has unknown keys: ['p']"),
    "simulate batch": ("simulate", {"setting": PAPER_SETTING, "automaton": LADDER,
                                    "rounds": 100, "batch": 4},
                       "config has unknown keys: ['batch']"),
    "reader prior": ("reader", {"problem": {"n": 20, "rho": 0.75, "c": 0.01, "prior": 0.2}},
                     "problem has unknown keys: ['prior']"),
    "reader polarization": ("reader", {"problem": {"n": 2, "rho": 0.75, "c": 0.01},
                                       "polarization": {"prior_b": 0.4, "sequence": [1, 0],
                                                        "prior_a": 0.6}},
                            "polarization has unknown keys: ['prior_a']"),
    "static setting prior_g": ("static-demo", {
        "policy": STICKY, "demo": "expected_utility",
        "setting": {**STATIC_SETTING, "prior_g": 0.2}}, "setting has unknown keys: ['prior_g']"),
    "static policy": ("static-demo", {"policy": {**STICKY, "initial": 2}, "demo": "first_impression",
                                      "start": 1, "sequence": [1]},
                      "policy has unknown keys: ['initial']"),
    "static k twice": ("static-demo", {"policy": {**STICKY, "k": 4}, "k": 4,
                                       "demo": "first_impression", "start": 1, "sequence": [1]},
                       "policy has unknown keys: ['k']"),
    "static demo start_a": ("static-demo", {"policy": STICKY, "demo": "first_impression",
                                            "start": 1, "start_a": 1, "sequence": [1]},
                            "config has unknown keys: ['start_a']"),
    "schedule c3": ("limit-curve", {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "c3": 1}},
                    "schedule has unknown keys: ['c3']"),
    "rates mode r_u": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates",
                                    "r_u": 0.5}, "rates mode config has unknown keys: ['r_u']"),
    "partition mode partition": ("optimize", {"setting": PAPER_SETTING, "n": 1,
                                              "mode": "partition", "partition": [[1], [4]]},
                                 "partition mode config has unknown keys: ['partition']"),
    "pexp mode rate_grid": ("optimize", {"setting": PAPER_SETTING, "n": 1, "rate_grid": [1.0]},
                            "pexp mode config has unknown keys: ['rate_grid']"),
    "machine primality and problem": ("machine", {"primality": {"type_bound": 64},
                                                  "problem": INLINE_PROBLEM},
                                      "config has unknown keys: ['problem']"),
    "primality": ("machine", {"primality": {"type_bound": 64, "budget": 3}},
                  "primality has unknown keys: ['budget']"),
    "conversation": ("machine", {"primality": {"type_bound": 64},
                                 "conversation": {"domain_size": 4, "questions": 1, "pay": 1}},
                     "conversation missing keys: ['payoff']"),
}


@pytest.mark.parametrize("command,doc,message", UNREAD_KEYS.values(), ids=UNREAD_KEYS)
def test_unread_key_exits_one_and_names_it(tmp_path, capsys, command, doc, message):
    assert one_error_line(tmp_path, capsys, command, doc) == f"error: {message}\n"


NON_OBJECT_SECTIONS = {
    "config": ("eval-exact", [1], "config"),
    "automaton": ("eval-exact", {"setting": PAPER_SETTING, "automaton": [1]}, "automaton"),
    "setting": ("eval-exact", {"setting": [1], "automaton": LADDER}, "setting"),
    "kernel": ("eval-exact", {"setting": PAPER_SETTING, "automaton": {
        "type": "policy", "num_states": 1, "initial_state": 0, "actions": ["Risky"],
        "kernel": []}}, "kernel"),
    "static policy": ("static-demo", {"policy": [1], "demo": "first_impression",
                                      "start": 0, "sequence": [1]}, "policy"),
    "schedule": ("limit-curve", {"setting": PAPER_SETTING, "schedule": [1]}, "schedule"),
    "reader problem": ("reader", {"problem": [20, 0.75, 0.01]}, "problem"),
    "machines entry": ("machine", {"problem": {**INLINE_PROBLEM, "machines": [["go"]]}},
                       "machines entry 0"),
}


@pytest.mark.parametrize("command,doc,what", NON_OBJECT_SECTIONS.values(),
                         ids=NON_OBJECT_SECTIONS)
def test_non_object_section_exits_one_and_names_it(tmp_path, capsys, command, doc, what):
    assert one_error_line(tmp_path, capsys, command, doc).startswith(
        f"error: {what} must be a JSON object, got [")


@pytest.mark.parametrize("labels", [1, 6])
@pytest.mark.parametrize("demo", [
    {"demo": "polarization", "start_a": 1, "start_b": 2, "sequence": [1, 4]},
    {"demo": "first_impression", "start": 1, "sequence": [1, 4]},
    {"demo": "expected_utility", "setting": STATIC_SETTING, "start": 1, "sequence": [1]},
], ids=lambda doc: doc["demo"])
def test_rule_of_the_wrong_length_exits_one_and_names_both_counts(tmp_path, capsys, demo,
                                                                  labels):
    doc = {"policy": STICKY, "rule": ["G"] * labels, **demo}
    err = one_error_line(tmp_path, capsys, "static-demo", doc)
    assert err == f"error: rule must have 5 entries, got {labels}\n"


# A count that JSON gives as a float, a string or a bool, and the field it names.
NON_INTEGERS = {
    "reader n float": ("reader", {"problem": {"n": 3.5, "rho": 0.75, "c": 0.01}}, "n", "3.5"),
    "reader n bool": ("reader", {"problem": {"n": True, "rho": 0.75, "c": 0.01}}, "n", "True"),
    "automaton n string": ("eval-exact", {"setting": PAPER_SETTING,
                                          "automaton": {**LADDER, "n": "4"}}, "n", "'4'"),
    "optimize n float": ("optimize", {"setting": PAPER_SETTING, "n": 2.0}, "n", "2.0"),
}


@pytest.mark.parametrize("command,doc,field,value", NON_INTEGERS.values(), ids=NON_INTEGERS)
def test_non_integer_count_exits_one_and_names_the_field(tmp_path, capsys, command, doc, field,
                                                         value):
    err = one_error_line(tmp_path, capsys, command, doc)
    assert err == f"error: {field} must be an integer, got {value}\n"


def test_machines_entry_without_name_names_the_key(tmp_path, capsys):
    problem = {**INLINE_PROBLEM, "machines": [{"out": [["s", "t", "go"]],
                                               "complexity": [["s", "t", 0]]}]}
    err = one_error_line(tmp_path, capsys, "machine", {"problem": problem})
    assert err == "error: machines entry 0 missing keys: ['name']\n"


# Every subcommand, optimize mode and static demo, with every CSV flag it takes.
# rate_grid has 17 significant digits and grid [1] is an int: the JSON must
# still print them rounded, as floats.
EVERY_OUTPUT = {
    "eval-exact": ("eval-exact", {"setting": PAPER_SETTING, "automaton": LADDER},
                   ["--chain-csv"]),
    "simulate": ("simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 20000}, []),
    "simulate seeds": ("simulate", {"setting": PAPER_SETTING, "automaton": LADDER,
                                    "rounds": 20000, "seeds": [5, 6]}, []),
    "optimize pexp": ("optimize", {"setting": PAPER_SETTING, "n": 1, "grid": [1]},
                      ["--trace-csv"]),
    "optimize partition": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "partition",
                                        "grid": [0.1, 0.3]}, ["--trace-csv"]),
    "optimize rates": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates",
                                    "rate_grid": [0.30000000000000004, 0.7000000000000001],
                                    "grid": [0.1, 0.2]}, ["--trace-csv"]),
    "limit-curve": ("limit-curve", {"setting": PAPER_SETTING, "schedule": SCHEDULE}, []),
    "static polarization": ("static-demo", {"policy": STICKY, "demo": "polarization",
                                            "start_a": 1, "start_b": 2,
                                            "sequence": [1, 4, 4, 4, 4]}, ["--propagation-csv"]),
    "static first_impression": ("static-demo", {"policy": STICKY, "demo": "first_impression",
                                                "start": 1, "sequence": [1, 4, 4]},
                                ["--propagation-csv"]),
    "static expected_utility": ("static-demo", {"policy": STICKY, "demo": "expected_utility",
                                                "setting": STATIC_SETTING, "start": 1,
                                                "sequence": [1, 4]}, ["--propagation-csv"]),
    "reader": ("reader", {"problem": {"n": 7, "rho": 0.9, "c": 0.02},
                          "sequence": [1, 1, 1, 0, 0, 0, 0],
                          "polarization": {"prior_b": 0.55, "sequence": [1, 1, 0, 0, 0, 0, 0]}},
               ["--table-csv"]),
    "machine": ("machine", {"primality": {"type_bound": 4096},
                            "conversation": {"domain_size": 3, "questions": 1, "payoff": 1.0}},
                []),
}


def significant_digits(number: str) -> int:
    mantissa = re.split("[eE]", number.lstrip("-"))[0]
    return len(mantissa.replace(".", "").strip("0"))


@pytest.mark.parametrize("command,doc,flags", EVERY_OUTPUT.values(), ids=EVERY_OUTPUT)
def test_every_output_float_has_at_most_12_significant_digits(tmp_path, capsys, command, doc,
                                                              flags):
    csv_files = [tmp_path / f"{flag[2:]}.csv" for flag in flags]
    argv = [command, "--config", write_config(tmp_path, doc)]
    for flag, path in zip(flags, csv_files):
        argv += [flag, str(path)]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    csv_texts = [path.read_text() for path in csv_files]
    if command in ("simulate", "limit-curve"):
        csv_texts.append(out)
    else:
        floats = []
        result = json.loads(out, parse_float=lambda text: floats.append(text) or float(text))
        assert [x for x in floats if significant_digits(x) > 12] == []
        if command == "optimize":
            assert isinstance(result["best_pexp"], float)
    for text in csv_texts:
        cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
        floats = [cell for cell in cells if re.fullmatch(r"-?[\d.]+(e[-+]\d+)?", cell)
                  and not cell.isdigit()]
        assert floats and [x for x in floats if significant_digits(x) > 12] == []


def one_state_policy(row):
    """A one-state Risky policy for PAPER_SETTING whose row on signal 1 is ``row``."""
    return {"type": "policy", "num_states": 1, "initial_state": 0, "actions": ["Risky"],
            "kernel": {"0:1": row, "0:2": {"0": 1.0}, "0:3": {"0": 1.0}, "0:4": {"0": 1.0}}}


# Values the CLI refuses, and the one error line each gives.
REFUSED_VALUES = {
    "unknown automaton type": ("eval-exact", {"setting": PAPER_SETTING,
                                              "automaton": {**LADDER, "type": "ladder"}},
                               "unknown automaton type 'ladder'"),
    "unknown optimize mode": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "grid"},
                              "unknown optimize mode 'grid'"),
    "unknown static demo": ("static-demo", {"policy": STICKY, "demo": "anchoring"},
                            "unknown static demo 'anchoring'"),
    "machine config with neither section": (
        "machine", {"conversation": {"n": 100, "k": 7, "value": 100.0}},
        "config needs a 'primality' or 'problem' section"),
    "kernel row targets no state": ("eval-exact", {"setting": PAPER_SETTING,
                                                   "automaton": one_state_policy({"1": 1.0})},
                                    "row (0, 1) targets invalid state 1"),
    "primality machines empty": ("machine", {"primality": {"machines": []}},
                                 "primality config lists no machines"),
    "machine name not a string": (
        "machine", {"problem": {**INLINE_PROBLEM,
                                "machines": [{**INLINE_PROBLEM["machines"][0], "name": 7}]}},
        "machines entry 0 name must be a string, got 7"),
    "rounds after burn_in fewer than batches": (
        "simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 100,
                     "burn_in": 90, "batches": 20},
        "not enough post-burn-in rounds for the batches"),
    "n_list out of order": ("limit-curve", {"setting": PAPER_SETTING,
                                            "schedule": {**SCHEDULE, "n_list": [10, 5]}},
                            "n_list needs at least 2 entries, in increasing order"),
    # One state past 2000, where the static model's dense matrices, 24 bytes a pair
    # of states, reach 96 MB; 50,001 states asked for 2.33 GiB in one matrix.
    "static policy whose matrices would not fit": (
        "static-demo", {"policy": {**LADDER, "n": 2000}, "demo": "expected_utility",
                        "setting": STATIC_SETTING},
        "policy state count must be in [1, 2000], got 2001"),
    "xG past float range": ("eval-exact", {"setting": {**PAPER_SETTING, "xG": 10 ** 400},
                                           "automaton": LADDER},
                            "xG is beyond the float range"),
    # A count past the lists it counts is refused by its own name, not as a
    # list "must have 9007199254740993 entries".
    "setting k past its signal lists": (
        "eval-exact", {"setting": {**PAPER_SETTING, "k": 2 ** 53 + 1}, "automaton": LADDER},
        f"k must be in [1, 4], got {2 ** 53 + 1}"),
    "static setting k past its signal lists": (
        "static-demo", {"policy": STICKY, "demo": "expected_utility",
                        "setting": {**STATIC_SETTING, "k": 2 ** 53 + 1}},
        f"k must be in [1, 4], got {2 ** 53 + 1}"),
    "sticky num_states past its lists": (
        "static-demo", {"policy": {**STICKY, "num_states": 2 ** 53 + 1},
                        "demo": "expected_utility", "setting": STATIC_SETTING},
        f"num_states must be in [1, 5], got {2 ** 53 + 1}"),
    "machine name twice": ("machine", {"problem": {**INLINE_PROBLEM,
                                                   "machines": INLINE_PROBLEM["machines"] * 2}},
                           "machine label 'go' is declared 2 times"),
    "kernel probability string": ("eval-exact", {"setting": PAPER_SETTING,
                                                 "automaton": one_state_policy({"0": "1"})},
                                  "kernel row '0:1' is not an object of next state: "
                                  "probability, got {'0': '1'}"),
    "kernel probability bool": ("eval-exact", {"setting": PAPER_SETTING,
                                               "automaton": one_state_policy({"0": True})},
                                "kernel row '0:1' is not an object of next state: "
                                "probability, got {'0': True}"),
    "reader n past index size": ("reader", {"problem": {"n": 10 ** 30, "rho": 0.75, "c": 0.01}},
                                 f"n must be in [1, 4000], got {10 ** 30}"),
    # One past n = 4000, where the two tables, 9 bytes a cell, reach 288 MB.
    "reader n whose table would not fit": ("reader", {"problem": {"n": 4001, "rho": 0.75,
                                                                  "c": 0.01}},
                                           "n must be in [1, 4000], got 4001"),
    "ladder n past index size": ("eval-exact", {"setting": PAPER_SETTING,
                                                "automaton": {**LADDER, "n": 10 ** 400}},
                                 f"n must be in [1, 100000], got {10 ** 400}"),
    # A ladder takes about 1 KB a rung; 10^18 rungs asked for 6.94 EiB.
    "ladder n whose chain would not fit": (
        "eval-exact", {"setting": PAPER_SETTING, "automaton": {**LADDER, "n": 10 ** 18}},
        f"n must be in [1, 100000], got {10 ** 18}"),
    "n_list entry whose chain would not fit": (
        "limit-curve",
        {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "n_list": [5, 10 ** 18]}},
        f"n_list entry must be in [1, 100000], got {10 ** 18}"),
    # A search holds all its ladders at once, so they share the rungs of one.
    "optimize n whose ladder would not fit": (
        "optimize", {"setting": PAPER_SETTING, "n": 10 ** 18},
        f"n must be in [1, 100000], got {10 ** 18}"),
    "rates n whose 25 ladders would not fit": (
        "optimize", {"setting": PAPER_SETTING, "n": 10 ** 18, "mode": "rates"},
        f"n must be in [1, 4000], got {10 ** 18}"),
    "partition n whose 50 ladders would not fit": (
        "optimize", {"setting": PAPER_SETTING, "n": 10 ** 18, "mode": "partition"},
        f"n must be in [1, 2000], got {10 ** 18}"),
    "type_bound whose table would not fit": (
        "machine", {"primality": {"type_bound": 10 ** 18}},
        f"type_bound must be in [2, 1048576], got {10 ** 18}"),
    # A run keeps one batch's payoffs, 8 bytes a round: 3.6 TiB at 10^13 rounds.
    "rounds whose batch would not fit": (
        "simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 10 ** 13},
        "rounds leaves 495000000000 rounds a batch after burn_in; a batch holds at most 16777216"),
    "rounds past the array size": (
        "simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 10 ** 30},
        f"rounds leaves {99 * 10 ** 28 // 20} rounds a batch after burn_in; "
        "a batch holds at most 16777216"),
    # A run keeps about 200 bytes a batch: 10^15 batch means asked for 7.1 PiB.
    "batches whose means would not fit": (
        "simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 10 ** 18,
                     "batches": 10 ** 15},
        f"batches must be in [2, 1048576], got {10 ** 15}"),
    # 317**2 rate pairs are more ladders than MAX_RUNGS gives a rung each.
    "rate_grid longer than the ladders allow": (
        "optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates",
                     "rate_grid": [i / 317 for i in range(1, 318)]},
        "rate_grid distinct entry count must be in [1, 316], got 317"),
    "kernel row targets a state past int64": (
        "eval-exact", {"setting": PAPER_SETTING,
                       "automaton": one_state_policy({"99999999999999999999": 1.0})},
        "row (0, 1) targets invalid state 99999999999999999999"),
    # Ladder probabilities start at the smallest normal float, as pi does: a
    # subnormal p_exp paid 0.5% off, and a subnormal r_u or r_d made a move
    # underflow to 0, so an irreducible chain read as reducible.
    **{f"subnormal {name}": (
        "eval-exact", {"setting": PAPER_SETTING, "automaton": {**LADDER, name: 5e-324}},
        f"{name} must be in [2.2250738585072014e-308, 1], got 5e-324")
       for name in ("p_exp", "r_u", "r_d")},
    "subnormal p_exp grid entry": (
        "optimize", {"setting": PAPER_SETTING, "n": 1, "grid": [5e-324]},
        "p_exp grid entry must be in [2.2250738585072014e-308, 1], got 5e-324"),
    "subnormal rate_grid entry": (
        "optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates", "rate_grid": [5e-324]},
        "rate_grid entry must be in [2.2250738585072014e-308, 1], got 5e-324"),
    # An integer a made n**a a big-integer power, about 10 s before this refusal.
    "integer schedule a past the float range": (
        "limit-curve", {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "a": 2 ** 24}},
        "n**a or n**b on n_list exceeds the float range (a = 16777216.0, b = 1.0)"),
    "schedule c2 whose p_exp underflows": (
        "limit-curve", {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "c2": 5e-324}},
        "c2 / n**b at n = 5 must be in [2.2250738585072014e-308, 1], got 0.0"),
    "schedule c1 whose pi passes 0.5": (
        "limit-curve", {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "c1": 1e300}},
        "c1 / n**a at n = 5 must be in [2.2250738585072014e-308, 0.5], "
        "got 4.0000000000000003e+298"),
    "schedule c2 whose p_exp passes 1": (
        "limit-curve", {"setting": PAPER_SETTING, "schedule": {**SCHEDULE, "c2": 1e300}},
        "c2 / n**b at n = 5 must be in [2.2250738585072014e-308, 1], got 2e+299"),
    # Past 1e150, the squared deviations of 2^20 batch means can overflow.
    "simulate xG whose batch statistics would overflow": (
        "simulate", {"setting": {**PAPER_SETTING, "xG": 1e155}, "automaton": LADDER,
                     "rounds": 2000},
        "xG must be in (0, 1e150], got 1e+155"),
    # The resolvent solve loses about 2 eps / eta: its expected utility was
    # 1.1e-8 off at 1e-8, 0.787 against 0.864 at 1e-16, and -4.9e-285 at 1e-300.
    "static eta below its end": (
        "static-demo", {"policy": STICKY, "demo": "expected_utility",
                        "setting": {**STATIC_SETTING, "eta": 1e-8}},
        "eta must be in [1e-06, 1], got 1e-08"),
}


@pytest.mark.parametrize("command,doc,message", REFUSED_VALUES.values(), ids=REFUSED_VALUES)
def test_refused_value_exits_one_and_names_its_field(tmp_path, capsys, command, doc, message):
    assert one_error_line(tmp_path, capsys, command, doc) == f"error: {message}\n"


@pytest.mark.parametrize("command,doc", [
    ("optimize", {"setting": PAPER_SETTING, "n": 1, "partition": [[1]]}),
    ("optimize", {"setting": PAPER_SETTING, "n": 1, "partition": [[1], [4], [2]]}),
    ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates", "partition": [[1]]}),
    ("limit-curve", {"setting": PAPER_SETTING, "schedule": SCHEDULE, "partition": [[1]]}),
], ids=["optimize one side", "optimize three sides", "rates one side", "limit-curve one side"])
def test_malformed_partition_exits_one_and_names_it(tmp_path, capsys, command, doc):
    err = one_error_line(tmp_path, capsys, command, doc)
    assert err == f"error: partition must have 2 entries, got {len(doc['partition'])}\n"


# A config of each command whose keys are the keyword arguments of the function
# it calls, with no optional keyword given.
KEYWORD_CONFIGS = {
    "optimize pexp": ("optimize", {"setting": PAPER_SETTING, "n": 1}, optimize_pexp),
    "optimize partition": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "partition"},
                           exhaustive_partition_search),
    "optimize rates": ("optimize", {"setting": PAPER_SETTING, "n": 1, "mode": "rates"},
                       optimize_rates),
    "limit-curve": ("limit-curve", {"setting": PAPER_SETTING, "schedule": SCHEDULE},
                    limit_schedule_curve),
    "static polarization": ("static-demo", {"policy": STICKY, "demo": "polarization",
                                            "start_a": 1, "start_b": 2, "sequence": [1, 4]},
                            polarization_demo),
    "static first_impression": ("static-demo", {"policy": STICKY, "demo": "first_impression",
                                                "start": 1, "sequence": [1, 4]},
                                first_impression_demo),
    "static expected_utility": ("static-demo", {"policy": STICKY, "demo": "expected_utility",
                                                "setting": STATIC_SETTING},
                                static_expected_utility),
    "simulate": ("simulate", {"setting": PAPER_SETTING, "automaton": LADDER, "rounds": 2000},
                 SimConfig),
}


@pytest.mark.parametrize("command,doc,fn", KEYWORD_CONFIGS.values(), ids=KEYWORD_CONFIGS)
def test_config_keys_are_the_keyword_arguments_of_the_callee(tmp_path, capsys, command, doc,
                                                              fn):
    def output(doc):
        assert run_cli([command, "--config", write_config(tmp_path, doc)]) == 0
        return capsys.readouterr().out

    expected = output(doc)
    # A static demo's rule has a CLI default (threshold_rule), not a keyword default.
    for param in inspect.signature(fn).parameters.values():
        if param.name == "rule":
            continue
        if param.default is param.empty:
            less = {key: value for key, value in doc.items() if key != param.name}
            assert one_error_line(tmp_path, capsys, command, less).endswith(
                f" missing keys: ['{param.name}']\n")
        else:
            default = list(param.default) if isinstance(param.default, tuple) else param.default
            assert output({**doc, param.name: default}) == expected, param.name


def test_section_keys_reach_the_builder(tmp_path, capsys):
    # The keys that a typo above misses are read: r_d and prior1 change the result.
    config = write_config(tmp_path, {"setting": PAPER_SETTING, "automaton": {**LADDER, "r_d": 0.3}})
    assert run_cli(["eval-exact", "--config", config]) == 0
    policy = build_a_family(4, AFamilyParams(n=4, p_exp=0.0273668, pos=frozenset({1}),
                                             neg=frozenset({4}), r_d=0.3))
    expected = exact_average_payoff(validate_setting(**PAPER_SETTING), policy)
    assert json.loads(capsys.readouterr().out)["payoff"] == float(f"{expected:.12g}")
    config = write_config(tmp_path, {"problem": {"n": 20, "rho": 0.75, "c": 0.01, "prior1": 0.2}})
    assert run_cli(["reader", "--config", config]) == 0
    table = solve_reader_dp(ReaderProblem(n=20, rho=0.75, c=0.01, prior1=0.2))
    assert json.loads(capsys.readouterr().out) == {
        "value": float(f"{table.value(0, 0):.12g}"), "disregard_index": disregard_index(table)}


def test_key_error_is_a_bug_not_invalid_input(tmp_path, monkeypatch):
    def broken(problem):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "solve_reader_dp", broken)
    config = write_config(tmp_path, {"problem": {"n": 2, "rho": 0.75, "c": 0.01}})
    with pytest.raises(KeyError, match="internal"):
        run_cli(["reader", "--config", config])


def test_type_error_is_a_bug_not_invalid_input(tmp_path, monkeypatch):
    def broken(problem):
        raise TypeError("internal")

    monkeypatch.setattr(cli, "solve_reader_dp", broken)
    config = write_config(tmp_path, {"problem": {"n": 2, "rho": 0.75, "c": 0.01}})
    with pytest.raises(TypeError, match="internal"):
        run_cli(["reader", "--config", config])


@pytest.mark.parametrize("doc,message", [
    ({"setting": PAPER_SETTING, "n": 1, "mode": "rates", "rate_grid": []},
     "rate_grid must be nonempty"),
    ({"setting": {"k": 1, "pG": [1.0], "pB": [1.0], "xG": 1.0, "xB": -1.0, "pi": 0.1},
      "n": 1, "mode": "partition"}, "partition search needs k >= 2 signals, got k=1"),
], ids=["empty rate grid", "one signal"])
def test_search_with_nothing_to_search_exits_one_and_says_why(tmp_path, capsys, doc, message):
    assert one_error_line(tmp_path, capsys, "optimize", doc) == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["reproduce", "--workers", "2"],
    ["reproduce", "--write-goldens"],
    ["optimize", "--config", "cfg.json", "--workers", "2"],
    ["eval-exact"],
    ["no-such-command"],
    ["simulate", "--config", "cfg.json", "--workers", "2"],
])
def test_usage_error_exits_one_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error:" in captured.err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "bounded_agents.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "reproduce" in proc.stdout
