"""Command-line front end: JSON configs in, CSV/JSON results out.

Every subcommand is deterministic given its config and seed; all floats
are printed with 12 significant digits so outputs diff cleanly. Exit
codes: 0 success, 1 invalid input or usage, 2 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .automaton import (
    AFamilyParams,
    AutomatonPolicy,
    build_a_family,
    build_linear_sticky,
    check_policy,
    policy_from_dict,
)
from .bias_reader import (
    ReaderProblem,
    disregard_index,
    dp_table_csv,
    first_impression_reader,
    polarization_reader,
    simulate_reader,
    solve_reader_dp,
)
from .costly_comp import (
    ConversationSpec,
    PrimalityConfig,
    best_of,
    conversation_value,
    expected_utility,
    make_primality_instance,
    problem_from_dict,
)
from .dynamic_env import setting_from_dict
from .errors import BoundedAgentsError, ValidationError
from .markov_exact import build_joint_chain, chain_csv, chain_payoff, stationary
from .montecarlo import SimConfig, run_seed_sweep, sim_result_csv, simulate_run
from .optimize import (
    DEFAULT_RATE_GRID,
    ScheduleSpec,
    curve_csv,
    exhaustive_partition_search,
    optimize_pexp,
    optimize_rates,
    limit_schedule_curve,
    trace_csv,
)
from .reproduce import fmt, run_reproduce
from .static_model import (
    DecisionRule,
    StaticSetting,
    first_impression_demo,
    polarization_demo,
    propagation_csv,
    static_expected_utility,
    threshold_rule,
)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")


def _require(config: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise ValidationError(f"config missing keys: {missing}")


def _policy_from_config(doc: dict, k: int) -> AutomatonPolicy:
    kind = doc.get("type", "a_family")
    if kind == "a_family":
        _require(doc, "n", "p_exp", "pos", "neg")
        params = AFamilyParams(
            n=doc["n"], p_exp=doc["p_exp"],
            pos=frozenset(doc["pos"]), neg=frozenset(doc["neg"]),
            r_u=doc.get("r_u", 1.0), r_d=doc.get("r_d", 1.0),
        )
        return build_a_family(k, params)
    if kind == "linear_sticky":
        _require(doc, "num_states", "left_prob", "right_prob", "good_signal", "bad_signal")
        return build_linear_sticky(
            doc["num_states"], doc["left_prob"], doc["right_prob"],
            doc["good_signal"], doc["bad_signal"], k,
            initial_state=doc.get("initial_state", 0),
        )
    if kind == "policy":
        policy = policy_from_dict(doc, k)
        check_policy(policy, k)
        return policy
    raise ValidationError(f"unknown automaton type {kind!r}")


def _partition_from_config(doc) -> tuple[frozenset[int], frozenset[int]] | None:
    if doc is None:
        return None
    return frozenset(doc[0]), frozenset(doc[1])


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(doc: dict, path: str | None) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_eval_exact(args) -> int:
    config = _load_config(args.config)
    _require(config, "setting", "automaton")
    setting = setting_from_dict(config["setting"])
    policy = _policy_from_config(config["automaton"], setting.k)
    chain = build_joint_chain(setting, policy)
    dist = stationary(chain)
    payoff = chain_payoff(chain, dist)
    _emit_json(
        {"payoff": float(fmt(payoff)), "residual": float(fmt(dist.residual))},
        args.out,
    )
    if args.chain_csv:
        _write(args.chain_csv, chain_csv(chain, dist))
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    _require(config, "setting", "automaton", "rounds")
    setting = setting_from_dict(config["setting"])
    policy = _policy_from_config(config["automaton"], setting.k)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    sim_config = SimConfig(
        rounds=config["rounds"], seed=seed,
        burn_in=config.get("burn_in"), batches=config.get("batches", 20),
    )
    seeds = config.get("seeds")
    if seeds:
        results = run_seed_sweep(setting, policy, sim_config, seeds)
        lines = ["seed,mean,std_error"]
        for s, result in zip(seeds, results):
            lines.append(f"{s},{fmt(result.mean)},{fmt(result.std_error)}")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        result = simulate_run(setting, policy, sim_config)
        _write(args.out, sim_result_csv(result))
    if args.sidecar:
        _emit_json({"config": config, "seed": seed}, args.sidecar)
    return 0


def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    _require(config, "setting", "n")
    setting = setting_from_dict(config["setting"])
    grid = config.get("grid")
    r_u, r_d = config.get("r_u", 1.0), config.get("r_d", 1.0)
    mode = config.get("mode", "pexp")
    extra = {}
    if mode == "partition":
        result = exhaustive_partition_search(setting, config["n"], r_u=r_u, r_d=r_d, grid=grid)
    elif mode == "rates":
        rates = optimize_rates(
            setting, config["n"], _partition_from_config(config.get("partition")),
            rate_grid=tuple(config.get("rate_grid", DEFAULT_RATE_GRID)),
            grid=grid,
        )
        result = rates.result
        extra = {"r_u": rates.r_u, "r_d": rates.r_d}
    elif mode == "pexp":
        result = optimize_pexp(
            setting, config["n"], _partition_from_config(config.get("partition")),
            r_u=r_u, r_d=r_d, grid=grid,
        )
    else:
        raise ValidationError(f"unknown optimize mode {mode!r}")
    _emit_json(
        {
            "best_pexp": float(fmt(result.best_pexp)),
            "best_payoff": float(fmt(result.best_payoff)),
            "pos": sorted(result.partition[0]),
            "neg": sorted(result.partition[1]),
            **extra,
        },
        args.out,
    )
    if args.trace_csv:
        _write(args.trace_csv, trace_csv(result))
    return 0


def cmd_limit_curve(args) -> int:
    config = _load_config(args.config)
    _require(config, "setting", "schedule")
    setting = setting_from_dict(config["setting"])
    sched = config["schedule"]
    _require(sched, "c1", "a", "c2", "b", "n_list")
    schedule = ScheduleSpec(
        c1=sched["c1"], a=sched["a"], c2=sched["c2"], b=sched["b"],
        n_list=tuple(sched["n_list"]),
    )
    curve = limit_schedule_curve(
        setting, schedule, _partition_from_config(config.get("partition")),
        r_u=config.get("r_u", 1.0), r_d=config.get("r_d", 1.0),
    )
    _write(args.out, curve_csv(curve))
    return 0


def cmd_static_demo(args) -> int:
    config = _load_config(args.config)
    _require(config, "policy", "demo")
    k = config.get("k", config["policy"].get("k", 4))
    policy = _policy_from_config({**config["policy"], "type": config["policy"].get("type", "linear_sticky")}, k)
    rule = (
        DecisionRule(decide=tuple(config["rule"]))
        if "rule" in config
        else threshold_rule(policy.num_states)
    )
    demo = config["demo"]
    out: dict = {}
    if demo == "polarization":
        _require(config, "start_a", "start_b", "sequence")
        result = polarization_demo(
            policy, config["start_a"], config["start_b"], config["sequence"], rule
        )
        out = {
            "modal_a": result.modal_a,
            "modal_b": result.modal_b,
            "diverged": result.diverged,
            "decision_dist_a": {k2: float(fmt(v)) for k2, v in result.decision_dist_a.items()},
            "decision_dist_b": {k2: float(fmt(v)) for k2, v in result.decision_dist_b.items()},
        }
    elif demo == "first_impression":
        _require(config, "start", "sequence")
        result = first_impression_demo(policy, config["start"], config["sequence"], rule)
        out = {
            "forward": result.decision_forward,
            "reversed": result.decision_reversed,
            "order_sensitive": result.order_sensitive,
        }
    elif demo == "expected_utility":
        _require(config, "setting")
        _require(config["setting"], "k", "pG", "pB", "eta")
        setting = StaticSetting(
            k=config["setting"]["k"],
            pG=tuple(config["setting"]["pG"]),
            pB=tuple(config["setting"]["pB"]),
            eta=config["setting"]["eta"],
            utility=tuple(tuple(row) for row in config["setting"].get(
                "utility", ((1.0, 0.0), (0.0, 1.0)))),
            prior_G=config["setting"].get("prior_G", 0.5),
        )
        out = {"expected_utility": float(fmt(static_expected_utility(setting, policy, rule)))}
    else:
        raise ValidationError(f"unknown static demo {demo!r}")
    _emit_json(out, args.out)
    if args.propagation_csv and "sequence" in config:
        start = config.get("start", config.get("start_a", policy.initial_state))
        _write(args.propagation_csv, propagation_csv(policy, start, config["sequence"], rule))
    return 0


def cmd_reader(args) -> int:
    config = _load_config(args.config)
    _require(config, "problem")
    p = config["problem"]
    _require(p, "n", "rho", "c")
    problem = ReaderProblem(n=p["n"], rho=p["rho"], c=p["c"], prior1=p.get("prior1", 0.5))
    table = solve_reader_dp(problem)
    out: dict = {
        "value": float(fmt(table.value(0, 0))),
        "disregard_index": disregard_index(table),
    }
    if "sequence" in config:
        run = simulate_reader(problem, table, config["sequence"])
        report = first_impression_reader(problem, config["sequence"])
        out["run"] = {"guess": run.guess, "reads": run.reads}
        out["first_impression"] = {
            "forward": report.guess_forward,
            "reversed": report.guess_reversed,
            "differs": report.differs,
            "full_info_guess": report.full_info_guess,
        }
    if "polarization" in config:
        pol = config["polarization"]
        _require(pol, "prior_b", "sequence")
        other = replace(problem, prior1=pol["prior_b"])
        guess_a, guess_b, diverged = polarization_reader(problem, other, pol["sequence"])
        out["polarization"] = {
            "guess_a": guess_a, "guess_b": guess_b, "diverged": diverged,
        }
    _emit_json(out, args.out)
    if args.table_csv:
        _write(args.table_csv, dp_table_csv(table))
    return 0


def cmd_machine(args) -> int:
    config = _load_config(args.config)
    out: dict = {}
    if "primality" in config:
        p = config["primality"]
        pc = PrimalityConfig(
            type_bound=p.get("type_bound", 2**16),
            step_cap=p.get("step_cap", 2**20),
            machines=tuple(p.get("machines", PrimalityConfig().machines)),
        )
        problem = make_primality_instance(pc)
    elif "problem" in config:
        problem = problem_from_dict(config["problem"])
    else:
        raise ValidationError("config needs a 'primality' or 'problem' section")
    eus = [expected_utility(problem, i) for i in range(len(problem.machines))]
    out["expected_utility"] = {
        machine.name: float(fmt(eu)) for machine, eu in zip(problem.machines, eus)
    }
    idx, eu = best_of(eus)
    out["best_machine"] = problem.machines[idx].name
    out["best_eu"] = float(fmt(eu))
    if "conversation" in config:
        c = config["conversation"]
        _require(c, "domain_size", "questions", "payoff")
        out["conversation_value"] = float(fmt(conversation_value(
            ConversationSpec(c["domain_size"], c["questions"], c["payoff"])
        )))
    _emit_json(out, args.out)
    return 0


def cmd_reproduce(args) -> int:
    return run_reproduce(Path(args.out), write_goldens=args.write_goldens)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1; exit 2 means a reproduction mismatch
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bounded-agents",
        description="Finite-state and complexity-charged decision models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra_flags):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("eval-exact", cmd_eval_exact,
        **{"--chain-csv": dict(default=None, help="also write the joint chain CSV")})
    add("simulate", cmd_simulate,
        **{"--seed": dict(type=int, default=None, help="override the config seed"),
           "--sidecar": dict(default=None, help="JSON provenance sidecar path")})
    add("optimize", cmd_optimize,
        **{"--trace-csv": dict(default=None, help="also write the search trace CSV")})
    add("limit-curve", cmd_limit_curve)
    add("static-demo", cmd_static_demo,
        **{"--propagation-csv": dict(default=None, help="also write per-step distributions")})
    add("reader", cmd_reader,
        **{"--table-csv": dict(default=None, help="also write the DP table CSV")})
    add("machine", cmd_machine)
    rep = sub.add_parser("reproduce")
    rep.add_argument("--out", default="reproduce_out", help="output directory")
    rep.add_argument("--write-goldens", action="store_true",
                     help="rewrite the committed goldens from this run (maintainers)")
    rep.set_defaults(fn=cmd_reproduce)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BoundedAgentsError, ValueError, TypeError, KeyError) as exc:
        # Malformed configs surface as one diagnostic line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
