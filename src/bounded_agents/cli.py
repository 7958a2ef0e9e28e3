"""Command-line front end: JSON configs in, CSV/JSON results out.

Every subcommand is deterministic given its config and seed. Every float
in a result, JSON or CSV, is rounded to 12 significant digits so outputs
diff cleanly; the simulate --sidecar echoes the config as given. Exit
codes: 0 success, 1 invalid input or usage, 2 reproduction mismatch.

Each config section holds exactly the keyword arguments of what it builds, and
so do a config's other keys for the function its command calls (see _keywords);
a key that the subcommand and mode never read exits 1.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, replace
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
from .dynamic_env import validate_setting
from .errors import (
    BoundedAgentsError,
    ValidationError,
    check_keys,
    check_list,
    check_object,
    check_real,
)
from .markov_exact import build_joint_chain, stationary
from .montecarlo import SimConfig, run_seed_sweep, simulate_run
from .optimize import (
    ScheduleSpec,
    exhaustive_partition_search,
    optimize_pexp,
    optimize_rates,
    limit_schedule_curve,
)
from .reproduce import CURVE_HEADER, csv_text, json_text, round_floats, run_reproduce
from .static_model import (
    DecisionRule,
    StaticSetting,
    decision_distribution,
    first_impression_demo,
    modal_decision,
    polarization_demo,
    propagate_sequence,
    static_expected_utility,
    threshold_rule,
)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}")
    check_object(config, "config")
    return config


def _keywords(fn, skip=()) -> tuple[list[str], list[str]]:
    """The parameters of ``fn`` outside ``skip``: those without a default, and all."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in skip]
    return [p.name for p in params if p.default is p.empty], [p.name for p in params]


def _section(make, doc, what: str, **fixed):
    """``make(**doc, **fixed)``, once ``doc`` holds every parameter of ``make``
    outside ``fixed`` that has no default, and no key that is not one."""
    check_keys(doc, what, *_keywords(make, fixed))
    return make(**doc, **fixed)


def _given(config: dict, keys) -> dict:
    """The entries of ``config`` under ``keys``: an absent key takes the callee's default."""
    return {key: config[key] for key in keys if key in config}


def _policy_from_config(doc, what: str, k: int | None, kind: str = "a_family") -> AutomatonPolicy:
    """The automaton a section describes: its "type" (default ``kind``) picks
    the builder, and its other keys are the builder's, except that with ``k``
    None the signal count is the section's "k" (default 4)."""
    check_object(doc, what)
    doc = dict(doc)
    kind = doc.pop("type", kind)
    k = doc.pop("k", 4) if k is None else k
    if kind == "a_family":
        return build_a_family(k, _section(AFamilyParams, doc, what))
    if kind == "linear_sticky":
        return _section(build_linear_sticky, doc, what, k=k)
    if kind == "policy":
        policy = policy_from_dict(doc, k)
        check_policy(policy, k)
        return policy
    raise ValidationError(f"unknown automaton type {kind!r}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(doc: dict, path: str | None) -> None:
    _write(path, json_text(round_floats(doc)))


def cmd_eval_exact(config: dict, args) -> int:
    check_keys(config, "config", ("setting", "automaton"))
    setting = _section(validate_setting, config["setting"], "setting")
    policy = _policy_from_config(config["automaton"], "automaton", setting.k)
    chain = build_joint_chain(setting, policy)
    dist = stationary(chain)
    _emit_json({"payoff": dist.payoff, "residual": dist.residual}, args.out)
    if args.chain_csv:
        rows = [(*chain.state_of(row), chain.reward[row], dist.mu[row])
                for row in range(chain.dim)]
        _write(args.chain_csv,
               csv_text(("nature", "agent_state", "reward", "stationary_mass"), rows))
    return 0


def cmd_simulate(config: dict, args) -> int:
    required, allowed = _keywords(SimConfig)
    check_keys(config, "config", ("setting", "automaton", *required), ("seeds", *allowed))
    setting = _section(validate_setting, config["setting"], "setting")
    policy = _policy_from_config(config["automaton"], "automaton", setting.k)
    seed = {} if args.seed is None else {"seed": args.seed}
    sim_config = SimConfig(**{**_given(config, allowed), **seed})
    seeds = check_list(config.get("seeds", ()), "seeds")
    if seeds:
        results = run_seed_sweep(setting, policy, sim_config, seeds)
        _write(args.out, csv_text(("seed", "mean", "std_error"),
                                  [(s, r.mean, r.std_error) for s, r in zip(seeds, results)]))
    else:
        result = simulate_run(setting, policy, sim_config)
        _write(args.out, csv_text(("batch_index", "batch_mean"),
                                  [*enumerate(result.batch_means), ("mean", result.mean),
                                   ("std_error", result.std_error)]))
    if args.sidecar:
        _write(args.sidecar, json_text({"config": config, "seed": sim_config.seed}))
    return 0


# The search each optimize mode runs; its config is the search's keyword arguments.
_SEARCHES = {"pexp": optimize_pexp, "partition": exhaustive_partition_search,
             "rates": optimize_rates}


def cmd_optimize(config: dict, args) -> int:
    mode = config.get("mode", "pexp")
    if not isinstance(mode, str) or mode not in _SEARCHES:
        raise ValidationError(f"unknown optimize mode {mode!r}")
    required, allowed = _keywords(_SEARCHES[mode], {"setting"})
    check_keys(config, f"{mode} mode config", ("setting", *required), ("mode", *allowed))
    setting = _section(validate_setting, config["setting"], "setting")
    result = _SEARCHES[mode](setting, **_given(config, allowed))
    extra = {}
    if mode == "rates":
        result, extra = result.result, {"r_u": result.r_u, "r_d": result.r_d}
    _emit_json(
        {
            "best_pexp": result.best_pexp,
            "best_payoff": result.best_payoff,
            "pos": sorted(result.partition[0]),
            "neg": sorted(result.partition[1]),
            **extra,
        },
        args.out,
    )
    if args.trace_csv:
        _write(args.trace_csv, csv_text(("p_exp", "payoff"), result.grid_trace))
    return 0


def cmd_limit_curve(config: dict, args) -> int:
    check_keys(config, "config", *_keywords(limit_schedule_curve))
    setting = _section(validate_setting, config["setting"], "setting")
    schedule = _section(ScheduleSpec, config["schedule"], "schedule")
    curve = limit_schedule_curve(**{**config, "setting": setting, "schedule": schedule})
    _write(args.out, csv_text(CURVE_HEADER, [(pt.n, pt.pi, pt.p_exp, pt.payoff)
                                             for pt in curve]))
    return 0


# The function each static demo calls; its parameters are the config's keys.
_DEMOS = {"polarization": polarization_demo, "first_impression": first_impression_demo,
          "expected_utility": static_expected_utility}


def cmd_static_demo(config: dict, args) -> int:
    demo = config.get("demo")
    if "demo" in config and (not isinstance(demo, str) or demo not in _DEMOS):
        raise ValidationError(f"unknown static demo {demo!r}")
    required = _keywords(_DEMOS[demo], {"policy", "rule"})[0] if demo in _DEMOS else []
    # "start" and "sequence" also feed --propagation-csv, under any demo.
    check_keys(config, "config", ("policy", "demo", *required), ("k", "rule", "start", "sequence"))
    if args.propagation_csv and "sequence" not in config:
        raise ValidationError('--propagation-csv needs a "sequence" in the config')
    policy = _policy_from_config(config["policy"], "policy", config.get("k"), "linear_sticky")
    rule = DecisionRule(config["rule"]) if "rule" in config else threshold_rule(policy.num_states)
    if demo == "expected_utility":
        setting = _section(StaticSetting, config["setting"], "setting")
        out = {"expected_utility": static_expected_utility(setting, policy, rule)}
    else:
        out = asdict(_DEMOS[demo](policy, rule=rule, **_given(config, required)))
    _emit_json(out, args.out)
    if args.propagation_csv:
        # Each demo has checked the rule against the policy by now.
        start = config.get("start", config.get("start_a", policy.initial_state))
        dists = propagate_sequence(policy, start, config["sequence"])
        header = ("step", *(f"state_{q}" for q in range(policy.num_states)), "modal_decision")
        _write(args.propagation_csv, csv_text(header, [
            (step, *dist, modal_decision(decision_distribution(dist, rule)))
            for step, dist in enumerate(dists)]))
    return 0


def cmd_reader(config: dict, args) -> int:
    check_keys(config, "config", ("problem",), ("sequence", "polarization"))
    problem = _section(ReaderProblem, config["problem"], "problem")
    table = solve_reader_dp(problem)
    out: dict = {
        "value": table.value(0, 0),
        "disregard_index": disregard_index(table),
    }
    if "sequence" in config:
        run = simulate_reader(table, config["sequence"])
        out["run"] = {"guess": run.guess, "reads": run.reads}
        out["first_impression"] = asdict(first_impression_reader(table, config["sequence"]))
    if "polarization" in config:
        pol = config["polarization"]
        check_keys(pol, "polarization", ("prior_b", "sequence"))
        check_real(pol["prior_b"], "prior_b", "(0, 1)")
        other = replace(problem, prior1=pol["prior_b"])
        table_b = table if other == problem else solve_reader_dp(other)
        out["polarization"] = asdict(polarization_reader(table, table_b, pol["sequence"]))
    _emit_json(out, args.out)
    if args.table_csv:
        rows = [(i, d, table.value(i, d), int(table.should_stop(i, d)))
                for i in range(problem.n + 1) for d in range(-i, i + 1)]
        _write(args.table_csv, csv_text(("i", "d", "W", "stop"), rows))
    return 0


def cmd_machine(config: dict, args) -> int:
    out: dict = {}
    if "primality" in config:
        check_keys(config, "config", ("primality",), ("conversation",))
        primality = _section(PrimalityConfig, config["primality"], "primality")
        problem = make_primality_instance(primality)
    elif "problem" in config:
        check_keys(config, "config", ("problem",), ("conversation",))
        problem = problem_from_dict(config["problem"])
    else:
        raise ValidationError("config needs a 'primality' or 'problem' section")
    eus = [expected_utility(problem, i) for i in range(len(problem.machines))]
    out["expected_utility"] = {machine.name: eu for machine, eu in zip(problem.machines, eus)}
    idx, out["best_eu"] = best_of(eus)
    out["best_machine"] = problem.machines[idx].name
    if "conversation" in config:
        spec = _section(ConversationSpec, config["conversation"], "conversation")
        out["conversation_value"] = conversation_value(spec)
    _emit_json(out, args.out)
    return 0


def cmd_reproduce(args) -> int:
    return run_reproduce(Path(args.out))


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
        p.set_defaults(fn=lambda args: fn(_load_config(args.config), args))
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
    rep.set_defaults(fn=cmd_reproduce)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BoundedAgentsError, ValueError) as exc:
        # Malformed configs surface as one diagnostic line, not a traceback.
        # Keys, numbers and lists are checked before they are used, so a
        # KeyError or TypeError is a bug and propagates.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
