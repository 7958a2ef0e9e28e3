"""Write reference.json: payoffs from the independent GTH solve.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The ladder_scaling payoffs (default seed, and the fixed sinking setting)
come from the schedule alone. For policy_search, at the default seed, the
winners (rates, partition, exploration probability, brute-force policy) come
from one run of the package's searches; their payoffs come from gth.py. The
script prints how far the package's own payoffs are from the references.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gth
import workloads
from bounded_agents import optimize


def likelihood_partition(pG, pB):
    """Signals with the largest pG/pB and pB/pG ratios (no ties occur on
    drawn inputs)."""
    pos = max(range(len(pG)), key=lambda i: pG[i] / pB[i]) + 1
    neg = max(range(len(pG)), key=lambda i: pB[i] / pG[i]) + 1
    return frozenset({pos}), frozenset({neg})


def ladder_reference(inputs: dict, n_list) -> dict:
    pG, pB = inputs["pG"], inputs["pB"]
    pos, neg = likelihood_partition(pG, pB)
    out = {}
    for n in n_list:
        agents = gth.ladder_agents(pG, pB, n, 1.0 / n, pos, neg)
        out[str(n)] = gth.payoff(*agents, 1.0 / n**2, 1.0, -1.0)
    return out


def policy_reference(w: workloads.PolicySearch) -> tuple[dict, dict]:
    i = w.inputs
    common = (i["pi"], i["xG"], i["xB"])
    rates = optimize.optimize_rates(w.setting, workloads.POLICY_N)
    parts = optimize.exhaustive_partition_search(w.setting, workloads.POLICY_N)
    policy, _ = optimize.brute_force_policy_search(w.setting, num_states=workloads.BRUTE_STATES)

    def ladder(result, r_u, r_d):
        pos, neg = result.partition
        agents = gth.ladder_agents(i["pG"], i["pB"], workloads.POLICY_N,
                                   result.best_pexp, pos, neg, r_u, r_d)
        return gth.payoff(*agents, *common)

    payoffs = {
        "optimize.optimize_rates": ladder(rates.result, rates.r_u, rates.r_d),
        "optimize.exhaustive_partition_search": ladder(parts, 1.0, 1.0),
        "optimize.brute_force_policy_search":
            gth.payoff(*gth.policy_agents(policy, i["pG"], i["pB"]), *common),
    }
    winners = {
        "optimize.optimize_rates": {
            "r_u": rates.r_u, "r_d": rates.r_d, "p_exp": rates.result.best_pexp,
            "partition": [sorted(p) for p in rates.result.partition]},
        "optimize.exhaustive_partition_search": {
            "p_exp": parts.best_pexp, "partition": [sorted(p) for p in parts.partition]},
        "optimize.brute_force_policy_search": {
            "actions": list(policy.actions),
            "kernel": {str(k): v for k, v in sorted(policy.kernel.items(), key=str)}},
    }
    return payoffs, winners


def main() -> int:
    seed = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory() as tmp:
        ladder = workloads.LadderScaling(seed, Path(tmp))
        policy = workloads.PolicySearch(seed, Path(tmp))
    doc = {"about": "GTH payoffs; see make_reference.py", "seed": seed}
    for op, (_, schedule, inputs) in ladder.curves.items():
        doc[op] = {"inputs": inputs, "payoffs": ladder_reference(inputs, schedule.n_list)}
    policy_payoffs, winners = policy_reference(policy)
    doc["policy_search"] = {"inputs": policy.inputs, "winners": winners,
                            "payoffs": policy_payoffs}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for op, (setting, schedule, _) in ladder.curves.items():
        for pt in optimize.limit_schedule_curve(setting, schedule):
            ref = doc[op]["payoffs"][str(pt.n)]
            print(f"{op} n={pt.n}: package {pt.payoff!r}, GTH {ref!r}, "
                  f"relative difference {workloads.rel_err(pt.payoff, ref):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
