"""The benchmark's workloads: inputs from a seed, one pass of work, output checks.

One operation is one call into a public entry point of ``bounded_agents``.
A pass runs the workload's fixed work list once; the checks run after the
pass, outside its timing. An operation fails if it raises, or if a check on
its output fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path
from time import perf_counter

from bounded_agents import cli, markov_exact, optimize
from bounded_agents.dynamic_env import validate_setting

import tracer

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

REL_TOL = 1e-9
RESIDUAL_TOL = 1e-10

LADDER_N = (125, 250, 500, 1000, 2000)
SINKING_N = (125, 250, 500, 1000)
POLICY_N = 4
BRUTE_STATES = 2


def draw_signals(rng: random.Random, k: int = 4) -> list[float]:
    """A signal distribution whose entries are all at least 0.05 / 4.2, so
    every chain built on it stays irreducible."""
    w = [0.05 + rng.random() for _ in range(k)]
    total = sum(w)
    head = [x / total for x in w[:-1]]
    return head + [1.0 - sum(head)]


def draw_climbing_signals(rng: random.Random) -> tuple[list[float], list[float]]:
    """pG and pB, drawn again until the signal with the largest pG/pB ratio
    is more likely in G than the signal with the largest pB/pG ratio."""
    while True:
        pG, pB = draw_signals(rng), draw_signals(rng)
        pos = max(range(len(pG)), key=lambda i: pG[i] / pB[i])
        neg = max(range(len(pG)), key=lambda i: pB[i] / pG[i])
        if pG[pos] > pG[neg]:
            return pG, pB


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class ResidualLog:
    """Records the residual of every ``markov_exact.stationary`` call.

    Installed in untraced runs too; it costs one extra Python call per solve.
    """

    def __init__(self):
        self.residuals: list[tuple[int, float]] = []
        self._saved: list[tuple] = []

    def install(self):
        def make(stationary):
            def logged(chain, *args, **kwargs):
                dist = stationary(chain, *args, **kwargs)
                self.residuals.append((chain.dim, dist.residual))
                return dist

            return logged

        self._saved = tracer.rebind("markov_exact", "stationary", make)

    def uninstall(self):
        tracer.restore(self._saved)

    def take(self) -> list[tuple[int, float]]:
        out, self.residuals = self.residuals, []
        return out


def residual_failures(op: str, residuals) -> list[str]:
    return [
        f"{op}: residual {r!r} > {RESIDUAL_TOL} at dimension {dim}"
        for dim, r in residuals
        if not r <= RESIDUAL_TOL
    ]


def payoff_failures(op: str, payoff: float, xG: float) -> list[str]:
    if payoff <= xG / 2.0:
        return []
    return [f"{op}: payoff {payoff!r} above the bound xG/2 = {xG / 2.0!r}"]


def reference_failures(op: str, payoff: float, want: float) -> list[str]:
    if rel_err(payoff, want) <= REL_TOL:
        return []
    return [f"{op}: payoff {payoff!r} differs from the reference {want!r} "
            f"by {rel_err(payoff, want):.3g} relative"]


def load_reference(key: str, inputs: dict) -> dict:
    """The stored GTH payoffs under ``key``, after checking that they were
    made from the same inputs as this run's."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[key]
    if doc["inputs"] != inputs:
        raise ValueError(f"reference.json {key!r} was made from other inputs; "
                         f"rerun make_reference.py")
    return doc["payoffs"]


class Workload:
    """Base: subclasses set ``name`` and ``calibration`` (the calibrate.py
    loop whose work is most like theirs) and define ``ops`` and ``check``."""

    name = ""
    calibration = "mixed"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def ops(self):
        """[(op name, zero-argument callable)] for one pass."""
        raise NotImplementedError

    def check(self, op: str, result, residuals) -> list[str]:
        """One message per fault found in ``result``; empty if correct."""
        raise NotImplementedError


class PaperReproduce(Workload):
    """``bounded-agents reproduce`` with its defaults; the seed is unused."""

    name = "paper_reproduce"
    OUTPUTS = ("report.json", "limit_schedule_curve.csv")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.passes = 0
        self.first_bytes: dict[str, bytes] | None = None
        self.stdout = io.StringIO()

    def ops(self):
        self.passes += 1
        out = self.work_dir / f"reproduce_{self.passes}"

        def reproduce():
            self.stdout.seek(0)
            self.stdout.truncate()
            with contextlib.redirect_stdout(self.stdout):
                return out, cli.run_cli(["reproduce", "--out", str(out)])

        return [("cli.run_cli reproduce", reproduce)]

    def check(self, op, result, residuals):
        out, code = result
        try:
            if code != 0:
                return [f"{op}: exit code {code}: {self.stdout.getvalue()[-500:]}"]
            got = {f: (out / f).read_bytes() for f in self.OUTPUTS}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.first_bytes is None:
            self.first_bytes = got
        return [f"{op}: {f} differs from the first pass of this run"
                for f in self.OUTPUTS if got[f] != self.first_bytes[f]]


class LadderScaling(Workload):
    """Two limit-schedule curves, pi = 1/n^2 and p_exp = 1/n.

    The main curve, at n = 125..2000 (chain dimensions 252..4002), is drawn
    from the seed so that the ladder climbs in G: the signal it climbs on is
    more likely there than the one it descends on. When the ladder sinks in
    G instead, the stationary mass decays geometrically up the ladder and the
    dense LU solve runs into underflow and slows down by 2 to 10 times,
    differently for every draw. A fixed sinking setting at n = 125..1000
    keeps that slow path measured at a steady cost.
    """

    name = "ladder_scaling"
    calibration = "dense"
    SINKING = {"pG": [0.3, 0.3, 0.3, 0.1], "pB": [0.2, 0.45, 0.3, 0.05]}
    OPS = ("optimize.limit_schedule_curve", "optimize.limit_schedule_curve sinking")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.inputs = dict(zip(("pG", "pB"), draw_climbing_signals(rng)))
        self.curves = {
            op: (validate_setting(4, inputs["pG"], inputs["pB"], 1.0, -1.0, 1e-3),
                 optimize.ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=n_list),
                 inputs)
            for op, inputs, n_list in zip(self.OPS, (self.inputs, self.SINKING),
                                          (LADDER_N, SINKING_N))
        }

    def ops(self):
        return [(op, lambda c=c: optimize.limit_schedule_curve(c[0], c[1]))
                for op, c in self.curves.items()]

    def check(self, op, curve, residuals):
        setting, schedule, inputs = self.curves[op]
        if tuple(pt.n for pt in curve) != schedule.n_list:
            return [f"{op}: curve has points {[pt.n for pt in curve]}"]
        bad = residual_failures(op, residuals)
        for pt in curve:
            bad += payoff_failures(f"{op} n={pt.n}", pt.payoff, setting.xG)
        if self.seed == DEFAULT_SEED or inputs is self.SINKING:
            ref = load_reference(op, inputs)
            for pt in curve:
                bad += reference_failures(f"{op} n={pt.n}", pt.payoff, ref[str(pt.n)])
        return bad


class PolicySearch(Workload):
    """Rate search, partition search and brute force at n = 4."""

    name = "policy_search"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.inputs = {
            "pG": draw_signals(rng),
            "pB": draw_signals(rng),
            "pi": 10.0 ** rng.uniform(-3.0, -2.0),
            "xG": rng.uniform(0.5, 2.0),
            "xB": -rng.uniform(0.5, 2.0),
        }
        i = self.inputs
        self.setting = validate_setting(4, i["pG"], i["pB"], i["xG"], i["xB"], i["pi"])

    def ops(self):
        s = self.setting
        return [
            ("optimize.optimize_rates", lambda: optimize.optimize_rates(s, POLICY_N)),
            ("optimize.exhaustive_partition_search",
             lambda: optimize.exhaustive_partition_search(s, POLICY_N)),
            ("optimize.brute_force_policy_search",
             lambda: optimize.brute_force_policy_search(s, num_states=BRUTE_STATES)),
        ]

    def payoff(self, op: str, result) -> float:
        if op == "optimize.optimize_rates":
            return result.result.best_payoff
        if op == "optimize.exhaustive_partition_search":
            return result.best_payoff
        return result[1]

    def check(self, op, result, residuals):
        payoff = self.payoff(op, result)
        bad = residual_failures(op, residuals)
        bad += payoff_failures(op, payoff, self.setting.xG)
        if op == "optimize.brute_force_policy_search":
            again = markov_exact.exact_average_payoff(self.setting, result[0])
            if rel_err(payoff, again) > REL_TOL:
                bad.append(f"{op}: winner re-evaluates to {again!r}, search said {payoff!r}")
        if self.seed == DEFAULT_SEED:
            ref = load_reference(self.name, self.inputs)
            bad += reference_failures(op, payoff, ref[op])
        return bad


WORKLOADS = {w.name: w for w in (PaperReproduce, LadderScaling, PolicySearch)}


def run_pass(workload: Workload, log: ResidualLog,
             spans: tracer.Tracer | None = None) -> tuple[float, int, list[str]]:
    """Run one pass; returns (wall seconds, operations attempted, failures).

    ``failures`` holds one entry per failed operation, naming its first fault.
    With ``spans``, the pass's calls are traced; the checks never are.
    """
    outcomes = []
    if spans is not None:
        spans.install()
    try:
        start = perf_counter()
        for op, call in workload.ops():
            log.take()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed operation, counted below
                result, error = None, f"{op}: raised {type(exc).__name__}: {exc}"
            outcomes.append((op, result, error, log.take()))
        wall = perf_counter() - start
    finally:
        if spans is not None:
            spans.uninstall()
    failures = []
    for op, result, error, residuals in outcomes:
        if error is None:
            try:
                faults = workload.check(op, result, residuals)
            except Exception as exc:  # a check that cannot run fails the operation
                faults = [f"{op}: check raised {type(exc).__name__}: {exc}"]
            error = faults[0] if faults else None
        if error is not None:
            failures.append(error)
    return wall, len(outcomes), failures
