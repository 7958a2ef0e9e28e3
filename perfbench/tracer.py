"""Spans around calls into the package's public functions, installed from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
traced function with a timing wrapper in every package module that binds it,
because ``from .x import y`` gives each importing module its own name to look
up. Spans (name, start, end, parent) are kept in memory; ``layer_metrics``
turns one pass's spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

PACKAGE = "bounded_agents"

# Public entry points of each layer (module) whose calls become spans.
TRACED = {
    "dynamic_env": ("validate_setting", "is_nontrivial", "oracle_upper_bound"),
    "automaton": ("build_a_family", "build_linear_sticky", "check_policy"),
    "markov_exact": (
        "agent_step_matrix", "build_joint_chain", "check_irreducible",
        "stationary", "exact_average_payoff", "stopped_state_distribution",
    ),
    "montecarlo": ("uniform_stream", "simulate_run", "compare_exact_mc", "run_seed_sweep"),
    "optimize": (
        "default_partition", "optimize_pexp", "optimize_rates",
        "exhaustive_partition_search", "limit_schedule_curve",
        "brute_force_policy_search",
    ),
    "static_model": (
        "static_expected_utility", "propagate_sequence",
        "polarization_demo", "first_impression_demo",
    ),
    "bias_reader": (
        "solve_reader_dp", "simulate_reader", "first_impression_reader",
        "polarization_reader", "disregard_index",
    ),
    "costly_comp": (
        "make_primality_instance", "expected_utility", "best_machine",
        "conversation_value",
    ),
    "reproduce": (
        "run_reproduce", "compute_paper_numbers", "run_demo_checks",
        "run_claim_checks", "write_outputs",
    ),
    "cli": ("run_cli",),
}
LAYERS = tuple(TRACED)

# Chain dimensions of the ladder_scaling work list, n in (125, ..., 2000).
LADDER_DIMS = (252, 502, 1002, 2002, 4002)

MB = float(1 << 20)

# Span fields: [name, start, end, parent index or -1, raised, size].
NAME, START, END, PARENT, RAISED, SIZE = range(6)


def _size_of(name, args, result):
    """The amount a call handled, for the layers whose counters need one.

    The package passes these arguments by position; a keyword call gives None.
    """
    if name == "montecarlo.uniform_stream":
        return result.nbytes
    if name == "markov_exact.build_joint_chain":
        return result.P.nbytes
    if name == "montecarlo.simulate_run" and len(args) >= 3:
        return args[2].rounds
    if name == "markov_exact.stationary" and args:
        return args[0].dim
    if name == "costly_comp.expected_utility" and len(args) >= 2:
        return (id(args[0]), args[1])
    return None


def rebind(layer: str, fn_name: str, make_wrapper) -> list[tuple]:
    """Bind ``make_wrapper(f)`` in place of ``layer.fn_name`` in every package
    module that binds that function; returns what ``restore`` needs."""
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
    modules.append(importlib.import_module(PACKAGE))
    original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fn_name)
    wrapper = make_wrapper(original)
    saved = []
    for module in modules:
        if getattr(module, fn_name, None) is original:
            saved.append((module, fn_name, original))
            setattr(module, fn_name, wrapper)
    return saved


def restore(saved: list[tuple]) -> None:
    for module, fn_name, original in reversed(saved):
        setattr(module, fn_name, original)


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[SIZE] = _size_of(name, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function at each place the package looks it up."""
        for layer, names in TRACED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                self._saved += rebind(layer, fn_name, lambda fn: self._wrap(name, fn))

    def uninstall(self):
        restore(self._saved)
        self._saved.clear()

    def reset(self):
        self.spans.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are nested and single-threaded, so children never overlap and the
    covered time is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, names in TRACED.items() for fn in names]


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    The module self times plus ``trace.outside_s`` add up to ``wall_s``.
    """
    own = self_times(spans)
    calls = dict.fromkeys(function_names(), 0)
    self_s = dict.fromkeys(function_names(), 0.0)
    raised = dict.fromkeys(function_names(), 0)
    in_pexp = [False] * len(spans)
    evals_in_search = 0
    rounds = 0
    sim_s = 0.0
    eu_keys = set()
    uniform_bytes = 0
    matrix_bytes = 0
    solve_ms: dict[int, list[float]] = {d: [] for d in LADDER_DIMS}
    roots_s = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        self_s[name] += own[i]
        raised[name] += s[RAISED]
        parent = s[PARENT]
        if parent < 0:
            roots_s += dur
        in_pexp[i] = name == "optimize.optimize_pexp" or (parent >= 0 and in_pexp[parent])
        if name == "markov_exact.exact_average_payoff" and in_pexp[i]:
            evals_in_search += 1
        elif name == "montecarlo.simulate_run" and s[SIZE] is not None:
            rounds += s[SIZE]
            sim_s += dur
        elif name == "montecarlo.uniform_stream" and s[SIZE] is not None:
            uniform_bytes = max(uniform_bytes, s[SIZE])
        elif name == "markov_exact.build_joint_chain" and s[SIZE] is not None:
            matrix_bytes = max(matrix_bytes, s[SIZE])
        elif name == "markov_exact.stationary" and s[SIZE] in solve_ms:
            solve_ms[s[SIZE]].append(dur * 1e3)
        elif name == "costly_comp.expected_utility" and s[SIZE] is not None:
            eu_keys.add(s[SIZE])

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[f"{layer}.{fn}"] for fn in TRACED[layer])

    def fn_metric(fn, *quantities):
        for q in quantities:
            m[f"{fn}.{q}"] = {"calls": calls, "self_s": self_s, "failed": raised}[q][fn]

    fn_metric("montecarlo.simulate_run", "calls", "self_s")
    fn_metric("montecarlo.uniform_stream", "self_s")
    m["montecarlo.uniform_mb"] = uniform_bytes / MB
    m["montecarlo.rounds_per_s"] = rounds / sim_s if sim_s > 0 else 0.0
    fn_metric("costly_comp.make_primality_instance", "self_s")
    fn_metric("costly_comp.expected_utility", "calls", "self_s")
    eu_calls = calls["costly_comp.expected_utility"]
    m["costly_comp.eu_useful_ratio"] = len(eu_keys) / eu_calls if eu_calls else 0.0
    fn_metric("markov_exact.stationary", "calls", "self_s", "failed")
    for dim, samples in solve_ms.items():
        m[f"markov_exact.stationary.ms_per_call.d{dim}"] = (
            statistics.fmean(samples) if samples else 0.0
        )
    fn_metric("markov_exact.check_irreducible", "calls", "self_s")
    fn_metric("markov_exact.build_joint_chain", "calls", "self_s")
    fn_metric("markov_exact.agent_step_matrix", "self_s")
    fn_metric("markov_exact.exact_average_payoff", "calls")
    m["markov_exact.joint_matrix_mb"] = matrix_bytes / MB
    fn_metric("optimize.optimize_pexp", "calls", "self_s")
    pexp_calls = calls["optimize.optimize_pexp"]
    m["optimize.evals_per_search"] = evals_in_search / pexp_calls if pexp_calls else 0.0
    fn_metric("optimize.brute_force_policy_search", "self_s")
    fn_metric("optimize.limit_schedule_curve", "calls", "self_s")
    fn_metric("automaton.build_a_family", "calls", "self_s")
    fn_metric("automaton.check_policy", "calls", "self_s")
    fn_metric("dynamic_env.validate_setting", "calls", "self_s")
    fn_metric("bias_reader.solve_reader_dp", "calls", "self_s")
    fn_metric("reproduce.write_outputs", "self_s")
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall_s
    m["trace.outside_s"] = wall_s - roots_s
    return m
