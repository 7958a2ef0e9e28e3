"""Forward simulation of the dynamic model, as a check on the exact solver.

Randomness comes from splitmix64, a counter-based 64-bit generator: the
uniform at counter i is a pure function of (seed, i), so runs are
bit-reproducible across platforms and Python versions. The counter layout
is fixed: counter 0 picks the initial nature state (G iff u < 0.5), and
round t consumes counters 1+3t, 2+3t, 3+3t for the signal draw, the
kernel-row draw, and the nature flip. The signal uniform is consumed but
unused in safe states so that the layout never depends on the trajectory.
Signals and kernel rows are sampled by inverse CDF in index order; the
sampling path contains no transcendental calls.

Per-round payoffs are autocorrelated when pi is small, so the standard
error uses batch means rather than an i.i.d. formula.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .automaton import RISKY, AutomatonPolicy, check_dynamic_policy
from .dynamic_env import DynamicSetting
from .errors import ValidationError
from .markov_exact import exact_average_payoff

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 uniforms in [0, 1) at counter positions start..start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    """Run length, burn-in, seed, and batch count for one simulation."""

    rounds: int
    seed: int
    burn_in: int | None = None  # default: 1% of rounds
    batches: int = 20

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError(f"rounds must be positive, got {self.rounds}")
        if self.batches < 2:
            raise ValidationError(f"need at least 2 batches, got {self.batches}")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.rounds // 100)
        if not (0 <= self.burn_in < self.rounds):
            raise ValidationError(
                f"burn_in must be in [0, rounds), got {self.burn_in}"
            )
        if (self.rounds - self.burn_in) < self.batches:
            raise ValidationError("not enough post-burn-in rounds for the batches")


@dataclass(frozen=True)
class SimResult:
    mean: float
    std_error: float
    batch_means: tuple[float, ...]
    rounds_used: int


@dataclass(frozen=True)
class ComparisonReport:
    exact: float
    mc_mean: float
    std_error: float
    z_score: float


def _compiled_tables(setting: DynamicSetting, policy: AutomatonPolicy):
    """Lookup lists for the hot loop: ``rows[q][s - 1]`` holds the cumulative
    sums and next states of row (q, s), its positive entries in next-state
    order (the last sum set to 1.0), then zero entries the draw never reaches."""
    cdf_g = list(np.cumsum(setting.pG))
    cdf_b = list(np.cumsum(setting.pB))
    cdf_g[-1] = cdf_b[-1] = 1.0
    zero = policy.prob == 0.0
    order = np.argsort(policy.next_state + policy.num_states * zero, axis=-1, kind="stable")
    cums = np.cumsum(np.take_along_axis(policy.prob, order, -1), axis=-1)
    cums[np.arange(cums.shape[-1]) >= (~zero).sum(axis=-1, keepdims=True) - 1] = 1.0
    nexts = np.take_along_axis(policy.next_state, order, -1)
    rows = [list(zip(*per_state)) for per_state in zip(cums.tolist(), nexts.tolist())]
    risky = [a == RISKY for a in policy.actions]
    return cdf_g, cdf_b, rows, risky


def simulate_run(
    setting: DynamicSetting, policy: AutomatonPolicy, config: SimConfig
) -> SimResult:
    """Simulate one seeded run; a deterministic function of its inputs."""
    check_dynamic_policy(policy, setting.k)
    cdf_g, cdf_b, rows, risky = _compiled_tables(setting, policy)
    rounds = config.rounds
    u = uniform_stream(config.seed, 0, 1 + 3 * rounds)
    theta = 0 if u[0] < 0.5 else 1  # 0 = G, 1 = B; nature starts stationary
    q = policy.initial_state
    payoffs = np.zeros(rounds)
    pay = (setting.xG, setting.xB)
    pi = setting.pi
    for t in range(rounds):
        base = 1 + 3 * t
        if risky[q]:
            payoffs[t] = pay[theta]
            us = u[base]
            cdf = cdf_g if theta == 0 else cdf_b
            s = 0
            while us >= cdf[s]:
                s += 1
        else:  # Safe: no signal is drawn, and every signal's row is the same
            s = 0
        cums, nexts = rows[q][s]
        um = u[base + 1]
        j = 0
        while um >= cums[j]:
            j += 1
        q = nexts[j]
        if u[base + 2] < pi:
            theta ^= 1

    kept = payoffs[config.burn_in :]
    per_batch = len(kept) // config.batches
    used = per_batch * config.batches
    bm = kept[:used].reshape(config.batches, per_batch).mean(axis=1)
    mean = float(bm.mean())
    std_error = float(bm.std(ddof=1) / np.sqrt(config.batches))
    return SimResult(
        mean=mean,
        std_error=std_error,
        batch_means=tuple(float(x) for x in bm),
        rounds_used=used,
    )


def compare_exact_mc(
    setting: DynamicSetting, policy: AutomatonPolicy, config: SimConfig
) -> ComparisonReport:
    """Exact stationary payoff vs one Monte Carlo run, with a z-score."""
    exact = exact_average_payoff(setting, policy)
    result = simulate_run(setting, policy, config)
    z = (result.mean - exact) / result.std_error if result.std_error > 0 else float("inf")
    return ComparisonReport(
        exact=exact, mc_mean=result.mean, std_error=result.std_error, z_score=z
    )


def _sweep_worker(args) -> SimResult:
    setting, policy, config, seed = args
    return simulate_run(setting, policy, replace(config, seed=seed))


def run_seed_sweep(
    setting: DynamicSetting,
    policy: AutomatonPolicy,
    config: SimConfig,
    seeds: Sequence[int],
    workers: int = 1,
) -> list[SimResult]:
    """One run per seed, in seed-list order regardless of scheduling."""
    jobs = [(setting, policy, config, seed) for seed in seeds]
    if workers <= 1 or len(jobs) <= 1:
        return [_sweep_worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, jobs))


def sim_result_csv(result: SimResult) -> str:
    """Per-batch rows then labeled summary rows; fixed column order."""
    lines = ["batch_index,batch_mean"]
    for i, bm in enumerate(result.batch_means):
        lines.append(f"{i},{bm:.12g}")
    lines.append(f"mean,{result.mean:.12g}")
    lines.append(f"std_error,{result.std_error:.12g}")
    return "\n".join(lines) + "\n"
