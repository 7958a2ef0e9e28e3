"""Forward simulation of the dynamic model, as a check on the exact solver.

Randomness comes from splitmix64, a counter-based 64-bit generator: the
uniform at counter i is a pure function of (seed, i), so runs are
bit-reproducible across platforms and Python versions. The counter layout
is fixed: counter 0 picks the initial nature state (G iff u < 0.5), and
round t consumes counters 1+3t, 2+3t, 3+3t for the signal draw, the
kernel-row draw, and the nature flip. A Safe state's row is the same in
every signal slot, so the signal drawn in a Safe round changes nothing and
the layout never depends on the trajectory. Signals and kernel rows are
sampled by inverse CDF in index order; the sampling path contains no
transcendental calls.

Nature, signals and payoffs do not depend on the agent, so they are arrays;
only the agent is walked, B rounds per Python step. A round's signal slot comes
from one rank of its signal uniform among the distinct cumulative sums of both
signal distributions and a table by rank and nature. The slot s and the kernel
uniform become one event s * E + v, v being the uniform's rank among the E - 1
distinct kernel cumulative sums below 1 (at most three in a ladder's rows).
Both ranks are one branchless binary search each. Events whose next states
agree in every state share one of K classes, and a table of m * K**B entries
(at most STRIDE_ENTRIES unless B = 1) gives the state B rounds on; numpy fills
in the states between and reads each payoff from an (m, 2) table by state and
nature. Distinct probabilities everywhere make E grow with m * k * r, and the
one-round table with m squared; so once E passes TABLE_FACTOR * r, the walk
bisects each round's kernel uniform in its row's r cumulative sums instead.
The burn-in and the batches are simulated as one run (the rounds past the last
full batch are not), drawn in slabs of SLAB rounds whose arrays stay in a
core's L2 cache; a slab may cross batch edges, and each batch's mean is taken
when its last round is copied in. Memory is O(STRIDE_ENTRIES + m * k * r) for
the tables, one batch's payoffs and one slab.

Per-round payoffs are autocorrelated when pi is small, so the standard
error uses batch means rather than an i.i.d. formula.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .automaton import AutomatonPolicy, check_dynamic_policy
from .dynamic_env import DynamicSetting
from .errors import ValidationError, check_integer, check_real
from .markov_exact import exact_average_payoff, joint_reward

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SLAB = 1 << 14  # rounds drawn per uniform_stream call; a slab's arrays stay in L2
TABLE_FACTOR = 4  # the step table's largest size, in multiples of the rows' size
STRIDE_ENTRIES = 1 << 16  # the B-round table's largest size, unless B = 1
BATCH_ROUNDS = 1 << 24  # most rounds a batch: the run keeps one batch's payoffs, 128 MiB


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """splitmix64 uniforms in [0, 1) at counter positions start..start+count-1."""
    z = np.arange(start, start + count, dtype=np.uint64)
    shifted = np.empty_like(z)  # scratch for the xor-shifts, then the result
    with np.errstate(over="ignore"):
        z *= _GOLDEN
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=shifted.view(np.float64))  # exact: z < 2**53


@dataclass(frozen=True)
class SimConfig:
    """Run length, burn-in, seed, and batch count for one simulation."""

    rounds: int
    seed: int = 0
    burn_in: int | None = None  # default: 1% of rounds
    batches: int = 20

    def __post_init__(self):
        check_integer(self.rounds, "rounds", "[1, inf)")
        check_integer(self.seed, "seed")
        # About 200 bytes a batch by tracemalloc (its mean, the means' tuple and
        # the CLI's CSV row), so 2^20 batches take about 200 MiB.
        check_integer(self.batches, "batches", f"[2, {1 << 20}]")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.rounds // 100)
        check_integer(self.burn_in, "burn_in", f"[0, {self.rounds})")
        if (self.rounds - self.burn_in) < self.batches:
            raise ValidationError("not enough post-burn-in rounds for the batches")
        if (per_batch := (self.rounds - self.burn_in) // self.batches) > BATCH_ROUNDS:
            raise ValidationError(f"rounds leaves {per_batch} rounds a batch after burn_in; "
                                  f"a batch holds at most {BATCH_ROUNDS}")


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


def _ranker(cuts: np.ndarray):
    """The function u -> np.searchsorted(cuts, u, "right") for sorted cuts, as a
    branchless binary search: the cuts are padded with inf to 2**L - 1 entries,
    level l holds the key that decides the next bit after each l-bit prefix of
    the rank, and each level after the first (one scalar comparison) is a
    gather, a comparison and a shift-and-add."""
    levels = max(len(cuts).bit_length(), 1)
    padded = np.full((1 << levels) - 1, np.inf)
    padded[:len(cuts)] = cuts
    keys = [padded[(1 << (levels - 1 - l)) - 1 :: 1 << (levels - l)].copy()
            for l in range(levels)]

    def rank(u: np.ndarray) -> np.ndarray:
        pos = (u >= keys[0][0]).astype(np.intp)
        key = np.empty_like(u)
        for level in keys[1:]:
            np.take(level, pos, out=key)
            pos += pos
            pos += u >= key
        return pos

    return rank


def _compiled_tables(setting: DynamicSetting, policy: AutomatonPolicy):
    """Lookup tables of the walk. The signal slot is the count of ``cdf_g`` or
    ``cdf_b`` (the first k - 1 cumulative sums) at or below the signal uniform:
    with w the uniform's rank among ``signal``, the distinct sums of both,
    it is ``slot[2 * w + nature]`` (nature 1 = B). Row (q, s) lists its positive entries in
    next-state order, the last sum set to 1.0, and a draw takes the first entry
    whose sum lies above the kernel uniform. ``cuts`` holds every distinct
    kernel cumulative sum below 1, and kernel draw v is the kernel uniform's
    rank among the cuts: the entry taken is the first whose sum's rank among
    the cuts (len(cuts) from 1.0 up) is at least v, and event s * E + v,
    E = len(cuts) + 1, moves q to its next state ``cols[q, cls[s * E + v]]``.
    ``step`` is (cls, cols, B, table), and ``table[q][code]`` is the state B
    rounds on, code's base-K digits being the rounds' classes, the first on
    top. Past E = TABLE_FACTOR * r, ``cuts`` is None and ``step[q][s]`` is row
    (q, s) itself: its sums and next states."""
    cdfs = [np.cumsum(p)[:-1] for p in (setting.pG, setting.pB)]
    signal = np.union1d(*cdfs)
    below = np.concatenate([[-np.inf], signal])  # the largest sum at or below a rank-w uniform
    slot = np.stack([np.searchsorted(cdf, below, "right") for cdf in cdfs], axis=1).ravel()
    zero = policy.prob == 0.0
    order = np.argsort(policy.next_state + policy.num_states * zero, axis=-1, kind="stable")
    cums = np.cumsum(np.take_along_axis(policy.prob, order, -1), axis=-1)
    cums[np.arange(cums.shape[-1]) >= (~zero).sum(axis=-1, keepdims=True) - 1] = 1.0
    nexts = np.take_along_axis(policy.next_state, order, -1)
    cuts = np.unique(cums[cums < 1.0])
    width = len(cuts) + 1
    if width > TABLE_FACTOR * cums.shape[-1]:
        return signal, slot, None, [list(zip(*per_state))
                                    for per_state in zip(cums.tolist(), nexts.tolist())]
    # Ranks rise along each row, so offsetting row i's by i * E sorts them all
    # and one search finds every (row, v) entry without an (m, k, E, r) array.
    base = np.arange(cums.shape[0] * cums.shape[1])[:, None] * width
    ranks = np.searchsorted(cuts, cums, "left").reshape(base.shape[0], -1) + base
    entry = np.searchsorted(ranks.ravel(), (base + np.arange(width)).ravel(), "left")
    m = policy.num_states
    moves = nexts.ravel()[entry].reshape(m, -1)  # next state by state and event
    # Columns as byte strings; np.unique(moves, axis=1) builds an m-field dtype, slow at large m.
    keys = np.ascontiguousarray(moves.T).view(f"V{moves.itemsize * m}")[:, 0]
    first, cls = np.unique(keys, return_index=True, return_inverse=True)[1:]
    cols = moves[:, first]
    # One class (K = 1) would allow any B; counting it as two caps B at 16.
    blocks, table = 1, cols
    while m * max(cols.shape[1], 2) ** (blocks + 1) <= STRIDE_ENTRIES:
        blocks += 1
        table = cols[table].reshape(m, -1)
    return signal, slot, cuts, (cls, cols, blocks, table.tolist())


def simulate_run(
    setting: DynamicSetting, policy: AutomatonPolicy, config: SimConfig
) -> SimResult:
    """Simulate one seeded run; a deterministic function of its inputs."""
    check_dynamic_policy(policy, setting.k)
    # Squared deviations of up to 2^20 batch means stay finite below about 6.5e150.
    check_real(setting.xG, "xG", "(0, 1e150]")
    check_real(setting.xB, "xB", "[-1e150, 0)")
    signal, slot, cuts, step = _compiled_tables(setting, policy)
    signal_rank = _ranker(signal)
    pay = joint_reward(setting, policy.actions).reshape(2, -1).T.ravel()  # (m, 2), G = 0
    q = policy.initial_state
    theta = uniform_stream(config.seed, 0, 1)[0] >= 0.5  # True = B; nature starts stationary
    per_batch = (config.rounds - config.burn_in) // config.batches
    total = config.burn_in + config.batches * per_batch  # later rounds never count
    payoffs = np.empty(per_batch)  # the current batch's
    bm = np.empty(config.batches)
    states = np.empty(min(SLAB, total), np.intp)  # each slab's state before each round
    if cuts is not None:
        cls, cols, b, table = step
        kernel_rank = _ranker(cuts)
    for t0 in range(0, total, SLAB):
        n = min(SLAB, total - t0)
        # One copy into contiguous columns: signal, kernel and flip uniforms.
        u = uniform_stream(config.seed, 1 + 3 * t0, 3 * n)
        u_sig, u_ker, u_flip = u.reshape(n, 3).T.copy()
        flips = u_flip < setting.pi
        nature = np.bitwise_xor.accumulate(flips) ^ flips ^ theta  # before each flip
        theta = nature[-1] ^ flips[-1]
        slots = signal_rank(u_sig)
        slots += slots
        slots += nature  # 2 * rank + nature, the slot's index
        np.take(slot, slots, out=slots)
        path = []
        record = path.append
        if cuts is None:
            for s, um in zip(slots.tolist(), u_ker.tolist()):
                record(q)
                cums, nexts = step[q][s]
                q = nexts[bisect_right(cums, um)]
            states[:n] = path
        else:
            slots *= len(cuts) + 1
            slots += kernel_rank(u_ker)
            np.take(cls, slots, out=slots)
            codes = slots[::b]
            for j in range(1, b):  # Horner; a short last block pads with class 0
                codes = codes * cols.shape[1]
                codes[:len(slots[j::b])] += slots[j::b]
            for code in codes.tolist():
                record(q)
                q = table[q][code]
            states[:n:b] = path
            for j in range(1, b):
                states[j:n:b] = cols[states[j - 1:n - 1:b], slots[j - 1:n - 1:b]]
            q = cols[states[n - 1], slots[n - 1]]
        gains = pay[states[:n] * 2 + nature]
        # Copy the slab's kept rounds into the batch buffer, taking each batch's
        # mean when its last round is in: a slab may cross batch edges.
        t = max(t0, config.burn_in)
        while t < t0 + n:
            batch, at = divmod(t - config.burn_in, per_batch)
            take = min(per_batch - at, t0 + n - t)
            payoffs[at:at + take] = gains[t - t0:t - t0 + take]
            t += take
            if at + take == per_batch:
                bm[batch] = payoffs.mean()
    return SimResult(
        mean=float(bm.mean()),
        std_error=float(bm.std(ddof=1) / np.sqrt(config.batches)),
        batch_means=tuple(float(x) for x in bm),
        rounds_used=per_batch * config.batches,
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


def run_seed_sweep(setting: DynamicSetting, policy: AutomatonPolicy, config: SimConfig,
                   seeds: Sequence[int]) -> list[SimResult]:
    """One run per seed, in seed-list order."""
    return [simulate_run(setting, policy, replace(config, seed=seed)) for seed in seeds]
