"""Parameter search for ladder automata in a given setting.

Covers four jobs: picking the default one-signal-each partition from
likelihood ratios, optimizing the exploration probability on a log grid
with local refinement, exhausting all signal partitions for small k, and
tracing payoff along a schedule that shrinks the flip probability faster
than 1/n while the ladder grows. A vectorized brute-force search over all
tiny policies (at most 3 states, grid-valued rows) serves as an
independent near-optimality oracle. Searches solve their chains in stacks.

No unimodality in p_exp is assumed anywhere: searches are coarse-grid plus
refinement, never golden-section.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .automaton import RISKY, SAFE, AFamilyParams, AutomatonPolicy, build_a_family
from .dynamic_env import DynamicSetting, is_nontrivial, validate_setting
from .errors import (
    GridTooLargeError,
    ReducibleChainError,
    TooManySignalsError,
    TrivialSettingError,
    ValidationError,
    stochastic_rows,
)
from .markov_exact import (
    agent_matrices, evaluate_stack, exact_average_payoff, joint_reward, stack_len,
)

DEFAULT_PEXP_GRID = tuple(np.logspace(-5, 0, 40))

BRUTE_FORCE_CAP = 10**7

# p_exp points per refinement round, spanning the best point's neighbours.
REFINE_POINTS = 10


@dataclass(frozen=True)
class OptResult:
    best_pexp: float
    best_payoff: float
    grid_trace: tuple[tuple[float, float], ...]
    partition: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class CurvePoint:
    n: int
    pi: float
    p_exp: float
    payoff: float


def default_partition(setting: DynamicSetting) -> tuple[frozenset[int], frozenset[int]]:
    """Single best signal for each side, by likelihood ratio.

    pos holds the argmax of pG/pB, neg the argmax of pB/pG; ties break to
    the lowest index and a zero denominator counts as an infinite ratio.
    Comparisons use cross-multiplication, so no division is involved.
    """
    if not is_nontrivial(setting):
        raise TrivialSettingError("all signals are uninformative")

    def argmax_ratio(num, den):
        best = None
        for i in range(setting.k):
            if num[i] == 0.0 and den[i] == 0.0:
                continue  # signal never occurs; cannot win either side
            if best is None or num[i] * den[best] > num[best] * den[i]:
                best = i
        return best

    pos = argmax_ratio(setting.pG, setting.pB)
    neg = argmax_ratio(setting.pB, setting.pG)
    return frozenset({pos + 1}), frozenset({neg + 1})


def optimize_pexp(
    setting: DynamicSetting,
    n: int,
    partition: tuple[frozenset[int], frozenset[int]] | None = None,
    r_u: float = 1.0,
    r_d: float = 1.0,
    grid: Sequence[float] | None = None,
    refine_rounds: int = 2,
) -> OptResult:
    """Best exploration probability on a grid, with local linear refinement."""
    if partition is None:
        partition = default_partition(setting)
    pos, neg = frozenset(partition[0]), frozenset(partition[1])
    grid = tuple(grid) if grid is not None else DEFAULT_PEXP_GRID
    if not grid:
        raise ValidationError("p_exp grid must be nonempty")

    base = AFamilyParams(n=n, p_exp=grid[0], pos=pos, neg=neg, r_u=r_u, r_d=r_d)
    ladder = build_a_family(setting.k, base)
    agent = np.array(agent_matrices(setting, ladder))
    reward = joint_reward(setting, ladder.actions)
    step = stack_len(reward.size)
    trace: dict[float, float] = {}

    def evaluate(points):
        fresh = [p for p in dict.fromkeys(points) if p not in trace]
        # Every point is validated before any stack is solved.
        p_exp = np.array([replace(base, p_exp=p).p_exp for p in fresh])
        for lo in range(0, len(fresh), step):
            ps = p_exp[lo:lo + step]
            stack = np.repeat(agent[:, None], len(ps), axis=1)
            # p_exp is only the Safe row [1 - p, p, 0, ...], the same in G and B.
            stack[:, :, 0, 0], stack[:, :, 0, 1] = 1.0 - ps, ps
            ev = evaluate_stack(*stack, setting.pi, reward)
            if not ev.ok.all():
                raise ev.error(int(np.argmin(ev.ok)))
            trace.update(zip(fresh[lo:lo + step], ev.payoff.tolist()))

    evaluate(grid)
    for _ in range(refine_rounds):
        best_p, _ = max(trace.items(), key=lambda t: (t[1], -t[0]))
        xs = sorted(trace)
        i = xs.index(best_p)
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        evaluate([float(p) for p in np.linspace(lo, hi, REFINE_POINTS)])

    best_p, best_v = max(trace.items(), key=lambda t: (t[1], -t[0]))
    return OptResult(best_pexp=best_p, best_payoff=best_v, grid_trace=tuple(trace.items()),
                     partition=(pos, neg))


def legal_partitions(k: int):
    """All (pos, neg) pairs from assigning each signal to pos/neg/ignore."""
    for assign in itertools.product((0, 1, 2), repeat=k):
        pos = frozenset(i + 1 for i, a in enumerate(assign) if a == 0)
        neg = frozenset(i + 1 for i, a in enumerate(assign) if a == 1)
        if pos and neg:
            yield pos, neg


def exhaustive_partition_search(
    setting: DynamicSetting,
    n: int,
    r_u: float = 1.0,
    r_d: float = 1.0,
    grid: Sequence[float] | None = None,
) -> OptResult:
    """Best OptResult over every legal signal partition. Needs k <= 6."""
    if setting.k > 6:
        raise TooManySignalsError(
            f"partition search enumerates 3^k assignments; k={setting.k} > 6"
        )
    best: OptResult | None = None
    for pos, neg in legal_partitions(setting.k):
        result = optimize_pexp(setting, n, (pos, neg), r_u=r_u, r_d=r_d, grid=grid)
        if best is None or result.best_payoff > best.best_payoff:
            best = result
    return best


DEFAULT_RATE_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class RateSearchResult:
    r_u: float
    r_d: float
    result: OptResult


def optimize_rates(
    setting: DynamicSetting,
    n: int,
    partition: tuple[frozenset[int], frozenset[int]] | None = None,
    rate_grid: Sequence[float] = DEFAULT_RATE_GRID,
    grid: Sequence[float] | None = None,
) -> RateSearchResult:
    """Optimize p_exp for every (r_u, r_d) pair on a small rate grid.

    The experiments elsewhere fix r_u = r_d = 1; this search exists to
    check that nothing better hides at other rates. Ties break toward
    higher rates so the default corner wins when it is not beaten.
    """
    for r in rate_grid:
        if not (0.0 < r <= 1.0):
            raise ValidationError(f"rate {r} outside (0, 1]")
    best: RateSearchResult | None = None
    descending = sorted(set(float(r) for r in rate_grid), reverse=True)
    for r_u in descending:
        for r_d in descending:
            result = optimize_pexp(setting, n, partition, r_u=r_u, r_d=r_d, grid=grid)
            if (
                best is None
                or result.best_payoff > best.result.best_payoff + 1e-15
            ):
                best = RateSearchResult(r_u=r_u, r_d=r_d, result=result)
    return best


@dataclass(frozen=True)
class ScheduleSpec:
    """Flip-probability and exploration schedules c1/n^a and c2/n^b.

    Valid when n*pi(n) and pi(n)/pexp(n) are strictly decreasing along
    n_list, checked numerically at the supplied values.
    """

    c1: float
    a: float
    c2: float
    b: float
    n_list: tuple[int, ...]

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValidationError("schedule constants must be positive")
        if self.a <= 1:
            raise ValidationError(f"need a > 1 so that n*pi(n) shrinks, got a={self.a}")
        if self.b <= 0:
            raise ValidationError(f"need b > 0, got b={self.b}")
        ns = tuple(int(n) for n in self.n_list)
        object.__setattr__(self, "n_list", ns)
        if len(ns) < 2 or any(x >= y for x, y in zip(ns, ns[1:])):
            raise ValidationError("n_list must be increasing with at least 2 entries")
        n_pi = [n * self.pi_of_n(n) for n in ns]
        ratio = [self.pi_of_n(n) / self.pexp_of_n(n) for n in ns]
        if any(x <= y for x, y in zip(n_pi, n_pi[1:])):
            raise ValidationError("n*pi(n) is not strictly decreasing on n_list")
        if any(x <= y for x, y in zip(ratio, ratio[1:])):
            raise ValidationError("pi(n)/pexp(n) is not strictly decreasing on n_list")

    def pi_of_n(self, n: int) -> float:
        return self.c1 / n**self.a

    def pexp_of_n(self, n: int) -> float:
        return self.c2 / n**self.b


def limit_schedule_curve(
    setting_base: DynamicSetting,
    schedule: ScheduleSpec,
    partition: tuple[frozenset[int], frozenset[int]] | None = None,
    r_u: float = 1.0,
    r_d: float = 1.0,
) -> list[CurvePoint]:
    """Exact payoff along the schedule; setting_base's pi is replaced per point."""
    if partition is None:
        partition = default_partition(setting_base)
    pos, neg = partition
    curve = []
    for n in schedule.n_list:
        pi_n = schedule.pi_of_n(n)
        pexp_n = schedule.pexp_of_n(n)
        setting = validate_setting(
            setting_base.k, setting_base.pG, setting_base.pB,
            setting_base.xG, setting_base.xB, pi_n,
        )
        policy = build_a_family(
            setting.k,
            AFamilyParams(n=n, p_exp=pexp_n, pos=pos, neg=neg, r_u=r_u, r_d=r_d),
        )
        curve.append(
            CurvePoint(n=n, pi=pi_n, p_exp=pexp_n,
                       payoff=exact_average_payoff(setting, policy))
        )
    return curve


def curve_csv(curve: Sequence[CurvePoint]) -> str:
    lines = ["n,pi,p_exp,payoff"]
    for pt in curve:
        lines.append(f"{pt.n},{pt.pi:.12g},{pt.p_exp:.12g},{pt.payoff:.12g}")
    return "\n".join(lines) + "\n"


def trace_csv(result: OptResult) -> str:
    lines = ["p_exp,payoff"]
    for p, v in result.grid_trace:
        lines.append(f"{p:.12g},{v:.12g}")
    return "\n".join(lines) + "\n"


def _row_options(q: int, m: int, grid: Sequence[float]) -> np.ndarray:
    """Distinct rows at state q, sorted: grid-weighted mixtures of stay/up/down.

    Moves past either end fold into stay. Only rows that are distributions
    by the package's one rule are kept, and duplicates are removed, so the
    candidate count reflects genuinely distinct rows.
    """
    w = np.array(list(itertools.product(grid, repeat=3))).reshape(-1, 3)
    rows = np.zeros((len(w), m))
    for j, target in enumerate((q, min(q + 1, m - 1), max(q - 1, 0))):
        rows[:, target] += w[:, j]
    return np.unique(rows[stochastic_rows(rows)], axis=0)


def brute_force_policy_search(
    setting: DynamicSetting,
    num_states: int,
    prob_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> tuple[AutomatonPolicy, float]:
    """Exact-evaluated maximum over all tiny grid-valued policies.

    Enumerates every action labeling and every kernel built from
    stay/up/down rows with grid weights. Candidates whose joint chain is
    reducible are skipped (their long-run payoff depends on the start
    state, so they have no single exact value), and so are candidates
    whose stationary solve fails its checks. Candidates are solved in
    stacks by the same kernel as the exact solver.
    """
    if not (1 <= num_states <= 3):
        raise ValidationError(f"brute force supports 1..3 states, got {num_states}")
    grid = sorted(set(float(g) for g in prob_grid))
    if any(g < 0.0 or g > 1.0 for g in grid):
        raise ValidationError("prob_grid entries must lie in [0, 1]")
    m = num_states
    k = setting.k
    options = [_row_options(q, m, grid) for q in range(m)]

    # Per state: SAFE picks one row; RISKY picks one row per signal. A
    # candidate is a mixed-radix index over these digits, signal-major
    # within a risky state.
    labelings = []
    for acts in itertools.product((SAFE, RISKY), repeat=m):
        digits = [(q, s) for q in range(m)
                  for s in ((None,) if acts[q] == SAFE else range(k))]
        labelings.append((acts, digits, [len(options[q]) for q, _ in digits]))
    total = sum(math.prod(radixes) for _, _, radixes in labelings)
    if total > BRUTE_FORCE_CAP:
        raise GridTooLargeError(
            f"{total} candidates exceed the cap of {BRUTE_FORCE_CAP}"
        )

    pG = np.asarray(setting.pG)
    pB = np.asarray(setting.pB)
    chunk = stack_len(2 * m)
    best_val, best = -np.inf, None
    for acts, digits, radixes in labelings:
        reward = joint_reward(setting, acts)
        n_cand = math.prod(radixes)
        for lo in range(0, n_cand, chunk):
            choices = np.unravel_index(np.arange(lo, min(lo + chunk, n_cand)), radixes)
            a_good = np.zeros((len(choices[0]), m, m))
            a_bad = np.zeros_like(a_good)
            for (q, s), choice in zip(digits, choices):
                rows = options[q][choice]  # (chunk, m)
                if s is None:
                    a_good[:, q] = a_bad[:, q] = rows
                else:
                    a_good[:, q] += pG[s] * rows
                    a_bad[:, q] += pB[s] * rows
            ev = evaluate_stack(a_good, a_bad, setting.pi, reward)
            vals = np.where(ev.ok, ev.payoff, -np.inf)
            local = int(np.argmax(vals))
            if vals[local] > best_val:
                best_val, best = float(vals[local]), (acts, digits, radixes, lo + local)

    if best is None:
        raise ReducibleChainError(
            "every enumerated candidate was reducible or failed the stationary checks"
        )

    # Decode the winning candidate: the digits of state q are its one Safe
    # row, broadcast to every signal slot, or its k Risky rows.
    acts, digits, radixes, index = best
    choice = np.array(np.unravel_index(index, radixes))
    owner = np.array([q for q, _ in digits])
    prob = np.empty((m, k, m))
    for q in range(m):
        prob[q] = options[q][choice[owner == q]]
    next_state = np.broadcast_to(np.arange(m), prob.shape)
    return AutomatonPolicy(m, 0, acts, next_state, prob), best_val
