"""Parameter search for ladder automata in a given setting.

Covers four jobs: picking the default one-signal-each partition from
likelihood ratios, optimizing the exploration probability on a log grid
with local refinement, exhausting all signal partitions for small k, and
tracing payoff along a schedule that shrinks the flip probability faster
than 1/n while the ladder grows. A vectorized brute-force search over all
tiny policies (at most 3 states, grid-valued rows) serves as an
independent near-optimality oracle. Each search solves all its chains,
every ladder's at once, in stacks whose joint storage fills
markov_exact.STACK_BYTES; the p_exp, partition and rate searches build all
their ladders' bands in one step and keep their traces as arrays, and the
limit curve's ladders, one length a point, share ragged stacks the same
way. Brute force stores its chains as whole
rows, gathered for each stack from per-state joint rows that each of its two
passes assembles once per action labeling. A candidate and its mirror image
(states reflected q -> m - 1 - q) are one chain with its states permuted, so
brute force solves one of each pair, then only the mirrors whose floats could
win (see MIRROR_SLACK), and returns the winner that solving every candidate
would. Every all-Risky candidate earns (xG + xB) / 2, so that labeling is
skipped when the bound on its floats is below the best, else solved whole.

No unimodality in p_exp is assumed anywhere: searches are coarse-grid plus
refinement, never golden-section.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automaton import (
    RISKY, SAFE, MAX_RUNGS, AFamilyParams, AutomatonPolicy, build_a_family, check_rows,
    check_sides, ladder_rows,
)
from .dynamic_env import (
    LADDER_PROB_INTERVAL, PI_INTERVAL, DynamicSetting, is_nontrivial,
)
from .errors import (
    BadProbabilityError,
    GridTooLargeError,
    ReducibleChainError,
    TooManySignalsError,
    TrivialSettingError,
    ValidationError,
    check_integer,
    check_list,
    check_real,
    stochastic_rows,
)
# exact_average_payoff is not called here, but perfbench's tracer test reaches
# it through this module, as callers did while the curve used it.
from .markov_exact import (  # noqa: F401
    agent_matrices, agent_step_matrix, evaluate_stack, evaluate_storage, exact_average_payoff,
    joint_band, joint_reward, stack_len,
)

DEFAULT_PEXP_GRID = tuple(np.logspace(-5, 0, 40))

BRUTE_FORCE_CAP = 10**7

# A brute-force candidate and its mirror image, its states reflected
# q -> m - 1 - q, have the same joint storage with the states permuted, and so
# the same payoff in exact arithmetic. MIRROR_SLACK * sum_i |mu_i r_i| is
# twice a bound on the gap between their floats, 1,300 times over, for whole
# rows of d <= 6 states while every quantity of the solve stays normal. GTH
# never subtracts (O'Cinneide, Numer. Math. 65, 1993), so each positive
# quantity it computes is its exact value times a factor within
# (1 - u)**(+-n), u = 2**-53: a rounding adds 1 to n, a product or quotient
# adds its operands' n, and an in-order sum of j + 1 terms adds j.
# Eliminating state k takes entries of n = E to 3E + k + 2, so each divided
# column has n <= 525, each back-substituted x[k] n <= 794, and each
# mu = x / sum(x) n <= 1,594. A payoff, one product and d - 1 sums more, is
# within 1,600 u sum_i |mu_i r_i| of the exact one, so a pair's floats differ
# by at most 3,200 u sum_i |mu_i r_i|. Twice that is 7.1e-13; 2**-30 is 9.3e-10.
# It bounds all-Risky's floats too: each is within 1,600 u (xG - xB) / 2 of
# the one exact payoff (xG + xB) / 2 that every such candidate has.
MIRROR_SLACK = 2.0 ** -30

# Refinement rounds of p_exp points, each spanning the best point's neighbours.
REFINE_ROUNDS = 2
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


def _sides(setting: DynamicSetting, partition) -> tuple:
    """``partition`` as a (pos, neg) pair, default_partition if None; each
    side is checked where a ladder is built from it."""
    if partition is None:
        return default_partition(setting)
    return check_list(partition, "partition", 2)


def _search(setting: DynamicSetting, n: int, sides, rates, grid) -> list[OptResult]:
    """optimize_pexp's result for each ladder of n + 1 states, one per (pos,
    neg) pair of ``sides`` and (r_u, r_d) pair of ``rates``, side-major, in
    one pass: each round solves every ladder's fresh points in shared stacks,
    in ladder-major order, and the first failing chain raises. Each ladder's
    trace is a row of two arrays, its points and payoffs in the order found."""
    grid = check_list(DEFAULT_PEXP_GRID if grid is None else grid, "p_exp grid",
                      each=check_real, interval=LADDER_PROB_INTERVAL, error=BadProbabilityError)
    grid = list(dict.fromkeys(map(float, grid)))
    if not grid:
        raise ValidationError("p_exp grid must be nonempty")
    # The ladders are held until the search ends, at about 530 bytes a rung
    # (rows, agent bands and stacks), so together they get MAX_RUNGS.
    check_integer(n, "n", f"[1, {MAX_RUNGS // (len(sides) * len(rates))}]")
    # AFamilyParams' checks, once per rate pair and side pair; ladder_rows
    # checks each distinct side's signals, and check_rows the rows, once.
    for r_u, r_d in rates:
        check_real(r_u, "r_u", LADDER_PROB_INTERVAL, BadProbabilityError)
        check_real(r_d, "r_d", LADDER_PROB_INTERVAL, BadProbabilityError)
    pairs, rates = zip(*itertools.product([check_sides(*pair) for pair in sides], rates))
    next_state, prob = ladder_rows(setting.k, n, pairs, *np.array(rates, dtype=float).T, grid[0])
    actions = (SAFE,) + (RISKY,) * n
    check_rows(actions, next_state, prob)
    # A ladder moves at most one rung, so every band is (n + 1, 3): (2, ladders, n + 1, 3).
    agents = np.stack([agent_step_matrix(actions, next_state, prob, p)
                       for p in (setting.pG, setting.pB)])
    W = agents.shape[-1] // 2
    reward = joint_reward(setting, actions)
    # joint_band assembles 2(n + 1) rows of 4W + 3 columns before it cuts the band.
    step = stack_len(2 * (n + 1), 4 * W + 3)
    # Trace rows, padded past each ladder's count with NaN points, which
    # compare false, and -inf payoffs.
    size = len(pairs), len(grid) + REFINE_ROUNDS * REFINE_POINTS
    points, payoffs = np.full(size, np.nan), np.full(size, -np.inf)
    count = np.zeros(len(pairs), dtype=int)

    def evaluate(which, ps):
        """Solve ladder which[i] at p_exp ps[i], ladders in ascending order."""
        found = np.empty(len(ps))
        for lo in range(0, len(ps), step):
            stack = agents[:, which[lo:lo + step]]
            # p_exp is only the Safe row [1 - p, p, 0, ...], the same in G and B:
            # band columns W and W + 1 of row 0.
            p = ps[lo:lo + step]
            stack[:, :, 0, W], stack[:, :, 0, W + 1] = 1.0 - p, p
            ev = evaluate_stack(*stack, setting.pi, reward)
            if not ev.ok.all():
                raise ev.error(int(np.argmin(ev.ok)))
            found[lo:lo + step] = ev.payoff
        # Each ladder's points follow its last ones, in order.
        slot = count[which] + np.arange(len(which)) - np.searchsorted(which, which)
        points[which, slot], payoffs[which, slot] = ps, found
        count[:] += np.bincount(which, minlength=len(count))

    def best():
        """Index in each trace row of the largest payoff, its least point on ties."""
        top = payoffs == payoffs.max(axis=1, keepdims=True)
        return np.argmin(np.where(top, points, np.inf), axis=1)

    def neighbours():
        """Each ladder's refinement points not yet traced, ladder-major: from
        the points on either side of its best one (or the best one, at an
        end), in order, each the first time it is given."""
        x = points[np.arange(len(count)), best()]
        lo = np.where(points < x[:, None], points, -np.inf).max(axis=1)
        hi = np.where(points > x[:, None], points, np.inf).min(axis=1)
        lo, hi = np.where(np.isinf(lo), x, lo), np.where(np.isinf(hi), x, hi)
        spans = np.empty((len(count), REFINE_POINTS))
        # linspace takes another formula for every row if any row's step is
        # 0, so those rows (a span of one point, or a subnormal step) get
        # their own call, as each would alone.
        flat = (hi - lo) / (REFINE_POINTS - 1) == 0.0
        for rows in (flat, ~flat):
            if rows.any():
                spans[rows] = np.linspace(lo[rows], hi[rows], REFINE_POINTS, axis=1)
        seen = (spans[:, :, None] == points[:, None, :]).any(axis=2)
        seen |= ((spans[:, :, None] == spans[:, None, :])
                 & np.tri(REFINE_POINTS, k=-1, dtype=bool)).any(axis=2)
        which, j = np.nonzero(~seen)
        return which, spans[which, j]

    evaluate(np.repeat(np.arange(len(pairs)), len(grid)), np.tile(grid, len(pairs)))
    for _ in range(REFINE_ROUNDS):
        evaluate(*neighbours())
    index = best()
    return [OptResult(float(ps[i]), float(vs[i]),
                      grid_trace=tuple(zip(ps[:c].tolist(), vs[:c].tolist())), partition=pair)
            for ps, vs, i, c, pair in zip(points, payoffs, index.tolist(), count.tolist(), pairs)]


def optimize_pexp(
    setting: DynamicSetting,
    n: int,
    partition: tuple[frozenset[int], frozenset[int]] | None = None,
    r_u: float = 1.0,
    r_d: float = 1.0,
    grid: Sequence[float] | None = None,
) -> OptResult:
    """Best exploration probability on a grid, with local linear refinement."""
    return _search(setting, n, [_sides(setting, partition)], [(r_u, r_d)], grid)[0]


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
    """Best OptResult over every legal signal partition, the first on ties.
    Needs 2 <= k <= 6."""
    if setting.k < 2:
        raise ValidationError(f"partition search needs k >= 2 signals, got k={setting.k}")
    if setting.k > 6:
        raise TooManySignalsError(
            f"partition search enumerates 3^k assignments; k={setting.k} > 6"
        )
    return max(_search(setting, n, list(legal_partitions(setting.k)), [(r_u, r_d)], grid),
               key=lambda result: result.best_payoff)


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
    rate_grid = check_list(rate_grid, "rate_grid", each=check_real, interval=LADDER_PROB_INTERVAL)
    if not rate_grid:
        raise ValidationError("rate_grid must be nonempty")
    pos, neg = _sides(setting, partition)
    descending = sorted(set(map(float, rate_grid)), reverse=True)
    # R distinct rates make R**2 ladders, and _search gives each at least one rung.
    check_integer(len(descending), "rate_grid distinct entry count",
                  f"[1, {math.isqrt(MAX_RUNGS)}]")
    rates = list(itertools.product(descending, repeat=2))
    best: RateSearchResult | None = None
    for (r_u, r_d), result in zip(rates, _search(setting, n, [(pos, neg)], rates, grid)):
        if best is None or result.best_payoff > best.result.best_payoff + 1e-15:
            best = RateSearchResult(r_u=r_u, r_d=r_d, result=result)
    return best


@dataclass(frozen=True)
class ScheduleSpec:
    """Flip-probability and exploration schedules c1/n^a and c2/n^b.

    Valid when each pi(n) and pexp(n) is a flip and a ladder probability, and
    n*pi(n) and pi(n)/pexp(n) are strictly decreasing along n_list, checked
    numerically at the supplied values.
    """

    c1: float
    a: float
    c2: float
    b: float
    n_list: tuple[int, ...]

    def __post_init__(self):
        # a > 1 makes n*pi(n) shrink. A float a or b keeps n**a a float power,
        # which overflows at once where an integer power would run for minutes.
        for name, interval in (("c1", "(0, inf)"), ("a", "(1, inf)"), ("c2", "(0, inf)"),
                               ("b", "(0, inf)")):
            check_real(getattr(self, name), name, interval)
            object.__setattr__(self, name, float(getattr(self, name)))
        ns = check_list(self.n_list, "n_list", each=check_integer, interval=f"[1, {MAX_RUNGS}]")
        object.__setattr__(self, "n_list", ns)
        if len(ns) < 2 or any(x >= y for x, y in zip(ns, ns[1:])):
            raise ValidationError("n_list needs at least 2 entries, in increasing order")
        try:
            for n in ns:
                check_real(self.pi_of_n(n), f"c1 / n**a at n = {n}", PI_INTERVAL)
                check_real(self.pexp_of_n(n), f"c2 / n**b at n = {n}", LADDER_PROB_INTERVAL)
            n_pi = [n * self.pi_of_n(n) for n in ns]
            ratio = [self.pi_of_n(n) / self.pexp_of_n(n) for n in ns]
        except OverflowError:
            raise ValidationError(f"n**a or n**b on n_list exceeds the float range "
                                  f"(a = {self.a}, b = {self.b})") from None
        if any(x <= y for x, y in zip(n_pi, n_pi[1:])):
            raise ValidationError("n*pi(n) is not strictly decreasing on n_list")
        if any(x <= y for x, y in zip(ratio, ratio[1:])):
            raise ValidationError("pi(n)/pexp(n) is not strictly decreasing on n_list")

    def pi_of_n(self, n: int) -> float:
        return self.c1 / n**self.a

    def pexp_of_n(self, n: int) -> float:
        return self.c2 / n**self.b


def limit_schedule_curve(
    setting: DynamicSetting,
    schedule: ScheduleSpec,
    partition: tuple[frozenset[int], frozenset[int]] | None = None,
    r_u: float = 1.0,
    r_d: float = 1.0,
) -> list[CurvePoint]:
    """Exact payoff along the schedule; setting's pi is replaced per point.

    Consecutive points share a ragged stack (see markov_exact) while it fits
    STACK_BYTES, each stack's ladders built when it is solved; the first
    failing point in n_list order raises."""
    pos, neg = _sides(setting, partition)
    points = [(n, schedule.pi_of_n(n), schedule.pexp_of_n(n)) for n in schedule.n_list]
    curve: list[CurvePoint] = []
    while len(curve) < len(points):
        lo = hi = len(curve)
        # Every ladder band is (n + 1, 3), so joint_band assembles each chain
        # of a stack in 2(n + 1) rows of 7 columns, n the stack's largest.
        while hi < len(points) and hi - lo < stack_len(2 * (points[hi][0] + 1), 7):
            hi += 1
        stack = points[lo:hi]
        ladders = [build_a_family(setting.k, AFamilyParams(n=n, p_exp=p_exp, pos=pos, neg=neg,
                                                           r_u=r_u, r_d=r_d))
                   for n, _, p_exp in stack]
        # A ragged stack holds its chains longest first.
        ladders.reverse()
        agents = np.zeros((2, len(stack), ladders[0].num_states, 3))
        for i, ladder in enumerate(ladders):
            agents[:, i, :ladder.num_states] = agent_matrices(setting, ladder)
        pis = np.array([pi for _, pi, _ in reversed(stack)])
        ev = evaluate_storage(*joint_band(*agents, pis),
                              [(1, joint_reward(setting, ladder.actions)) for ladder in ladders])
        if not ev.ok.all():
            raise ev.error(int(np.flatnonzero(~ev.ok)[-1]))
        curve += [CurvePoint(n=n, pi=pi, p_exp=p_exp, payoff=payoff)
                  for (n, pi, p_exp), payoff in zip(stack, ev.payoff[::-1].tolist())]
    return curve


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


def _joint_rows(options, acts, pG: np.ndarray, pB: np.ndarray,
                pi: float) -> tuple[list[np.ndarray], int]:
    """Per state q of labeling ``acts``, the joint rows 2q and 2q + 1, (2, L,
    R_q), of every combination of q's digits in mixed-radix order, and their
    half-width. Each combination's agent rows in G and B (a Safe state's one
    row, or a Risky state's k rows summed from zeros in signal order) go in
    row q of one zero agent stack, and joint_band makes their storage at
    once, so each entry is the product joint_band makes for any stack of
    candidates that holds that row. The states share one layout, whole rows
    (L = 2m) for every pi that validate_setting accepts: each state has a row
    that moves a rung. A state has R_q or R_q**k combinations, and the
    all-risky labeling, always enumerated, has prod_q R_q**k <=
    BRUTE_FORCE_CAP candidates: the cap bounds every state's."""
    m, k = len(options), len(pG)
    sizes = [len(rows) ** (1 if a == SAFE else k) for rows, a in zip(options, acts)]
    ends = np.cumsum(sizes).tolist()
    agents = np.zeros((2, ends[-1], m, 2 * m - 1))
    for q, (rows, size, end) in enumerate(zip(options, sizes, ends)):
        # Row q of the band of (m, 2m - 1) holds (q, q') at column q' - q + m - 1.
        band = agents[:, end - size:end, q, m - 1 - q:2 * m - 1 - q]
        if acts[q] == SAFE:
            band[:] = rows
            continue
        for s, choice in enumerate(np.unravel_index(np.arange(size), (len(rows),) * k)):
            band[0] += pG[s] * rows[choice]
            band[1] += pB[s] * rows[choice]
    S, w = joint_band(*agents, pi)
    return [np.ascontiguousarray(S[2 * q:2 * q + 2, :, end - size:end])
            for q, (size, end) in enumerate(zip(sizes, ends))], w


def _gather(rows: list[np.ndarray], index: np.ndarray) -> np.ndarray:
    """(2m, L, len(index)) joint storage of one labeling's candidates ``index``,
    from _joint_rows' rows. A state's digits are contiguous in the candidate's
    mixed radix, so the index unravels over the states' combination counts
    into one combination of each state."""
    digits = np.unravel_index(index, [r.shape[2] for r in rows])
    S = np.empty((2 * len(rows), rows[0].shape[1], len(index)))
    for q, (r, digit) in enumerate(zip(rows, digits)):
        r.take(digit, axis=2, out=S[2 * q:2 * q + 2], mode="clip")
    return S


def _mirror_rows(options: list[np.ndarray]) -> list[np.ndarray] | None:
    """Per state q, the row of state m - 1 - q that is each of q's rows
    reversed, or None if one is missing. The reflection q -> m - 1 - q swaps
    up and down, and moves past either end fold into stay alike, so no row
    is missing unless the distribution rule, a left-to-right sum, keeps a row
    and drops its reverse."""
    m = len(options)
    found = []
    for q in range(m):
        there = {tuple(row): j for j, row in enumerate(options[m - 1 - q].tolist())}
        found.append([there.get(tuple(row[::-1])) for row in options[q].tolist()])
    return None if None in sum(found, []) else [np.array(j) for j in found]


def _mirror_index(perm: list[np.ndarray], acts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lead, trail): candidate i of labeling ``acts`` has its mirror image,
    candidate lead[i // T] + trail[i % T] of labeling acts[::-1], T =
    len(trail). The mirror takes each digit of state q (one at a Safe state,
    one per signal at a Risky one) through perm[q] to the same signal's digit
    of state m - 1 - q, so its index is a sum of one term per digit: lead
    and trail are the outer sums of the leading and the trailing half's terms."""
    digits = [q for q, a in enumerate(acts) for _ in range(1 if a == SAFE else k)]
    # The mirror's digits are these with the states in reverse order, so
    # state 0's last digit is its least significant.
    place, value = [0] * len(digits), 1
    for i in sorted(range(len(digits)), key=lambda i: (digits[i], -i)):
        place[i], value = value, value * len(perm[digits[i]])
    terms = [perm[q] * p for q, p in zip(digits, place)]
    half = len(terms) // 2
    return tuple(functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), part,
                                  np.zeros(1, dtype=int))
                 for part in (terms[:half], terms[half:]))


def _own_half(mirror: tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The candidates of a labeling that is its own reverse, with its mirror
    tables (see _mirror_index), whose leading digits index // len(trail) are
    in [lo, hi) and whose index is at most their mirror's: one of each pair."""
    lead, trail = mirror
    index = np.arange(lo * len(trail), hi * len(trail))
    return index[index <= (lead[lo:hi, None] + trail).ravel()]


def _stacks(n: int, chunk: int, mirror: tuple[np.ndarray, np.ndarray] | None = None):
    """Candidate indices below n in increasing order, ``chunk`` a stack (the
    last may be shorter): every one or, given the mirror tables of a labeling
    that is its own reverse, those no greater than their mirror's, one of each
    pair. Those are filtered over blocks of leading digits, so no array is as
    long as the labeling."""
    if mirror is None:
        for lo in range(0, n, chunk):
            yield np.arange(lo, min(lo + chunk, n))
        return
    lead, trail = mirror
    step = max(1, chunk // len(trail))
    held = np.empty(0, dtype=int)
    for lo in range(0, len(lead), step):
        # A call, so that no array as long as the block outlives it: kept
        # across the yield, two of them raised a pass's peak RSS by 1 MB.
        held = np.concatenate([held, _own_half(mirror, lo, min(lo + step, len(lead)))])
        while len(held) >= chunk:
            yield held[:chunk]
            held = held[chunk:]
    if len(held):
        yield held


def _mirror_images(window: list[tuple], top: float) -> dict[tuple, np.ndarray]:
    """Per labeling with a mirror to solve, the indices, in increasing order,
    of those mirrors. A window entry holds a labeling, its mirror tables (see
    _mirror_index), representatives, and the highest float each one's mirror
    could reach; a mirror is solved if that reach is at least the best float
    ``top``, unless it is its representative itself."""
    images = {}
    for acts, (lead, trail), index, reach in window:
        index = index[reach >= top]
        image = lead[index // len(trail)] + trail[index % len(trail)]
        if acts == acts[::-1]:
            image = image[image != index]
        if len(image):
            images.setdefault(acts[::-1], []).append(image)
    return {acts: np.unique(np.concatenate(parts)) for acts, parts in images.items()}


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
    stacks by the same kernel as the exact solver. The winner is the
    largest payoff as a float, then the first in labeling and index order.

    A candidate and its mirror image (see MIRROR_SLACK) are one pair, and the
    search solves the first of each pair in that order, its representative.
    Only mirrors that could win are solved after: those of representatives
    within MIRROR_SLACK * sum_i |mu_i r_i| of the best, and of those that fail
    a numeric check without a cut-off state (a reducible chain's mirror is
    reducible too). That bound needs every quantity of the solve normal, so
    a labeling with a positive joint entry or a payoff outside [f, 1 / f],
    f = 2**(-1022 / 4m), is solved whole, with its reverse.

    All-Risky, the last labeling, is never paired: each of its candidates
    earns (xG + xB) / 2, so it is skipped if it passes that range test and
    that payoff plus MIRROR_SLACK * (xG - xB) / 2 is below the best float,
    and solved whole otherwise.
    """
    check_integer(num_states, "num_states", "[1, 3]")
    grid = sorted(set(map(float, check_list(prob_grid, "prob_grid", each=check_real,
                                            interval="[0, 1]"))))
    m, k = num_states, setting.k
    options = [_row_options(q, m, grid) for q in range(m)]

    # Per state: SAFE picks one row; RISKY picks one row per signal. A
    # candidate is a mixed-radix index over the states' combination counts.
    labelings = {acts: [len(options[q]) ** (1 if a == SAFE else k) for q, a in enumerate(acts)]
                 for acts in itertools.product((SAFE, RISKY), repeat=m)}
    total = sum(map(math.prod, labelings.values()))
    if total == 0:
        raise ValidationError(f"prob_grid {grid} has no three weights that sum to 1")
    if total > BRUTE_FORCE_CAP:
        raise GridTooLargeError(f"{total} candidates exceed the cap of {BRUTE_FORCE_CAP}")

    pG, pB = np.asarray(setting.pG), np.asarray(setting.pB)
    # Every product of up to 4m >= 2d factors in [floor, 1 / floor] is normal.
    floor = 2.0 ** (-1022 / (4 * m))
    perm = _mirror_rows(options)
    in_range = floor <= min(setting.xG, -setting.xB) <= max(setting.xG, -setting.xB) <= 1 / floor
    order = {acts: i for i, acts in enumerate(labelings)}
    chunk = stack_len(2 * m, 2 * m)
    best = None

    def evaluate(acts, rows, w, index):
        nonlocal best
        ev = evaluate_storage(_gather(rows, index), w, [(len(index), joint_reward(setting, acts))])
        vals = np.where(ev.ok, ev.payoff, -np.inf)
        local = int(np.argmax(vals))
        # The largest float wins, then the first in labeling and index order.
        key = (float(vals[local]), -order[acts], -int(index[local]))
        if key[0] > -np.inf and (best is None or key > best[0]):
            best = key, acts
        return ev, vals

    paired, window = {}, []
    for acts, sizes in labelings.items():
        if paired.get(acts[::-1]):
            continue  # every candidate is the mirror of a representative
        rows, w = _joint_rows(options, acts, pG, pB, setting.pi)
        normal = in_range and min(r[r > 0.0].min() for r in rows) >= floor
        if acts == (RISKY,) * m:
            # Nature is in G half of any irreducible chain's long run. The
            # best only grows, and ties go to the first labeling.
            if normal and best and ((setting.xG + setting.xB) / 2 + MIRROR_SLACK
                                    * (setting.xG - setting.xB) / 2 < best[0][0]):
                continue
            normal = False
        paired[acts] = normal and perm is not None
        mirror = _mirror_index(perm, acts, k) if paired[acts] else None
        # The reward of each state in the interleaved order of the columns.
        weights = np.abs(joint_reward(setting, acts).reshape(2, m).T.ravel())[:, None]
        for index in _stacks(math.prod(sizes), chunk, mirror if acts == acts[::-1] else None):
            ev, reach = evaluate(acts, rows, w, index)
            if not paired[acts]:
                continue
            # Keep each representative whose mirror's float could reach the
            # running best: its own float plus MIRROR_SLACK * sum_i |mu_i r_i|
            # bounds that, and any float (inf) if it failed a numeric check
            # without a cut-off state; a reducible chain's mirror is reducible
            # too (-inf). With no best yet, none so far was ok. A masked sum
            # takes 0.1 ms on a stack of 16,384, boolean indexing 1.2 ms.
            reach += MIRROR_SLACK * np.multiply(ev.columns, weights, np.zeros_like(ev.columns),
                                                where=ev.ok).sum(axis=0)
            bad = np.flatnonzero(~ev.ok)
            reach[bad[~ev.cut_off[bad].any(axis=1)]] = np.inf
            keep = reach >= (best[0][0] if best else np.inf)
            window.append((acts, mirror, index[keep], reach[keep]))

    for acts, index in _mirror_images(window, best[0][0] if best else -np.inf).items():
        rows, w = _joint_rows(options, acts, pG, pB, setting.pi)
        for lo in range(0, len(index), chunk):
            evaluate(acts, rows, w, index[lo:lo + chunk])

    if best is None:
        raise ReducibleChainError(
            "every enumerated candidate was reducible or failed the stationary checks"
        )

    # Decode the winner: its combination of state q is one Safe row, broadcast
    # to every signal slot, or k Risky rows in signal order.
    (best_val, _, index), acts = best
    prob = np.empty((m, k, m))
    for q, row in enumerate(np.unravel_index(-index, labelings[acts])):
        digits = (len(options[q]),) * (1 if acts[q] == SAFE else k)
        prob[q] = options[q][list(np.unravel_index(row, digits))]
    next_state = np.broadcast_to(np.arange(m), prob.shape)
    return AutomatonPolicy(m, 0, acts, next_state, prob), best_val
