"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the joint matrix is
built by outcome enumeration instead of matrix algebra, the stationary
vector by damped power iteration or by elimination in exact rationals
instead of a float solve, its residual in exact rationals instead of float
sums, reachability by a depth-first search over the
dense adjacency, stopped distributions by explicit geometric-series
summation instead of a resolvent inverse, probe counts by trial division
instead of a sieve, machine expected utilities cell by cell in reverse
with compensation instead of one product-sum, agent step matrices and
simulator tables by walking a policy's dict view row by row instead of its
arrays, Monte Carlo runs one round at a time over the whole counter
stream instead of in slabs with nature and signals as arrays, and joint
chains through dense agent and joint matrices, whose band is searched for
and gathered afterwards, instead of assembled in band storage. Seven
oracles keep the package's earlier kernels, which its current ones must
match bit for bit: brute-force candidates assembled digit by digit
instead of gathered from per-state tables, brute force solving every
candidate instead of one per mirror-image pair, residuals scattered by
np.add.at instead of swept column by column, whole-row storage
scattered cell by cell instead of masked from a strided view, the
partition and rate searches as loops of one-ladder p_exp searches instead
of one search over all their ladders, and the reader DP cell by cell in
ragged tuples of Python floats instead of one array step per read count.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from bounded_agents.automaton import NO_SIGNAL, RISKY, SAFE, AutomatonPolicy, policy_from_dict
from bounded_agents.markov_exact import evaluate_storage, joint_reward, stack_len
from bounded_agents.static_model import DECISIONS
from bounded_agents.optimize import (
    DEFAULT_RATE_GRID, RateSearchResult, _gather as gather_candidates, _joint_rows, _row_options, _state_tables,
    legal_partitions, optimize_pexp,
)


def dict_policy(actions, kernel, k, initial_state=0):
    """Policy from a {(state, obs): {next: p}} kernel, through the JSON form
    that policy_from_dict reads."""
    return policy_from_dict({
        "num_states": len(actions), "initial_state": initial_state,
        "actions": list(actions),
        "kernel": {f"{q}:{'NoSignal' if obs is NO_SIGNAL else obs}": row
                   for (q, obs), row in kernel.items()},
    }, k)


def policy_to_dict(policy):
    """JSON form of a policy, as policy_from_dict reads it: the kernel keyed
    "state:obs", with sparse rows."""
    return {
        "num_states": policy.num_states, "initial_state": policy.initial_state,
        "actions": list(policy.actions),
        "kernel": {f"{q}:{'NoSignal' if obs is NO_SIGNAL else obs}":
                   {str(nxt): p for nxt, p in sorted(row.items())}
                   for (q, obs), row in policy.kernel.items()},
    }


def two_safe_states_policy(initial_state=0):
    """A 3-signal JSON policy with two Safe states, and three-entry rows keyed
    out of next-state order beside a four-entry row, so they carry a pad;
    row (1, 1) sums to 1 - 2**-53 in next-state order."""
    return dict_policy((SAFE, RISKY, SAFE, RISKY), {
        (0, None): {"2": 0.25, "0": 0.5, "1": 0.25},
        (1, 1): {"3": 0.1, "1": 0.7, "0": 0.2},
        (1, 2): {"1": 1.0},
        (1, 3): {"2": 0.6, "0": 0.0, "3": 0.4},
        (2, None): {"3": 1.0},
        (3, 1): {"0": 0.3, "3": 0.3, "2": 0.4},
        (3, 2): {"3": 1.0 / 3.0, "1": 1.0 / 3.0, "0": 1.0 / 3.0},
        (3, 3): {"0": 0.25, "1": 0.25, "2": 0.125, "3": 0.375},
    }, 3, initial_state)


def dense_policy(m, k, seed=0):
    """A JSON policy on m >= 3 states, every third one Safe, whose rows each
    move to three random states with random probabilities, so nearly every
    row adds two distinct kernel cumulative sums of its own."""
    rng = np.random.default_rng(seed)
    actions = tuple(SAFE if q % 3 == 0 else RISKY for q in range(m))
    kernel = {}
    for q, action in enumerate(actions):
        for s in [None] if action == SAFE else range(1, k + 1):
            nexts = rng.choice(m, 3, replace=False).tolist()
            kernel[(q, s)] = dict(zip(nexts, rng.dirichlet((1.0, 1.0, 1.0)).tolist()))
    return dict_policy(actions, kernel, k)


def dict_walk_step_matrix(policy, signal_probs):
    """Agent step matrix by walking the dict view: each state adds its
    signal rows weighted by ``signal_probs`` in signal order, skipping
    zero-probability signals; a Safe state adds its one row with weight 1."""
    kernel = policy.kernel
    m = policy.num_states
    out = np.zeros((m, m))
    for q, row in enumerate(out):
        if policy.actions[q] == SAFE:
            weights = ((NO_SIGNAL, 1.0),)
        else:
            weights = enumerate(signal_probs, 1)
        for s, ps in weights:
            if ps == 0.0:
                continue
            for nxt, p in kernel[(q, s)].items():
                row[nxt] += ps * p
    return out


def dict_walk_sim_rows(policy, k):
    """Simulator lookup rows by walking the dict view: per state and
    signal 1..k, the cumulative sums of the row's entries in next-state
    order, the last set to 1.0, and the next states."""
    kernel = policy.kernel
    rows = []
    for q in range(policy.num_states):
        per_signal = []
        for s in range(1, k + 1):
            items = sorted(kernel[(q, NO_SIGNAL if policy.actions[q] == SAFE else s)].items())
            cums = list(np.cumsum([p for _, p in items]))
            cums[-1] = 1.0
            per_signal.append((cums, [nxt for nxt, _ in items]))
        rows.append(per_signal)
    return rows


def scalar_simulate_run(setting, policy, config):
    """Monte Carlo run stepped one round at a time in the order the
    montecarlo docstring fixes, over all 1 + 3 * rounds uniforms at once:
    a Risky round pays, draws its signal and moves on that signal's row; a
    Safe round draws no signal and moves on its one row; then nature flips.
    Batch means come from one reshape of the kept payoffs."""
    # Looked up at call time, so a test that replaces the stream replaces it here too.
    from bounded_agents.montecarlo import SimResult, uniform_stream

    cdfs = [list(np.cumsum(p)) for p in (setting.pG, setting.pB)]
    for cdf in cdfs:
        cdf[-1] = 1.0
    rows = dict_walk_sim_rows(policy, setting.k)
    rounds = config.rounds
    u = uniform_stream(config.seed, 0, 1 + 3 * rounds)
    theta = 0 if u[0] < 0.5 else 1
    q = policy.initial_state
    payoffs = np.zeros(rounds)
    pay = (setting.xG, setting.xB)
    for t in range(rounds):
        base = 1 + 3 * t
        s = 0
        if policy.actions[q] != SAFE:
            payoffs[t] = pay[theta]
            while u[base] >= cdfs[theta][s]:
                s += 1
        cums, nexts = rows[q][s]
        j = 0
        while u[base + 1] >= cums[j]:
            j += 1
        q = nexts[j]
        if u[base + 2] < setting.pi:
            theta ^= 1
    kept = payoffs[config.burn_in:]
    per_batch = len(kept) // config.batches
    used = per_batch * config.batches
    bm = kept[:used].reshape(config.batches, per_batch).mean(axis=1)
    return SimResult(mean=float(bm.mean()),
                     std_error=float(bm.std(ddof=1) / np.sqrt(config.batches)),
                     batch_means=tuple(float(x) for x in bm), rounds_used=used)


def dense_step_matrix(policy, signal_probs):
    """Dense (m, m) agent step matrix by one signal-major bincount, as the
    band of markov_exact.agent_step_matrix sums it."""
    m, k = policy.num_states, len(signal_probs)
    safe = np.array([a == SAFE for a in policy.actions], dtype=bool)[:, None]
    weight = np.where(safe, np.arange(k) == 0, np.asarray(signal_probs, dtype=float))
    cells = (np.arange(m)[:, None, None] * m + policy.next_state).transpose(1, 0, 2)
    terms = (weight[:, :, None] * policy.prob).transpose(1, 0, 2)
    return np.bincount(cells.ravel(), terms.ravel(), minlength=m * m).reshape(m, m)


def dense_joint_matrices(a_good, a_bad, pi):
    """(B, 2m, 2m) nature-major joint matrices of (B, m, m) agent matrices."""
    b, m, _ = a_good.shape
    P = np.empty((b, 2 * m, 2 * m))
    np.multiply(a_good, 1.0 - pi, out=P[:, :m, :m])
    np.multiply(a_good, pi, out=P[:, :m, m:])
    np.multiply(a_bad, pi, out=P[:, m:, :m])
    np.multiply(a_bad, 1.0 - pi, out=P[:, m:, m:])
    return P


def _interleaved(d):
    return np.arange(d).reshape(2, d // 2).T.ravel()


def _gather(P, w):
    b, d, _ = P.shape
    order = _interleaved(d)
    by_entry = P.reshape(b, d * d).T
    if 2 * w + 1 >= d:
        return by_entry[order[:, None] * d + order]
    cols = np.arange(d)[:, None] + np.arange(-w, w + 1)
    S = by_entry[order[:, None] * d + order.take(cols, mode="clip")]
    S[(cols < 0) | (cols >= d)] = 0.0
    return S


def dense_band(P):
    """(d, L, B) storage and half-bandwidth of a (B, d, d) stack, found from
    the dense matrices: a band of the widest offset w of any nonzero in the
    interleaved order 2q + theta if 2w + 1 < d, else whole rows (w = d - 1)."""
    d = P.shape[1]
    S = _gather(P, d - 1)
    rows, cols = np.nonzero(S.any(axis=2))
    tight = int(np.abs(cols - rows).max(initial=1))
    if 2 * tight + 1 < d:
        return _gather(P, tight), tight
    return S, d - 1


def chain_of_matrix(P, reward=None, num_agent_states=None):
    """JointChainModel of a dense nature-major matrix, stored by dense_band."""
    from bounded_agents.markov_exact import JointChainModel

    band, w = dense_band(np.asarray(P, dtype=float)[None])
    d = len(P)
    return JointChainModel(dim=d, band=band, w=w,
                           reward=np.zeros(d) if reward is None else reward,
                           num_agent_states=num_agent_states or d // 2)


def dense_route(setting, policy):
    """(P, band, w, mu, payoff) of a policy's joint chain by the dense route:
    dense agent and joint matrices P, dense_band, the package's GTH
    elimination, and the payoff added one Python float at a time in the
    interleaved order, the order the package sums in."""
    from bounded_agents.markov_exact import _gth, joint_reward

    P = dense_joint_matrices(dense_step_matrix(policy, setting.pG)[None],
                             dense_step_matrix(policy, setting.pB)[None], setting.pi)
    band, w = dense_band(P)
    d = P.shape[1]
    x = _gth(band.copy(), w, np.array([d]))[0][:, 0]
    mu = np.empty(d)
    mu[_interleaved(d)] = x
    reward = joint_reward(setting, policy.actions)
    payoff = 0.0
    for term in (x * reward[_interleaved(d)]).tolist():
        payoff += term
    return P[0], band, w, mu, payoff


def exact_residual(P, mu):
    """max_j |(mu P)_j - mu_j| of float P and mu, in exact rationals over the
    nonzeros of P."""
    exact = [Fraction(x) for x in mu.tolist()]
    acc = [-x for x in exact]
    rows, cols = np.nonzero(P)
    for i, j, p in zip(rows.tolist(), cols.tolist(), P[rows, cols].tolist()):
        acc[j] += exact[i] * Fraction(p)
    return max(map(abs, acc))


def add_at_residual(S, w, x):
    """max_j |(x P)_j - x_j| per chain of an (n, L, B) storage and (B, n)
    interleaved-order rows x, with every product x[i] * P[i, j] formed first,
    then scattered into (x P)[j] by one np.add.at over the in-matrix cells
    in row-major order."""
    n, L, b = S.shape
    i, c = np.divmod(np.arange(n * L), L)
    j = i + c - w if L == 2 * w + 1 else c
    cells = np.flatnonzero((j >= 0) & (j < n))
    xP = np.zeros((n, b))
    np.add.at(xP, j[cells], x.T[i[cells]] * S.reshape(n * L, b)[cells])
    return np.abs(xP.T - x).max(axis=1)


def scatter_joint_rows(a_good, a_bad, pi):
    """(d, d, B) whole-row interleaved storage of the joint chains of
    (B, m, 2W + 1) agent bands: the products are written into a band
    storage of half-width 2W + 1, and each of its in-matrix cells is then
    scattered to its row and column."""
    b, m, wide = a_good.shape
    S = np.zeros((m, 2, 2 * wide + 1, b))
    good, bad = a_good.transpose(1, 2, 0), a_bad.transpose(1, 2, 0)
    np.multiply(good, 1.0 - pi, out=S[:, 0, 1:-1:2])
    np.multiply(good, pi, out=S[:, 0, 2::2])
    np.multiply(bad, pi, out=S[:, 1, :-2:2])
    np.multiply(bad, 1.0 - pi, out=S[:, 1, 1:-1:2])
    d, L = 2 * m, 2 * wide + 1
    i, c = np.divmod(np.arange(d * L), L)
    j = i + c - wide
    cells = np.flatnonzero((j >= 0) & (j < d))
    out = np.zeros((d, d, b))
    out[i[cells], j[cells]] = S.reshape(d * L, b)[cells]
    return out


def digit_candidate_bands(options, acts, pG, pB, index):
    """(len(index), m, 2W + 1) agent bands in G and B of brute-force
    candidates ``index`` of one action labeling, W = m - 1, assembled digit
    by digit: a candidate is a mixed-radix index over one digit per Safe
    state and k per Risky state, signal-major; a Safe digit writes its row,
    and each Risky digit adds its row weighted by the signal's probability,
    in signal order."""
    m, k = len(options), len(pG)
    W = m - 1
    digits = [(q, s) for q in range(m) for s in ((None,) if acts[q] == SAFE else range(k))]
    choices = np.unravel_index(index, [len(options[q]) for q, _ in digits])
    a_good = np.zeros((len(index), m, 2 * W + 1))
    a_bad = np.zeros_like(a_good)
    for (q, s), choice in zip(digits, choices):
        rows = options[q][choice]
        band = np.s_[:, q, W - q:W - q + m]
        if s is None:
            a_good[band] = a_bad[band] = rows
        else:
            a_good[band] += pG[s] * rows
            a_bad[band] += pB[s] * rows
    return a_good, a_bad


def per_ladder_partition_search(setting, n, r_u=1.0, r_d=1.0, grid=None):
    """exhaustive_partition_search as one optimize_pexp call per partition,
    keeping the first best."""
    best = None
    for pos, neg in legal_partitions(setting.k):
        result = optimize_pexp(setting, n, (pos, neg), r_u=r_u, r_d=r_d, grid=grid)
        if best is None or result.best_payoff > best.best_payoff:
            best = result
    return best


def per_ladder_rate_search(setting, n, partition=None, rate_grid=DEFAULT_RATE_GRID, grid=None):
    """optimize_rates as one optimize_pexp call per (r_u, r_d) pair, rates
    descending, keeping the first best by more than 1e-15."""
    best = None
    descending = sorted(set(map(float, rate_grid)), reverse=True)
    for r_u in descending:
        for r_d in descending:
            result = optimize_pexp(setting, n, partition, r_u=r_u, r_d=r_d, grid=grid)
            if best is None or result.best_payoff > best.result.best_payoff + 1e-15:
                best = RateSearchResult(r_u=r_u, r_d=r_d, result=result)
    return best


def every_candidate_brute_force(setting, num_states, prob_grid=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """brute_force_policy_search solving every candidate, each labeling's in
    index order, and keeping the first best: the search before it solved one
    candidate per mirror-image pair."""
    m, k = num_states, setting.k
    grid = sorted(set(map(float, prob_grid)))
    options = [_row_options(q, m, grid) for q in range(m)]
    labelings = {acts: [len(options[q]) ** (1 if a == SAFE else k) for q, a in enumerate(acts)]
                 for acts in itertools.product((SAFE, RISKY), repeat=m)}
    pG, pB = np.asarray(setting.pG), np.asarray(setting.pB)
    best_val, best = -np.inf, None
    for acts, sizes in labelings.items():
        rows, w = _joint_rows(_state_tables(options, acts, pG, pB), setting.pi)
        chunk = stack_len(2 * m, rows[0].shape[1])
        reward = joint_reward(setting, acts)
        n_cand = math.prod(sizes)
        for lo in range(0, n_cand, chunk):
            S = gather_candidates(rows, np.arange(lo, min(lo + chunk, n_cand)))
            ev = evaluate_storage(S, w, [(S.shape[2], reward)])
            vals = np.where(ev.ok, ev.payoff, -np.inf)
            local = int(np.argmax(vals))
            if vals[local] > best_val:
                best_val, best = float(vals[local]), (acts, lo + local)
    acts, index = best
    prob = np.empty((m, k, m))
    for q, row in enumerate(np.unravel_index(index, labelings[acts])):
        digits = (len(options[q]),) * (1 if acts[q] == SAFE else k)
        prob[q] = options[q][list(np.unravel_index(row, digits))]
    return AutomatonPolicy(m, 0, acts, np.broadcast_to(np.arange(m), prob.shape), prob), best_val


def enumerated_joint_matrix(setting, policy):
    """Joint matrix entry by entry from (theta, q, signal, flip) outcomes."""
    m = policy.num_states
    dim = 2 * m
    P = np.zeros((dim, dim))
    signal_probs = {0: setting.pG, 1: setting.pB}
    for theta in (0, 1):
        for q in range(m):
            row = theta * m + q
            if policy.actions[q] == SAFE:
                moves = [(1.0, policy.kernel[(q, NO_SIGNAL)])]
            else:
                moves = [
                    (signal_probs[theta][s - 1], policy.kernel[(q, s)])
                    for s in range(1, setting.k + 1)
                ]
            for p_sig, kernel_row in moves:
                for q_next, p_move in kernel_row.items():
                    for theta_next in (0, 1):
                        p_flip = setting.pi if theta_next != theta else 1.0 - setting.pi
                        P[row, theta_next * m + q_next] += p_sig * p_move * p_flip
    return P


def connectivity_gaps(P):
    """Mask of the states unreachable from row 0 or unable to reach row 0,
    by a depth-first search each way over the dense ``P > 0`` adjacency."""
    adj = P > 0.0
    cut = np.zeros(len(P), dtype=bool)
    for edges in (adj, adj.T):
        seen = np.zeros(len(P), dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            for v in np.flatnonzero(edges[stack.pop()] & ~seen):
                seen[v] = True
                stack.append(v)
        cut |= ~seen
    return cut


def exact_average_payoff_fraction(setting, policy):
    """Long-run payoff in exact rationals, from the model's definition.

    The joint matrix is assembled in Fractions of pG, pB, pi and the
    kernel, with 1 - pi exact, in nature-major order, and solved by GTH
    elimination without rounding. Building it from the float matrix instead
    would carry that matrix's row-sum defect, which at pi = 1e-15 is a
    tenth of the coupling between the natures.
    """
    m = policy.num_states
    pi = Fraction(setting.pi)
    flip = ((1 - pi, pi), (pi, 1 - pi))
    dim = 2 * m
    A = [[Fraction(0)] * dim for _ in range(dim)]
    reward = [Fraction(0)] * dim
    for theta, probs in enumerate((setting.pG, setting.pB)):
        for q in range(m):
            if policy.actions[q] == SAFE:
                moves = [(Fraction(1), policy.kernel[(q, NO_SIGNAL)])]
            else:
                moves = [(Fraction(p), policy.kernel[(q, s)]) for s, p in enumerate(probs, 1)]
                reward[theta * m + q] = Fraction(setting.xG if theta == 0 else setting.xB)
            for p_sig, row in moves:
                for q_next, p_move in row.items():
                    for theta_next in (0, 1):
                        A[theta * m + q][theta_next * m + q_next] += (
                            p_sig * Fraction(p_move) * flip[theta][theta_next])
    # GTH: censor onto states 0..k-1, last state first; the diagonal is
    # never read.
    for k in range(dim - 1, 0, -1):
        s = sum(A[k][:k])
        cols = [j for j in range(k) if A[k][j]]
        for i in range(k):
            if A[i][k]:
                A[i][k] /= s
                for j in cols:
                    A[i][j] += A[i][k] * A[k][j]
    x = [Fraction(1)]
    for k in range(1, dim):
        x.append(sum(x[i] * A[i][k] for i in range(k) if A[i][k]))
    return sum(xi * r for xi, r in zip(x, reward)) / sum(x)


def damped_power_iteration(P, tol=1e-13, max_steps=400_000):
    """mu <- mu (I + P)/2 until stable; the damping handles periodic chains."""
    n = P.shape[0]
    mu = np.full(n, 1.0 / n)
    for _ in range(max_steps):
        nxt = 0.5 * mu + 0.5 * (mu @ P)
        if np.max(np.abs(nxt - mu)) < tol:
            mu = nxt
            break
        mu = nxt
    return mu / mu.sum()


def static_expected_utility_fraction(setting, policy, rule):
    """static_expected_utility in exact rationals of its float inputs: under
    each truth, the stopped distribution x solves x (I - (1 - eta) P) =
    eta d0 P, by Gauss-Jordan elimination in Fractions."""
    m, eta = policy.num_states, Fraction(setting.eta)
    prior_G = Fraction(setting.prior_G)
    total = Fraction(0)
    for truth, (prior, probs) in enumerate(((prior_G, setting.pG), (1 - prior_G, setting.pB))):
        P = [[Fraction(0)] * m for _ in range(m)]
        for q in range(m):
            weights = [1] if policy.actions[q] == SAFE else [Fraction(p) for p in probs]
            for s, weight in enumerate(weights):
                for nxt, p in zip(policy.next_state[q, s].tolist(), policy.prob[q, s].tolist()):
                    P[q][nxt] += weight * Fraction(p)
        # Row j of the transposed system: sum_i x_i (I - (1 - eta) P)[i][j] = eta P[q0][j].
        start = P[policy.initial_state]
        A = [[int(i == j) - (1 - eta) * P[i][j] for i in range(m)] + [eta * start[j]]
             for j in range(m)]
        for col in range(m):
            pivot = next(r for r in range(col, m) if A[r][col] != 0)
            A[col], A[pivot] = A[pivot], A[col]
            A[col] = [a / A[col][col] for a in A[col]]
            for r in range(m):
                if r != col and A[r][col] != 0:
                    A[r] = [a - A[r][col] * b for a, b in zip(A[r], A[col])]
        decide = [DECISIONS.index(d) for d in rule.decide]
        total += prior * sum(A[q][m] * Fraction(setting.utility[decide[q]][truth])
                             for q in range(m))
    return total


def geometric_series_stopped(P, d0, eta, tail=1e-14):
    """sum_t eta (1-eta)^t d0 P^(t+1), truncated once tail mass < tail."""
    acc = np.zeros_like(d0, dtype=float)
    term = np.asarray(d0, dtype=float)
    weight = eta
    covered = 0.0
    while 1.0 - covered > tail:
        term = term @ P
        acc = acc + weight * term
        covered += weight
        weight *= 1.0 - eta
    return acc


def reader_policy_value_by_paths(problem, table):
    """Expected utility of the stop-table policy by exhaustive path walk.

    Recurses over every signal branch, carrying the path probability under
    both bit values; at a stop (or exhaustion) it scores the guess against
    each truth. Stopped subtrees need no further branching because their
    suffixes sum to probability one.
    """
    from bounded_agents.bias_reader import posterior

    mu, rho, c, n = problem.prior1, problem.rho, problem.c, problem.n
    total = 0.0

    def rec(i, d, pr_one, pr_zero):
        nonlocal total
        if table.should_stop(i, d) or i == n:
            guess = 1 if posterior(problem, d) >= 0.5 else 0
            cost = i * c
            u_if_one = (1.0 if guess == 1 else 0.0) - cost
            u_if_zero = (1.0 if guess == 0 else 0.0) - cost
            total += mu * pr_one * u_if_one + (1.0 - mu) * pr_zero * u_if_zero
            return
        rec(i + 1, d + 1, pr_one * rho, pr_zero * (1.0 - rho))
        rec(i + 1, d - 1, pr_one * (1.0 - rho), pr_zero * rho)

    rec(0, 0, 1.0, 1.0)
    return total


def tuple_reader_dp(problem):
    """The reader DP cell by cell: W and stop as tuples of rows, indexed [i][d + i]."""
    from bounded_agents.bias_reader import posterior

    n, rho, c = problem.n, problem.rho, problem.c
    W = [()] * (n + 1)
    stop = [()] * (n + 1)
    last_w = []
    for d in range(-n, n + 1):
        p = posterior(problem, d)
        last_w.append(max(p, 1.0 - p))
    W[n] = tuple(last_w)
    stop[n] = (True,) * (2 * n + 1)
    for i in range(n - 1, -1, -1):
        row_w, row_stop = [], []
        for d in range(-i, i + 1):
            p = posterior(problem, d)
            stop_value = max(p, 1.0 - p)
            p_next_one = p * rho + (1.0 - p) * (1.0 - rho)
            up = W[i + 1][d + 1 + i + 1]
            down = W[i + 1][d - 1 + i + 1]
            cont = -c + p_next_one * up + (1.0 - p_next_one) * down
            if cont > stop_value:
                row_w.append(cont)
                row_stop.append(False)
            else:
                row_w.append(stop_value)
                row_stop.append(True)
        W[i] = tuple(row_w)
        stop[i] = tuple(row_stop)
    return tuple(W), tuple(stop)


def reader_full_information_value(problem):
    """Value of reading all n signals for free, by binomial enumeration."""
    from math import comb

    from bounded_agents.bias_reader import posterior

    mu, rho, n = problem.prior1, problem.rho, problem.n
    total = 0.0
    for ones in range(n + 1):
        d = 2 * ones - n
        p_one = comb(n, ones) * rho**ones * (1.0 - rho) ** (n - ones)
        p_zero = comb(n, ones) * (1.0 - rho) ** ones * rho ** (n - ones)
        post = posterior(problem, d)
        total += (mu * p_one + (1.0 - mu) * p_zero) * max(post, 1.0 - post)
    return total


def kahan_reversed_expected_utility(problem, machine_index):
    """Expected utility summed in reversed cell order with compensation,
    calling the utility once per cell."""
    machine = problem.machines[machine_index]
    states, types = np.divmod(np.arange(len(problem.prior)), len(problem.types))
    total = 0.0
    comp = 0.0
    for cell in reversed(range(len(problem.prior))):
        pr = float(problem.prior[cell])
        if pr == 0.0:
            continue
        one = slice(cell, cell + 1)
        u = problem.utility(states[one], types[one], machine.out[one], machine.complexity[one])
        term = pr * np.asarray(u).item()
        y = term - comp
        candidate = total + y
        comp = (candidate - total) - y
        total = candidate
    return total


def division_probes(t):
    """(probe count, is_prime) by trial division, one divisor at a time.

    Probes ascending divisors d = 2, 3, ... while d*d <= t; the count
    includes the successful divisor.
    """
    root = math.isqrt(t)
    d = 2
    while d <= root:
        if t % d == 0:
            return d - 1, False
        d += 1
    return max(root - 1, 0), True


def problem_to_dict(problem):
    """JSON form of a CompProblem, as problem_from_dict reads it: labels,
    then the prior and each machine's tables as rows [state, type, value] in
    cell order; the utility is left for the caller to add as rows."""
    cells = [(s, t) for s in problem.states for t in problem.types]

    def rows(values):
        return [[s, t, v] for (s, t), v in zip(cells, values)]

    return {
        "states": list(problem.states),
        "types": list(problem.types),
        "actions": list(problem.actions),
        "prior": rows(problem.prior.tolist()),
        "machines": [
            {"name": machine.name,
             "out": rows(problem.actions[a] for a in machine.out.tolist()),
             "complexity": rows(machine.complexity.tolist())}
            for machine in problem.machines
        ],
    }
