"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the joint matrix is
built by outcome enumeration instead of matrix algebra, the stationary
vector by damped power iteration or by elimination in exact rationals
instead of a float solve, reachability by a depth-first search over the
dense adjacency, stopped distributions by explicit geometric-series
summation instead of a resolvent inverse, probe counts by trial division
instead of a sieve, machine expected utilities cell by cell in reverse
with compensation instead of one product-sum, and agent step matrices and
simulator tables by walking a policy's dict view row by row instead of its
arrays.
"""

import math
from fractions import Fraction

import numpy as np

from bounded_agents.automaton import NO_SIGNAL, SAFE, policy_from_dict


def dict_policy(actions, kernel, k, initial_state=0):
    """Policy from a {(state, obs): {next: p}} kernel, through the JSON form
    that policy_from_dict reads."""
    return policy_from_dict({
        "num_states": len(actions), "initial_state": initial_state,
        "actions": list(actions),
        "kernel": {f"{q}:{'NoSignal' if obs is NO_SIGNAL else obs}": row
                   for (q, obs), row in kernel.items()},
    }, k)


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
