"""Independent exact evaluation for the benchmark's reference payoffs.

The joint (nature, automaton) chain is assembled here from the model's
definition, not from ``bounded_agents.markov_exact``, and solved by GTH
elimination (Grassmann, Taksar & Heyman 1985), which needs no subtraction.
States are ordered as 2q + theta, so a ladder's matrix has bandwidth 3 and
elimination fills in nothing outside the band. The solve stores the matrix
densely and skips updates whose factors are exact zeros; those updates
would add exact zeros, so the result equals that of plain dense GTH.
"""

from __future__ import annotations

import numpy as np


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of the irreducible stochastic matrix ``P``."""
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        cols = np.flatnonzero(A[k, :k])
        rows = np.flatnonzero(A[:k, k])
        s = A[k, cols].sum()
        if not s > 0.0:
            raise ValueError(f"chain is reducible at state {k}")
        A[rows, k] /= s
        A[np.ix_(rows, cols)] += np.outer(A[rows, k], A[k, cols])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def joint_chain(agent_good, agent_bad, risky, pi, xG, xB):
    """Joint matrix and reward over states 2q + theta (theta 0 = G, 1 = B).

    The agent moves by ``agent_good``/``agent_bad`` under the current nature
    state, then nature flips with probability ``pi``; risky states pay xG in
    G and xB in B.
    """
    m = len(risky)
    P = np.zeros((2 * m, 2 * m))
    reward = np.zeros(2 * m)
    flip = ((1.0 - pi, pi), (pi, 1.0 - pi))
    for theta, agent in enumerate((agent_good, agent_bad)):
        for q in range(m):
            for q2 in range(m):
                if agent[q][q2]:
                    for theta2 in (0, 1):
                        P[2 * q + theta, 2 * q2 + theta2] = agent[q][q2] * flip[theta][theta2]
            if risky[q]:
                reward[2 * q + theta] = xG if theta == 0 else xB
    return P, reward


def payoff(agent_good, agent_bad, risky, pi, xG, xB) -> float:
    P, reward = joint_chain(agent_good, agent_bad, risky, pi, xG, xB)
    return float(gth_stationary(P) @ reward)


def ladder_agents(pG, pB, n, p_exp, pos, neg, r_u=1.0, r_d=1.0):
    """Agent matrices of the (n+1)-state ladder: state 0 is safe and climbs
    with probability p_exp; risky rung i climbs on a signal in ``pos`` with
    probability r_u (the top rung stays) and descends on a signal in ``neg``
    with probability r_d."""
    agents = []
    for probs in (pG, pB):
        up = sum(probs[s - 1] for s in pos)
        down = sum(probs[s - 1] for s in neg)
        A = [[0.0] * (n + 1) for _ in range(n + 1)]
        A[0][1] += p_exp
        A[0][0] += 1.0 - p_exp
        for i in range(1, n + 1):
            climb = up * r_u if i < n else 0.0
            fall = down * r_d
            A[i][min(i + 1, n)] += climb
            A[i][i - 1] += fall
            A[i][i] += 1.0 - climb - fall
        agents.append(A)
    risky = [False] + [True] * n
    return agents[0], agents[1], risky


def policy_agents(policy, pG, pB):
    """Agent matrices of any Safe/Risky policy given as its kernel table."""
    m = policy.num_states
    risky = [a == "Risky" for a in policy.actions]
    agents = []
    for probs in (pG, pB):
        A = [[0.0] * m for _ in range(m)]
        for q in range(m):
            if risky[q]:
                for s, ps in enumerate(probs, start=1):
                    for q2, p in policy.kernel[(q, s)].items():
                        A[q][q2] += ps * p
            else:
                for q2, p in policy.kernel[(q, None)].items():
                    A[q][q2] += p
        agents.append(A)
    return agents[0], agents[1], risky
