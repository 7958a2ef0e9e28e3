"""Exact long-run analysis of the joint (nature x automaton) chain.

Round order, fixed here and mirrored by the simulator: the agent first
collects the reward of its current state under the current nature state;
if risky, a signal is drawn from the current state's distribution and the
automaton transitions (safe states take their no-signal transition); then
nature flips with probability pi. The joint one-step matrix therefore
factors as P[(t,q) -> (t',q')] = A_t(q -> q') * T(t -> t').

The long-run average payoff of an irreducible chain equals the stationary
expectation of the reward vector (via the Cesaro limit, so periodic chains
need no special handling). The stationary distribution comes from a dense
direct solve of (P^T - I) x = 0 with the last equation replaced by
normalization; dimensions stay small at desk scale.

One stacked path assembles, checks and solves (B, 2m, 2m) joint chains from
(B, m, m) agent matrices. The single-chain functions are its B = 1 case, so
a chain gives the same bits whether it is solved alone or inside a stack.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .automaton import NO_SIGNAL, RISKY, SAFE, AutomatonPolicy, check_policy
from .dynamic_env import DynamicSetting
from .errors import (
    BadEtaError,
    BoundedAgentsError,
    DimensionMismatchError,
    ReducibleChainError,
    SolveFailedError,
    ValidationError,
)

NATURE_STATES = ("G", "B")

STATIONARY_TOL = 1e-10

# Reachability takes a batched boolean closure up to this chain dimension
# and one graph search per chain above it.
CLOSURE_MAX_DIM = 64

# Bytes of float64 joint matrices in one stack.
STACK_BYTES = 8 << 20


def stack_len(dim: int) -> int:
    """Chains of dimension ``dim`` per stack, within STACK_BYTES."""
    return max(1, STACK_BYTES // (8 * dim * dim))


@dataclass(frozen=True)
class JointChainModel:
    """Transition matrix and rewards over (nature, automaton-state) pairs.

    Row index = nature_index * num_agent_states + agent_state, with nature
    index 0 = G, 1 = B.
    """

    dim: int
    P: np.ndarray
    reward: np.ndarray
    num_agent_states: int

    def index_of(self, nature: str, agent_state: int) -> int:
        return NATURE_STATES.index(nature) * self.num_agent_states + agent_state

    def state_of(self, row: int) -> tuple[str, int]:
        return NATURE_STATES[row // self.num_agent_states], row % self.num_agent_states


@dataclass(frozen=True)
class StationaryDist:
    mu: np.ndarray
    residual: float


@dataclass(frozen=True)
class StackEval:
    """Stationary rows, residuals and payoffs of a stack of joint chains. Where
    ``ok`` is False the entries are NaN and ``error(i)`` is the typed error
    the single-chain path raises for that chain."""

    mu: np.ndarray
    residual: np.ndarray
    payoff: np.ndarray
    ok: np.ndarray
    cut_off: np.ndarray
    solve_errors: dict[int, str]

    def error(self, i: int) -> BoundedAgentsError:
        if self.cut_off[i].any():
            return _reducible_error(self.cut_off[i], self.cut_off.shape[1] // 2)
        return SolveFailedError(self.solve_errors[i])


def agent_step_matrix(policy: AutomatonPolicy, signal_probs) -> np.ndarray:
    """One-step matrix of the automaton under a fixed signal distribution.

    Safe states take their no-signal row; every other state averages its
    signal rows under ``signal_probs``.
    """
    m = policy.num_states
    k = len(signal_probs)
    out = np.zeros((m, m))
    for q in range(m):
        if policy.actions[q] == SAFE:
            for nxt, p in policy.kernel[(q, NO_SIGNAL)].items():
                out[q, nxt] += p
        else:
            for s in range(1, k + 1):
                ps = signal_probs[s - 1]
                if ps == 0.0:
                    continue
                for nxt, p in policy.kernel[(q, s)].items():
                    out[q, nxt] += ps * p
    return out


def _agent_matrices(setting: DynamicSetting, policy: AutomatonPolicy):
    """Step matrices in G and in B of a policy the joint chain can take."""
    if not all(a in (SAFE, RISKY) for a in policy.actions):
        raise DimensionMismatchError(
            "joint chain needs Safe/Risky action labels, got "
            f"{sorted(set(policy.actions))}"
        )
    try:
        check_policy(policy, setting.k)
    except ValidationError as exc:
        raise DimensionMismatchError(
            f"policy does not consume signals 1..{setting.k}: {exc}"
        ) from exc
    return agent_step_matrix(policy, setting.pG), agent_step_matrix(policy, setting.pB)


def joint_reward(setting: DynamicSetting, actions) -> np.ndarray:
    """Per-round reward of each joint state under one action labeling."""
    risky = np.array([a == RISKY for a in actions])
    return np.concatenate([np.where(risky, setting.xG, 0.0), np.where(risky, setting.xB, 0.0)])


def joint_matrices(a_good: np.ndarray, a_bad: np.ndarray, pi: float) -> np.ndarray:
    """(B, 2m, 2m) joint matrices from (B, m, m) agent matrices in G and B."""
    b, m, _ = a_good.shape
    P = np.empty((b, 2 * m, 2 * m))
    np.multiply(a_good, 1.0 - pi, out=P[:, :m, :m])
    np.multiply(a_good, pi, out=P[:, :m, m:])
    np.multiply(a_bad, pi, out=P[:, m:, :m])
    np.multiply(a_bad, 1.0 - pi, out=P[:, m:, m:])
    return P


def build_joint_chain(setting: DynamicSetting, policy: AutomatonPolicy) -> JointChainModel:
    """Compose the automaton with switching nature into one Markov chain."""
    a_good, a_bad = _agent_matrices(setting, policy)
    P = joint_matrices(a_good[None], a_bad[None], setting.pi)[0]
    return JointChainModel(dim=len(P), P=P, reward=joint_reward(setting, policy.actions),
                           num_agent_states=policy.num_states)


def _connectivity_gaps(P: np.ndarray) -> np.ndarray:
    """Mask of the states unreachable from row 0 or unable to reach row 0."""
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


def reach_gaps(P: np.ndarray) -> np.ndarray:
    """(B, d) mask of the states each chain of a stack cuts off from row 0."""
    b, d, _ = P.shape
    if d > CLOSURE_MAX_DIM:
        return np.array([_connectivity_gaps(chain) for chain in P]).reshape(b, d)
    # Boolean closure by repeated squaring of (I | P > 0) until it covers
    # paths of length d - 1; float32 counts stay exact at these sizes.
    reach = ((P > 0.0) | np.eye(d, dtype=bool)).astype(np.float32)
    steps = 1
    while steps < d - 1:
        reach = (reach @ reach > 0.0).astype(np.float32)
        steps *= 2
    return (reach[:, 0, :] == 0.0) | (reach[:, :, 0] == 0.0)


def _reducible_error(cut_off: np.ndarray, m: int) -> ReducibleChainError:
    labels = [f"({NATURE_STATES[row // m]}, q={row % m})" for row in np.flatnonzero(cut_off)]
    return ReducibleChainError(
        "joint chain is not irreducible; cut-off states: " + ", ".join(labels),
        unreachable=labels,
    )


def check_irreducible(chain: JointChainModel) -> None:
    """Raise ReducibleChainError naming the cut-off states, if any."""
    cut_off = reach_gaps(chain.P[None])[0]
    if cut_off.any():
        raise _reducible_error(cut_off, chain.num_agent_states)


def _solve(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Stationary rows, residuals and failure messages of irreducible chains."""
    b, d, _ = P.shape
    A = P.transpose(0, 2, 1).astype(float)
    A[:, np.arange(d), np.arange(d)] -= 1.0
    A[:, -1, :] = 1.0
    rhs = np.zeros((b, d, 1))
    rhs[:, -1] = 1.0
    errors: dict[int, str] = {}
    try:
        mu = np.linalg.solve(A, rhs)[..., 0]
    except np.linalg.LinAlgError:
        mu = np.full((b, d), np.nan)
        for i in range(b):
            try:
                mu[i] = np.linalg.solve(A[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError as exc:
                errors[i] = f"stationary solve failed: {exc}"
    del A
    # The solve can leave harmless -1e-17 style noise; anything worse means
    # the system was ill-conditioned beyond what we accept.
    low = mu.min(axis=1)
    mu = np.where(mu < 0.0, 0.0, mu)
    residual = np.abs((mu[:, None, :] @ P)[:, 0, :] - mu).max(axis=1)
    mass = mu.sum(axis=1)
    # Written so that NaN fails too.
    within = (residual <= STATIONARY_TOL) & (np.abs(mass - 1.0) <= STATIONARY_TOL)
    for i in np.flatnonzero((low < -1e-12) | ~within):
        if low[i] < -1e-12:
            errors[i] = f"stationary solve produced mass {low[i]!r}"
        else:
            errors.setdefault(i, f"stationary residual {float(residual[i])!r} / mass "
                                 f"{mass[i]!r} out of tolerance")
    return mu, residual, errors


def stationary(chain: JointChainModel) -> StationaryDist:
    """Unique stationary distribution of an irreducible chain."""
    check_irreducible(chain)
    mu, residual, errors = _solve(chain.P[None])
    if errors:
        raise SolveFailedError(errors[0])
    return StationaryDist(mu=mu[0], residual=float(residual[0]))


def _payoffs(mu: np.ndarray, reward: np.ndarray) -> np.ndarray:
    # This product form gives the bits of the 1-D dot product mu[i] @ reward.
    return (mu[:, None, :] @ reward[:, None])[:, 0, 0]


def chain_payoff(chain: JointChainModel, dist: StationaryDist) -> float:
    """Long-run expected per-round payoff of a solved chain."""
    return float(_payoffs(dist.mu[None], chain.reward)[0])


def exact_average_payoff(setting: DynamicSetting, policy: AutomatonPolicy) -> float:
    """Long-run expected per-round payoff of ``policy`` in ``setting``."""
    chain = build_joint_chain(setting, policy)
    return chain_payoff(chain, stationary(chain))


def evaluate_stack(a_good: np.ndarray, a_bad: np.ndarray, pi: float,
                   reward: np.ndarray) -> StackEval:
    """Assemble, check and solve a stack of joint chains sharing ``reward``;
    reducible chains are not solved."""
    P = joint_matrices(a_good, a_bad, pi)
    cut_off = reach_gaps(P)
    ok = ~cut_off.any(axis=1)
    mu = np.full(P.shape[:2], np.nan)
    residual = np.full(len(P), np.nan)
    idx = np.flatnonzero(ok)
    mu[idx], residual[idx], errors = _solve(P if ok.all() else P[idx])
    errors = {int(idx[j]): msg for j, msg in errors.items()}
    failed = list(errors)
    ok[failed] = False
    mu[failed] = residual[failed] = np.nan
    return StackEval(mu=mu, residual=residual, payoff=_payoffs(mu, reward), ok=ok,
                     cut_off=cut_off, solve_errors=errors)


def policy_payoffs(setting: DynamicSetting, policies) -> list[float]:
    """exact_average_payoff of each policy, solved in stacks. The policies
    share one action labeling; the first whose chain fails raises its error."""
    if not policies:
        return []
    actions = policies[0].actions
    if any(p.actions != actions for p in policies):
        raise DimensionMismatchError("stacked policies must share one action labeling")
    reward = joint_reward(setting, actions)
    step = stack_len(reward.size)
    payoffs: list[float] = []
    for lo in range(0, len(policies), step):
        a_good, a_bad = zip(*(_agent_matrices(setting, p) for p in policies[lo:lo + step]))
        ev = evaluate_stack(np.array(a_good), np.array(a_bad), setting.pi, reward)
        if not ev.ok.all():
            raise ev.error(int(np.argmin(ev.ok)))
        payoffs.extend(ev.payoff.tolist())
    return payoffs


def stopped_state_distribution(P: np.ndarray, d0: np.ndarray, eta: float) -> np.ndarray:
    """Distribution of the state at a geometric stopping time.

    The process takes a step, then halts with probability eta, so the
    result is eta * d0 * P * (I - (1-eta) P)^-1; eta=1 reduces to d0 * P.
    The inverse exists for eta in (0, 1] because I - (1-eta)P is strictly
    diagonally dominant in the induced norm.
    """
    if not (0.0 < eta <= 1.0):
        raise BadEtaError(f"eta must be in (0, 1], got {eta}")
    P = np.asarray(P, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or d0.shape != (P.shape[0],):
        raise DimensionMismatchError(
            f"shape mismatch: P {P.shape}, d0 {d0.shape}"
        )
    resolvent = np.eye(P.shape[0]) - (1.0 - eta) * P
    return eta * np.linalg.solve(resolvent.T, (d0 @ P))


def chain_csv(chain: JointChainModel, dist: StationaryDist | None = None) -> str:
    """CSV with one row per joint state: nature, q, reward, stationary mass."""
    buf = io.StringIO()
    buf.write("nature,agent_state,reward,stationary_mass\n")
    for row in range(chain.dim):
        nature, q = chain.state_of(row)
        mass = "" if dist is None else f"{dist.mu[row]:.12g}"
        buf.write(f"{nature},{q},{chain.reward[row]:.12g},{mass}\n")
    return buf.getvalue()
