"""Exact long-run analysis of the joint (nature x automaton) chain.

Round order, fixed here and mirrored by the simulator: the agent first
collects the reward of its current state under the current nature state;
if risky, a signal is drawn from the current state's distribution and the
automaton transitions (safe states take their no-signal transition); then
nature flips with probability pi. The joint one-step matrix therefore
factors as P[(t,q) -> (t',q')] = A_t(q -> q') * T(t -> t').

The long-run average payoff of an irreducible chain equals the stationary
expectation of the reward vector (via the Cesaro limit, so periodic chains
need no special handling). The stationary distribution comes from GTH
elimination (Grassmann, Taksar & Heyman 1985), which never subtracts and so
stays accurate when small pi leaves the chain nearly decomposable. It runs
on the states in the interleaved order 2q + theta, where the matrix is
banded: its half-bandwidth w is measured from the nonzeros of P (3 for every
ladder), and the chain is stored as a band when that is narrower than the
matrix, so a ladder solves in O(d). The same band serves the reachability
search of large chains.

One stacked path assembles, checks and solves (B, 2m, 2m) joint chains from
(B, m, m) agent matrices. The single-chain functions are its B = 1 case, so
a chain gives the same bits whether it is solved alone or inside a stack.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .automaton import RISKY, SAFE, AutomatonPolicy, check_dynamic_policy
from .dynamic_env import DynamicSetting
from .errors import (
    BadEtaError,
    BoundedAgentsError,
    DimensionMismatchError,
    ReducibleChainError,
    SolveFailedError,
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
    """One-step matrix of the automaton under a fixed signal distribution:
    each state averages its signal rows under ``signal_probs``, adding them
    in signal order, except that a Safe state takes its one row as is.
    """
    m, k = policy.num_states, len(signal_probs)
    safe = np.array([a == SAFE for a in policy.actions], dtype=bool)[:, None]
    weight = np.where(safe, np.arange(k) == 0, np.asarray(signal_probs, dtype=float))
    # bincount adds in input order, so signal-major input keeps signal order.
    cells = (np.arange(m)[:, None, None] * m + policy.next_state).transpose(1, 0, 2)
    terms = (weight[:, :, None] * policy.prob).transpose(1, 0, 2)
    return np.bincount(cells.ravel(), terms.ravel(), minlength=m * m).reshape(m, m)


def agent_matrices(setting: DynamicSetting, policy: AutomatonPolicy):
    """Step matrices in G and in B of a policy the joint chain can take."""
    check_dynamic_policy(policy, setting.k)
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
    a_good, a_bad = agent_matrices(setting, policy)
    P = joint_matrices(a_good[None], a_bad[None], setting.pi)[0]
    return JointChainModel(dim=len(P), P=P, reward=joint_reward(setting, policy.actions),
                           num_agent_states=policy.num_states)


def _interleaved(d: int) -> np.ndarray:
    """Nature-major row of each state in the interleaved order 2q + theta."""
    return np.arange(d).reshape(2, d // 2).T.ravel()


def _gather(P: np.ndarray, w: int) -> np.ndarray:
    """(d, L, B) storage of a stack's B chains in the interleaved order.
    Row i holds the entries (i, j) with |i - j| <= w at column j - i + w
    (L = 2w + 1), or the whole row (L = d) when that band would cover it.
    The stack axis is last, so each elimination step runs over contiguous
    runs of B values rather than over B short windows."""
    b, d, _ = P.shape
    order = _interleaved(d)
    by_entry = P.reshape(b, d * d).T
    if 2 * w + 1 >= d:
        return by_entry[order[:, None] * d + order]
    cols = np.arange(d)[:, None] + np.arange(-w, w + 1)
    S = by_entry[order[:, None] * d + order.take(cols, mode="clip")]
    S[(cols < 0) | (cols >= d)] = 0.0
    return S


def _band(P: np.ndarray) -> tuple[np.ndarray, int]:
    """Band storage of a stack (see _gather) and its half-bandwidth w, the
    least with every nonzero (i, j) of every chain within |i - j| <= w in
    the interleaved order; w = d - 1 when no narrower band holds them."""
    d = P.shape[1]
    nonzeros = np.count_nonzero(P != 0.0)
    # A joint chain whose agent moves has w >= 3, so the search starts there.
    w = 3
    while 2 * w + 1 < d:
        S = _gather(P, w)
        per_offset = (S != 0.0).sum(axis=(0, 2))
        if per_offset.sum() == nonzeros:
            tight = int(np.abs(np.flatnonzero(per_offset) - w).max(initial=1))
            return np.ascontiguousarray(S[:, w - tight:w + tight + 1]), tight
        w = 2 * w + 1
    return _gather(P, d - 1), d - 1


def _square_view(S: np.ndarray, w: int) -> np.ndarray:
    """(d, d, B) view of a band storage, entry (i, j) at row i*R + j + off
    of the storage's (d*L, B) rows: R, off = 2w, w for a band and d, 0 for
    whole rows. Outside the band, entries alias others, so only entries
    with |i - j| <= w may be touched."""
    d, L, b = S.shape
    if L == d:
        return S
    rows = S.reshape(d * L, b)
    step = rows.strides[0]
    return as_strided(rows[w:], shape=(d, d, b), strides=((L - 1) * step, step, rows.strides[1]))


def _band_gaps(S: np.ndarray, w: int) -> np.ndarray:
    """(B, d) nature-major mask of the states each stored chain cuts off
    from state 0, by a graph search each way over the band's nonzeros."""
    d, L, b = S.shape
    cut = np.zeros((b, d), dtype=bool)
    for chain, gaps in zip(np.moveaxis(S > 0.0, 2, 0), cut):
        i, c = np.nonzero(chain)
        j = c if L == d else i + c - w
        for src, dst in ((i, j), (j, i)):
            by_src = np.argsort(src, kind="stable")
            starts = np.searchsorted(src[by_src], np.arange(d + 1)).tolist()
            succ = dst[by_src].tolist()
            seen = [False] * d
            seen[0] = True
            stack = [0]
            while stack:
                v = stack.pop()
                for u in succ[starts[v]:starts[v + 1]]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            gaps |= ~np.array(seen)
    return cut[:, np.argsort(_interleaved(d))]


def _closure_gaps(P: np.ndarray) -> np.ndarray:
    # Boolean closure by repeated squaring of (I | P > 0) until it covers
    # paths of length d - 1; float32 counts stay exact at these sizes.
    d = P.shape[1]
    reach = ((P > 0.0) | np.eye(d, dtype=bool)).astype(np.float32)
    steps = 1
    while steps < d - 1:
        reach = (reach @ reach > 0.0).astype(np.float32)
        steps *= 2
    return (reach[:, 0, :] == 0.0) | (reach[:, :, 0] == 0.0)


def _state_label(row: int, m: int) -> str:
    return f"({NATURE_STATES[row // m]}, q={row % m})"


def _reducible_error(cut_off: np.ndarray, m: int) -> ReducibleChainError:
    labels = [_state_label(row, m) for row in np.flatnonzero(cut_off)]
    return ReducibleChainError(
        "joint chain is not irreducible; cut-off states: " + ", ".join(labels),
        unreachable=labels,
    )


# Back-substitution keeps its entries below 2**RESCALE_BITS by exact
# power-of-two rescaling, so a chain whose stationary mass grows by more
# than the float range along its states still solves.
RESCALE_BITS = 1000


def _gth(S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, d) stationary rows of a stack of band storages in the interleaved
    order, and the pivot of each state, by GTH elimination (Grassmann,
    Taksar & Heyman 1985). Overwrites S.

    Every sum runs term by term (``accumulate``), so a chain gets the same
    bits alone as in a stack of any size."""
    d, _, b = S.shape
    V = _square_view(S, w)
    pivot = np.ones((d, b))
    # Censor the chain onto states 0..k-1, last state first. The pivot is
    # the probability of leaving k downwards, a sum of nonnegative terms, so
    # nothing is subtracted; fill-in stays inside the band.
    for k in range(d - 1, 0, -1):
        lo = max(0, k - w)
        row = V[k, lo:k]
        pivot[k] = s = np.add.accumulate(row, axis=0)[-1]
        col = V[lo:k, k]
        col /= s
        block = V[lo:k, lo:k]
        block += col[:, None] * row
    # Each censored entry is at most 1, so x[k] is at most w / pivot[k]
    # times the largest entry before it: that bounds the growth in bits.
    growth = np.log2(np.fmax(w / pivot, 1.0)).max(axis=1, initial=0.0).tolist()
    x = np.zeros((d, b))
    x[0] = 1.0
    bits = 0.0
    for k in range(1, d):
        if bits + growth[k] > RESCALE_BITS:
            x[:k] = np.ldexp(x[:k], -np.frexp(x[:k].max(axis=0))[1])
            bits = 0.0
        bits += growth[k]
        lo = max(0, k - w)
        x[k] = np.add.accumulate(x[lo:k] * V[lo:k, k], axis=0)[-1]
    mu = np.ascontiguousarray(x.T)
    mu /= mu.sum(axis=1, keepdims=True)
    return mu, pivot.T


def _checked_band(P: np.ndarray):
    """(cut_off, chains, P, S, w) of a stack of joint chains: the (B, d)
    masks of cut-off states, the stack indices of the irreducible chains,
    their matrices, and their band storage and half-bandwidth.

    The band is measured and stored once, for the reachability search above
    CLOSURE_MAX_DIM and for the solve.
    """
    if P.shape[1] <= CLOSURE_MAX_DIM:
        cut_off = _closure_gaps(P)
        chains = np.flatnonzero(~cut_off.any(axis=1))
        if len(chains) < len(P):
            P = P[chains]
        S, w = _band(P)
    else:
        S, w = _band(P)
        cut_off = _band_gaps(S, w)
        chains = np.flatnonzero(~cut_off.any(axis=1))
        if len(chains) < len(P):
            P, S = P[chains], S[:, :, chains]
    return cut_off, chains, P, S, w


def reach_gaps(P: np.ndarray) -> np.ndarray:
    """(B, d) mask of the states each chain of a stack cuts off from row 0."""
    return _checked_band(P)[0]


def check_irreducible(chain: JointChainModel):
    """Raise ReducibleChainError naming the cut-off states, if any. Returns
    the chain's band storage and half-bandwidth, which ``stationary`` solves."""
    cut_off, _, _, S, w = _checked_band(chain.P[None])
    if cut_off.any():
        raise _reducible_error(cut_off[0], chain.num_agent_states)
    return S, w


def _solve(P: np.ndarray, S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Stationary rows, residuals and failure messages of a stack of
    irreducible chains, from their band storage S (overwritten)."""
    d = P.shape[1]
    order = _interleaved(d)
    mu = np.empty((len(P), d))
    # A zero pivot (from underflow) gives inf and NaN, which fail the checks
    # below with a typed error.
    with np.errstate(divide="ignore", invalid="ignore"):
        mu[:, order], pivot = _gth(S, w)
        residual = np.abs((mu[:, None, :] @ P)[:, 0, :] - mu).max(axis=1)
    mass = mu.sum(axis=1)
    least = mu.min(axis=1)
    # Written so that NaN fails too.
    within = ((residual <= STATIONARY_TOL) & (np.abs(mass - 1.0) <= STATIONARY_TOL)
              & (least >= 0.0))
    errors: dict[int, str] = {}
    for i in np.flatnonzero(~(pivot > 0.0).all(axis=1) | ~within).tolist():
        low = np.flatnonzero(~(pivot[i] > 0.0))
        if low.size:
            state = _state_label(int(order[low[-1]]), d // 2)
            errors[i] = f"GTH pivot of state {state} is {float(pivot[i, low[-1]])!r}"
        elif least[i] < 0.0:
            errors[i] = f"stationary solve produced mass {float(least[i])!r}"
        else:
            errors[i] = (f"stationary residual {float(residual[i])!r} / mass "
                         f"{mass[i]!r} out of tolerance")
    return mu, residual, errors


def stationary(chain: JointChainModel) -> StationaryDist:
    """Unique stationary distribution of an irreducible chain."""
    S, w = check_irreducible(chain)
    mu, residual, errors = _solve(chain.P[None], S, w)
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
    cut_off, chains, P, S, w = _checked_band(joint_matrices(a_good, a_bad, pi))
    solved, solved_residual, solve_errors = _solve(P, S, w)
    errors = {int(chains[i]): msg for i, msg in solve_errors.items()}
    failed = list(errors)
    ok = ~cut_off.any(axis=1)
    ok[failed] = False
    mu = np.full(cut_off.shape, np.nan)
    residual = np.full(len(cut_off), np.nan)
    mu[chains], residual[chains] = solved, solved_residual
    mu[failed] = residual[failed] = np.nan
    return StackEval(mu=mu, residual=residual, payoff=_payoffs(mu, reward), ok=ok,
                     cut_off=cut_off, solve_errors=errors)


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
