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
in the interleaved order 2q + theta, where agents that move at most W
states give half-bandwidth at most 2W + 1 (3 for a ladder). Joint chains
are assembled straight into that band, so a ladder is built, solved and
checked in O(d), and the dense matrix is made only when read. The solve
certifies irreducibility itself (see _gth); only a chain it cannot certify
gets the structural pass, the same elimination on the chain's zero pattern.

One stacked path assembles, solves and checks joint chains; the single-chain
functions are its B = 1 case, so a chain gets the same bits alone or in a stack.
"""

from __future__ import annotations

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
    check_real,
)

NATURE_STATES = ("G", "B")

STATIONARY_TOL = 1e-10

# Bytes of float64 joint storage in one stack: one core's L2 cache, so that
# each elimination step's runs of B values are read from cache.
STACK_BYTES = 2 << 20


def stack_len(rows: int, cols: int) -> int:
    """Chains per stack whose joint storage, ``rows`` x ``cols`` float64
    entries each, fits STACK_BYTES."""
    return max(1, STACK_BYTES // (8 * rows * cols))


@dataclass(frozen=True)
class JointChainModel:
    """Transition matrix and rewards over (nature, automaton-state) pairs, row
    nature_index * num_agent_states + agent_state with G = 0, B = 1. The
    matrix is held as joint_band's (d, L, 1) storage ``band`` of half-width
    ``w``; the dense ``P`` is built from it on each read."""

    dim: int
    band: np.ndarray
    w: int
    reward: np.ndarray
    num_agent_states: int

    @property
    def P(self) -> np.ndarray:
        nature_major = np.argsort(_interleaved(self.dim))
        return _whole_rows(self.band, self.w)[np.ix_(nature_major, nature_major)][:, :, 0]

    def state_of(self, row: int) -> tuple[str, int]:
        return NATURE_STATES[row // self.num_agent_states], row % self.num_agent_states


@dataclass(frozen=True)
class StationaryDist:
    mu: np.ndarray
    residual: float
    payoff: float


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
    """(m, 2W + 1) band of the automaton's one-step matrix under a fixed
    signal distribution, (q, q') at column q' - q + W for the longest move W
    of any row entry: each state adds its signal rows under ``signal_probs``
    in signal order, except that a Safe state takes its one row as is."""
    m, k = policy.num_states, len(signal_probs)
    safe = np.array([a == SAFE for a in policy.actions], dtype=bool)[:, None]
    weight = np.where(safe, np.arange(k) == 0, np.asarray(signal_probs, dtype=float))
    move = policy.next_state - np.arange(m)[:, None, None]
    L = 2 * int(np.abs(move).max()) + 1
    # bincount adds in input order, so signal-major input keeps signal order.
    cells = (np.arange(m)[:, None, None] * L + move + L // 2).transpose(1, 0, 2)
    terms = (weight[:, :, None] * policy.prob).transpose(1, 0, 2)
    return np.bincount(cells.ravel(), terms.ravel(), minlength=m * L).reshape(m, L)


def dense_matrix(band: np.ndarray) -> np.ndarray:
    """(m, m) matrix of an agent's (m, 2W + 1) band."""
    return _whole_rows(band[:, :, None], band.shape[1] // 2)[:, :, 0]


def agent_matrices(setting: DynamicSetting, policy: AutomatonPolicy):
    """Step-matrix bands in G and in B of a policy the joint chain can take."""
    check_dynamic_policy(policy, setting.k)
    return agent_step_matrix(policy, setting.pG), agent_step_matrix(policy, setting.pB)


def joint_reward(setting: DynamicSetting, actions) -> np.ndarray:
    """Per-round reward of each joint state under one action labeling."""
    risky = np.array([a == RISKY for a in actions])
    return np.concatenate([np.where(risky, setting.xG, 0.0), np.where(risky, setting.xB, 0.0)])


def joint_band(a_good: np.ndarray, a_bad: np.ndarray, pi: float) -> tuple[np.ndarray, int]:
    """(d, L, B) interleaved-order storage of the joint chains of (B, m, 2W + 1)
    agent bands in G and B, and its half-bandwidth w: row i holds (i, j) at column
    j - i + w, w the least that holds every nonzero, if that band is narrower than
    the matrix (2w + 1 < d); else whole rows (w = d - 1), masked from a strided
    view of the band. The stack axis is last, so each elimination step runs over
    contiguous runs of B values. Brute force, whose chains are whole rows, calls
    this once per action labeling on its per-state tables and gathers each stack
    from the rows it makes (see optimize._joint_rows), so no stack is masked."""
    b, m, wide = a_good.shape
    # (q, theta) -> (q', theta') is held at column 2(q' - q + W) + theta' - theta + 2W + 1.
    S = np.zeros((m, 2, 2 * wide + 1, b))
    good, bad = a_good.transpose(1, 2, 0), a_bad.transpose(1, 2, 0)
    np.multiply(good, 1.0 - pi, out=S[:, 0, 1:-1:2])
    np.multiply(good, pi, out=S[:, 0, 2::2])
    np.multiply(bad, pi, out=S[:, 1, :-2:2])
    np.multiply(bad, 1.0 - pi, out=S[:, 1, 1:-1:2])
    S = S.reshape(2 * m, 2 * wide + 1, b)
    tight = int(np.abs(np.flatnonzero(S.any(axis=(0, 2))) - wide).max(initial=1))
    if 2 * tight + 1 < 2 * m:
        return np.ascontiguousarray(S[:, wide - tight:wide + tight + 1]), tight
    return _whole_rows(S, wide), 2 * m - 1


def build_joint_chain(setting: DynamicSetting, policy: AutomatonPolicy) -> JointChainModel:
    """Compose the automaton with switching nature into one Markov chain."""
    a_good, a_bad = agent_matrices(setting, policy)
    band, w = joint_band(a_good[None], a_bad[None], setting.pi)
    return JointChainModel(dim=len(band), band=band, w=w, num_agent_states=policy.num_states,
                           reward=joint_reward(setting, policy.actions))


def _interleaved(d: int) -> np.ndarray:
    """Nature-major row of each state in the interleaved order 2q + theta."""
    return np.arange(d).reshape(2, d // 2).T.ravel()


def _square_view(S: np.ndarray, w: int) -> np.ndarray:
    """(d, d, B) view of a storage, (i, j) at row 2w*i + j + w of its (d*L, B) rows
    (whole rows as stored); outside |i - j| <= w entries alias others: keep out."""
    d, L, b = S.shape
    if L != 2 * w + 1:
        return S
    rows = S.reshape(d * L, b)
    step = rows.strides[0]
    return as_strided(rows[w:], shape=(d, d, b), strides=((L - 1) * step, step, rows.strides[1]))


def _whole_rows(S: np.ndarray, w: int) -> np.ndarray:
    """(n, n, B) whole-row storage of an (n, L, B) storage of half-width w."""
    near = np.tri(len(S), k=w, dtype=bool) & ~np.tri(len(S), k=-w - 1, dtype=bool)  # |i - j| <= w
    return np.where(near[:, :, None], _square_view(S, w), 0.0)


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


def _gth(S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, d) stationary rows of a stack of band storages in the interleaved
    order, the (d, B) pivots of its states, and whether the solve certifies
    each chain irreducible, by GTH elimination (Grassmann, Taksar & Heyman
    1985). Overwrites S.

    Every sum runs term by term (``accumulate``), so a chain gets the same
    bits alone as in a stack of any size.

    GTH never subtracts, so an entry that comes out positive is positive in
    the chain's zero pattern too (see reach_gaps). A positive pivot says that
    state k reaches a lower state, and so, by induction, state 0; a positive
    x[k] says that a lower state, and so state 0, reaches k. A chain whose
    every pivot and every x[k], as computed, is positive is irreducible."""
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
    # times the largest entry before it: that bounds the growth in bits. A
    # zero pivot leaves its chain uncertified, so it sets no rescale.
    growth = np.log2(np.fmax(w / pivot, 1.0), where=pivot > 0.0, out=np.zeros((d, b)))
    growth = growth.max(axis=1, initial=0.0).tolist()
    certified = (pivot > 0.0).all(axis=0)
    x = np.zeros((d, b))
    x[0] = 1.0
    bits, since = 0.0, 0
    for k in range(1, d):
        if bits + growth[k] > RESCALE_BITS:
            # A rescale may flush the least entries to 0, so the entries
            # since the last one are read as they were computed.
            certified &= (x[since:k] > 0.0).all(axis=0)
            x[:k] = np.ldexp(x[:k], -np.frexp(x[:k].max(axis=0))[1])
            bits, since = 0.0, k
        bits += growth[k]
        lo = max(0, k - w)
        x[k] = np.add.accumulate(x[lo:k] * V[lo:k, k], axis=0)[-1]
    certified &= (x[since:] > 0.0).all(axis=0)
    mu = np.ascontiguousarray(x.T)
    mu /= mu.sum(axis=1, keepdims=True)
    return mu, pivot, certified


def reach_gaps(S: np.ndarray, w: int) -> np.ndarray:
    """(B, d) nature-major mask of the states each stored chain cuts off from
    state 0, by _gth's elimination run on the chains' zero patterns, ``|`` for
    ``+`` and ``&`` for ``*``. When state k is eliminated, its row holds the
    lower states it reaches through higher ones, and its column the lower
    states that reach it so: k reaches 0 if a state in its row does, and 0
    reaches k if it reaches a state in its column."""
    d, _, b = S.shape
    V = _square_view(S > 0.0, w)
    for k in range(d - 1, 0, -1):
        lo = max(0, k - w)
        V[lo:k, lo:k] |= V[lo:k, k, None] & V[k, lo:k]
    reaches, reached = np.ones((2, d, b), dtype=bool)
    for k in range(1, d):
        lo = max(0, k - w)
        reaches[k] = (V[k, lo:k] & reaches[lo:k]).any(axis=0)
        reached[k] = (V[lo:k, k] & reached[lo:k]).any(axis=0)
    return ~(reaches & reached).T[:, np.argsort(_interleaved(d))]


def check_irreducible(S: np.ndarray, w: int, certified: np.ndarray) -> np.ndarray:
    """(B, d) nature-major mask of the states each stored chain cuts off
    (see reach_gaps); only the chains that their solve has not ``certified``
    irreducible are searched."""
    cut_off = np.zeros((S.shape[2], len(S)), dtype=bool)
    doubt = np.flatnonzero(~certified)
    if doubt.size:
        cut_off[doubt] = reach_gaps(np.take(S, doubt, axis=2), w)
    return cut_off


def _solve(S: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d, B) stationary columns in the interleaved order, residuals, pivots
    and irreducibility certificates (see _gth) of a stack of chains from their
    storage S. The residual max_j |(xP)_j - x_j| is summed on the storage
    itself: one vector step per diagonal of its square view."""
    d = len(S)
    # A zero pivot (from underflow, or a reducible chain) gives inf and NaN,
    # which fail the checks of _failures with a typed error.
    with np.errstate(divide="ignore", invalid="ignore"):
        x, pivot, certified = _gth(S.copy(), w)
        # Each (xP)[j] adds x[i] * P[i, j] to 0.0 with i ascending: diagonals
        # j - i = o from the highest, which holds each j's least i.
        xt = np.ascontiguousarray(x.T)
        xP = np.zeros_like(xt)
        V = _square_view(S, w)
        for o in range(w, -w - 1, -1):
            lo, hi = max(0, -o), min(d, d - o)
            xP[lo + o:hi + o] += xt[lo:hi] * np.diagonal(V, o).T
        residual = np.abs(xP - xt).max(axis=0)
    return xt, residual, pivot, certified


def _failures(xt: np.ndarray, residual: np.ndarray, pivot: np.ndarray,
              rows: np.ndarray) -> dict[int, str]:
    """Why each chain of ``rows`` in a solved stack fails the checks, if it
    does, from _solve's (d, B) columns and pivots: each reduction runs over
    the short axis d, in runs of B values."""
    d = len(xt)
    mass = xt.sum(axis=0)
    least = xt.min(axis=0)
    # Written so that NaN fails too.
    within = ((residual <= STATIONARY_TOL) & (np.abs(mass - 1.0) <= STATIONARY_TOL)
              & (least >= 0.0))
    failed = ~(pivot > 0.0).all(axis=0) | ~within
    errors: dict[int, str] = {}
    for i in rows[failed[rows]].tolist():
        low = np.flatnonzero(~(pivot[:, i] > 0.0))
        if low.size:
            state = _state_label(int(_interleaved(d)[low[-1]]), d // 2)
            errors[i] = f"GTH pivot of state {state} is {float(pivot[low[-1], i])!r}"
        elif least[i] < 0.0:
            errors[i] = f"stationary solve produced mass {float(least[i])!r}"
        else:
            errors[i] = (f"stationary residual {float(residual[i])!r} / mass "
                         f"{float(mass[i])!r} out of tolerance")
    return errors


def evaluate_storage(S: np.ndarray, w: int, reward: np.ndarray) -> StackEval:
    """Solve and check a stack of joint chains from their (d, L, B) storage S
    of half-width w (see joint_band), all sharing ``reward``."""
    xt, residual, pivot, certified = _solve(S, w)
    cut_off = check_irreducible(S, w, certified)
    ok = ~cut_off.any(axis=1)
    errors = _failures(xt, residual, pivot, np.flatnonzero(ok))
    ok[list(errors)] = False
    mu = np.empty(xt.shape[::-1])
    mu[:, _interleaved(len(xt))] = xt.T
    mu[~ok] = residual[~ok] = np.nan
    return StackEval(mu=mu, residual=residual, payoff=_payoffs(mu, reward), ok=ok,
                     cut_off=cut_off, solve_errors=errors)


def stationary(chain: JointChainModel) -> StationaryDist:
    """Unique stationary distribution of an irreducible chain."""
    ev = evaluate_storage(chain.band, chain.w, chain.reward)
    if not ev.ok[0]:
        raise ev.error(0)
    return StationaryDist(mu=ev.mu[0], residual=float(ev.residual[0]),
                          payoff=float(ev.payoff[0]))


def _payoffs(mu: np.ndarray, reward: np.ndarray) -> np.ndarray:
    # This product form gives the bits of the 1-D dot product mu[i] @ reward.
    return (mu[:, None, :] @ reward[:, None])[:, 0, 0]


def exact_average_payoff(setting: DynamicSetting, policy: AutomatonPolicy) -> float:
    """Long-run expected per-round payoff of ``policy`` in ``setting``."""
    return stationary(build_joint_chain(setting, policy)).payoff


def evaluate_stack(a_good: np.ndarray, a_bad: np.ndarray, pi: float,
                   reward: np.ndarray) -> StackEval:
    """Assemble, solve and check a stack of joint chains from (B, m, 2W + 1)
    agent bands, all sharing ``reward``."""
    return evaluate_storage(*joint_band(a_good, a_bad, pi), reward)


def stopped_state_distribution(P: np.ndarray, d0: np.ndarray, eta: float) -> np.ndarray:
    """Distribution of the state at a geometric stopping time.

    The process takes a step, then halts with probability eta, so the
    result is eta * d0 * P * (I - (1-eta) P)^-1; eta=1 reduces to d0 * P.
    The inverse exists for eta in (0, 1] because I - (1-eta)P is strictly
    diagonally dominant in the induced norm.
    """
    check_real(eta, "eta", "(0, 1]", BadEtaError)
    P = np.asarray(P, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or d0.shape != (P.shape[0],):
        raise DimensionMismatchError(
            f"shape mismatch: P {P.shape}, d0 {d0.shape}"
        )
    resolvent = np.eye(P.shape[0]) - (1.0 - eta) * P
    return eta * np.linalg.solve(resolvent.T, (d0 @ P))
