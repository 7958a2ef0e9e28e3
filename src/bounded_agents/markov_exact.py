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
certifies irreducibility itself (see _gth), from its pivots and stationary
entries or, where those underflow, from the eliminated columns; only a chain
it cannot certify gets the structural pass, the same elimination on the
chain's zero pattern.

One stacked path assembles, solves and checks joint chains; the single-chain
functions are its B = 1 case, so a chain gets the same bits alone or in a stack.
A stack may be ragged: its chains, in descending dimension, are each stored
from row 0 of one storage at a common half-width, with zero rows past their
own dimension, and each elimination and back-substitution step runs over the
chains that have its state. A uniform stack is the case of one dimension.

Every sum behind a returned value (each elimination step, normalization and
payoff) is added term by term in the interleaved order (see _row_sums), and
none goes through BLAS. So exact values do not depend on the BLAS kernel that
numpy picks for the CPU, and a payoff is within gamma_d * sum_i |mu_i r_i| of
the exact sum over its computed mu, gamma_d = d u / (1 - d u) (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
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
    """Stationary columns, residuals and payoffs of a stack of joint chains of
    dimensions ``dims``: column i of ``columns`` holds chain i's stationary
    entries in the interleaved order, as _gth leaves them, and row i of
    ``mu`` and ``cut_off`` its nature-major states in its first dims[i]
    entries, ``mu`` built from ``columns`` on each read. Where ``ok`` is False
    the row of ``mu`` and the payoff and residual are NaN, and ``error(i)`` is
    the typed error the single-chain path raises for that chain."""

    columns: np.ndarray
    residual: np.ndarray
    payoff: np.ndarray
    ok: np.ndarray
    cut_off: np.ndarray
    solve_errors: dict[int, str]
    dims: np.ndarray

    @property
    def mu(self) -> np.ndarray:
        mu = np.zeros(self.columns.shape[::-1])
        for chains, dim in _runs(self.dims):
            mu[chains, _interleaved(dim)] = self.columns[:dim, chains].T
        mu[~self.ok] = np.nan
        return mu

    def error(self, i: int) -> BoundedAgentsError:
        d = int(self.dims[i])
        if self.cut_off[i, :d].any():
            return _reducible_error(self.cut_off[i, :d], d // 2)
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


def joint_band(a_good: np.ndarray, a_bad: np.ndarray, pi) -> tuple[np.ndarray, int]:
    """(d, L, B) interleaved-order storage of the joint chains of (B, m, 2W + 1)
    agent bands in G and B under flip probability ``pi``, one for the stack or
    one per chain, and its half-bandwidth w: row i holds (i, j) at column
    j - i + w, w the least that holds every nonzero, if that band is narrower than
    the matrix (2w + 1 < d); else whole rows (w = d - 1), masked from a strided
    view of the band. The stack axis is last, so each elimination step runs over
    contiguous runs of B values. Brute force, whose chains are whole rows, calls
    this once per action labeling on its per-state tables and gathers each stack
    from the rows it makes (see optimize._joint_rows), so no stack is masked.
    Agent rows left at zero past a chain's own states give zero joint rows, so
    bands of ladders of several lengths, longest first, make a ragged stack."""
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


def _runs(dims: np.ndarray) -> list[tuple[slice, int]]:
    """(chains, d) of each run of equal dimension in a stack's descending dims."""
    edges = [0, *(np.flatnonzero(dims[1:] != dims[:-1]) + 1).tolist(), len(dims)]
    return [(slice(lo, hi), int(dims[lo])) for lo, hi in zip(edges, edges[1:]) if lo < hi]


# np.add.reduce over axis 0 adds an (n, B >= 2) array's rows one whole row at a
# time, in order, but sums a single column (B = 1) pairwise. accumulate adds
# in order at every B, yet loops once per chain: on a 2-core Xeon (numpy 2.4)
# a (3, 16384) sum took 367 us by accumulate and 26 us by reduce, while below
# about 16 chains accumulate was as fast or faster.
REDUCE_CHAINS = 16


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of an (n, B) array, each added term by term from row
    0, so that a chain's sum has the same bits at every stack width B and
    on every CPU. It is the one summation rule for the values the kernel
    returns: _gth's steps and divisors and evaluate_storage's payoffs. _gth
    writes the accumulate branch out at its steps over fewer than
    REDUCE_CHAINS chains, so that a ladder's many short steps pay no call."""
    if a.shape[1] < REDUCE_CHAINS:
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _gth(S: np.ndarray, w: int, dims: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, B) stationary columns of a stack of band storages in the interleaved
    order, the (d, B) pivots of its states, and whether the solve certifies
    each chain irreducible, by GTH elimination (Grassmann, Taksar & Heyman
    1985). Chain i has dimension dims[i], in descending order; its column
    past that is 0, and state 0 and the states past it have pivot inf.
    Overwrites S.

    Every sum runs term by term (see _row_sums) over the chains that have
    the state it is for, and each run of one dimension is divided in place
    by its columns' _row_sums, so a chain gets the same bits alone as in a
    stack of any size or dimensions, under any BLAS kernel.

    GTH never subtracts, so an entry that comes out positive is positive in
    the chain's zero pattern too (see reach_gaps). A positive pivot says that
    state k reaches a lower state, and so, by induction, state 0; a positive
    x[k] says that a lower state, and so state 0, reaches k. A chain whose
    every pivot and every x[k], as computed, is positive is irreducible.
    Where x underflows, the eliminated columns serve instead (see _reached)."""
    d, _, b = S.shape
    V = _square_view(S, w)
    runs = _runs(dims)
    # Chains that have state k lead the stack: have[k] of them.
    have = np.zeros(d, dtype=int)
    for chains, dim in runs:
        have[:dim] = chains.stop
    have = have.tolist()
    pivot = np.full((d, b), np.inf)
    # Censor the chain onto states 0..k-1, last state first. The pivot is
    # the probability of leaving k downwards, a sum of nonnegative terms, so
    # nothing is subtracted; fill-in stays inside the band.
    for k in range(d - 1, 0, -1):
        c, lo = have[k], max(0, k - w)
        row = V[k, lo:k, :c]
        s = np.add.accumulate(row, axis=0)[-1] if c < REDUCE_CHAINS else _row_sums(row)
        pivot[k, :c] = s
        col = V[lo:k, k, :c]
        col /= s
        block = V[lo:k, lo:k, :c]
        block += col[:, None] * row
    # Each censored entry is at most 1, so x[k] is at most w / pivot[k]
    # times the largest entry before it: that bounds the growth in bits. A
    # zero pivot leaves its chain uncertified, so it sets no rescale.
    # log2 and division are monotone, so the least positive pivot of a state
    # gives the largest growth of any chain's.
    least = np.min(pivot, axis=1, where=pivot > 0.0, initial=np.inf)
    growth = np.log2(np.fmax(w / least, 1.0)).tolist()
    positive = (pivot > 0.0).all(axis=0)
    certified = positive.copy()
    x = np.zeros((d, b))
    x[0] = 1.0

    def certify(lo, hi):
        for chains, dim in runs:
            certified[chains] &= (x[lo:min(hi, dim), chains] > 0.0).all(axis=0)

    bits, since = 0.0, 0
    for k in range(1, d):
        c, lo = have[k], max(0, k - w)
        if bits + growth[k] > RESCALE_BITS:
            # A rescale may flush the least entries to 0, so the entries
            # since the last one are read as they were computed. Chains
            # that have no state k are done and keep their entries.
            certify(since, k)
            x[:k, :c] = np.ldexp(x[:k, :c], -np.frexp(x[:k, :c].max(axis=0))[1])
            bits, since = 0.0, k
        bits += growth[k]
        terms = x[lo:k, :c] * V[lo:k, k, :c]
        x[k, :c] = np.add.accumulate(terms, axis=0)[-1] if c < REDUCE_CHAINS else _row_sums(terms)
    certify(since, d)
    doubt = np.flatnonzero(positive & ~certified)
    if doubt.size:
        certified[doubt] = _reached(np.take(S, doubt, axis=2), w, dims[doubt])
    for chains, dim in runs:
        x[:dim, chains] /= _row_sums(x[:dim, chains])
    return x, pivot, certified


def _reached(S: np.ndarray, w: int, dims: np.ndarray) -> np.ndarray:
    """Whether state 0 reaches every state of each chain, read off its storage
    S as _gth leaves it: column k above the diagonal holds the lower states'
    steps to k through higher states, and GTH never subtracts, so an entry
    that is positive as computed is a positive path. Sound, not complete: an
    entry that underflows to 0 leaves its chain to the structural pass."""
    d = int(dims[0])
    V = _square_view(S, w)
    reached = np.zeros((d, S.shape[2]), dtype=bool)
    reached[0] = True
    for k in range(1, d):
        lo = max(0, k - w)
        reached[k] = (reached[lo:k] & (V[lo:k, k] > 0.0)).any(axis=0)
    return (reached | (np.arange(d)[:, None] >= dims)).all(axis=0)


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


def check_irreducible(S: np.ndarray, w: int, certified: np.ndarray,
                      dims: np.ndarray) -> np.ndarray:
    """(B, d) nature-major mask of the states each stored chain of dimension
    dims[i] cuts off (see reach_gaps), in its first dims[i] entries; only the
    chains that their solve has not ``certified`` irreducible are searched,
    each run of one dimension on its own rows."""
    cut_off = np.zeros((S.shape[2], len(S)), dtype=bool)
    doubt = np.flatnonzero(~certified)
    for chains, dim in _runs(dims[doubt]):
        which = doubt[chains]
        cut_off[which, :dim] = reach_gaps(np.take(S[:dim], which, axis=2), w)
    return cut_off


def _solve(S: np.ndarray, w: int,
           dims: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d, B) stationary columns in the interleaved order, residuals, pivots
    and irreducibility certificates (see _gth) of a stack of chains of
    dimensions ``dims`` from their storage S. The residual
    max_j |(xP)_j - x_j| is summed on the storage itself: one vector step per
    diagonal of its square view; a chain's zero rows add exact zeros."""
    d = len(S)
    # A zero pivot (from underflow, or a reducible chain) gives inf and NaN,
    # which fail the checks of _failures with a typed error.
    with np.errstate(divide="ignore", invalid="ignore"):
        xt, pivot, certified = _gth(S.copy(), w, dims)
        # Each (xP)[j] adds x[i] * P[i, j] to 0.0 with i ascending: diagonals
        # j - i = o from the highest, which holds each j's least i.
        xP = np.zeros_like(xt)
        V = _square_view(S, w)
        for o in range(w, -w - 1, -1):
            lo, hi = max(0, -o), min(d, d - o)
            xP[lo + o:hi + o] += xt[lo:hi] * np.diagonal(V, o).T
        residual = np.abs(xP - xt).max(axis=0)
    return xt, residual, pivot, certified


def _failures(xt: np.ndarray, residual: np.ndarray, pivot: np.ndarray,
              rows: np.ndarray, dims: np.ndarray) -> dict[int, str]:
    """Why each chain of ``rows`` in a solved stack fails the checks, if it
    does, from _solve's (d, B) columns and pivots of chains of dimensions
    ``dims``: each reduction runs over the short axis d, in runs of B values."""
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
            d = int(dims[i])
            state = _state_label(int(_interleaved(d)[low[-1]]), d // 2)
            errors[i] = f"GTH pivot of state {state} is {float(pivot[low[-1], i])!r}"
        elif least[i] < 0.0:
            errors[i] = f"stationary solve produced mass {float(least[i])!r}"
        else:
            errors[i] = (f"stationary residual {float(residual[i])!r} / mass "
                         f"{float(mass[i])!r} out of tolerance")
    return errors


def evaluate_storage(S: np.ndarray, w: int, rewards: list[tuple[int, np.ndarray]]) -> StackEval:
    """Solve and check a stack of joint chains from their (d, L, B) storage S
    of half-width w (see joint_band). ``rewards`` lists (count, reward) runs
    in descending dimension: the next ``count`` chains have dimension
    len(reward), share ``reward``, and are stored from row 0, with zero rows
    past their dimension. A uniform stack is one run.

    A chain is ok if the solve certifies it irreducible or, for the chains
    it doubts, if check_irreducible finds no state cut off (the only rows
    of ``cut_off`` it fills), and it passes _failures' checks. Each run's
    payoffs are the _row_sums of its reward-weighted (d, B) columns."""
    dims = np.repeat([len(reward) for _, reward in rewards], [count for count, _ in rewards])
    xt, residual, pivot, certified = _solve(S, w, dims)
    cut_off = check_irreducible(S, w, certified, dims)
    ok = certified
    doubt = ~certified
    ok[doubt] = ~cut_off[doubt].any(axis=1)
    errors = _failures(xt, residual, pivot, np.flatnonzero(ok), dims)
    ok[list(errors)] = False
    payoff = np.empty(len(dims))
    start = 0
    for count, reward in rewards:
        chains, dim = slice(start, start + count), len(reward)
        payoff[chains] = _row_sums(xt[:dim, chains] * reward[_interleaved(dim)][:, None])
        start += count
    residual[~ok] = payoff[~ok] = np.nan
    return StackEval(columns=xt, residual=residual, payoff=payoff, ok=ok, cut_off=cut_off,
                     solve_errors=errors, dims=dims)


def stationary(chain: JointChainModel) -> StationaryDist:
    """Unique stationary distribution of an irreducible chain."""
    ev = evaluate_storage(chain.band, chain.w, [(1, chain.reward)])
    if not ev.ok[0]:
        raise ev.error(0)
    return StationaryDist(mu=ev.mu[0], residual=float(ev.residual[0]),
                          payoff=float(ev.payoff[0]))


def exact_average_payoff(setting: DynamicSetting, policy: AutomatonPolicy) -> float:
    """Long-run expected per-round payoff of ``policy`` in ``setting``."""
    return stationary(build_joint_chain(setting, policy)).payoff


def evaluate_stack(a_good: np.ndarray, a_bad: np.ndarray, pi: float,
                   reward: np.ndarray) -> StackEval:
    """Assemble, solve and check a stack of joint chains from (B, m, 2W + 1)
    agent bands, all sharing ``reward``."""
    return evaluate_storage(*joint_band(a_good, a_bad, pi), [(len(a_good), reward)])


# The stopping probability's interval. The resolvent solve below loses about
# 2 eps / eta: on the witness sticky policy, static_expected_utility is off a
# rational solve by 1.5e-13 at eta = 1e-5, 1.2e-10 at 1e-6 and 1.1e-8 at 1e-8,
# past the 1e-9 that goldens are held to, so smaller eta is refused.
ETA_INTERVAL = "[1e-06, 1]"


def stopped_state_distribution(P: np.ndarray, d0: np.ndarray, eta: float) -> np.ndarray:
    """Distribution of the state at a geometric stopping time.

    The process takes a step, then halts with probability eta, so the
    result is eta * d0 * P * (I - (1-eta) P)^-1; eta=1 reduces to d0 * P.
    The inverse exists for eta in (0, 1] because I - (1-eta)P is strictly
    diagonally dominant in the induced norm; eta below ETA_INTERVAL is
    refused, since the solve's error grows as 1 / eta.
    """
    check_real(eta, "eta", ETA_INTERVAL, BadEtaError)
    P = np.asarray(P, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or d0.shape != (P.shape[0],):
        raise DimensionMismatchError(
            f"shape mismatch: P {P.shape}, d0 {d0.shape}"
        )
    resolvent = np.eye(P.shape[0]) - (1.0 - eta) * P
    return eta * np.linalg.solve(resolvent.T, (d0 @ P))
