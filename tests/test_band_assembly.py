"""Band-first assembly of joint chains against the dense route.

``oracles.dense_route`` builds dense agent and joint matrices, searches the
joint matrix for its band and gathers it, then solves. The package
assembles the band storage straight from the agents' bands. Both must give
the same storage and half-bandwidth, and the same stationary rows and
payoffs, bit for bit. The residual the package reports must be the exact
residual of its stationary row to within rounding, and its payoff the exact
reward-weighted sum of that row to within the in-order sum's bound.

The package's brute-force gather of whole-row joint storage, column-sweep
residual and masked whole-row storage must also match, bit for bit, the
kernels they replaced, kept as oracles: digit-by-digit assembly of agent
bands, the np.add.at residual and the cell-by-cell scatter. So must the
agent bands of many ladders built in one step, against one policy per ladder.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from bounded_agents.automaton import (
    RISKY, SAFE, AFamilyParams, AutomatonPolicy, build_a_family, ladder_rows,
)
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.errors import ReducibleChainError
from bounded_agents import markov_exact, optimize
from bounded_agents.markov_exact import (
    agent_matrices,
    agent_step_matrix,
    build_joint_chain,
    dense_matrix,
    exact_average_payoff,
    joint_band,
    reach_gaps,
    stationary,
)
from bounded_agents.optimize import (
    _gather, _joint_rows, _row_options, brute_force_policy_search,
    default_partition, optimize_pexp,
)
from oracles import (
    add_at_residual, dense_band, dense_joint_matrices, dense_route, dense_step_matrix,
    dict_policy, digit_candidate_bands, exact_residual, scatter_joint_rows,
)

# perfbench's ladder_scaling draws: seed 31's climbing signals, and the
# fixed setting whose ladder sinks in G.
SEED_31 = ((0.044440696483823594, 0.11588506093413292, 0.3160011978277597, 0.5236730447542838),
           (0.1309872198822981, 0.11276657719702568, 0.1956241705975795, 0.5606220323230967))
SINKING = ((0.3, 0.3, 0.3, 0.1), (0.2, 0.45, 0.3, 0.05))


def assert_payoff_within_sum_bound(mu, reward, payoff):
    """|payoff - sum_i mu_i r_i| <= gamma_d * sum_i |mu_i r_i| in exact
    rationals over the float mu and r, gamma_d = d u / (1 - d u) with
    u = 2**-53: the bound of a d-term inner product added in order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1)."""
    d, u = len(mu), Fraction(1, 2**53)
    terms = [Fraction(m) * Fraction(r) for m, r in zip(mu.tolist(), reward.tolist())]
    assert abs(Fraction(payoff) - sum(terms)) <= d * u / (1 - d * u) * sum(map(abs, terms))


def assert_matches_dense_route(setting, policy):
    chain = build_joint_chain(setting, policy)
    P, band, w, mu, payoff = dense_route(setting, policy)
    assert chain.w == w
    assert np.array_equal(chain.band, band)
    dist = stationary(chain)
    assert np.array_equal(dist.mu, mu)
    assert dist.payoff == payoff
    assert_payoff_within_sum_bound(dist.mu, chain.reward, dist.payoff)
    # Each sum behind the residual adds at most 2w + 1 products whose total
    # is about mu_j <= max(mu), then takes mu_j off: at most 2w + 3
    # roundings of 2**-53 * max(mu) each.
    bound = (2 * w + 3) * 2.0**-53 * dist.mu.max()
    assert abs(dist.residual - exact_residual(P, dist.mu)) <= bound
    if chain.dim < 4002:  # At d = 4002 a second dense matrix alone takes 128 MB.
        assert np.array_equal(chain.P, P)
    for probs in (setting.pG, setting.pB):
        band = agent_step_matrix(policy.actions, policy.next_state, policy.prob, probs)
        assert np.array_equal(dense_matrix(band), dense_step_matrix(policy, probs))
    return chain


def ladder(setting, n, p_exp, partition=None, r_u=1.0, r_d=1.0):
    pos, neg = partition or default_partition(setting)
    return build_a_family(setting.k, AFamilyParams(n=n, p_exp=p_exp, pos=pos, neg=neg,
                                                   r_u=r_u, r_d=r_d))


@pytest.mark.parametrize("n", [1, 4, 64, 2000])
def test_ladders_with_random_rates(paper_setting, n):
    rng = random.Random(n)
    policy = ladder(paper_setting, n, rng.uniform(1e-4, 1.0),
                    r_u=rng.uniform(0.01, 1.0), r_d=rng.uniform(0.01, 1.0))
    chain = assert_matches_dense_route(paper_setting, policy)
    assert chain.w == 3


@pytest.mark.parametrize("signals", [SEED_31, SINKING], ids=["seed31", "sinking"])
@pytest.mark.parametrize("n", [125, 1000])
def test_ladder_scaling_points(signals, n):
    setting = validate_setting(4, *signals, 1.0, -1.0, 1.0 / n**2)
    assert_matches_dense_route(setting, ladder(setting, n, 1.0 / n))


def jump_policy(m, jump):
    """A Safe state that explores to state 1, and Risky states that jump
    ``jump`` states up on signal 1, one down on signal 3 and stay on 2."""
    kernel = {(0, None): {"0": 0.7, "1": 0.3}}
    for q in range(1, m):
        up = min(q + jump, m - 1)
        kernel[(q, 1)] = {str(up): 0.6, str(q): 0.4} if up > q else {str(q): 1.0}
        kernel[(q, 2)] = {str(q): 1.0}
        kernel[(q, 3)] = {str(q - 1): 0.9, str(q): 0.1}
    return dict_policy((SAFE,) + (RISKY,) * (m - 1), kernel, 3)


@pytest.mark.parametrize("m, jump, w", [
    (6, 2, 5),     # half-width 5: a band of 11 columns, one narrower than d = 12
    (10, 2, 5),    # half-width 5 in d = 20
    (40, 3, 7),    # d = 80
])
def test_policies_that_jump_two_or_more_states(m, jump, w):
    setting = validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
    policy = jump_policy(m, jump)
    band = agent_step_matrix(policy.actions, policy.next_state, policy.prob, setting.pG)
    assert band.shape[1] == 2 * jump + 1
    assert assert_matches_dense_route(setting, policy).w == w


@pytest.mark.parametrize("m", [1, 2, 3])
def test_brute_force_winners(m):
    setting = validate_setting(2, (0.7, 0.3), (0.2, 0.8), 1.0, -0.5, 0.01)
    policy, value = brute_force_policy_search(setting, m, prob_grid=(0.0, 0.5, 1.0))
    chain = assert_matches_dense_route(setting, policy)
    assert chain.band.shape == (2 * m, 2 * m, 1)
    assert value == stationary(chain).payoff


def test_chain_of_66_states_stored_whole(paper_setting):
    m = 33
    rng = np.random.default_rng(3)
    prob = rng.random((m, 4, m))
    prob /= prob.sum(axis=-1, keepdims=True)
    policy = AutomatonPolicy(m, 0, (RISKY,) * m, np.broadcast_to(np.arange(m), prob.shape), prob)
    chain = assert_matches_dense_route(paper_setting, policy)
    assert chain.w == 2 * m - 1 and chain.band.shape == (2 * m, 2 * m, 1)


def up_moves(m, W):
    """(1, m, 2W + 1) band of an agent that stays or moves W states up, each
    with probability 1/2 (stays surely where W up is past the top)."""
    band = np.zeros((1, m, 2 * W + 1))
    band[0, :, W] = np.where(np.arange(m) + W < m, 0.5, 1.0)
    band[0, :m - W, 2 * W] = 0.5
    return band


@pytest.mark.parametrize("W", [1, 2, 3])
def test_band_is_stored_while_narrower_than_the_matrix(W):
    # An agent that moves W states up gives half-width tight = 2W + 1. At
    # d = 2 tight + 2 the band's 2 tight + 1 = d - 1 columns are stored; at
    # d = 2 tight it has d + 1 columns, so the rows are stored whole.
    tight = 2 * W + 1
    for m, L, w in ((tight + 1, 2 * tight + 1, tight), (tight, 2 * tight, 2 * tight - 1)):
        band = up_moves(m, W)
        S, got = joint_band(band, band, 0.01)
        assert (S.shape, got) == ((2 * m, L, 1), w)
        P = dense_joint_matrices(*(dense_matrix(b)[None] for b in (band[0], band[0])), 0.01)
        want, want_w = dense_band(P)
        assert want_w == w and np.array_equal(S, want)


def test_benchmark_chains_keep_their_layout(monkeypatch, paper_setting):
    # Ladders of n >= 3 rungs are bands of half-width 3; ladders of n <= 2
    # and brute-force joint rows, d <= 6, are stored whole.
    layouts = []

    def spy(a_good, a_bad, pi):
        S, w = joint_band(a_good, a_bad, pi)
        layouts.append((S.shape[1], w))
        return S, w

    monkeypatch.setattr(markov_exact, "joint_band", spy)
    monkeypatch.setattr(optimize, "joint_band", spy)
    sides = (frozenset({1}), frozenset({4}))
    for n, layout in ((1, (4, 3)), (2, (6, 5)), (3, (7, 3)), (4, (7, 3)), (125, (7, 3))):
        layouts.clear()
        optimize_pexp(paper_setting, n, sides, grid=(0.01, 0.1))
        exact_average_payoff(paper_setting, ladder(paper_setting, n, 0.01, sides))
        assert set(layouts) == {layout}
    two_signals = validate_setting(2, (0.7, 0.3), (0.2, 0.8), 1.0, -0.5, 0.01)
    for setting, m in ((paper_setting, 1), (paper_setting, 2), (two_signals, 3)):
        layouts.clear()
        brute_force_policy_search(setting, m)
        assert set(layouts) == {(2 * m, 2 * m - 1)}


def test_chain_whose_mass_underflows_is_certified_by_its_columns(monkeypatch):
    # The sinking ladder's stationary mass falls below the float range from
    # state 1325 of 2002 on, so its entries cannot certify the chain; the
    # eliminated columns do, and the structural pass never runs.
    setting = validate_setting(4, *SINKING, 1.0, -1.0, 1.0 / 1000**2)
    chain = build_joint_chain(setting, ladder(setting, 1000, 1.0 / 1000))
    columns, reached = [], markov_exact._reached
    monkeypatch.setattr(markov_exact, "_reached",
                        lambda S, w, dims: columns.append(dims.tolist()) or reached(S, w, dims))
    monkeypatch.setattr(markov_exact, "reach_gaps", refuse_the_structural_pass)
    dist = stationary(chain)
    assert columns == [[2002]]
    assert (dist.mu == 0.0).any()
    # Frozen from oracles.dense_route: the payoff's bits do not depend on how
    # irreducibility is checked.
    assert dist.payoff == 0.0012406620042175265
    assert_payoff_within_sum_bound(dist.mu, chain.reward, dist.payoff)


def refuse_the_structural_pass(S, w):
    raise AssertionError("a certified chain was searched")


def test_reducible_chain_takes_the_structural_pass(monkeypatch, paper_setting):
    # Rung 2 of the ladder cannot climb, so the rungs above it are cut off:
    # their pivots are positive but state 0 never reaches them.
    policy = ladder(paper_setting, 4, 0.1, (frozenset({1}), frozenset({4})))
    cut = policy.prob.copy()
    cut[2, :, 0] = np.where(policy.next_state[2, :, 0] == 3, 0.0, cut[2, :, 0])
    cut[2, :, 1] = 1.0 - cut[2, :, 0]
    stuck = AutomatonPolicy(5, 0, policy.actions, policy.next_state, cut)
    searched = []
    monkeypatch.setattr(markov_exact, "reach_gaps",
                        lambda S, w: searched.append(S.shape[2]) or reach_gaps(S, w))
    with pytest.raises(ReducibleChainError) as err:
        stationary(build_joint_chain(paper_setting, stuck))
    assert searched == [1]
    assert list(err.value.unreachable) == ["(G, q=3)", "(G, q=4)", "(B, q=3)", "(B, q=4)"]


def test_climbing_chain_is_certified_by_its_solve(monkeypatch):
    # Rescaling the back-substitution flushes the lowest rungs to exactly 0;
    # each entry is read as it was computed, so the solve still certifies.
    setting = validate_setting(4, *SEED_31, 1.0, -1.0, 1.0 / 2000**2)
    chain = build_joint_chain(setting, ladder(setting, 2000, 1.0 / 2000))

    monkeypatch.setattr(markov_exact, "reach_gaps", refuse_the_structural_pass)
    dist = stationary(chain)
    assert (dist.mu == 0.0).any()
    # Frozen from oracles.dense_route. Terms whose magnitudes sum to 1 cancel
    # to about 1e-16, so no digit of it need be right; the bound still holds.
    assert dist.payoff == -2.7755575615628914e-17
    assert_payoff_within_sum_bound(dist.mu, chain.reward, dist.payoff)


def random_stochastic(rng, shape):
    """Random rows that sum to 1, with about a third of the entries 0."""
    x = rng.random(shape) * (rng.random(shape) < 0.7)
    x[..., 0] += 0.01
    return x / x.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4])
def test_brute_force_gather_matches_digit_assembly(m, k):
    rng = np.random.default_rng(10 * m + k)
    pG, pB = random_stochastic(rng, (2, k))
    pG[1] = 0.0  # a signal that never occurs in G still adds its (zero) rows
    options = [_row_options(q, m, (0.0, 0.25, 0.5, 0.75, 1.0)) for q in range(m)]
    for acts in itertools.product((SAFE, RISKY), repeat=m):
        rows, w = _joint_rows(options, acts, pG, pB, 0.01)
        assert w == 2 * m - 1
        count = np.prod([r.shape[2] for r in rows])
        for index in (np.arange(min(count, 700)), np.arange(max(count - 700, 0), count),
                      np.sort(rng.integers(0, count, 700))):
            S, w = joint_band(*digit_candidate_bands(options, acts, pG, pB, index), 0.01)
            assert np.array_equal(_gather(rows, index), markov_exact._whole_rows(S, w))


def random_storage(rng, d, w, b):
    """(d, L, b) interleaved storage of b random chains: a band of
    half-width w, or whole rows if w = d - 1."""
    L = d if w == d - 1 else 2 * w + 1
    S = random_stochastic(rng, (b, d, L))
    if L == 2 * w + 1:
        j = np.arange(d)[:, None] + np.arange(-w, w + 1)
        S[:, (j < 0) | (j >= d)] = 0.0
        # A row that the mask and the random zeros empty stays where it is.
        S[:, :, w] += S.sum(axis=-1) == 0.0
        S /= S.sum(axis=-1, keepdims=True)
    return np.ascontiguousarray(S.transpose(1, 2, 0))


@pytest.mark.parametrize("d, w", [(40, 3), (40, 7), (10, 3), (4, 3), (6, 5), (66, 65)])
@pytest.mark.parametrize("b", [1, 5])
def test_column_sweep_residual_matches_add_at(d, w, b):
    S = random_storage(np.random.default_rng(d * w + b), d, w, b)
    dims = np.full(b, d)
    x = markov_exact._gth(S.copy(), w, dims)[0].T
    residual = markov_exact._solve(S, w, dims)[1]
    assert np.array_equal(residual, add_at_residual(S, w, x))
    assert (residual > 0.0).any()


def test_certified_chains_have_no_gaps():
    # random_storage with a fifth of the entries zeroed and a fifth scaled by
    # 1e-300, so that some chains are reducible and some certified chains'
    # stationary entries underflow. Half of each stack is cut ragged: chain i
    # keeps its first dims[i] states. Every chain the solve certifies must have
    # no state that the structural pass finds cut off.
    certified_at_all = underflowed = cut_off = 0
    for d, w in ((40, 3), (40, 7), (200, 3), (12, 11)):
        rng = np.random.default_rng(d * w)
        S = random_storage(rng, d, w, 100)
        S[rng.random(S.shape) < 0.2] = 0.0
        S[rng.random(S.shape) < 0.2] *= 1e-300
        dims = np.full(100, d)
        dims[50:] = 2 * np.sort(rng.integers(1, d // 2 + 1, 50))[::-1]
        V = markov_exact._square_view(S, w)
        for i, dim in enumerate(dims.tolist()):
            S[dim:, :, i] = 0.0
            for r in range(max(0, dim - w), dim):
                V[r, dim:min(d, r + w + 1), i] = 0.0
        xt, _, _, certified = markov_exact._solve(S, w, dims)
        for i, dim in enumerate(dims.tolist()):
            gaps = reach_gaps(np.ascontiguousarray(S[:dim, :, i:i + 1]), w)
            assert not (certified[i] and gaps.any())
            cut_off += gaps.any()
        certified_at_all += certified.sum()
        zero = (xt == 0.0) & (np.arange(d)[:, None] < dims)
        underflowed += (certified & zero.any(axis=0)).sum()
    assert certified_at_all and underflowed and cut_off


@pytest.mark.parametrize("m", [2, 3, 33])
def test_whole_rows_match_the_cell_scatter(m):
    rng = np.random.default_rng(m)
    W = m - 1
    bands = np.zeros((2, 4, m, 2 * W + 1))
    for q in range(m):
        bands[:, :, q, W - q:W - q + m] = random_stochastic(rng, (2, 4, m))
    S, w = joint_band(*bands, 0.01)
    assert w == 2 * m - 1
    assert np.array_equal(S, scatter_joint_rows(*bands, 0.01))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_batched_ladder_bands_match_each_ladder_alone(k):
    """Random ladders of n = 1..6 rungs, signals that ignore or never occur,
    rates of 1.0 among others; the top rung absorbs positive signals."""
    rng = random.Random(k)
    signals = range(1, k + 1)

    def probs():
        # Signal 1 never occurs.
        w = [0.0] + [0.05 + rng.random() for _ in signals[1:]]
        head = [x / sum(w) for x in w[:-1]]
        return head + [1.0 - sum(head)]

    setting = validate_setting(k, probs(), probs(), 1.0, -1.0, 0.01)
    for n in range(1, 7):
        params = []
        for _ in range(12):
            pos, neg = rng.sample(signals, 2)
            rest = [s for s in signals if s not in (pos, neg)]
            # Each other signal is positive, negative or ignored.
            sides = [{pos}, {neg}, set()]
            for s in rest:
                sides[rng.randrange(3)].add(s)
            rate = [1.0, rng.uniform(0.01, 1.0), rng.choice((1e-300, 0.5))]
            params.append(AFamilyParams(n=n, p_exp=rng.choice(rate), pos=sides[0], neg=sides[1],
                                        r_u=rng.choice(rate), r_d=rng.choice(rate)))
        next_state, prob = ladder_rows(k, n, [(p.pos, p.neg) for p in params],
                                       [p.r_u for p in params], [p.r_d for p in params],
                                       [p.p_exp for p in params])
        actions = (SAFE,) + (RISKY,) * n
        bands = [agent_step_matrix(actions, next_state, prob, p)
                 for p in (setting.pG, setting.pB)]
        for i, p in enumerate(params):
            policy = build_a_family(k, p)
            assert np.array_equal(next_state[i], policy.next_state)
            assert np.array_equal(prob[i].view(np.int64), policy.prob.view(np.int64))
            for band, alone in zip(bands, agent_matrices(setting, policy)):
                assert np.array_equal(band[i].view(np.int64), alone.view(np.int64))
            # The top rung stays put on every positive signal, whatever r_u.
            assert (policy.next_state[n, sorted(p.pos)[0] - 1] == n).all()
