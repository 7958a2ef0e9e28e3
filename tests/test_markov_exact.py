import random
import re

import numpy as np
import pytest

from bounded_agents.automaton import (
    NO_SIGNAL,
    RISKY,
    SAFE,
    AFamilyParams,
    AutomatonPolicy,
    build_a_family,
    build_linear_sticky,
)
from bounded_agents.dynamic_env import DynamicSetting, oracle_upper_bound, validate_setting
from bounded_agents.errors import (
    BadEtaError,
    DimensionMismatchError,
    ReducibleChainError,
    SolveFailedError,
)
from oracles import (
    _interleaved,
    chain_of_matrix,
    connectivity_gaps,
    damped_power_iteration,
    dense_band,
    dense_policy,
    dict_policy,
    enumerated_joint_matrix,
    exact_average_payoff_fraction,
    geometric_series_stopped,
)
from bounded_agents import markov_exact
from bounded_agents.markov_exact import (
    _solve,
    agent_matrices,
    agent_step_matrix,
    build_joint_chain,
    check_irreducible,
    dense_matrix,
    evaluate_stack,
    evaluate_storage,
    exact_average_payoff,
    joint_band,
    joint_reward,
    reach_gaps,
    stationary,
    stopped_state_distribution,
)
from bounded_agents.optimize import DEFAULT_PEXP_GRID





class TestBuildJointChain:
    def test_rows_stochastic_two_state_policy(self, paper_setting):
        policy = build_a_family(
            4, AFamilyParams(n=1, p_exp=0.2, pos=frozenset({1}), neg=frozenset({4}))
        )
        chain = build_joint_chain(paper_setting, policy)
        assert chain.dim == 4
        assert np.allclose(chain.P.sum(axis=1), 1.0, atol=1e-12)

    def test_reward_layout(self, paper_setting, ladder_policy_5):
        chain = build_joint_chain(paper_setting, ladder_policy_5)
        m = ladder_policy_5.num_states
        # Rows are nature-major: (G, q) is row q and (B, q) is row m + q.
        assert chain.reward[0] == chain.reward[m] == 0.0
        for q in range(1, m):
            assert chain.reward[q] == paper_setting.xG
            assert chain.reward[m + q] == paper_setting.xB

    def test_trivial_setting_factors_as_kronecker(self, trivial_setting, ladder_policy_5):
        chain = build_joint_chain(trivial_setting, ladder_policy_5)
        agent = dense_matrix(agent_step_matrix(ladder_policy_5, trivial_setting.pG))
        pi = trivial_setting.pi
        nature = np.array([[1 - pi, pi], [pi, 1 - pi]])
        assert np.allclose(chain.P, np.kron(nature, agent), atol=1e-15)

    def test_matches_enumeration_oracle_on_paper_chain(self, paper_setting, ladder_policy_5):
        chain = build_joint_chain(paper_setting, ladder_policy_5)
        oracle = enumerated_joint_matrix(paper_setting, ladder_policy_5)
        assert chain.P.shape == (10, 10)
        assert np.max(np.abs(chain.P - oracle)) <= 1e-15

    def test_index_map_round_trips(self, paper_setting, ladder_policy_5):
        chain = build_joint_chain(paper_setting, ladder_policy_5)
        m = ladder_policy_5.num_states
        assert [chain.state_of(row) for row in range(chain.dim)] == [
            (nature, q) for nature in ("G", "B") for q in range(m)]

    def test_hold_actions_rejected(self, paper_setting):
        policy = build_linear_sticky(3, [1, 1, 1], [1, 1, 1], 1, 4, k=4)
        with pytest.raises(DimensionMismatchError):
            build_joint_chain(paper_setting, policy)

    def test_signal_count_mismatch_rejected(self, paper_setting):
        policy = build_a_family(
            3, AFamilyParams(n=1, p_exp=0.2, pos=frozenset({1}), neg=frozenset({3}))
        )
        with pytest.raises(DimensionMismatchError):
            build_joint_chain(paper_setting, policy)


class TestStationary:
    def test_two_state_closed_form(self):
        P = np.array([[0.8, 0.2], [0.1, 0.9]])
        chain = chain_of_matrix(P, num_agent_states=1)
        dist = stationary(chain)
        assert dist.mu == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert dist.residual <= 1e-10

    def test_doubly_stochastic_gives_uniform(self):
        P = np.array([
            [0.0, 0.5, 0.25, 0.25],
            [0.5, 0.0, 0.25, 0.25],
            [0.25, 0.25, 0.0, 0.5],
            [0.25, 0.25, 0.5, 0.0],
        ])
        chain = chain_of_matrix(P)
        dist = stationary(chain)
        assert dist.mu == pytest.approx([0.25] * 4, abs=1e-12)

    def test_periodic_chain_handled(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = chain_of_matrix(P, num_agent_states=1)
        dist = stationary(chain)
        assert dist.mu == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_power_iteration_on_paper_chain(self, paper_setting, ladder_policy_5):
        chain = build_joint_chain(paper_setting, ladder_policy_5)
        dist = stationary(chain)
        oracle = damped_power_iteration(chain.P)
        assert np.max(np.abs(dist.mu - oracle)) <= 1e-8
        assert dist.residual <= 1e-10

    def test_reducible_chain_names_states(self, paper_setting):
        # State 1 never returns to the safe state 0.
        kernel = {(0, NO_SIGNAL): {1: 1.0}}
        for s in range(1, 5):
            kernel[(1, s)] = {1: 1.0}
        policy = dict_policy((SAFE, RISKY), kernel, 4)
        chain = build_joint_chain(paper_setting, policy)
        with pytest.raises(ReducibleChainError) as err:
            stationary(chain)
        assert "(B, q=0)" in str(err.value)
        assert err.value.unreachable

    def test_coupling_that_underflows_cuts_the_chain(self):
        # pi times each agent entry 1/3 rounds to 0, so the stored chain never
        # leaves the nature it starts in. validate_setting refuses so small a
        # pi; the kernel still names the cut when a chain is built with one.
        third = {str(q): 1 / 3 for q in range(3)}
        policy = dict_policy((RISKY,) * 3, {(q, s): third for q in range(3) for s in (1, 2)}, 2)
        setting = DynamicSetting(k=2, pG=(0.6, 0.4), pB=(0.4, 0.6), xG=1.0, xB=-1.0, pi=5e-324)
        message = "joint chain is not irreducible; cut-off states: (B, q=0), (B, q=1), (B, q=2)"
        with pytest.raises(ReducibleChainError) as err:
            stationary(build_joint_chain(setting, policy))
        assert str(err.value) == message
        assert str(TestStackedKernel.stack(setting, [policy]).error(0)) == message

    def test_pivot_that_underflows_names_its_state(self):
        # Interleaved order (G, 0), (B, 0), (G, 1), (B, 1). Every state reaches
        # every other, but (B, 0) leaves only to (B, 1), at 1e-250, which steps
        # down to (G, 0) at 1e-100: the pivot of (B, 0), its chance of reaching
        # (G, 0) once the two higher states are censored, is about 1e-350 and
        # rounds to 0.
        M = np.array([[0.0, 0.5, 0.5, 0.0], [0.0, 1.0 - 1e-250, 0.0, 1e-250],
                      [1e-100, 0.5, 0.5, 0.0], [1e-100, 0.0, 0.5, 0.5]])
        order = _interleaved(4)
        P = np.empty_like(M)
        P[np.ix_(order, order)] = M
        chain = chain_of_matrix(P)
        assert not reach_gaps(chain.band, chain.w).any()
        with pytest.raises(SolveFailedError, match=r"^GTH pivot of state \(B, q=0\) is 0\.0$"):
            stationary(chain)

    def test_solve_outside_tolerance_is_a_typed_failure(self, paper_setting, ladder_policy_5,
                                                        monkeypatch):
        monkeypatch.setattr(markov_exact, "STATIONARY_TOL", 0.0)
        with pytest.raises(SolveFailedError) as err:
            stationary(build_joint_chain(paper_setting, ladder_policy_5))
        assert re.fullmatch(r"stationary residual \S+ / mass [0-9.]+ out of tolerance",
                            str(err.value))
        ev = TestStackedKernel.stack(paper_setting, [ladder_policy_5])
        assert not ev.ok[0] and str(ev.error(0)) == str(err.value)

    def test_mass_nonnegative_and_normalized(self, paper_setting, ladder_policy_5):
        dist = stationary(build_joint_chain(paper_setting, ladder_policy_5))
        assert dist.mu.min() >= 0.0
        assert dist.mu.sum() == pytest.approx(1.0, abs=1e-10)

    def test_chain_stored_whole_matches_power_iteration(self, paper_setting):
        # No band narrower than the matrix holds a chain whose agent can
        # reach every state from every state, so it is stored whole and
        # solved over all of its entries.
        m = 40
        rng = np.random.default_rng(7)
        prob = rng.random((m, 4, m))
        prob /= prob.sum(axis=-1, keepdims=True)
        policy = AutomatonPolicy(m, 0, (RISKY,) * m,
                                 np.broadcast_to(np.arange(m), prob.shape), prob)
        chain = build_joint_chain(paper_setting, policy)
        assert chain.w == 2 * m - 1 and chain.band.shape == (2 * m, 2 * m, 1)
        dist = stationary(chain)
        assert np.max(np.abs(dist.mu - damped_power_iteration(chain.P))) <= 1e-12


class TestGTHAccuracy:
    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("pi", [1e-3, 1e-9, 1e-12, 1e-15])
    def test_matches_exact_rational_oracle_at_small_pi(self, paper_setting, n, pi):
        s = paper_setting
        setting = validate_setting(4, s.pG, s.pB, s.xG, s.xB, pi)
        policy = build_a_family(4, AFamilyParams(n=n, p_exp=1e-3, **PAPER_SIDES))
        exact = float(exact_average_payoff_fraction(setting, policy))
        assert exact_average_payoff(setting, policy) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_back_substitution_survives_mass_beyond_the_float_range(self):
        # Both natures climb on signal 1 and almost never descend, so the top
        # rung holds about 1e396 times the mass of the safe state.
        setting = validate_setting(
            4, (0.9, 0.05, 0.05 - 1e-7, 1e-7), (0.8, 0.1, 0.1 - 2e-7, 2e-7),
            xG=1.0, xB=-0.5, pi=1e-3,
        )
        policy = build_a_family(4, AFamilyParams(n=60, p_exp=0.5, **PAPER_SIDES))
        # Nature spends half its time in each state and the agent is all but
        # always risky, so the payoff is (xG + xB) / 2.
        assert exact_average_payoff(setting, policy) == pytest.approx(0.25, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 4, 60])
    def test_ladders_are_stored_as_a_band_of_half_width_three(self, paper_setting, n):
        policy = build_a_family(4, AFamilyParams(n=n, p_exp=0.1, **PAPER_SIDES))
        chain = build_joint_chain(paper_setting, policy)
        assert chain.w == 3
        assert chain.band.shape == ((4, 4, 1) if n == 1 else (2 * n + 2, 7, 1))


class TestExactAveragePayoff:
    def test_trivial_setting_symmetric_payoffs_zero(self, trivial_setting, ladder_policy_5):
        assert exact_average_payoff(trivial_setting, ladder_policy_5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_iid_nature_zero(self, ladder_policy_5):
        setting = validate_setting(
            4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0, 0.5
        )
        assert exact_average_payoff(setting, ladder_policy_5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_paper_chain_payoff_positive(self, paper_setting, ladder_policy_5):
        # Near-optimal p_exp for 5 states clears the reported threshold.
        value = exact_average_payoff(paper_setting, ladder_policy_5)
        assert value > 0.4

    def test_signal_permutation_invariance(self, paper_setting):
        value = exact_average_payoff(
            paper_setting,
            build_a_family(
                4, AFamilyParams(n=4, p_exp=0.02, pos=frozenset({1}), neg=frozenset({4}))
            ),
        )
        perm = (2, 0, 3, 1)  # old signal i lands at position perm[i]
        pG = [0.0] * 4
        pB = [0.0] * 4
        for i in range(4):
            pG[perm[i]] = paper_setting.pG[i]
            pB[perm[i]] = paper_setting.pB[i]
        permuted = validate_setting(4, pG, pB, 1.0, -1.0, paper_setting.pi)
        value_perm = exact_average_payoff(
            permuted,
            build_a_family(
                4,
                AFamilyParams(
                    n=4, p_exp=0.02,
                    pos=frozenset({perm[0] + 1}), neg=frozenset({perm[3] + 1}),
                ),
            ),
        )
        assert value_perm == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_bound_and_magnitude(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 5)
        pG = [rng.random() for _ in range(k)]
        pB = [rng.random() for _ in range(k)]
        pG = [round(p / sum(pG), 12) for p in pG]
        pB = [round(p / sum(pB), 12) for p in pB]
        pG[-1] = 1.0 - sum(pG[:-1])
        pB[-1] = 1.0 - sum(pB[:-1])
        setting = validate_setting(
            k, pG, pB,
            xG=rng.uniform(0.2, 3.0), xB=-rng.uniform(0.2, 3.0),
            pi=rng.uniform(1e-4, 0.5),
        )
        signals = list(range(1, k + 1))
        rng.shuffle(signals)
        params = AFamilyParams(
            n=rng.randint(1, 5),
            p_exp=rng.uniform(0.01, 1.0),
            pos=frozenset(signals[:1]),
            neg=frozenset(signals[1:2]),
            r_u=rng.uniform(0.1, 1.0),
            r_d=rng.uniform(0.1, 1.0),
        )
        value = exact_average_payoff(setting, build_a_family(k, params))
        assert value <= oracle_upper_bound(setting) + 1e-9
        assert abs(value) <= max(abs(setting.xG), abs(setting.xB))

    @pytest.mark.parametrize("seed", range(6))
    def test_irreducibility_property_of_ladder(self, paper_setting, seed):
        # Positive rates plus pos/neg signals that occur under both states
        # guarantee a strongly connected joint chain.
        rng = random.Random(seed)
        signals = [1, 2, 3, 4]
        rng.shuffle(signals)
        params = AFamilyParams(
            n=rng.randint(1, 6),
            p_exp=rng.uniform(1e-4, 1.0),
            pos=frozenset(signals[:1]),
            neg=frozenset(signals[1 : rng.randint(2, 3)]),
            r_u=rng.uniform(1e-3, 1.0),
            r_d=rng.uniform(1e-3, 1.0),
        )
        chain = build_joint_chain(paper_setting, build_a_family(4, params))
        dims = np.array([chain.dim])
        assert _solve(chain.band, chain.w, dims)[3].all()
        # The structural pass, run as if the solve had not certified it, finds no gap.
        assert not check_irreducible(chain.band, chain.w, np.zeros(1, dtype=bool), dims).any()


PAPER_SIDES = dict(pos=frozenset({1}), neg=frozenset({4}))


def ladder_patterns(setting, n):
    """An n-rung ladder's joint chain, and two copies in which rung n // 2
    cannot climb (cutting off the rungs above) or cannot descend (so those
    rungs never return)."""
    policy = build_a_family(4, AFamilyParams(n=n, p_exp=0.1, **PAPER_SIDES))
    P = build_joint_chain(setting, policy).P
    stuck = np.array([P, P, P])
    r, m = n // 2, n + 1
    for theta in (0, m):
        for theta_next in (0, m):
            stuck[1, theta + r, theta_next + r + 1] = 0.0
            stuck[2, theta + r, theta_next + r - 1] = 0.0
    return stuck


def random_patterns(rng, count, dim):
    """Sparse nonnegative matrices; half get a random cycle through every state."""
    P = (rng.random((count, dim, dim)) < 1.5 / dim).astype(float)
    for chain in P[: count // 2]:
        order = rng.permutation(dim)
        chain[order, np.roll(order, 1)] = 0.5
    return P


class TestStackedKernel:
    @pytest.mark.parametrize("dim", [2, 4, 10, 64, 66, 130])
    def test_reachability_agrees_with_graph_search(self, dim):
        P = random_patterns(np.random.default_rng(dim), 16, dim)
        expected = np.array([connectivity_gaps(chain) for chain in P])
        assert expected.any(axis=1).any() and not expected.any(axis=1).all()
        S, w = dense_band(P)
        assert np.array_equal(reach_gaps(S, w), expected)
        # As chains (a self-loop on each empty row cuts nothing): a chain the
        # solve certifies has no gaps, and the single path names the gaps.
        P[:, np.arange(dim), np.arange(dim)] += P.sum(axis=2) == 0.0
        chains = P / P.sum(axis=2, keepdims=True)
        dims = np.full(len(chains), dim)
        assert not (_solve(dense_band(chains)[0], w, dims)[3] & expected.any(axis=1)).any()
        m = dim // 2
        for chain, gaps in zip(chains, expected):
            labels = [f"({'GB'[row // m]}, q={row % m})" for row in np.flatnonzero(gaps)]
            if labels:
                with pytest.raises(ReducibleChainError) as err:
                    stationary(chain_of_matrix(chain))
                assert list(err.value.unreachable) == labels
            else:
                stationary(chain_of_matrix(chain))

    @pytest.mark.parametrize("n", [64, 250])
    def test_banded_reachability_agrees_with_graph_search(self, paper_setting, n):
        P = ladder_patterns(paper_setting, n)
        expected = np.array([connectivity_gaps(chain) for chain in P])
        assert expected.any(axis=1).tolist() == [False, True, True]
        S, w = dense_band(P)
        assert w == 3
        assert np.array_equal(reach_gaps(S, w), expected)

    @staticmethod
    def stack(setting, policies):
        return evaluate_stack(
            np.array([agent_step_matrix(p, setting.pG) for p in policies]),
            np.array([agent_step_matrix(p, setting.pB) for p in policies]),
            setting.pi, joint_reward(setting, policies[0].actions),
        )

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_paper_grid_stack_matches_single_path_bit_for_bit(self, paper_setting, n):
        policies = [build_a_family(4, AFamilyParams(n=n, p_exp=p, **PAPER_SIDES))
                    for p in DEFAULT_PEXP_GRID]
        ev = self.stack(paper_setting, policies)
        assert ev.ok.all()
        for i, policy in enumerate(policies):
            dist = stationary(build_joint_chain(paper_setting, policy))
            assert np.array_equal(ev.mu[i], dist.mu)
            assert ev.residual[i] == dist.residual
            assert ev.payoff[i] == exact_average_payoff(paper_setting, policy)

    @staticmethod
    def ragged(cases):
        """Solve (setting, policy) cases, longest first, in one ragged stack,
        each agent band centred in the widest one."""
        bands = [np.array(agent_matrices(setting, policy)) for setting, policy in cases]
        wide = max(band.shape[-1] for band in bands) // 2
        agents = np.zeros((2, len(cases), cases[0][1].num_states, 2 * wide + 1))
        for i, band in enumerate(bands):
            m, half = band.shape[1], band.shape[-1] // 2
            agents[:, i, :m, wide - half:wide + half + 1] = band
        S, w = joint_band(*agents, np.array([setting.pi for setting, _ in cases]))
        return evaluate_storage(S, w, [(1, joint_reward(s, p.actions)) for s, p in cases]), w

    def test_ragged_stack_matches_single_path_bit_for_bit(self, paper_setting):
        # Ladders of several lengths, some equal and some of n <= 2 (whose
        # single chains are whole rows), each with its own pi, p_exp, rate and
        # payoffs, drawn in three orders and stacked longest first.
        rng = random.Random(7)
        cases = []
        for n in (1, 2, 2, 3, 5, 5, 40, 129, 130):
            setting = validate_setting(4, paper_setting.pG, paper_setting.pB, rng.uniform(0.5, 2),
                                       -rng.uniform(0.5, 2), 10 ** rng.uniform(-6, -1))
            params = AFamilyParams(n=n, p_exp=rng.uniform(1e-3, 1), r_u=rng.uniform(0.1, 1),
                                   **PAPER_SIDES)
            cases.append((setting, build_a_family(4, params)))
        for _ in range(3):
            rng.shuffle(cases)
            stacked = sorted(cases, key=lambda case: -case[1].num_states)
            ev, w = self.ragged(stacked)
            assert ev.ok.all() and w == 3
            for i, (setting, policy) in enumerate(stacked):
                dist = stationary(build_joint_chain(setting, policy))
                d = 2 * policy.num_states
                assert ev.payoff[i] == dist.payoff and ev.residual[i] == dist.residual
                assert np.array_equal(ev.mu[i, :d], dist.mu) and not ev.mu[i, d:].any()

    def test_ragged_stack_names_each_chain_by_its_own_states(self, paper_setting):
        # A reducible 2-state policy below a 5-rung ladder: the cut-off states
        # are read in the short chain's own nature-major order.
        stuck = {(0, NO_SIGNAL): {1: 1.0}, **{(1, s): {1: 1.0} for s in range(1, 5)}}
        cases = [(paper_setting, build_a_family(4, AFamilyParams(n=4, p_exp=0.1, **PAPER_SIDES))),
                 (paper_setting, dict_policy((SAFE, RISKY), stuck, 4))]
        ev, _ = self.ragged(cases)
        assert ev.ok.tolist() == [True, False]
        assert ev.payoff[0] == exact_average_payoff(*cases[0])
        with pytest.raises(ReducibleChainError) as single:
            stationary(build_joint_chain(*cases[1]))
        assert str(ev.error(1)) == str(single.value)

    def test_whole_row_chains_keep_their_bits_on_either_side_of_the_cut(self):
        # Whole-row chains (d = 24, w = 23) add up to 23 terms a step, where a
        # pairwise sum parts from the term-by-term one. Each chain alone (B =
        # 1), in a stack below REDUCE_CHAINS and in one above it: same bits.
        setting = validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
        count = markov_exact.REDUCE_CHAINS + 4
        chains = [build_joint_chain(setting, dense_policy(12, 3, seed)) for seed in range(count)]
        assert {chain.w for chain in chains} == {23}
        S = np.concatenate([chain.band for chain in chains], axis=2)
        singles = [stationary(chain) for chain in chains]
        for b in (markov_exact.REDUCE_CHAINS - 1, count):
            ev = evaluate_storage(S[:, :, :b], 23, [(b, chains[0].reward)])
            assert ev.ok.all()
            for i, dist in enumerate(singles[:b]):
                assert np.array_equal(ev.mu[i], dist.mu)
                assert ev.residual[i] == dist.residual and ev.payoff[i] == dist.payoff

    @pytest.mark.parametrize("b", [1, 2, markov_exact.REDUCE_CHAINS - 1,
                                   markov_exact.REDUCE_CHAINS, 1000])
    def test_row_sums_add_term_by_term(self, b):
        # Rows of a band's square view, as _gth reads them: the first b of
        # b + 3 chains, up to w = 15 terms, entries spread over 60 binary
        # orders so that the order of the additions shows in the bits.
        rng = np.random.default_rng(b)
        d, w = 40, 15
        S = rng.random((d, 2 * w + 1, b + 3)) * 2.0 ** rng.integers(-30, 30, (d, 2 * w + 1, b + 3))
        V = markov_exact._square_view(S, w)
        pairwise_parts = False
        for k in range(1, d):
            rows = V[k, max(0, k - w):k, :b]
            total = [0.0] * b
            for row in rows.tolist():
                total = [t + r for t, r in zip(total, row)]
            assert markov_exact._row_sums(rows).tolist() == total
            pairwise_parts |= np.add.reduce(rows[:, :1], axis=0)[0] != total[0]
        # The premise: at B = 1, np.add.reduce would not add term by term.
        assert pairwise_parts

    @staticmethod
    def wide_columns(rng, d, b):
        # Entries spread over 60 binary orders, so that the order of the
        # additions shows in the bits.
        return rng.random((d, b)) * 2.0 ** rng.integers(-30, 30, (d, b))

    def test_contiguous_sums_go_pairwise_from_8_terms(self):
        # Why every sum the kernel returns is taken by _row_sums: numpy's sum
        # along a contiguous row adds in order below 8 terms, and at 8 it
        # need not.
        rng = np.random.default_rng(8)
        for d in range(2, 9):
            x = self.wide_columns(rng, d, 1000)
            in_order = np.add.accumulate(x, axis=0)[-1]
            contiguous = np.ascontiguousarray(x.T).sum(axis=1)
            assert (in_order.tolist() == contiguous.tolist()) == (d < 8)

    def test_failures_name_each_fault_of_a_mixed_stack(self):
        # (d, B) columns of four-state chains in the interleaved order: one
        # that passes, a zero pivot, negative mass, a residual and a mass out
        # of tolerance, and a zero pivot in a chain outside the rows checked.
        xt = np.ascontiguousarray(np.array(
            [[0.25] * 4, [0.25] * 4, [0.5, 0.5, 0.25, -0.25], [0.25] * 4,
             [0.25, 0.25, 0.25, 0.5], [0.25] * 4]).T)
        residual = np.array([0.0, 0.0, 0.0, 1e-9, 0.0, 0.0])
        pivot = np.ones((4, 6))
        pivot[1:3, 1] = pivot[2, 5] = 0.0
        assert markov_exact._failures(xt, residual, pivot, np.arange(5), np.full(6, 4)) == {
            1: "GTH pivot of state (G, q=1) is 0.0",
            2: "stationary solve produced mass -0.25",
            3: "stationary residual 1e-09 / mass 1.0 out of tolerance",
            4: "stationary residual 0.0 / mass 1.25 out of tolerance",
        }

    def test_reducible_member_is_flagged_with_the_single_path_error(self, paper_setting):
        stuck = {(0, NO_SIGNAL): {1: 1.0}, **{(1, s): {1: 1.0} for s in range(1, 5)}}
        policies = [
            build_a_family(4, AFamilyParams(n=1, p_exp=0.1, **PAPER_SIDES)),
            dict_policy((SAFE, RISKY), stuck, 4),
        ]
        ev = self.stack(paper_setting, policies)
        assert ev.ok.tolist() == [True, False]
        assert ev.payoff[0] == exact_average_payoff(paper_setting, policies[0])
        assert np.isnan(ev.payoff[1]) and np.isnan(ev.mu[1]).all()
        with pytest.raises(ReducibleChainError) as single:
            stationary(build_joint_chain(paper_setting, policies[1]))
        assert str(ev.error(1)) == str(single.value)
        assert ev.error(1).unreachable == single.value.unreachable


    def test_ok_read_from_certificates_matches_the_cut_off_states(self, paper_setting):
        # Underflow-cut 3-state chains (see
        # test_coupling_that_underflows_cuts_the_chain) above irreducible and
        # reducible 2-state ones, mixed, at least REDUCE_CHAINS in all. The
        # chain whose state 1 only leaves would pass the solve's checks: only
        # its cut-off states fail it.
        third = {str(q): 1 / 3 for q in range(3)}
        cut = (DynamicSetting(k=2, pG=(0.6, 0.4), pB=(0.4, 0.6), xG=1.0, xB=-1.0, pi=5e-324),
               dict_policy((RISKY,) * 3, {(q, s): third for q in range(3) for s in (1, 2)}, 2))
        stuck = {(0, NO_SIGNAL): {1: 1.0}, **{(1, s): {1: 1.0} for s in range(1, 5)}}
        leaving = {(0, NO_SIGNAL): {0: 1.0}, **{(1, s): {0: 1.0} for s in range(1, 5)}}
        reducible = [(paper_setting, dict_policy((SAFE, RISKY), kernel, 4))
                     for kernel in (stuck, leaving)]
        cases = [cut] * 4
        for p_exp in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            policy = build_a_family(4, AFamilyParams(n=1, p_exp=p_exp, **PAPER_SIDES))
            cases += [(paper_setting, policy), *reducible]
        assert len(cases) >= markov_exact.REDUCE_CHAINS
        ev, _ = self.ragged(cases)
        assert ev.ok.tolist() == [False] * 4 + [True, False, False] * 6
        assert np.array_equal(ev.ok, ~ev.cut_off.any(axis=1))
        for i in np.flatnonzero(~ev.ok).tolist():
            with pytest.raises(ReducibleChainError) as single:
                stationary(build_joint_chain(*cases[i]))
            assert str(ev.error(i)) == str(single.value)


class TestStoppedStateDistribution:
    def sticky_matrices(self):
        policy = build_linear_sticky(
            5, [1, 1, 1, 1, 1], [0.01, 1, 1, 1, 1], good_signal=1, bad_signal=4, k=4
        )
        pG = (0.4, 0.3, 0.2, 0.1)
        return dense_matrix(agent_step_matrix(policy, pG))

    def test_eta_one_is_single_step(self):
        P = self.sticky_matrices()
        d0 = np.zeros(5)
        d0[2] = 1.0
        assert np.allclose(stopped_state_distribution(P, d0, 1.0), d0 @ P, atol=1e-15)

    def test_identity_dynamics(self):
        d0 = np.array([0.3, 0.2, 0.5])
        for eta in (0.01, 0.4, 1.0):
            out = stopped_state_distribution(np.eye(3), d0, eta)
            assert np.allclose(out, d0, atol=1e-12)

    def test_matches_series_oracle(self):
        P = self.sticky_matrices()
        d0 = np.zeros(5)
        d0[2] = 1.0
        out = stopped_state_distribution(P, d0, 0.01)
        oracle = geometric_series_stopped(P, d0, 0.01)
        assert np.max(np.abs(out - oracle)) <= 1e-12
        # Frozen from the series oracle.
        assert out == pytest.approx(
            [0.943525405984, 0.026185212656, 0.020932934948,
             0.007522212363, 0.001834234049],
            abs=1e-9,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_sums_to_one_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 8)
        P = rng.random((n, n))
        P /= P.sum(axis=1, keepdims=True)
        d0 = rng.random(n)
        d0 /= d0.sum()
        out = stopped_state_distribution(P, d0, float(rng.uniform(0.001, 1.0)))
        assert abs(out.sum() - 1.0) <= 1e-10
        assert out.min() >= -1e-14

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.0001])
    def test_bad_eta(self, eta):
        with pytest.raises(BadEtaError):
            stopped_state_distribution(np.eye(2), np.array([1.0, 0.0]), eta)
