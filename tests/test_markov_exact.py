import random

import numpy as np
import pytest

from bounded_agents.automaton import (
    NO_SIGNAL,
    RISKY,
    SAFE,
    AFamilyParams,
    build_a_family,
    build_linear_sticky,
)
from bounded_agents.dynamic_env import oracle_upper_bound, validate_setting
from bounded_agents.errors import (
    BadEtaError,
    DimensionMismatchError,
    ReducibleChainError,
)
from oracles import (
    connectivity_gaps,
    damped_power_iteration,
    dict_policy,
    enumerated_joint_matrix,
    exact_average_payoff_fraction,
    geometric_series_stopped,
)
from bounded_agents import markov_exact
from bounded_agents.markov_exact import (
    CLOSURE_MAX_DIM,
    JointChainModel,
    agent_step_matrix,
    build_joint_chain,
    chain_csv,
    evaluate_stack,
    exact_average_payoff,
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
        assert chain.reward[chain.index_of("G", 0)] == 0.0
        assert chain.reward[chain.index_of("B", 0)] == 0.0
        for q in range(1, m):
            assert chain.reward[chain.index_of("G", q)] == paper_setting.xG
            assert chain.reward[chain.index_of("B", q)] == paper_setting.xB

    def test_trivial_setting_factors_as_kronecker(self, trivial_setting, ladder_policy_5):
        chain = build_joint_chain(trivial_setting, ladder_policy_5)
        agent = agent_step_matrix(ladder_policy_5, trivial_setting.pG)
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
        for row in range(chain.dim):
            nature, q = chain.state_of(row)
            assert chain.index_of(nature, q) == row

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
        chain = JointChainModel(dim=2, P=P, reward=np.zeros(2), num_agent_states=1)
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
        chain = JointChainModel(dim=4, P=P, reward=np.zeros(4), num_agent_states=2)
        dist = stationary(chain)
        assert dist.mu == pytest.approx([0.25] * 4, abs=1e-12)

    def test_periodic_chain_handled(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = JointChainModel(dim=2, P=P, reward=np.zeros(2), num_agent_states=1)
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

    def test_mass_nonnegative_and_normalized(self, paper_setting, ladder_policy_5):
        dist = stationary(build_joint_chain(paper_setting, ladder_policy_5))
        assert dist.mu.min() >= 0.0
        assert dist.mu.sum() == pytest.approx(1.0, abs=1e-10)

    def test_dense_chain_above_closure_threshold(self):
        # No band narrower than the matrix holds a dense chain, so it is
        # stored whole and searched over all of its entries.
        rng = np.random.default_rng(7)
        P = rng.random((CLOSURE_MAX_DIM + 16,) * 2)
        P /= P.sum(axis=1, keepdims=True)
        chain = JointChainModel(dim=len(P), P=P, reward=np.zeros(len(P)),
                                num_agent_states=len(P) // 2)
        assert markov_exact._band(P[None])[1] == len(P) - 1
        dist = stationary(chain)
        assert np.max(np.abs(dist.mu - damped_power_iteration(P))) <= 1e-12


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
        P = build_joint_chain(paper_setting, policy).P[None]
        S, w = markov_exact._band(P)
        assert w == 3
        assert S.shape == ((4, 4, 1) if n == 1 else (2 * n + 2, 7, 1))


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
        from bounded_agents.markov_exact import check_irreducible

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
        check_irreducible(chain)  # must not raise


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
    @pytest.mark.parametrize("dim", [2, 4, 10, CLOSURE_MAX_DIM, CLOSURE_MAX_DIM + 2, 130])
    def test_reachability_agrees_with_graph_search(self, dim, monkeypatch):
        P = random_patterns(np.random.default_rng(dim), 16, dim)
        expected = np.array([connectivity_gaps(chain) for chain in P])
        assert expected.any(axis=1).any() and not expected.any(axis=1).all()
        assert np.array_equal(reach_gaps(P), expected)
        # Both routines on both sides of the threshold.
        monkeypatch.setattr(markov_exact, "CLOSURE_MAX_DIM", 10**6)
        assert np.array_equal(reach_gaps(P), expected)
        monkeypatch.setattr(markov_exact, "CLOSURE_MAX_DIM", 0)
        assert np.array_equal(reach_gaps(P), expected)

    @pytest.mark.parametrize("n", [64, 250])
    def test_banded_reachability_agrees_with_graph_search(self, paper_setting, n, monkeypatch):
        P = ladder_patterns(paper_setting, n)
        assert P.shape[1] > CLOSURE_MAX_DIM
        expected = np.array([connectivity_gaps(chain) for chain in P])
        assert expected.any(axis=1).tolist() == [False, True, True]
        assert np.array_equal(reach_gaps(P), expected)
        monkeypatch.setattr(markov_exact, "CLOSURE_MAX_DIM", 10**6)
        assert np.array_equal(reach_gaps(P), expected)

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


class TestStoppedStateDistribution:
    def sticky_matrices(self):
        policy = build_linear_sticky(
            5, [1, 1, 1, 1, 1], [0.01, 1, 1, 1, 1], good_signal=1, bad_signal=4, k=4
        )
        pG = (0.4, 0.3, 0.2, 0.1)
        return agent_step_matrix(policy, pG)

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


def test_chain_csv_layout(paper_setting, ladder_policy_5):
    chain = build_joint_chain(paper_setting, ladder_policy_5)
    dist = stationary(chain)
    text = chain_csv(chain, dist)
    lines = text.strip().splitlines()
    assert lines[0] == "nature,agent_state,reward,stationary_mass"
    assert len(lines) == 1 + chain.dim
    assert lines[1].startswith("G,0,0,")
    assert lines[6].startswith("B,0,0,")
