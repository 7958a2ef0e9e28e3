"""The array layout of policies against walks of their dict view.

Every reader of the (m, k, r) arrays must give the bits that walking the
{(state, obs): {next: p}} rows gives, on every family of policies the
package builds or reads.
"""

import random

import numpy as np
import pytest

from bounded_agents.automaton import (
    AFamilyParams,
    build_a_family,
    build_linear_sticky,
    check_policy,
)
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.markov_exact import agent_step_matrix, dense_matrix
from bounded_agents.montecarlo import TABLE_FACTOR, _compiled_tables
from bounded_agents.optimize import brute_force_policy_search
from oracles import (
    dense_policy, dict_walk_sim_rows, dict_walk_step_matrix, two_safe_states_policy,
)


def _random_setting(rng, k):
    def dist():
        w = [rng.random() for _ in range(k)]
        return tuple(x / sum(w) for x in w)

    pG, pB = dist(), dist()
    # Renormalizing may leave a sum one ulp off; fold it into the last entry.
    pG = pG[:-1] + (1.0 - sum(pG[:-1]),)
    pB = pB[:-1] + (1.0 - sum(pB[:-1]),)
    return validate_setting(k, pG, pB, 1.0, -1.0, 0.01)


def _random_ladder(rng, k, n):
    signals = list(range(1, k + 1))
    rng.shuffle(signals)
    cut = rng.randint(1, k - 1)
    pos, neg = signals[:cut], signals[cut:][: rng.randint(1, k - cut)]
    r_u, r_d = (rng.choice((1.0, rng.uniform(0.01, 1.0))) for _ in range(2))
    return build_a_family(k, AFamilyParams(
        n=n, p_exp=rng.choice((1.0, 1e-5, rng.uniform(1e-5, 1.0))),
        pos=frozenset(pos), neg=frozenset(neg), r_u=r_u, r_d=r_d))


def _random_sticky(rng, k, m):
    left, right = ([rng.choice((0.0, 1.0, rng.random())) for _ in range(m)] for _ in range(2))
    good, bad = rng.sample(range(1, k + 1), 2)
    return build_linear_sticky(m, left, right, good, bad, k, initial_state=rng.randrange(m))


def _assert_step_matrices_match(policy, *signal_probs):
    for probs in signal_probs:
        band = agent_step_matrix(policy.actions, policy.next_state, policy.prob, probs)
        assert np.array_equal(dense_matrix(band), dict_walk_step_matrix(policy, probs))


@pytest.mark.parametrize("seed", range(12))
def test_a_family_step_matrix_matches_dict_walk(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 6)
    setting = _random_setting(rng, k)
    policy = _random_ladder(rng, k, rng.choice((1, 4, 60, 2000)))
    check_policy(policy, k)
    zero_signal = tuple(0.0 if s == 0 else p for s, p in enumerate(setting.pG))
    _assert_step_matrices_match(policy, setting.pG, setting.pB, zero_signal)


def test_a_family_extremes_match_dict_walk():
    setting = _random_setting(random.Random(99), 4)
    for n in (1, 4, 60):
        for p_exp in (1e-5, 0.3, 1.0):
            policy = build_a_family(4, AFamilyParams(
                n=n, p_exp=p_exp, pos=frozenset({1}), neg=frozenset({4})))
            _assert_step_matrices_match(policy, setting.pG, setting.pB)


@pytest.mark.parametrize("seed", range(8))
def test_linear_sticky_step_matrix_matches_dict_walk(seed):
    rng = random.Random(100 + seed)
    k = rng.randint(2, 5)
    policy = _random_sticky(rng, k, rng.randint(1, 9))
    check_policy(policy, k)
    _assert_step_matrices_match(policy, _random_setting(rng, k).pG)


def test_sticky_escape_zero_matches_dict_walk():
    policy = build_linear_sticky(5, [1.0] * 5, [0.0, 1, 1, 1, 1], 1, 4, k=4, initial_state=2)
    _assert_step_matrices_match(policy, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))


def test_brute_force_winners_match_dict_walk():
    for seed in range(3):
        setting = _random_setting(random.Random(200 + seed), 2)
        for m in (1, 2):
            policy, _ = brute_force_policy_search(setting, m, prob_grid=(0.0, 0.5, 1.0))
            _assert_step_matrices_match(policy, setting.pG, setting.pB)


def test_json_policy_matches_dict_walk():
    policy = two_safe_states_policy()
    check_policy(policy, 3)
    assert policy.kernel[(1, 3)] == {2: 0.6, 3: 0.4}
    _assert_step_matrices_match(policy, (0.5, 0.3, 0.2), (0.0, 0.0, 1.0), (0.2, 0.0, 0.8))


def _assert_sim_rows_match(policy, setting):
    _, _, cuts, step = _compiled_tables(setting, policy)
    ref = dict_walk_sim_rows(policy, setting.k)
    sums = sorted({float(c) for per_signal in ref for cums, _ in per_signal
                   for c in cums if c < 1.0})
    if cuts is None:
        # Past TABLE_FACTOR * r kernel events the walk bisects the rows.
        assert len(sums) + 1 > TABLE_FACTOR * policy.prob.shape[-1]
        for got, want in zip(step, ref):
            for (cums, nexts), (ref_cums, ref_nexts) in zip(got, want):
                used = len(ref_cums)
                assert cums[:used] == [float(c) for c in ref_cums]
                assert nexts[:used] == ref_nexts
                # Entries past the last positive one are never drawn.
                assert all(c == 1.0 for c in cums[used - 1:])
        return
    # Kernel event v covers the uniforms in [cuts[v - 1], cuts[v]). The scalar
    # loop over the dict-walk rows, run at each interval's lower end (a tie),
    # must stop at the next state of the event's class.
    assert cuts.tolist() == sums
    cls, cols, blocks, table = step
    width = len(cuts) + 1
    walked = np.empty((policy.num_states, setting.k * width), int)
    for q, per_signal in enumerate(ref):
        for s, (cums, nexts) in enumerate(per_signal):
            for v, um in enumerate([0.0, *cuts.tolist()]):
                j = 0
                while um >= cums[j]:
                    j += 1
                walked[q, s * width + v] = nexts[j]
    assert np.array_equal(cols[:, cls], walked)
    # Each entry of the B-round table is B single dict-walk steps on one event
    # of each class, the first round's class being the code's top base-K digit.
    classes = cols.shape[1]
    one_step = walked[:, [cls.tolist().index(c) for c in range(classes)]]
    codes = np.arange(classes ** blocks)
    want = np.repeat(np.arange(policy.num_states)[:, None], len(codes), axis=1)
    for digit in reversed(range(blocks)):
        want = one_step[want, codes // classes ** digit % classes]
    assert np.array_equal(np.array(table), want)


@pytest.mark.parametrize("seed", range(6))
def test_simulator_tables_match_dict_walk(seed):
    rng = random.Random(300 + seed)
    k = rng.randint(2, 5)
    setting = _random_setting(rng, k)
    _assert_sim_rows_match(_random_ladder(rng, k, rng.randint(1, 8)), setting)
    winner, _ = brute_force_policy_search(setting, 2, prob_grid=(0.0, 0.5, 1.0))
    _assert_sim_rows_match(winner, setting)


def test_json_simulator_tables_match_dict_walk():
    setting = validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
    _assert_sim_rows_match(two_safe_states_policy(), setting)
    for m in (3, 8, 40):
        _assert_sim_rows_match(dense_policy(m, 3, seed=m), setting)
