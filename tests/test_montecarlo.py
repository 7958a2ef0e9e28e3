import numpy as np
import pytest

from bounded_agents.automaton import AFamilyParams, build_a_family
from bounded_agents.errors import ValidationError
from bounded_agents.markov_exact import exact_average_payoff
from bounded_agents.montecarlo import (
    SimConfig,
    compare_exact_mc,
    run_seed_sweep,
    sim_result_csv,
    simulate_run,
    uniform_stream,
)


class TestUniformStream:
    def test_known_values(self):
        # Frozen splitmix64 outputs; pins the stream across platforms.
        assert uniform_stream(42, 0, 4) == pytest.approx(
            [0.65371573898705448, 0.74156487877182331,
             0.1599103928769201, 0.27860113025513866],
            abs=0,
        )

    def test_counter_based_slicing(self):
        full = uniform_stream(2**63 + 11, 0, 10)
        assert np.array_equal(full[5:7], uniform_stream(2**63 + 11, 5, 2))

    def test_range(self):
        u = uniform_stream(7, 0, 10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0


class TestSimConfig:
    def test_burn_in_defaults_to_one_percent(self):
        assert SimConfig(rounds=10_000, seed=1).burn_in == 100

    def test_bad_rounds(self):
        with pytest.raises(ValidationError):
            SimConfig(rounds=0, seed=1)

    def test_burn_in_must_be_below_rounds(self):
        with pytest.raises(ValidationError):
            SimConfig(rounds=100, seed=1, burn_in=100)

    def test_batches_minimum(self):
        with pytest.raises(ValidationError):
            SimConfig(rounds=100, seed=1, batches=1)


class TestSimulateRun:
    def test_deterministic(self, paper_setting, ladder_policy_5):
        config = SimConfig(rounds=20_000, seed=123)
        a = simulate_run(paper_setting, ladder_policy_5, config)
        b = simulate_run(paper_setting, ladder_policy_5, config)
        assert a == b  # bit-identical dataclasses

    def test_mean_is_average_of_batch_means(self, paper_setting, ladder_policy_5):
        result = simulate_run(paper_setting, ladder_policy_5, SimConfig(rounds=50_000, seed=9))
        assert result.mean == pytest.approx(np.mean(result.batch_means), abs=1e-12)

    def test_rounds_used_divisible_by_batches(self, paper_setting, ladder_policy_5):
        result = simulate_run(
            paper_setting, ladder_policy_5, SimConfig(rounds=10_007, seed=5, batches=20)
        )
        assert result.rounds_used % 20 == 0

    def test_trivial_setting_mean_near_zero(self, trivial_setting, ladder_policy_5):
        result = simulate_run(
            trivial_setting, ladder_policy_5, SimConfig(rounds=1_000_000, seed=3)
        )
        assert abs(result.mean) <= 4.0 * result.std_error

    def test_tracks_exact_value_on_paper_experiment(self, paper_setting, ladder_policy_5):
        result = simulate_run(
            paper_setting, ladder_policy_5, SimConfig(rounds=1_000_000, seed=1)
        )
        exact = exact_average_payoff(paper_setting, ladder_policy_5)
        assert abs(result.mean - exact) <= 3.0 * result.std_error

    def test_std_error_scales_with_rounds(self, paper_setting, ladder_policy_5):
        # Quadrupling the data should shrink the error by roughly 2.
        small = simulate_run(paper_setting, ladder_policy_5,
                             SimConfig(rounds=250_000, seed=11))
        large = simulate_run(paper_setting, ladder_policy_5,
                             SimConfig(rounds=1_000_000, seed=11))
        ratio = small.std_error / large.std_error
        assert 1.6 <= ratio <= 2.5

    def test_hold_policy_rejected(self, paper_setting):
        from bounded_agents.automaton import build_linear_sticky

        policy = build_linear_sticky(3, [1, 1, 1], [1, 1, 1], 1, 4, k=4)
        with pytest.raises(ValidationError):
            simulate_run(paper_setting, policy, SimConfig(rounds=100, seed=1))


class TestCompareExactMc:
    def test_trivial_setting_z(self, trivial_setting, ladder_policy_5):
        report = compare_exact_mc(
            trivial_setting, ladder_policy_5, SimConfig(rounds=200_000, seed=2)
        )
        assert report.exact == pytest.approx(0.0, abs=1e-12)
        assert abs(report.z_score) <= 3.0

    def test_z_definition(self, paper_setting, ladder_policy_5):
        report = compare_exact_mc(
            paper_setting, ladder_policy_5, SimConfig(rounds=100_000, seed=4)
        )
        assert report.z_score == pytest.approx(
            (report.mc_mean - report.exact) / report.std_error, abs=1e-15
        )

    def test_propagates_reducible_chain(self, paper_setting):
        from bounded_agents.automaton import NO_SIGNAL, RISKY, SAFE
        from bounded_agents.errors import ReducibleChainError
        from oracles import dict_policy

        kernel = {(0, NO_SIGNAL): {1: 1.0}}
        for s in range(1, 5):
            kernel[(1, s)] = {1: 1.0}
        stuck = dict_policy((SAFE, RISKY), kernel, 4)
        with pytest.raises(ReducibleChainError):
            compare_exact_mc(paper_setting, stuck, SimConfig(rounds=1_000, seed=1))


class TestSeedSweep:
    def test_worker_count_does_not_change_results(self, paper_setting):
        policy = build_a_family(
            4, AFamilyParams(n=1, p_exp=0.2, pos=frozenset({1}), neg=frozenset({4}))
        )
        config = SimConfig(rounds=20_000, seed=0)
        seeds = [101, 202, 303, 404]
        serial = run_seed_sweep(paper_setting, policy, config, seeds, workers=1)
        parallel = run_seed_sweep(paper_setting, policy, config, seeds, workers=2)
        assert serial == parallel

    def test_results_in_seed_order(self, paper_setting, ladder_policy_5):
        config = SimConfig(rounds=5_000, seed=0)
        results = run_seed_sweep(paper_setting, ladder_policy_5, config, [7, 8], workers=1)
        direct_7 = simulate_run(paper_setting, ladder_policy_5, SimConfig(rounds=5_000, seed=7))
        direct_8 = simulate_run(paper_setting, ladder_policy_5, SimConfig(rounds=5_000, seed=8))
        assert results == [direct_7, direct_8]


def test_csv_layout(paper_setting, ladder_policy_5):
    result = simulate_run(paper_setting, ladder_policy_5,
                          SimConfig(rounds=5_000, seed=1, batches=4))
    lines = sim_result_csv(result).strip().splitlines()
    assert lines[0] == "batch_index,batch_mean"
    assert len(lines) == 1 + 4 + 2
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std_error,")


def test_initial_nature_state_is_uniform(paper_setting):
    # Counter 0 decides the initial state; check both branches exist over seeds.
    from bounded_agents.montecarlo import uniform_stream as stream

    starts = [stream(seed, 0, 1)[0] < 0.5 for seed in range(40)]
    assert any(starts) and not all(starts)
