import itertools

import numpy as np
import pytest

from bounded_agents import optimize
from bounded_agents.automaton import (
    RISKY,
    SAFE,
    AFamilyParams,
    build_a_family,
)
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.errors import (
    GridTooLargeError,
    ReducibleChainError,
    TooManySignalsError,
    TrivialSettingError,
    ValidationError,
)
from bounded_agents.markov_exact import exact_average_payoff
from oracles import dict_policy
from bounded_agents.optimize import (
    DEFAULT_PEXP_GRID,
    ScheduleSpec,
    brute_force_policy_search,
    curve_csv,
    default_partition,
    exhaustive_partition_search,
    legal_partitions,
    optimize_pexp,
    limit_schedule_curve,
)

COARSE_GRID = tuple(np.logspace(-4, 0, 12))


class TestDefaultPartition:
    def test_paper_experiment(self, paper_setting):
        pos, neg = default_partition(paper_setting)
        assert pos == frozenset({1})
        assert neg == frozenset({4})

    def test_two_signals(self):
        s = validate_setting(2, (0.6, 0.4), (0.4, 0.6), 1.0, -1.0, 0.01)
        assert default_partition(s) == (frozenset({1}), frozenset({2}))

    def test_middle_signal_ignored(self):
        s = validate_setting(3, (0.5, 0.25, 0.25), (0.25, 0.5, 0.25), 1.0, -1.0, 0.01)
        pos, neg = default_partition(s)
        assert (pos, neg) == (frozenset({1}), frozenset({2}))

    def test_zero_denominator_wins(self):
        s = validate_setting(3, (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), 1.0, -1.0, 0.01)
        pos, neg = default_partition(s)
        assert pos == frozenset({1})  # pB = 0 gives an infinite ratio
        assert neg == frozenset({3})

    def test_ties_break_to_lowest_index(self):
        s = validate_setting(4, (0.3, 0.3, 0.2, 0.2), (0.2, 0.2, 0.3, 0.3), 1.0, -1.0, 0.01)
        pos, neg = default_partition(s)
        assert (pos, neg) == (frozenset({1}), frozenset({3}))

    def test_trivial_setting_rejected(self, trivial_setting):
        with pytest.raises(TrivialSettingError):
            default_partition(trivial_setting)


class TestOptimizePexp:
    def test_five_state_clears_point_four(self, paper_setting):
        result = optimize_pexp(paper_setting, n=4)
        assert result.best_payoff > 0.4
        assert result.best_payoff == pytest.approx(0.413796569301, abs=1e-6)
        assert result.partition == (frozenset({1}), frozenset({4}))

    def test_two_state_clears_point_fifteen(self, paper_setting):
        result = optimize_pexp(paper_setting, n=1)
        assert result.best_payoff > 0.15
        assert result.best_payoff == pytest.approx(0.165836806888, abs=1e-6)

    def test_refinement_never_loses_to_coarse_grid(self, paper_setting):
        coarse = optimize_pexp(paper_setting, n=4, grid=COARSE_GRID, refine_rounds=0)
        refined = optimize_pexp(paper_setting, n=4, grid=COARSE_GRID)
        assert refined.best_payoff >= coarse.best_payoff

    def test_best_is_max_of_trace(self, paper_setting):
        result = optimize_pexp(paper_setting, n=2, grid=COARSE_GRID)
        assert result.best_payoff == max(v for _, v in result.grid_trace)

    def test_payoff_nondecreasing_up_to_six_rungs(self, paper_setting):
        # Larger ladders help up to n=6 on this experiment; the optimum then
        # declines slowly (0.430107 at n=7), so no global monotonicity holds.
        values = [optimize_pexp(paper_setting, n=n, grid=COARSE_GRID).best_payoff
                  for n in range(1, 8)]
        for smaller, larger in zip(values, values[1:6]):
            assert larger >= smaller - 1e-9
        assert values[6] == pytest.approx(0.430106, abs=1e-3)
        assert values[6] < values[5]

    def test_empty_grid_rejected(self, paper_setting):
        with pytest.raises(ValidationError):
            optimize_pexp(paper_setting, n=2, grid=())

    def test_zero_pexp_rejected_at_validation(self, paper_setting):
        with pytest.raises(ValidationError):
            optimize_pexp(paper_setting, n=2, grid=(0.0, 0.5))

    def test_stacked_trace_matches_single_evaluations(self, paper_setting):
        # Grid points share one ladder and differ in its Safe row only; every
        # traced payoff must carry the bits of a policy built for that point.
        assert 1.0 in DEFAULT_PEXP_GRID
        partitions = [
            (frozenset({1}), frozenset({4})),  # signals 2 and 3 ignored
            (frozenset({1, 2}), frozenset({3, 4})),
        ]
        for n, (r_u, r_d), (pos, neg) in itertools.product(
            (1, 2, 4), ((1.0, 1.0), (0.5, 0.7)), partitions
        ):
            result = optimize_pexp(paper_setting, n=n, partition=(pos, neg), r_u=r_u, r_d=r_d)
            assert len(result.grid_trace) > len(DEFAULT_PEXP_GRID)
            for p, value in result.grid_trace:
                params = AFamilyParams(n=n, p_exp=p, pos=pos, neg=neg, r_u=r_u, r_d=r_d)
                policy = build_a_family(paper_setting.k, params)
                assert value == exact_average_payoff(paper_setting, policy), params

    def test_repeated_grid_point_counts_once(self, paper_setting):
        # A repeated point must not be its own neighbour, or the refinement
        # spans [0.01, 0.01] and adds nothing.
        repeated = optimize_pexp(paper_setting, n=4, grid=(0.01, 0.01, 0.2))
        assert repeated == optimize_pexp(paper_setting, n=4, grid=(0.01, 0.2))
        assert len(repeated.grid_trace) == 18

    def test_one_ladder_built_per_search(self, paper_setting, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_a_family(*args)

        monkeypatch.setattr(optimize, "build_a_family", counting)
        optimize_pexp(paper_setting, n=4)
        optimize.optimize_rates(paper_setting, n=2, rate_grid=(0.5, 1.0), grid=COARSE_GRID)
        assert len(calls) == 1 + 4

    def test_failing_point_raises_the_single_path_error(self):
        # Signal 1 never occurs, so the ladder cannot climb past state 1 and
        # every grid point has a reducible chain.
        s = validate_setting(4, (0.0, 0.5, 0.3, 0.2), (0.0, 0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
        partition = (frozenset({1}), frozenset({4}))
        with pytest.raises(ReducibleChainError) as stacked:
            optimize_pexp(s, n=2, partition=partition, grid=COARSE_GRID)
        policy = build_a_family(
            4, AFamilyParams(n=2, p_exp=COARSE_GRID[0], pos=partition[0], neg=partition[1])
        )
        with pytest.raises(ReducibleChainError) as single:
            exact_average_payoff(s, policy)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.unreachable == ("(G, q=2)", "(B, q=2)")


class TestExhaustivePartitionSearch:
    def test_paper_experiment_recovers_strong_signals(self, paper_setting):
        result = exhaustive_partition_search(paper_setting, n=4, grid=COARSE_GRID)
        direct = optimize_pexp(
            paper_setting, 4, (frozenset({1}), frozenset({4})), grid=COARSE_GRID
        )
        assert result.best_payoff >= direct.best_payoff - 1e-6

    def test_two_signal_enumeration(self):
        s = validate_setting(2, (0.7, 0.3), (0.3, 0.7), 1.0, -1.0, 0.01)
        assert sorted(legal_partitions(2)) == sorted(
            [(frozenset({1}), frozenset({2})), (frozenset({2}), frozenset({1}))]
        )
        result = exhaustive_partition_search(s, n=2, grid=COARSE_GRID)
        assert result.partition == (frozenset({1}), frozenset({2}))

    def test_trivial_setting_no_information(self, trivial_setting):
        result = exhaustive_partition_search(trivial_setting, n=1, grid=COARSE_GRID)
        bound = max(0.0, (trivial_setting.xG + trivial_setting.xB) / 2.0)
        assert result.best_payoff <= bound + 1e-9

    def test_too_many_signals(self):
        s = validate_setting(7, (1.0,) + (0.0,) * 6, (0.0,) * 6 + (1.0,), 1.0, -1.0, 0.01)
        with pytest.raises(TooManySignalsError):
            exhaustive_partition_search(s, n=1)


class TestRateSearch:
    def test_unit_rates_win_on_paper_experiment(self, paper_setting):
        from bounded_agents.optimize import optimize_rates

        best = optimize_rates(
            paper_setting, n=1, partition=(frozenset({1}), frozenset({4})),
            rate_grid=(0.5, 1.0), grid=COARSE_GRID,
        )
        # Full reaction rates dominate here; ties keep the high-rate corner.
        direct = optimize_pexp(
            paper_setting, 1, (frozenset({1}), frozenset({4})), grid=COARSE_GRID
        )
        assert best.result.best_payoff >= direct.best_payoff - 1e-12

    def test_bad_rate_grid(self, paper_setting):
        from bounded_agents.optimize import optimize_rates

        with pytest.raises(ValidationError):
            optimize_rates(paper_setting, n=1, rate_grid=(0.0, 1.0))


class TestLimitScheduleCurve:
    def schedule(self):
        return ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=(5, 10, 20, 40, 80))

    def test_golden_curve(self, paper_setting):
        curve = limit_schedule_curve(
            paper_setting, self.schedule(), (frozenset({1}), frozenset({4}))
        )
        golden = {
            5: 0.156867280925,
            10: 0.257041077679,
            20: 0.348115700686,
            40: 0.413544094862,
            80: 0.453612770489,
        }
        for pt in curve:
            assert pt.payoff == pytest.approx(golden[pt.n], abs=1e-9)
            assert pt.pi == pytest.approx(1.0 / pt.n**2, abs=0)
            assert pt.p_exp == pytest.approx(1.0 / pt.n, abs=0)

    def test_strictly_increasing_and_gap_halves(self, paper_setting):
        curve = limit_schedule_curve(
            paper_setting, self.schedule(), (frozenset({1}), frozenset({4}))
        )
        payoffs = [pt.payoff for pt in curve]
        assert all(a < b for a, b in zip(payoffs, payoffs[1:]))
        gap_first = 0.5 - payoffs[0]
        gap_last = 0.5 - payoffs[-1]
        assert gap_last <= gap_first / 2.0

    def test_never_exceeds_upper_bound(self, paper_setting):
        curve = limit_schedule_curve(
            paper_setting, self.schedule(), (frozenset({1}), frozenset({4}))
        )
        assert all(pt.payoff <= 0.5 + 1e-9 for pt in curve)

    def test_constant_pi_schedule_unrepresentable(self):
        # The hypothesis requires n*pi(n) -> 0; a = 0 encodes constant pi.
        with pytest.raises(ValidationError):
            ScheduleSpec(c1=0.001, a=0.0, c2=1.0, b=1.0, n_list=(5, 10))

    def test_schedule_ratio_check(self):
        # pi/pexp must strictly decrease; b > a makes it increase.
        with pytest.raises(ValidationError):
            ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=3.0, n_list=(5, 10, 20))

    def test_csv_columns(self, paper_setting):
        curve = limit_schedule_curve(
            paper_setting, self.schedule(), (frozenset({1}), frozenset({4}))
        )
        lines = curve_csv(curve).strip().splitlines()
        assert lines[0] == "n,pi,p_exp,payoff"
        assert len(lines) == 6


class TestBruteForce:
    def test_two_state_near_ladder_optimum(self, paper_setting):
        policy, value = brute_force_policy_search(paper_setting, num_states=2)
        ladder = optimize_pexp(paper_setting, n=1)
        assert value == pytest.approx(0.164112346, abs=1e-6)
        assert abs(value - ladder.best_payoff) <= 0.05
        # The returned policy reproduces its claimed value through the
        # ordinary exact evaluator.
        assert exact_average_payoff(paper_setting, policy) == pytest.approx(value, abs=1e-12)

    def test_trivial_setting_best_is_zero(self, trivial_setting):
        _, value = brute_force_policy_search(
            trivial_setting, num_states=2, prob_grid=(0.0, 0.5, 1.0)
        )
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_single_state_closed_form(self):
        s = validate_setting(2, (0.6, 0.4), (0.4, 0.6), 2.0, -1.0, 0.05)
        policy, value = brute_force_policy_search(s, num_states=1)
        # Only two one-state policies exist; always-risky earns (xG + xB) / 2.
        assert value == pytest.approx((s.xG + s.xB) / 2.0, abs=1e-12)
        assert policy.actions == (RISKY,)
        always_risky = dict_policy((RISKY,), {(0, s_): {0: 1.0} for s_ in (1, 2)}, 2)
        assert exact_average_payoff(s, always_risky) == pytest.approx(value, abs=1e-12)

    def test_returned_policy_is_well_formed(self, paper_setting):
        from bounded_agents.automaton import check_policy

        policy, _ = brute_force_policy_search(
            paper_setting, num_states=2, prob_grid=(0.0, 0.5, 1.0)
        )
        check_policy(policy, paper_setting.k)
        assert all(a in (SAFE, RISKY) for a in policy.actions)

    def test_candidate_rows_obey_the_distribution_rule(self, paper_setting):
        # 3 * 0.3333333333 is 1e-10 short of 1: within a loose filter, but
        # not a distribution, so no candidate may carry such a row.
        from bounded_agents.automaton import check_policy

        policy, value = brute_force_policy_search(
            paper_setting, 2, prob_grid=(0.0, 0.3333333333, 1.0)
        )
        check_policy(policy, paper_setting.k)
        assert exact_average_payoff(paper_setting, policy) == value

    @pytest.mark.parametrize("seed", range(3))
    def test_winner_agrees_with_exact_evaluator_on_random_settings(self, seed):
        # Second route: the batched evaluation inside the search must agree
        # with the one-at-a-time exact solver on the decoded winner.
        import random

        rng = random.Random(seed)
        raw = [rng.random() for _ in range(3)]
        pG = [round(p / sum(raw), 10) for p in raw]
        pG[-1] = 1.0 - sum(pG[:-1])
        raw = [rng.random() for _ in range(3)]
        pB = [round(p / sum(raw), 10) for p in raw]
        pB[-1] = 1.0 - sum(pB[:-1])
        setting = validate_setting(
            3, pG, pB, xG=rng.uniform(0.5, 2.0), xB=-rng.uniform(0.5, 2.0),
            pi=rng.uniform(0.001, 0.3),
        )
        policy, value = brute_force_policy_search(
            setting, num_states=2, prob_grid=(0.0, 0.5, 1.0)
        )
        assert exact_average_payoff(setting, policy) == pytest.approx(value, abs=1e-12)

    def test_grid_too_large(self, paper_setting):
        with pytest.raises(GridTooLargeError):
            brute_force_policy_search(paper_setting, num_states=3)

    def test_more_than_three_states_rejected(self, paper_setting):
        with pytest.raises(ValidationError):
            brute_force_policy_search(paper_setting, num_states=4)
