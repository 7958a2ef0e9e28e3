import dataclasses
import itertools
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from bounded_agents import markov_exact, optimize
from bounded_agents.automaton import (
    RISKY,
    SAFE,
    AFamilyParams,
    build_a_family,
)
from bounded_agents.dynamic_env import oracle_upper_bound, validate_setting
from bounded_agents.errors import (
    BadProbabilityError,
    GridTooLargeError,
    ReducibleChainError,
    SignalOutOfRangeError,
    TooManySignalsError,
    TrivialSettingError,
    ValidationError,
)
from bounded_agents.markov_exact import (
    build_joint_chain, evaluate_stack, evaluate_storage, exact_average_payoff, joint_reward,
    stationary,
)
from oracles import (
    dict_policy,
    dict_trace_partition_search,
    dict_trace_rate_search,
    dict_trace_search,
    every_candidate_brute_force,
    exact_average_payoff_fraction,
    per_ladder_partition_search,
    per_ladder_rate_search,
)
from bounded_agents.optimize import (
    DEFAULT_PEXP_GRID,
    ScheduleSpec,
    _gather,
    _joint_rows,
    _mirror_index,
    _mirror_rows,
    _row_options,
    brute_force_policy_search,
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

    def test_signal_that_never_occurs_wins_neither_side(self):
        # Signal 1 has pG = pB = 0: counted, its 0/0 ratio would tie every
        # comparison and keep index 1 on both sides.
        s = validate_setting(3, (0.0, 0.6, 0.4), (0.0, 0.3, 0.7), 1.0, -1.0, 0.01)
        assert default_partition(s) == (frozenset({2}), frozenset({3}))


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
        refined = optimize_pexp(paper_setting, n=4, grid=COARSE_GRID)
        coarse = max(
            exact_average_payoff(paper_setting, build_a_family(4, AFamilyParams(
                n=4, p_exp=p, pos=frozenset({1}), neg=frozenset({4}))))
            for p in COARSE_GRID
        )
        assert refined.best_payoff >= coarse

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

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, 0.0, 1.5, float("inf")])
    def test_bad_point_anywhere_rejected_before_any_solve(self, paper_setting, monkeypatch, bad):
        monkeypatch.setattr(optimize, "evaluate_stack", lambda *a: pytest.fail("solved"))
        with pytest.raises(BadProbabilityError,
                           match=r"^p_exp grid entry must be in \[2\.2250738585072014e-308, 1\]"):
            optimize_pexp(paper_setting, n=2, grid=(0.5, 0.25, bad, 0.75))

    def test_single_point_grid_refines_to_nothing(self, paper_setting):
        result = optimize_pexp(paper_setting, n=2, grid=(0.1,))
        assert result.best_pexp == 0.1 and len(result.grid_trace) == 1

    @pytest.mark.parametrize("partition,message", [
        ([[1]], "partition must have 2 entries, got 1"),
        ([[1], [4], [2]], "partition must have 2 entries, got 3"),
        ([1, 4], "pos must be a list, got 1"),
        (5, "partition must be a list, got 5"),
    ], ids=["one side", "three sides", "flat", "scalar"])
    def test_malformed_partition_is_named(self, paper_setting, partition, message):
        message = f"^{re.escape(message)}$"
        with pytest.raises(ValidationError, match=message):
            optimize_pexp(paper_setting, n=2, partition=partition, grid=(0.5,))
        schedule = ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=(5, 10))
        with pytest.raises(ValidationError, match=message):
            limit_schedule_curve(paper_setting, schedule, partition)

    def test_partition_sides_may_be_lists(self, paper_setting):
        as_lists = optimize_pexp(paper_setting, n=2, partition=[[1, 2], [4]], grid=(0.5, 0.1))
        as_sets = optimize_pexp(paper_setting, n=2, partition=(frozenset({1, 2}), frozenset({4})),
                                grid=(0.5, 0.1))
        assert as_lists == as_sets

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

    def test_band_builds_do_not_grow_with_the_ladders(self, paper_setting, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[1].shape[0])
            return markov_exact.agent_step_matrix(*args)

        monkeypatch.setattr(optimize, "agent_step_matrix", counting)
        optimize_pexp(paper_setting, n=4)
        optimize.optimize_rates(paper_setting, n=2, rate_grid=(0.5, 1.0), grid=COARSE_GRID)
        exhaustive_partition_search(paper_setting, n=2, grid=COARSE_GRID)
        # One build in G and one in B per search, of all its 1, 4 and 50 ladders.
        assert calls == [1, 1, 4, 4, 50, 50]

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

    def test_one_signal_has_no_partition(self):
        s = validate_setting(1, (1.0,), (1.0,), 1.0, -1.0, 0.01)
        with pytest.raises(ValidationError, match=r"^partition search needs k >= 2 .*got k=1$"):
            exhaustive_partition_search(s, n=1)

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

    def test_empty_rate_grid_is_named(self, paper_setting):
        with pytest.raises(ValidationError, match=r"^rate_grid must be nonempty$"):
            optimize.optimize_rates(paper_setting, n=1, rate_grid=())


def policy_search_setting(seed, k=4):
    """A k-signal setting drawn as the policy_search benchmark draws its
    four-signal one: every signal at least 0.05 / (k + 0.2) likely, pi in
    [1e-3, 1e-2]."""
    rng = random.Random(seed)

    def signals():
        w = [0.05 + rng.random() for _ in range(k)]
        head = [x / sum(w) for x in w[:-1]]
        return head + [1.0 - sum(head)]

    pG, pB = signals(), signals()
    pi = 10.0 ** rng.uniform(-3.0, -2.0)
    return validate_setting(k, pG, pB, rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0), pi)


SEARCH_SETTINGS = {
    "paper": lambda: validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4),
                                      1.0, -1.0, 0.001),
    "k2": lambda: validate_setting(2, (0.7, 0.3), (0.3, 0.7), 1.0, -1.0, 0.01),
    "k3": lambda: validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.5, -1.0, 0.005),
    **{f"draw{seed}": (lambda seed=seed: policy_search_setting(seed)) for seed in range(3)},
}


def result_bits(result):
    """Every float of an OptResult or RateSearchResult, in order, as int64 bits."""
    if isinstance(result, optimize.RateSearchResult):
        return [*np.array([result.r_u, result.r_d]).view(np.int64).tolist(),
                *result_bits(result.result)]
    floats = [result.best_pexp, result.best_payoff, *itertools.chain(*result.grid_trace)]
    return np.array(floats).view(np.int64).tolist()


def assert_same_search(found, oracle):
    assert found == oracle
    assert result_bits(found) == result_bits(oracle)


PAPER_PARTITION = (frozenset({1}), frozenset({4}))

# Two grid points a subnormal step apart: at n = 2 on the paper setting, 26
# partitions find their best at the first and refine over a step that rounds
# to 0, and 24 at 0.5, over a normal one.
TINY_STEP_GRID = (2.2250738585072014e-308, 2.225073858507202e-308, 0.5)


class TestStackedSearches:
    """The partition and rate searches solve all their ladders in one search,
    which builds every ladder's bands in one step and keeps its traces as
    arrays. Each must return what one optimize_pexp call per ladder returns,
    and what the dict-trace search (one policy per ladder) returns, float
    bits and trace order included."""

    @pytest.mark.parametrize("name", SEARCH_SETTINGS)
    def test_partition_search_matches_per_ladder_oracle(self, name):
        s = SEARCH_SETTINGS[name]()
        found = exhaustive_partition_search(s, 4)
        assert found == per_ladder_partition_search(s, 4)
        assert_same_search(found, dict_trace_partition_search(s, 4))

    @pytest.mark.parametrize("name", SEARCH_SETTINGS)
    def test_rate_search_matches_per_ladder_oracle(self, name):
        s = SEARCH_SETTINGS[name]()
        found = optimize.optimize_rates(s, 4)
        assert found == per_ladder_rate_search(s, 4)
        assert_same_search(found, dict_trace_rate_search(s, 4))

    @pytest.mark.parametrize("k", [5, 6])
    def test_many_signals_match_the_dict_trace_search(self, k):
        s = policy_search_setting(k, k)
        assert_same_search(exhaustive_partition_search(s, 2, grid=COARSE_GRID),
                           dict_trace_partition_search(s, 2, grid=COARSE_GRID))
        assert_same_search(optimize.optimize_rates(s, 2, grid=COARSE_GRID),
                           dict_trace_rate_search(s, 2, grid=COARSE_GRID))

    def test_non_unit_rates_match_the_dict_trace_search(self, paper_setting):
        s = paper_setting
        assert_same_search(exhaustive_partition_search(s, 3, r_u=0.4, r_d=0.7),
                           dict_trace_partition_search(s, 3, r_u=0.4, r_d=0.7))
        sides = (frozenset({1, 2}), frozenset({4}))
        assert_same_search(optimize_pexp(s, 3, sides, r_u=0.4, r_d=0.7),
                           dict_trace_search(s, 3, [(*sides, 0.4, 0.7)])[0])
        rate_grid = (0.3, 0.45, 1.0)
        assert_same_search(optimize.optimize_rates(s, 3, sides, rate_grid),
                           dict_trace_rate_search(s, 3, sides, rate_grid))

    @pytest.mark.parametrize("grid", [(0.1,), (0.01, 0.01, 0.2), TINY_STEP_GRID],
                             ids=["single point", "repeated point", "subnormal step"])
    def test_small_grids_match_the_dict_trace_search(self, paper_setting, grid):
        s = paper_setting
        assert_same_search(exhaustive_partition_search(s, 2, grid=grid),
                           dict_trace_partition_search(s, 2, grid=grid))
        assert_same_search(optimize.optimize_rates(s, 2, grid=grid),
                           dict_trace_rate_search(s, 2, grid=grid))
        assert_same_search(optimize_pexp(s, 2, grid=grid),
                           dict_trace_rate_search(s, 2, rate_grid=(1.0,), grid=grid).result)

    def test_chunks_that_cut_across_ladders(self, monkeypatch):
        s = policy_search_setting(0)
        whole = exhaustive_partition_search(s, 4), optimize.optimize_rates(s, 4)
        # 7 divides neither a ladder's 40 grid points nor its refinements.
        monkeypatch.setattr(optimize, "stack_len", lambda rows, cols: 7)
        cut = exhaustive_partition_search(s, 4), optimize.optimize_rates(s, 4)
        assert cut == whole
        assert cut == (per_ladder_partition_search(s, 4), per_ladder_rate_search(s, 4))
        assert_same_search(cut[0], dict_trace_partition_search(s, 4))
        assert_same_search(cut[1], dict_trace_rate_search(s, 4))

    def test_one_stack_per_round(self, paper_setting, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(len(args[0]))
            return evaluate_stack(*args)

        monkeypatch.setattr(optimize, "evaluate_stack", counting)
        exhaustive_partition_search(paper_setting, 4)
        # The grid, then two refinement rounds, each for all 50 partitions.
        assert len(calls) == 3
        assert calls[0] == 50 * len(DEFAULT_PEXP_GRID)

    def test_failing_ladder_raises_the_per_ladder_error(self):
        # Signal 1 never occurs, so a ladder that climbs only on it is reducible.
        s = validate_setting(4, (0.0, 0.5, 0.3, 0.2), (0.0, 0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
        for search, oracles, sides in (
                (exhaustive_partition_search,
                 (per_ladder_partition_search, dict_trace_partition_search), {}),
                (optimize.optimize_rates, (per_ladder_rate_search, dict_trace_rate_search),
                 {"partition": PAPER_PARTITION})):
            with pytest.raises(ReducibleChainError) as stacked:
                search(s, 2, grid=COARSE_GRID, **sides)
            for oracle in oracles:
                with pytest.raises(ReducibleChainError) as expected:
                    oracle(s, 2, grid=COARSE_GRID, **sides)
                assert str(stacked.value) == str(expected.value)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda s: optimize_pexp(s, 2, ([5], [1])), SignalOutOfRangeError,
                 "pos entry must be in [1, 4], got 5", id="pexp-side-range"),
    pytest.param(lambda s: optimize.optimize_rates(s, 2, ([5], [1])), SignalOutOfRangeError,
                 "pos entry must be in [1, 4], got 5", id="rates-side-range"),
    pytest.param(lambda s: optimize_pexp(s, 2, ([1, 2], [2, 3])), ValidationError,
                 "pos and neg overlap: [2]", id="pexp-overlap"),
    pytest.param(lambda s: optimize.optimize_rates(s, 2, ([1, 2], [2, 3])), ValidationError,
                 "pos and neg overlap: [2]", id="rates-overlap"),
    pytest.param(lambda s: optimize_pexp(s, 2, ([1], [])), ValidationError,
                 "pos and neg must both be nonempty", id="pexp-empty"),
    pytest.param(lambda s: optimize.optimize_rates(s, 2, ([], [4])), ValidationError,
                 "pos and neg must both be nonempty", id="rates-empty"),
    pytest.param(lambda s: optimize_pexp(s, 2, PAPER_PARTITION, r_u=0), BadProbabilityError,
                 "r_u must be in [2.2250738585072014e-308, 1], got 0", id="pexp-r_u"),
    pytest.param(lambda s: exhaustive_partition_search(s, 2, r_u=0), BadProbabilityError,
                 "r_u must be in [2.2250738585072014e-308, 1], got 0", id="partition-r_u"),
    pytest.param(lambda s: optimize_pexp(s, 2, PAPER_PARTITION, r_d=2), BadProbabilityError,
                 "r_d must be in [2.2250738585072014e-308, 1], got 2", id="pexp-r_d"),
    pytest.param(lambda s: exhaustive_partition_search(s, 2, r_d=2), BadProbabilityError,
                 "r_d must be in [2.2250738585072014e-308, 1], got 2", id="partition-r_d"),
    pytest.param(lambda s: optimize_pexp(s, 2, ([True], [4])), ValidationError,
                 "pos entry must be an integer, got True", id="pexp-bool"),
    pytest.param(lambda s: optimize.optimize_rates(s, 2, ([True], [4])), ValidationError,
                 "pos entry must be an integer, got True", id="rates-bool"),
    pytest.param(lambda s: exhaustive_partition_search(s, 5000), ValidationError,
                 "n must be in [1, 2000], got 5000", id="partition-n"),
    pytest.param(lambda s: optimize.optimize_rates(s, 5000), ValidationError,
                 "n must be in [1, 4000], got 5000", id="rates-n"),
    pytest.param(lambda s: optimize_pexp(s, 100_001), ValidationError,
                 "n must be in [1, 100000], got 100001", id="pexp-n"),
])
def test_search_refusals(paper_setting, monkeypatch, call, error, message):
    monkeypatch.setattr(optimize, "evaluate_stack", lambda *a: pytest.fail("solved"))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call(paper_setting)
    assert type(raised.value) is error


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

    def test_gap_shrinks_far_past_dense_reach(self, paper_setting):
        # At n = 10^4 the chain has dimension 20,002: a dense P would take
        # 3.2 GB, and the band takes about 1 MB.
        partition = (frozenset({1}), frozenset({4}))
        schedule = ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0,
                                n_list=(2, 4, 8, 100, 1000, 10_000))
        tracemalloc.start()
        try:
            curve = limit_schedule_curve(paper_setting, schedule, partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        gaps = [oracle_upper_bound(paper_setting) - pt.payoff for pt in curve]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
        for pt in curve[:3]:
            s = paper_setting
            setting = validate_setting(s.k, s.pG, s.pB, s.xG, s.xB, pt.pi)
            policy = build_a_family(s.k, AFamilyParams(n=pt.n, p_exp=pt.p_exp, pos=partition[0],
                                                       neg=partition[1]))
            exact = float(exact_average_payoff_fraction(setting, policy))
            assert pt.payoff == pytest.approx(exact, rel=1e-12, abs=0.0)

    # Stacks of the default size hold the whole curve; stacks of 3,024 bytes
    # hold (1, 2, 3, 4), (8), (100) and (1000).
    @pytest.mark.parametrize("stack_bytes, stacks", [
        (markov_exact.STACK_BYTES, [[1000, 100, 8, 4, 3, 2, 1]]),
        (3024, [[4, 3, 2, 1], [8], [100], [1000]]),
    ])
    def test_points_match_single_chains(self, paper_setting, monkeypatch, stack_bytes, stacks):
        # Alone, ladders of n <= 2 are whole rows and longer ones bands of
        # half-width 3; in a stack they share the band.
        partition = (frozenset({1}), frozenset({4}))
        schedule = ScheduleSpec(c1=0.4, a=2.0, c2=1.0, b=1.0, n_list=(1, 2, 3, 4, 8, 100, 1000))
        single = {}
        for n in schedule.n_list:
            s = paper_setting
            setting = validate_setting(s.k, s.pG, s.pB, s.xG, s.xB, schedule.pi_of_n(n))
            policy = build_a_family(s.k, AFamilyParams(n=n, p_exp=schedule.pexp_of_n(n),
                                                       pos=partition[0], neg=partition[1]))
            dist = stationary(build_joint_chain(setting, policy))
            single[n] = (dist.payoff, dist.residual)
        events, stacked = [], {}

        def building(k, params):
            events.append(params.n)
            return build_a_family(k, params)

        def solving(S, w, rewards):
            ev = evaluate_storage(S, w, rewards)
            ns = [len(reward) // 2 - 1 for _, reward in rewards]
            events.append(ns)
            stacked.update(zip(ns, zip(ev.payoff.tolist(), ev.residual.tolist())))
            return ev

        monkeypatch.setattr(markov_exact, "STACK_BYTES", stack_bytes)
        monkeypatch.setattr(optimize, "build_a_family", building)
        monkeypatch.setattr(optimize, "evaluate_storage", solving)
        curve = limit_schedule_curve(paper_setting, schedule, partition)
        assert stacked == single
        assert [pt.payoff for pt in curve] == [single[n][0] for n in schedule.n_list]
        # Each stack's ladders are built just before it is solved.
        assert events == [x for ns in stacks for x in (*ns[::-1], ns)]

    @pytest.mark.parametrize("stack_bytes", [markov_exact.STACK_BYTES, 1])
    def test_first_failing_point_raises(self, monkeypatch, stack_bytes):
        # Signal 1 never occurs, so a ladder that climbs only on it is
        # reducible at every n; the error names the first point's cut-off rungs.
        s = validate_setting(4, (0.0, 0.5, 0.3, 0.2), (0.0, 0.2, 0.3, 0.5), 1.0, -1.0, 0.01)
        schedule = ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=(3, 5, 9))
        partition = (frozenset({1}), frozenset({4}))
        first = build_a_family(4, AFamilyParams(n=3, p_exp=schedule.pexp_of_n(3),
                                                pos=partition[0], neg=partition[1]))
        at_first = validate_setting(s.k, s.pG, s.pB, s.xG, s.xB, schedule.pi_of_n(3))
        with pytest.raises(ReducibleChainError) as single:
            exact_average_payoff(at_first, first)
        monkeypatch.setattr(markov_exact, "STACK_BYTES", stack_bytes)
        with pytest.raises(ReducibleChainError) as curve:
            limit_schedule_curve(s, schedule, partition)
        assert str(curve.value) == str(single.value)

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

    @pytest.mark.parametrize("n_list, bad", [
        ((5.7, 10, 20), "an integer, got 5.7"), ((5, 10, "20"), "an integer, got '20'"),
        ((5, 10.0), "an integer, got 10.0"), ((True, 5), "an integer, got True"),
        ((0, 10), "in [1, 100000], got 0"), ((-3, 10), "in [1, 100000], got -3"),
    ])
    def test_schedule_points_must_be_positive_integers(self, n_list, bad):
        # A point is an a-family ladder length, so it is never rounded to one.
        with pytest.raises(ValidationError, match=f"^{re.escape(f'n_list entry must be {bad}')}$"):
            ScheduleSpec(c1=1.0, a=2.0, c2=1.0, b=1.0, n_list=n_list)

    @pytest.mark.parametrize("a, b", [(400.0, 1.0), (2.0, 400.0)])
    def test_schedule_past_the_float_range_is_refused(self, a, b):
        with pytest.raises(ValidationError, match=r"^n\*\*a or n\*\*b on n_list exceeds"):
            ScheduleSpec(c1=1.0, a=a, c2=1.0, b=b, n_list=(5, 10))

    @pytest.mark.parametrize("a, b", [(2**24, 1), (2, 2**24)])
    def test_integer_exponent_is_refused_at_once(self, a, b):
        # Integer exponents are taken as floats, so n**a overflows at once
        # instead of running a big-integer power first.
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^n\*\*a or n\*\*b on n_list exceeds"):
            ScheduleSpec(c1=1.0, a=a, c2=1.0, b=b, n_list=(5, 10))
        assert time.perf_counter() - start < 0.5


class TestBruteForce:
    def test_two_state_near_ladder_optimum(self, paper_setting):
        policy, value = brute_force_policy_search(paper_setting, num_states=2)
        ladder = optimize_pexp(paper_setting, n=1)
        assert value == pytest.approx(0.164112346, abs=1e-6)
        assert abs(value - ladder.best_payoff) <= 0.05
        # The returned policy reproduces its claimed value through the
        # ordinary exact evaluator.
        assert exact_average_payoff(paper_setting, policy) == pytest.approx(value, abs=1e-12)

    def test_stack_size_never_changes_bits(self, paper_setting, monkeypatch):
        # The default, the former 8 MB, and stacks of 24 (4, 4) chains, which
        # split every labeling (the smallest, two Safe states, has 25).
        found = []
        for stack_bytes in (markov_exact.STACK_BYTES, 8 << 20, 24 * 8 * 4 * 4):
            monkeypatch.setattr(markov_exact, "STACK_BYTES", stack_bytes)
            found.append(brute_force_policy_search(paper_setting, num_states=2))
        for policy, value in found[1:]:
            assert value == found[0][1] and policy.actions == found[0][0].actions
            assert np.array_equal(policy.next_state, found[0][0].next_state)
            assert np.array_equal(policy.prob, found[0][0].prob)

    def test_two_state_winner_bits(self, paper_setting):
        policy, value = brute_force_policy_search(paper_setting, num_states=2)
        # Frozen: the winner's bits do not depend on how candidates are assembled.
        assert value == 0.1641123462474513
        assert policy.actions == (SAFE, RISKY) and policy.initial_state == 0
        assert policy.prob.tolist() == [[[0.75, 0.25]] * 4, [[0.0, 1.0]] * 3 + [[1.0, 0.0]]]
        assert policy.next_state.tolist() == [[[0, 1]] * 4] * 2

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

    def test_every_candidate_failing_is_refused(self, paper_setting, monkeypatch):
        def failing(*args):
            ev = evaluate_storage(*args)
            return dataclasses.replace(ev, ok=np.zeros_like(ev.ok))

        monkeypatch.setattr(optimize, "evaluate_storage", failing)
        with pytest.raises(ReducibleChainError, match="^every enumerated candidate was "
                           "reducible or failed the stationary checks$"):
            brute_force_policy_search(paper_setting, num_states=1)

    def test_grid_too_large(self, paper_setting):
        with pytest.raises(GridTooLargeError):
            brute_force_policy_search(paper_setting, num_states=3)

    @pytest.mark.parametrize("prob_grid", [(), (0.5,), (0.0, 0.75)])
    def test_grid_without_a_distribution_row_is_named(self, paper_setting, prob_grid):
        message = r"^prob_grid \[.*\] has no three weights that sum to 1$"
        with pytest.raises(ValidationError, match=message):
            brute_force_policy_search(paper_setting, num_states=2, prob_grid=prob_grid)

    def test_more_than_three_states_rejected(self, paper_setting):
        with pytest.raises(ValidationError):
            brute_force_policy_search(paper_setting, num_states=4)


# A grid of three weights that sum to 1 + PROB_SUM_TOL in one order and
# just past it in another (see test_rows_whose_reverse_is_refused_leave_no_pairs).
UNMIRRORED_GRID = (0.3385953360776327, 0.26014172899029037, 0.40126293493307685)


def paper_signals_at(pi, xG=1.0, xB=-1.0):
    return validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), xG, xB, pi)


def solved_chains(monkeypatch, setting):
    """How many chains one m = 2 brute-force call on ``setting`` solves."""
    chains = []

    def counting(S, w, rewards):
        chains.append(S.shape[2])
        return evaluate_storage(S, w, rewards)

    monkeypatch.setattr(optimize, "evaluate_storage", counting)
    brute_force_policy_search(setting, 2)
    return sum(chains)


class TestMirrorPairs:
    """Brute force solves one candidate of each mirror-image pair, then the
    mirrors that could win; it must return what solving every candidate does."""

    # Draw 0 is a case where a representative's mirror wins (see
    # test_rule_breaks_without_the_slack_or_the_mirrors); all-Risky wins at
    # draws 11 and 35, and a mixed labeling beats it by 1.8e-3 at draw 15; at
    # pi = 1e-300 and the smallest normal pi every candidate is solved.
    @pytest.mark.parametrize("name, m, grid", [
        *[(f"draw{seed}", 1, None) for seed in range(4)],
        *[(f"draw{seed}", 2, None) for seed in (0, 1, 2, 35)],
        ("k2", 3, (0.0, 0.5, 1.0)),
        ("k3", 3, (0.0, 0.5, 1.0)),
        ("k3", 3, UNMIRRORED_GRID),
        ("paper", 2, None),
        ("pi=2.2250738585072014e-308", 2, None),
        ("pi=1e-300", 2, None),
        *[(f"draw{seed}", 2, None) for seed in (11, 15)],
    ])
    def test_winner_is_the_every_candidate_winner(self, name, m, grid):
        if name.startswith("draw"):
            setting = policy_search_setting(int(name[4:]))
        elif name.startswith("pi="):
            setting = paper_signals_at(float(name[3:]))
        else:
            setting = SEARCH_SETTINGS[name]()
        grid = {} if grid is None else {"prob_grid": grid}
        policy, value = brute_force_policy_search(setting, m, **grid)
        want, want_value = every_candidate_brute_force(setting, m, **grid)
        assert value == want_value and policy.actions == want.actions
        assert np.array_equal(policy.prob, want.prob)
        assert np.array_equal(policy.next_state, want.next_state)

    def test_rows_whose_reverse_is_refused_leave_no_pairs(self):
        # Summed left to right, the middle state's row (z, x, y) of this grid
        # is within PROB_SUM_TOL of 1 and its reverse (y, x, z) is not, so
        # some candidates have no mirror and every candidate is solved.
        options = [_row_options(q, 3, UNMIRRORED_GRID) for q in range(3)]
        assert [len(rows) for rows in options] == [1, 2, 1]
        assert _mirror_rows(options) is None

    @pytest.mark.parametrize("pi, solved", [(0.001, 3_140), (1e-300, 396_900),
                                            (2.2250738585072014e-308, 396_900)])
    def test_one_candidate_of_each_pair_is_solved(self, monkeypatch, pi, solved):
        # 396,900 candidates at m = 2, 390,625 of them all-Risky. At pi = 0.001
        # all-Risky's payoff 0 is below the best, so it is skipped, and of the
        # other 6,275 one of each pair is solved, 3,140, and a mirror after. At
        # pi = 1e-300 and the smallest normal pi the joint entries are below
        # the normal floor (subnormal at the latter), so every one is solved.
        assert solved <= solved_chains(monkeypatch, paper_signals_at(pi)) <= solved + 10

    def test_all_risky_is_solved_whole_when_it_could_win(self, monkeypatch):
        # With xG = 2 and xB = -0.5 all-Risky earns 0.75, above every other
        # labeling's best so far: its 390,625 candidates are solved with the
        # 3,140 representatives of the rest.
        setting = paper_signals_at(0.001, xG=2.0, xB=-0.5)
        assert solved_chains(monkeypatch, setting) == 393_765

    @pytest.mark.parametrize("name", ["paper", "draw0"])
    def test_all_risky_floats_are_within_the_slack_of_their_payoff(self, name):
        # The premise of skipping all-Risky: nature spends half of any
        # irreducible chain's long run in G, so every ok candidate's float is
        # within MIRROR_SLACK * (xG - xB) / 2 of (xG + xB) / 2.
        setting = SEARCH_SETTINGS[name]()
        options = [_row_options(q, 2, (0.0, 0.25, 0.5, 0.75, 1.0)) for q in range(2)]
        rows, w = _joint_rows(options, (RISKY, RISKY), np.array(setting.pG),
                              np.array(setting.pB), setting.pi)
        assert min(r[r > 0.0].min() for r in rows) >= 2.0 ** (-1022 / 8)
        reward = joint_reward(setting, (RISKY, RISKY))
        ok, chunk = 0, markov_exact.stack_len(4, 4)
        for lo in range(0, 390_625, chunk):
            index = np.arange(lo, min(lo + chunk, 390_625))
            ev = evaluate_storage(_gather(rows, index), w, [(len(index), reward)])
            gap = np.abs(ev.payoff[ev.ok] - (setting.xG + setting.xB) / 2)
            assert gap.max(initial=0.0) <= optimize.MIRROR_SLACK * (setting.xG - setting.xB) / 2
            ok += int(ev.ok.sum())
        assert ok > 0

    def test_skipping_all_risky_always_changes_the_winner_at_draw_35(self, monkeypatch):
        # All-Risky wins at draw 35, so a rule that skipped it whatever the
        # best returns another labeling's candidate, below the winner.
        setting = policy_search_setting(35)
        policy, value = brute_force_policy_search(setting, 2)
        all_risky = joint_reward(setting, (RISKY, RISKY))

        def skipping(S, w, rewards):
            ev = evaluate_storage(S, w, rewards)
            if np.array_equal(rewards[0][1], all_risky):
                return dataclasses.replace(ev, ok=np.zeros_like(ev.ok))
            return ev

        monkeypatch.setattr(optimize, "evaluate_storage", skipping)
        mutant, mutant_value = brute_force_policy_search(setting, 2)
        assert policy.actions == (RISKY, RISKY) and mutant.actions != (RISKY, RISKY)
        assert mutant_value < value

    def test_each_pass_assembles_a_labeling_once(self, monkeypatch, paper_setting):
        # The representative pass and the mirror pass each build a labeling's
        # joint rows once and solve all its stacks from them; a rebuild for
        # each of the 24 stacks of all-Risky, solved whole at draw 35, would
        # show here.
        for setting in (paper_setting, policy_search_setting(35)):
            built = []

            def counting(options, acts, *args):
                built.append(acts)
                return _joint_rows(options, acts, *args)

            monkeypatch.setattr(optimize, "_joint_rows", counting)
            brute_force_policy_search(setting, 2)
            assert built and max(map(built.count, built)) <= 2

    @pytest.mark.parametrize("m, grid", [(2, (0.0, 0.25, 0.5, 0.75, 1.0)), (3, (0.0, 0.5, 1.0))])
    def test_mirror_storage_is_the_candidate_storage_permuted(self, paper_setting, m, grid):
        rng = np.random.default_rng(m)
        options = [_row_options(q, m, grid) for q in range(m)]
        perm = _mirror_rows(options)
        pG, pB = np.array(paper_setting.pG), np.array(paper_setting.pB)
        # (q, theta) -> (m - 1 - q, theta), interleaved and nature-major.
        flip = np.arange(2 * m).reshape(m, 2)[::-1].ravel()
        flip_nature = np.arange(2 * m).reshape(2, m)[:, ::-1].ravel()
        for acts in itertools.product((SAFE, RISKY), repeat=m):
            rows, _ = _joint_rows(options, acts, pG, pB, paper_setting.pi)
            mirror_rows, _ = _joint_rows(options, acts[::-1], pG, pB, paper_setting.pi)
            lead, trail = _mirror_index(perm, acts, paper_setting.k)
            count = len(lead) * len(trail)
            index = (np.arange(count) if count <= 2100 else
                     np.concatenate([np.arange(700), np.arange(count - 700, count),
                                     rng.integers(0, count, 700)]))
            image = lead[index // len(trail)] + trail[index % len(trail)]
            S = _gather(rows, index)
            assert np.array_equal(_gather(mirror_rows, image), S[flip][:, flip])
            assert np.array_equal(joint_reward(paper_setting, acts[::-1]),
                                  joint_reward(paper_setting, acts)[flip_nature])
            # Mirroring twice is the identity, and at m = 2 every index is
            # the mirror of one.
            back, forth = _mirror_index(perm, acts[::-1], paper_setting.k)
            assert np.array_equal(back[image // len(forth)] + forth[image % len(forth)], index)
            if m == 2:
                assert np.array_equal(np.sort(lead[:, None] + trail, axis=None),
                                      np.arange(count))

    @pytest.mark.parametrize("seed, mirrors", [(0, False)])
    def test_rule_breaks_without_the_slack_or_the_mirrors(self, monkeypatch, seed, mirrors):
        # With no slack, only the best representative's mirror is solved; with
        # no mirror pass, none is. The mutant returns a representative whose
        # float is below the winner's mirror's. No setting is known where the
        # slack alone matters: the one found, draw 35, was all-Risky's window,
        # and all-Risky is no longer paired.
        setting = policy_search_setting(seed)
        _, value = brute_force_policy_search(setting, 2)
        monkeypatch.setattr(optimize, "MIRROR_SLACK", 0.0)
        if not mirrors:
            monkeypatch.setattr(optimize, "_mirror_images", lambda window, top: {})
        _, mutant = brute_force_policy_search(setting, 2)
        assert mutant < value

    @pytest.mark.parametrize("name", ["paper", "draw0"])
    def test_window_reach_is_the_float_plus_the_slack(self, monkeypatch, name):
        # Each representative kept in the mirror window reaches its own float
        # plus MIRROR_SLACK * sum_i |mu_i r_i|, or any float (inf) if it failed
        # a numeric check without a cut-off state. A reach that drops the
        # slack term, or any part of it, fails here.
        setting = SEARCH_SETTINGS[name]()
        windows = []

        def capturing(window, top, images=optimize._mirror_images):
            windows.append(window)
            return images(window, top)

        monkeypatch.setattr(optimize, "_mirror_images", capturing)
        brute_force_policy_search(setting, 2)
        options = [_row_options(q, 2, (0.0, 0.25, 0.5, 0.75, 1.0)) for q in range(2)]
        pG, pB = np.array(setting.pG), np.array(setting.pB)
        checked = 0
        for acts, _, index, reach in windows[0]:
            rows, w = _joint_rows(options, acts, pG, pB, setting.pi)
            reward = joint_reward(setting, acts)
            ev = evaluate_storage(_gather(rows, index), w, [(len(index), reward)])
            # The reward of each state in the interleaved order of the columns.
            weights = np.abs(reward.reshape(2, 2).T.ravel())[:, None]
            slack = optimize.MIRROR_SLACK * (ev.columns * weights).sum(axis=0)
            assert np.isinf(reach[~ev.ok]).all()
            np.testing.assert_allclose(reach[ev.ok] - ev.payoff[ev.ok], slack[ev.ok], rtol=1e-5)
            checked += int((slack[ev.ok] > 0.0).sum())
        # An all-Safe representative earns 0 whatever its mu, with no slack.
        assert checked > 0

    def test_mirror_slack_is_twice_the_gap_bound_with_room(self):
        # The count in MIRROR_SLACK's comment, for whole rows of d <= 6
        # states: n of each divided column, back-substituted x[k] and mu.
        u = 2.0 ** -53
        for d in (2, 4, 6):
            E, column = 0, {}
            for k in range(d - 1, 0, -1):
                column[k] = 2 * E + k
                E = 3 * E + k + 2
            x = [0]
            for k in range(1, d):
                x.append(max(x) + column[k] + k)
            mu = max(x) + (max(x) + d - 1) + 1
            gap = 2 * (mu + d) * u  # times sum_i |mu_i r_i|
            assert 1300 * 2 * gap <= optimize.MIRROR_SLACK
        assert (column[1], x[-1], mu) == (525, 794, 1594)

    def test_peak_memory_of_a_call(self):
        # Stacks are gathered from per-state rows and representatives are
        # filtered over blocks of leading digits: no array is as long as a
        # labeling (390,625 candidates at m = 2), which alone would be 3 MB.
        # At draw 35 all-Risky is solved whole, with no mirror window.
        for seed in (0, 35):
            setting = policy_search_setting(seed)
            brute_force_policy_search(setting, 2)
            tracemalloc.start()
            try:
                brute_force_policy_search(setting, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 << 20
