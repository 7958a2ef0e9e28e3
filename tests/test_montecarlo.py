import math
import tracemalloc

import numpy as np
import pytest

from bounded_agents import montecarlo
from bounded_agents.automaton import RISKY, SAFE, AFamilyParams, build_a_family
from bounded_agents.dynamic_env import validate_setting
from bounded_agents.errors import ValidationError
from bounded_agents.markov_exact import exact_average_payoff
from bounded_agents.montecarlo import (
    SLAB,
    STRIDE_ENTRIES,
    SimConfig,
    compare_exact_mc,
    run_seed_sweep,
    simulate_run,
    uniform_stream,
)
from bounded_agents.optimize import brute_force_policy_search
from oracles import dense_policy, dict_policy, scalar_simulate_run, two_safe_states_policy

PG, PB = (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)


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

    @pytest.mark.parametrize("field,value", [
        ("rounds", 1000.0), ("rounds", True), ("seed", 1.5), ("seed", "7"),
        ("burn_in", 10.0), ("batches", 4.0), ("batches", None),
    ])
    def test_non_integer_field_is_named(self, field, value):
        fields = {"rounds": 1000, "seed": 1, "burn_in": 10, "batches": 4, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SimConfig(**fields)

    def test_numpy_integers_are_integers(self):
        config = SimConfig(rounds=np.int64(1000), seed=np.uint64(2**63), batches=np.int32(4))
        assert config.burn_in == 10


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


def _ladder_case(n, pi):
    return (validate_setting(4, PG, PB, 1.0, -1.0, pi),
            build_a_family(4, AFamilyParams(n=n, p_exp=0.0273668, pos=frozenset({1}),
                                            neg=frozenset({4}))))


def _brute_force_case():
    setting = validate_setting(2, (0.7, 0.3), (0.2, 0.8), 1.0, -1.0, 0.05)
    return setting, brute_force_policy_search(setting, 2, prob_grid=(0.0, 0.5, 1.0))[0]


def _hand_written_case():
    # Three-entry rows with distinct probabilities give 15 distinct cumulative
    # sums below 1 (E = 16 > TABLE_FACTOR * 3), so the walk bisects its rows;
    # each Risky state's rows differ by signal.
    setting = validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.5, -1.0, 0.01)
    policy = dict_policy((RISKY, SAFE, RISKY, SAFE), {
        (0, 1): {0: 0.15, 1: 0.35, 2: 0.5},
        (0, 2): {1: 0.05, 2: 0.6, 3: 0.35},
        (0, 3): {0: 0.7, 2: 0.1, 3: 0.2},
        (1, None): {0: 0.45, 2: 0.25, 3: 0.3},
        (2, 1): {1: 0.55, 2: 0.15, 3: 0.3},
        (2, 2): {0: 0.4, 1: 0.35, 3: 0.25},
        (2, 3): {0: 0.2, 1: 0.65, 2: 0.15},
        (3, None): {1: 0.8, 2: 0.12, 3: 0.08},
    }, 3, initial_state=1)
    assert montecarlo._compiled_tables(setting, policy)[2] is None
    return setting, policy


ORACLE_CASES = {
    **{f"ladder n={n} pi={pi}": (lambda n=n, pi=pi: _ladder_case(n, pi))
       for n in (1, 4, 30) for pi in (1e-3, 0.5)},
    "brute-force winner": _brute_force_case,
    # E = 12 <= TABLE_FACTOR * 4: the longest cuts that still take the table.
    "two Safe states": lambda: (
        validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 2.0, -1.0, 0.02),
        two_safe_states_policy(initial_state=3)),
    "hand-written, long cuts": _hand_written_case,
    "dense, 12 states": lambda: (
        validate_setting(3, (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 1.5, -1.0, 0.05),
        dense_policy(12, 3, seed=7)),
    # m * K**2 = 2,001 * 36 > STRIDE_ENTRIES: the walk steps one round at a time.
    "ladder n=2000, one round per step": lambda: _ladder_case(2_000, 1e-3),
    # Every event stays put (K = 1), so B stops at the cap on the table's size.
    "one state, one class": lambda: (
        validate_setting(2, (0.7, 0.3), (0.2, 0.8), 1.0, -1.0, 0.05),
        dict_policy((RISKY,), {(0, 1): {0: 1.0}, (0, 2): {0: 1.0}}, 2)),
}

# (config, slab): a default run; no burn-in with rounds not divisible by the
# batches; slabs so small that slab edges fall inside the burn-in and every
# batch; and batches of 3 rounds, hundreds to a slab.
ORACLE_RUNS = {
    "default": (SimConfig(rounds=20_000, seed=1), SLAB),
    "no burn-in, ragged": (SimConfig(rounds=20_011, seed=2, burn_in=0, batches=7), SLAB),
    "small slabs": (SimConfig(rounds=5_003, seed=3, burn_in=250, batches=3), 97),
    "batches shorter than a slab": (
        SimConfig(rounds=6_007, seed=7, burn_in=101, batches=1_500), SLAB),
}


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("run", ORACLE_RUNS.values(), ids=ORACLE_RUNS)
    @pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES)
    def test_equals_scalar_loop(self, monkeypatch, case, run):
        setting, policy = case()
        config, slab = run
        monkeypatch.setattr(montecarlo, "SLAB", slab)
        assert simulate_run(setting, policy, config) == scalar_simulate_run(
            setting, policy, config)

    def test_batches_longer_than_a_slab(self):
        # Two batches of 75,000 rounds, each drawn as two default slabs.
        setting, policy = _ladder_case(4, 1e-3)
        config = SimConfig(rounds=151_515, seed=4, batches=2)
        assert simulate_run(setting, policy, config) == scalar_simulate_run(
            setting, policy, config)

    def test_uniforms_on_cumulative_sums(self, monkeypatch):
        # Uniforms rounded down to eighths land exactly on these dyadic
        # cumulative sums, where a draw steps past the tie as the loop does.
        monkeypatch.setattr(montecarlo, "uniform_stream", lambda seed, start, count: np.floor(
            uniform_stream(seed, start, count) * 8.0) / 8.0)
        setting = validate_setting(3, (0.25, 0.25, 0.5), (0.5, 0.25, 0.25), 1.0, -1.0, 0.25)
        policy = build_a_family(3, AFamilyParams(n=3, p_exp=0.5, pos=frozenset({1}),
                                                 neg=frozenset({3}), r_u=0.5, r_d=0.75))
        config = SimConfig(rounds=5_000, seed=6, batches=4)
        assert simulate_run(setting, policy, config) == scalar_simulate_run(
            setting, policy, config)

    def test_uniforms_on_cumulative_sums_of_bisected_rows(self, monkeypatch):
        # Rows in sixteenths whose sums are all fifteen sixteenths below 1
        # (E = 16 > TABLE_FACTOR * 3), under uniforms rounded down to sixteenths.
        monkeypatch.setattr(montecarlo, "uniform_stream", lambda seed, start, count: np.floor(
            uniform_stream(seed, start, count) * 16.0) / 16.0)
        setting = validate_setting(3, (0.25, 0.25, 0.5), (0.5, 0.25, 0.25), 1.0, -1.0, 0.25)
        sixteenths = {
            (0, 1): (1, 2, 13), (0, 2): (2, 3, 11), (0, 3): (4, 2, 10), (1, None): (7, 1, 8),
            (2, 1): (9, 1, 6), (2, 2): (11, 1, 4), (2, 3): (13, 1, 2), (3, None): (8, 7, 1),
        }
        targets = {0: (0, 1, 2), 1: (1, 2, 3), 2: (0, 2, 3), 3: (0, 1, 3)}
        policy = dict_policy((RISKY, SAFE, RISKY, SAFE), {
            (q, s): {nxt: w / 16.0 for nxt, w in zip(targets[(q + (s or 0)) % 4], ws)}
            for (q, s), ws in sixteenths.items()}, 3)
        assert montecarlo._compiled_tables(setting, policy)[2] is None
        config = SimConfig(rounds=5_000, seed=6, batches=4)
        assert simulate_run(setting, policy, config) == scalar_simulate_run(
            setting, policy, config)


# The default slab, a small one, and the former default of 2^16 rounds.
@pytest.mark.parametrize("slab", [SLAB, 1_000, 65_536])
def test_uniform_requests_stay_within_one_slab(monkeypatch, paper_setting, ladder_policy_5,
                                               slab):
    requests = []

    def recording_stream(seed, start, count):
        requests.append((start, count))
        return uniform_stream(seed, start, count)

    monkeypatch.setattr(montecarlo, "SLAB", slab)
    monkeypatch.setattr(montecarlo, "uniform_stream", recording_stream)
    config = SimConfig(rounds=200_003, seed=5, batches=2)
    result = simulate_run(paper_setting, ladder_policy_5, config)
    assert max(count for _, count in requests) <= 3 * slab
    # The requests tile the counters of the simulated rounds, in order.
    starts = [start for start, _ in requests]
    ends = [start + count for start, count in requests]
    assert starts == [0] + ends[:-1]
    assert ends[-1] == 1 + 3 * (config.burn_in + result.rounds_used)
    # Counter 0, then slabs that run across the burn-in and batch edges.
    assert len(requests) == 1 + math.ceil((config.burn_in + result.rounds_used) / slab)


@pytest.mark.parametrize("n,blocks", [(4, 5), (2_000, 1), (10_000, 1)])
def test_stride_table_stays_within_its_entry_bound(n, blocks):
    # B is the largest with m * K**B <= STRIDE_ENTRIES, or 1 when m * K already
    # passes it, so the tables hold at most max(STRIDE_ENTRIES, m * k * E) states.
    cls, cols, b, table = montecarlo._compiled_tables(*_ladder_case(n, 1e-3))[3]
    assert b == blocks
    entries = len(table) * len(table[0])
    assert entries == len(cols) * cols.shape[1] ** b
    assert entries <= max(STRIDE_ENTRIES, len(cols) * len(cls))
    assert len(cols) * cols.shape[1] ** (b + 1) > STRIDE_ENTRIES


@pytest.mark.parametrize("count", [*range(41), 1_000])
def test_rank_equals_searchsorted(count):
    # Distinct cuts, and dyadic cuts with repeats; the uniforms hit each cut
    # exactly, one ulp below it, 0.0, and points between.
    rng = np.random.default_rng(count)
    for cuts in (np.unique(rng.random(count * 2))[:count],
                 np.sort(rng.integers(0, 16, count) / 16.0)):
        assert len(cuts) == count
        u = np.concatenate([cuts, np.nextafter(cuts, -1.0), [0.0], rng.random(500)])
        assert np.array_equal(montecarlo._ranker(cuts)(u), np.searchsorted(cuts, u, "right"))


def _peak_bytes(setting, policy, config):
    tracemalloc.start()
    try:
        simulate_run(setting, policy, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_on_a_long_ladder():
    # A 10,001-state ladder's table holds m * k * E = 80,008 next states.
    setting, policy = _ladder_case(10_000, 1e-3)
    assert _peak_bytes(setting, policy, SimConfig(rounds=2 * 65_536, seed=1)) < 12e6


def test_peak_memory_on_a_dense_policy():
    # Distinct sums in the 3,070 distinct rows of 1,024 states: a next-state
    # table would hold m * k * E, about 25 million entries, and the rows hold
    # m * k * r = 12,288.
    setting = validate_setting(4, PG, PB, 1.0, -1.0, 1e-3)
    policy = dense_policy(1024, 4)
    assert _peak_bytes(setting, policy, SimConfig(rounds=2 * 65_536, seed=1)) < 4e6


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
    def test_results_in_seed_order(self, paper_setting, ladder_policy_5):
        config = SimConfig(rounds=5_000, seed=0)
        results = run_seed_sweep(paper_setting, ladder_policy_5, config, [7, 8])
        direct_7 = simulate_run(paper_setting, ladder_policy_5, SimConfig(rounds=5_000, seed=7))
        direct_8 = simulate_run(paper_setting, ladder_policy_5, SimConfig(rounds=5_000, seed=8))
        assert results == [direct_7, direct_8]

    @pytest.mark.parametrize("seed", [2.0, "3", None])
    def test_non_integer_seed_is_refused(self, paper_setting, ladder_policy_5, seed):
        config = SimConfig(rounds=100, seed=0)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_seed_sweep(paper_setting, ladder_policy_5, config, [1, seed])


def test_initial_nature_state_is_uniform(paper_setting):
    # Counter 0 decides the initial state; check both branches exist over seeds.
    from bounded_agents.montecarlo import uniform_stream as stream

    starts = [stream(seed, 0, 1)[0] < 0.5 for seed in range(40)]
    assert any(starts) and not all(starts)
