import random

import numpy as np
import pytest

from oracles import (
    reader_full_information_value,
    reader_policy_value_by_paths,
    tuple_reader_dp,
)

from bounded_agents import bias_reader
from bounded_agents.bias_reader import (
    ReaderProblem,
    disregard_index,
    first_impression_reader,
    polarization_reader,
    posterior,
    simulate_reader,
    solve_reader_dp,
)
from bounded_agents.errors import (
    MismatchedProblemsError,
    ValidationError,
    check_list,
)


class TestProblemValidation:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 0.3])
    def test_rho_range(self, rho):
        with pytest.raises(ValidationError):
            ReaderProblem(n=5, rho=rho, c=0.01)

    def test_negative_cost(self):
        with pytest.raises(ValidationError):
            ReaderProblem(n=5, rho=0.75, c=-0.01)

    @pytest.mark.parametrize("prior1", [0.0, 1.0])
    def test_prior_open_interval(self, prior1):
        with pytest.raises(ValidationError):
            ReaderProblem(n=5, rho=0.75, c=0.01, prior1=prior1)


class TestPosterior:
    def test_no_evidence_returns_prior(self):
        for prior1 in (0.3, 0.5, 0.9):
            problem = ReaderProblem(n=5, rho=0.75, c=0.01, prior1=prior1)
            assert posterior(problem, 0) == prior1

    def test_one_signal_closed_form(self):
        problem = ReaderProblem(n=5, rho=0.75, c=0.01)
        assert posterior(problem, 1) == pytest.approx(0.75, abs=1e-15)

    def test_two_against_closed_form(self):
        problem = ReaderProblem(n=5, rho=0.75, c=0.01)
        assert posterior(problem, -2) == pytest.approx(0.1, abs=1e-15)

    def test_log_odds_stability_at_extremes(self):
        problem = ReaderProblem(n=2000, rho=0.99, c=0.0)
        assert posterior(problem, 2000) == pytest.approx(1.0, abs=1e-12)
        assert posterior(problem, -2000) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_d(self):
        problem = ReaderProblem(n=5, rho=0.75, c=0.01)
        with pytest.raises(ValidationError):
            posterior(problem, 6)


class TestSolveReaderDp:
    # c = 0 and the even prior give cells where continuing ties stopping exactly.
    ORACLE_GRID = [
        ReaderProblem(n=n, rho=rho, c=c, prior1=prior1)
        for n in (1, 2, 5, 14, 20)
        for rho in (0.51, 0.6, 0.75, 0.9, 0.99)
        for c in (0.0, 0.002, 0.01, 0.05, 0.2)
        for prior1 in (0.2, 0.5, 0.55, 0.8)
    ]

    def test_every_cell_equals_the_tuple_oracle(self):
        for problem in self.ORACLE_GRID:
            n = problem.n
            table = solve_reader_dp(problem)
            W, stop = tuple_reader_dp(problem)
            assert table.W.shape == table.stop.shape == (n + 1, 2 * n + 1)
            for i in range(n + 1):
                assert table.W[i, n - i:n + i + 1].tolist() == list(W[i])
                assert table.stop[i, n - i:n + i + 1].tolist() == list(stop[i])
            i, j = np.indices(table.W.shape)
            outside = np.abs(j - n) > i
            assert np.isnan(table.W[outside]).all() and not table.stop[outside].any()

    @pytest.mark.parametrize("i,d", [(0, 1), (3, -4), (-1, 0), (6, 0)])
    def test_cells_outside_the_table_rejected(self, i, d):
        table = solve_reader_dp(ReaderProblem(n=5, rho=0.75, c=0.01))
        message = rf"^\(i={i}, d={d}\) is outside the table$"
        with pytest.raises(ValidationError, match=message):
            table.value(i, d)
        with pytest.raises(ValidationError, match=message):
            table.should_stop(i, d)

    def test_golden_value_and_path_oracle(self):
        problem = ReaderProblem(n=20, rho=0.75, c=0.01)
        table = solve_reader_dp(problem)
        assert table.value(0, 0) == pytest.approx(0.908150962200016, abs=1e-12)
        assert table.value(0, 0) == pytest.approx(
            reader_policy_value_by_paths(problem, table), abs=1e-10
        )

    def test_costless_information_equals_full_information(self):
        problem = ReaderProblem(n=15, rho=0.8, c=0.0)
        table = solve_reader_dp(problem)
        assert table.value(0, 0) == pytest.approx(
            reader_full_information_value(problem), abs=1e-12
        )

    def test_prohibitive_cost_never_reads(self):
        # One read improves success probability by at most rho - 1/2.
        problem = ReaderProblem(n=10, rho=0.75, c=0.25)
        table = solve_reader_dp(problem)
        assert table.should_stop(0, 0)
        run = simulate_reader(table, [1] * 10)
        assert run.reads == 0
        assert run.guess == 1  # tie at the prior resolves to 1

    def test_monotone_stopping_boundary_everywhere(self):
        for c in (0.002, 0.01, 0.05):
            problem = ReaderProblem(n=18, rho=0.75, c=c)
            table = solve_reader_dp(problem)
            for i in range(problem.n):
                for d in range(-i, i + 1):
                    if table.should_stop(i, d):
                        assert table.should_stop(i + 1, d)

    def test_symmetric_values_under_even_prior(self):
        problem = ReaderProblem(n=12, rho=0.7, c=0.015)
        table = solve_reader_dp(problem)
        for i in range(problem.n + 1):
            for d in range(0, i + 1):
                assert table.value(i, d) == pytest.approx(table.value(i, -d), abs=1e-12)

    def test_value_nonincreasing_in_cost(self):
        values = [
            solve_reader_dp(ReaderProblem(n=14, rho=0.75, c=c)).value(0, 0)
            for c in (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
        ]
        for cheap, dear in zip(values, values[1:]):
            assert dear <= cheap + 1e-12

    def test_disregard_index_exists_and_bounds_reads(self):
        rng = random.Random(0)
        for c in (0.002, 0.01, 0.08, 0.2):
            problem = ReaderProblem(n=20, rho=0.75, c=c)
            table = solve_reader_dp(problem)
            index = disregard_index(table)
            assert 0 <= index <= problem.n
            for _ in range(50):
                seq = [rng.randint(0, 1) for _ in range(problem.n)]
                assert simulate_reader(table, seq).reads <= index

    def test_disregard_golden_values(self):
        golden = {0.002: 19, 0.01: 19, 0.08: 1, 0.2: 1}
        for c, expected in golden.items():
            table = solve_reader_dp(ReaderProblem(n=20, rho=0.75, c=c))
            assert disregard_index(table) == expected


class TestSimulateReader:
    def test_all_ones_stops_at_upper_boundary(self):
        problem = ReaderProblem(n=20, rho=0.75, c=0.01)
        table = solve_reader_dp(problem)
        run = simulate_reader(table, [1] * 20)
        # Oracle: first stop along the all-ones path read off the table.
        i = d = 0
        while i < problem.n and not table.should_stop(i, d):
            i += 1
            d += 1
        assert run.reads == i
        assert run.guess == 1
        assert run.trajectory == tuple(range(1, i + 1))

    def test_deterministic(self):
        problem = ReaderProblem(n=10, rho=0.8, c=0.02)
        table = solve_reader_dp(problem)
        seq = [1, 0, 1, 1, 0, 0, 0, 1, 0, 1]
        assert simulate_reader(table, seq) == simulate_reader(table, seq)

    def test_length_mismatch(self):
        problem = ReaderProblem(n=5, rho=0.75, c=0.01)
        table = solve_reader_dp(problem)
        with pytest.raises(ValidationError, match=r"^sequence must have 5 entries, got 2$"):
            simulate_reader(table, [1, 0])

    def test_non_bits_rejected(self):
        problem = ReaderProblem(n=3, rho=0.75, c=0.01)
        table = solve_reader_dp(problem)
        with pytest.raises(ValidationError):
            simulate_reader(table, [1, 2, 0])

    def test_each_entry_point_checks_the_sequence_once(self, monkeypatch):
        # first_impression_reader walks the reversal of the checked sequence,
        # and polarization_reader walks one checked sequence for both tables.
        checks = []

        def counting(value, name, *args, **kwargs):
            checks.append(name)
            return check_list(value, name, *args, **kwargs)

        monkeypatch.setattr(bias_reader, "check_list", counting)
        table = solve_reader_dp(ReaderProblem(n=7, rho=0.9, c=0.02))
        seq = [1, 1, 1, 0, 0, 0, 0]
        for run in (lambda: simulate_reader(table, seq),
                    lambda: first_impression_reader(table, seq),
                    lambda: polarization_reader(table, table, seq)):
            checks.clear()
            run()
            assert checks.count("sequence") == 1


class TestFirstImpression:
    WITNESS = [1, 1, 1, 0, 0, 0, 0]

    def test_committed_witness_is_order_sensitive(self):
        table = solve_reader_dp(ReaderProblem(n=7, rho=0.9, c=0.02))
        report = first_impression_reader(table, self.WITNESS)
        assert report.forward == 1
        assert report.reversed == 0
        assert report.differs
        assert report.full_info_guess == 0  # more zeros than ones, order-free

    def test_costless_reader_is_order_free(self):
        # Odd n: value ties cannot flip guesses, so order never matters.
        table = solve_reader_dp(ReaderProblem(n=7, rho=0.9, c=0.0))
        rng = random.Random(42)
        for _ in range(500):
            seq = [rng.randint(0, 1) for _ in range(7)]
            assert not first_impression_reader(table, seq).differs

    def test_palindrome_never_differs(self):
        table = solve_reader_dp(ReaderProblem(n=7, rho=0.9, c=0.02))
        for seq in ([1, 0, 1, 1, 1, 0, 1], [0, 0, 1, 0, 1, 0, 0]):
            assert not first_impression_reader(table, seq).differs

    def test_single_signal(self):
        table = solve_reader_dp(ReaderProblem(n=1, rho=0.75, c=0.01))
        assert not first_impression_reader(table, [1]).differs


class TestPolarization:
    WITNESS = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]

    def tables(self):
        return (
            solve_reader_dp(ReaderProblem(n=12, rho=0.8, c=0.02, prior1=0.45)),
            solve_reader_dp(ReaderProblem(n=12, rho=0.8, c=0.02, prior1=0.55)),
        )

    def test_committed_witness_diverges(self):
        low, high = self.tables()
        report = polarization_reader(low, high, self.WITNESS)
        assert (report.guess_a, report.guess_b) == (0, 1)
        assert report.diverged

    def test_identical_priors_never_diverge(self):
        table = solve_reader_dp(ReaderProblem(n=12, rho=0.8, c=0.02, prior1=0.45))
        rng = random.Random(9)
        for _ in range(50):
            seq = [rng.randint(0, 1) for _ in range(12)]
            assert not polarization_reader(table, table, seq).diverged

    def test_mismatched_problems_rejected(self):
        low, _ = self.tables()
        other = solve_reader_dp(ReaderProblem(n=12, rho=0.85, c=0.02, prior1=0.55))
        with pytest.raises(MismatchedProblemsError):
            polarization_reader(low, other, self.WITNESS)

    def test_costless_divergence_iff_posteriors_straddle_half(self):
        # c = 0 readers follow the full posterior; priors 0.4 / 0.6 with
        # rho = 0.75 split exactly when the final count difference is 0.
        low = solve_reader_dp(ReaderProblem(n=8, rho=0.75, c=0.0, prior1=0.4))
        high = solve_reader_dp(ReaderProblem(n=8, rho=0.75, c=0.0, prior1=0.6))
        even = [1, 1, 1, 1, 0, 0, 0, 0]
        diverged = polarization_reader(low, high, even).diverged
        assert diverged == (posterior(low.problem, 0) < 0.5 <= posterior(high.problem, 0))
        assert diverged
        plus_two = [1, 1, 1, 1, 1, 0, 0, 0]
        assert not polarization_reader(low, high, plus_two).diverged
