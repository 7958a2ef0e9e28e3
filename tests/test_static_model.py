import random

import numpy as np
import pytest

from bounded_agents.automaton import build_a_family, build_linear_sticky, AFamilyParams
from bounded_agents.errors import (
    BadEtaError,
    NonStochasticError,
    SignalOutOfRangeError,
    ValidationError,
)
from oracles import dict_policy, geometric_series_stopped

from bounded_agents.markov_exact import agent_step_matrix
from bounded_agents.static_model import (
    DecisionRule,
    FirstImpressionResult,
    StaticSetting,
    decision_distribution,
    first_impression_demo,
    modal_decision,
    polarization_demo,
    propagate_sequence,
    propagation_csv,
    static_expected_utility,
    threshold_rule,
)

PAPER_SIGNALS = dict(k=4, pG=(0.4, 0.3, 0.2, 0.1), pB=(0.1, 0.2, 0.3, 0.4))


def sticky_policy(initial_state=2, escape=0.01):
    return build_linear_sticky(
        5, [1, 1, 1, 1, 1], [escape, 1, 1, 1, 1],
        good_signal=1, bad_signal=4, k=4, initial_state=initial_state,
    )


class TestStaticSetting:
    def test_defaults(self):
        s = StaticSetting(eta=0.1, **PAPER_SIGNALS)
        assert s.prior_G == 0.5
        assert s.utility == ((1.0, 0.0), (0.0, 1.0))

    def test_bad_eta(self):
        with pytest.raises(BadEtaError):
            StaticSetting(eta=0.0, **PAPER_SIGNALS)

    def test_bad_vectors(self):
        with pytest.raises(NonStochasticError):
            StaticSetting(k=2, pG=(0.6, 0.6), pB=(0.5, 0.5), eta=0.5)


class TestThresholdRule:
    def test_five_states(self):
        assert threshold_rule(5).decide == ("G", "G", "G", "B", "B")

    def test_four_states(self):
        assert threshold_rule(4).decide == ("G", "G", "B", "B")

    def test_labels_validated(self):
        with pytest.raises(ValidationError):
            DecisionRule(decide=("G", "X"))


class TestStaticExpectedUtility:
    def test_eta_one_closed_form(self):
        policy = sticky_policy()
        setting = StaticSetting(eta=1.0, **PAPER_SIGNALS)
        rule = threshold_rule(5)
        d0 = np.zeros(5)
        d0[2] = 1.0
        expected = 0.0
        for prior, probs, truth in (
            (0.5, setting.pG, "G"), (0.5, setting.pB, "B")
        ):
            one_step = d0 @ agent_step_matrix(policy, probs)
            for q in range(5):
                if rule.decide[q] == truth:
                    expected += prior * one_step[q]
        value = static_expected_utility(setting, policy, rule)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.65, abs=1e-12)

    def test_uninformative_signals_give_half(self):
        setting = StaticSetting(
            k=4, pG=(0.25,) * 4, pB=(0.25,) * 4, eta=0.05
        )
        for rule in (threshold_rule(5), DecisionRule(decide=("B",) * 5)):
            value = static_expected_utility(setting, sticky_policy(), rule)
            assert value == pytest.approx(0.5, abs=1e-12)

    def test_golden_sticky_value(self):
        setting = StaticSetting(eta=0.01, **PAPER_SIGNALS)
        value = static_expected_utility(setting, sticky_policy(), threshold_rule(5))
        # Frozen; cross-checked against the truncated-series oracle below.
        assert value == pytest.approx(0.911938379076, abs=1e-9)

    def test_matches_series_oracle(self):
        setting = StaticSetting(eta=0.01, **PAPER_SIGNALS)
        policy = sticky_policy()
        rule = threshold_rule(5)
        d0 = np.zeros(5)
        d0[2] = 1.0
        expected = 0.0
        for prior, probs, truth in ((0.5, setting.pG, "G"), (0.5, setting.pB, "B")):
            stopped = geometric_series_stopped(
                agent_step_matrix(policy, probs), d0, 0.01
            )
            expected += prior * sum(
                stopped[q] for q in range(5) if rule.decide[q] == truth
            )
        value = static_expected_utility(setting, policy, rule)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_signal_permutation(self):
        setting = StaticSetting(eta=0.02, **PAPER_SIGNALS)
        value = static_expected_utility(setting, sticky_policy(), threshold_rule(5))
        # Swap signals 1 and 3 everywhere.
        permuted_setting = StaticSetting(
            k=4, pG=(0.2, 0.3, 0.4, 0.1), pB=(0.3, 0.2, 0.1, 0.4), eta=0.02
        )
        permuted_policy = build_linear_sticky(
            5, [1] * 5, [0.01, 1, 1, 1, 1],
            good_signal=3, bad_signal=4, k=4, initial_state=2,
        )
        permuted = static_expected_utility(
            permuted_setting, permuted_policy, threshold_rule(5)
        )
        assert permuted == pytest.approx(value, abs=1e-12)

    def test_rule_length_checked(self):
        setting = StaticSetting(eta=0.5, **PAPER_SIGNALS)
        with pytest.raises(ValidationError):
            static_expected_utility(setting, sticky_policy(), threshold_rule(3))


class TestPropagateSequence:
    def test_empty_sequence_is_start_mass(self):
        dists = propagate_sequence(sticky_policy(), 2, [])
        assert len(dists) == 1
        assert dists[0] == pytest.approx([0, 0, 1, 0, 0], abs=0)

    def test_deterministic_walk_point_mass(self):
        policy = build_linear_sticky(5, [1] * 5, [1] * 5, 1, 4, k=4)
        dists = propagate_sequence(policy, 2, [1, 4, 4, 1])
        states = [int(np.argmax(d)) for d in dists]
        assert states == [2, 1, 2, 3, 2]
        for d in dists:
            assert set(np.unique(d)) <= {0.0, 1.0}

    def test_golden_sticky_table(self):
        dists = propagate_sequence(sticky_policy(1), 1, [1, 4, 4])
        # Start 1, good then two bads; the sticky end leaks 1% per bad.
        assert dists[1] == pytest.approx([1, 0, 0, 0, 0], abs=1e-15)
        assert dists[2] == pytest.approx([0.99, 0.01, 0, 0, 0], abs=1e-12)
        assert dists[3] == pytest.approx([0.9801, 0.0099, 0.01, 0, 0], abs=1e-12)

    def test_distributions_sum_to_one(self):
        rng = random.Random(0)
        policy = sticky_policy()
        for _ in range(20):
            seq = [rng.randint(1, 4) for _ in range(rng.randint(0, 12))]
            for dist in propagate_sequence(policy, rng.randint(0, 4), seq):
                assert abs(dist.sum() - 1.0) <= 1e-10

    def test_safe_state_ignores_the_signal(self):
        ladder = build_a_family(4, AFamilyParams(n=2, p_exp=0.5, pos={1}, neg={4}))
        dists = propagate_sequence(ladder, 0, [1, 4])
        assert dists[1] == pytest.approx([0.5, 0.5, 0], abs=0)
        assert dists[2] == pytest.approx([0.75, 0.25, 0], abs=0)

    def test_missing_signal_row_raises(self):
        with pytest.raises(SignalOutOfRangeError, match="state 1 has no row for signal 5"):
            propagate_sequence(sticky_policy(), 2, [1, 5])

    @pytest.mark.parametrize("sequence", [[7], [1, 7], [0]])
    def test_out_of_range_signal_raises_from_a_safe_start(self, sequence):
        ladder = build_a_family(4, AFamilyParams(n=2, p_exp=0.5, pos={1}, neg={4}))
        with pytest.raises(SignalOutOfRangeError, match=f"signal {sequence[-1]} "):
            propagate_sequence(ladder, 0, sequence)

    def test_sticky_zero_row_dominates_escape(self):
        # Identity state-0 row keeps weakly more mass at 0 than any escape.
        frozen = sticky_policy(1, escape=0.0)
        leaky = sticky_policy(1, escape=0.05)
        rng = random.Random(1)
        for _ in range(20):
            seq = [rng.randint(1, 4) for _ in range(10)]
            for d_frozen, d_leaky in zip(
                propagate_sequence(frozen, 1, seq), propagate_sequence(leaky, 1, seq)
            ):
                assert d_frozen[0] >= d_leaky[0] - 1e-12


class TestPolarizationDemo:
    def test_committed_witness(self):
        # Starts 1 and 2, one good signal then four bad ones.
        result = polarization_demo(sticky_policy(), 1, 2, [1, 4, 4, 4, 4], threshold_rule(5))
        assert result.modal_a == "G"
        assert result.modal_b == "B"
        assert result.diverged
        assert result.decision_dist_a["G"] == pytest.approx(0.9801, abs=1e-6)
        assert result.decision_dist_b["B"] == pytest.approx(1.0, abs=1e-12)

    def test_identical_starts_never_diverge(self):
        rng = random.Random(2)
        policy = sticky_policy()
        for _ in range(10):
            seq = [rng.randint(1, 4) for _ in range(rng.randint(1, 10))]
            result = polarization_demo(policy, 1, 1, seq, threshold_rule(5))
            assert not result.diverged

    def test_translation_property_of_unclamped_walk(self):
        # Deterministic walk away from the boundary: final states differ by
        # the start offset, so divergence depends only on the rule boundary.
        policy = build_linear_sticky(7, [1] * 7, [1] * 7, 1, 4, k=4)
        seq = [4, 4, 1, 4]  # net +2, never touches a boundary from starts 1..3
        result = polarization_demo(policy, 1, 2, seq, threshold_rule(7))
        final_a = propagate_sequence(policy, 1, seq)[-1]
        final_b = propagate_sequence(policy, 2, seq)[-1]
        assert int(np.argmax(final_b)) - int(np.argmax(final_a)) == 1
        assert result.modal_a == "G" and result.modal_b == "B"


class TestFirstImpressionDemo:
    def test_committed_witness(self):
        result = first_impression_demo(sticky_policy(1), 1, [1, 4, 4, 4], threshold_rule(5))
        assert result == FirstImpressionResult(
            decision_forward="G", decision_reversed="B", order_sensitive=True
        )

    def test_exchangeable_policy_never_order_sensitive(self):
        # All signal rows identical per state: order cannot matter.
        params = AFamilyParams(n=3, p_exp=0.5, pos=frozenset({1, 2}), neg=frozenset({3, 4}))
        ladder = build_a_family(4, params)
        kernel = {}
        for q in range(ladder.num_states):
            row = ladder.kernel.get((q, 1), {q: 1.0})
            for s in range(1, 5):
                kernel[(q, s)] = dict(row)
        from bounded_agents.automaton import HOLD

        policy = dict_policy((HOLD,) * ladder.num_states, kernel, 4)
        rng = random.Random(3)
        rule = threshold_rule(policy.num_states)
        for _ in range(10):
            seq = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
            assert not first_impression_demo(policy, 0, seq, rule).order_sensitive

    def test_single_signal_sequence(self):
        assert not first_impression_demo(sticky_policy(), 2, [4], threshold_rule(5)).order_sensitive

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            first_impression_demo(sticky_policy(), 2, [], threshold_rule(5))


def test_modal_decision_tie_goes_to_g():
    assert modal_decision({"G": 0.5, "B": 0.5}) == "G"


def test_decision_distribution_masses():
    masses = decision_distribution(np.array([0.2, 0.3, 0.1, 0.25, 0.15]), threshold_rule(5))
    assert masses["G"] == pytest.approx(0.6)
    assert masses["B"] == pytest.approx(0.4)


def test_propagation_csv_layout():
    text = propagation_csv(sticky_policy(), 2, [1, 4], threshold_rule(5))
    lines = text.strip().splitlines()
    assert lines[0] == "step,state_0,state_1,state_2,state_3,state_4,modal_decision"
    assert len(lines) == 4  # start row plus two steps
    assert lines[1].startswith("0,0,0,1,0,0,")
