import json

import pytest

from bounded_agents.automaton import (
    HOLD,
    NO_SIGNAL,
    RISKY,
    SAFE,
    AFamilyParams,
    build_a_family,
    build_linear_sticky,
    check_policy,
    policy_from_dict,
)
from bounded_agents.errors import (
    BadProbabilityError,
    DimensionMismatchError,
    SignalOutOfRangeError,
    ValidationError,
)
from oracles import policy_to_dict


def row_sums(policy):
    return [sum(row.values()) for row in policy.kernel.values()]


class TestAFamily:
    def test_paper_example_structure(self):
        params = AFamilyParams(
            n=4, p_exp=0.1, pos=frozenset({1}), neg=frozenset({4}), r_u=1.0, r_d=1.0
        )
        policy = build_a_family(4, params)
        assert policy.num_states == 5
        assert policy.initial_state == 0
        assert policy.actions == (SAFE, RISKY, RISKY, RISKY, RISKY)
        # From state 2: signal 1 climbs with certainty, signals 2 and 3 hold.
        assert policy.kernel[(2, 1)] == {3: 1.0}
        assert policy.kernel[(2, 2)] == {2: 1.0}
        assert policy.kernel[(2, 3)] == {2: 1.0}
        assert policy.kernel[(2, 4)] == {1: 1.0}

    def test_safe_state_exploration_row(self):
        params = AFamilyParams(n=2, p_exp=0.1, pos=frozenset({1}), neg=frozenset({2}))
        policy = build_a_family(2, params)
        assert policy.kernel[(0, NO_SIGNAL)] == pytest.approx({0: 0.9, 1: 0.1})

    def test_top_state_absorbs_positive_signals(self):
        params = AFamilyParams(n=3, p_exp=0.5, pos=frozenset({1}), neg=frozenset({2}),
                               r_u=0.7, r_d=0.7)
        policy = build_a_family(2, params)
        assert policy.kernel[(3, 1)] == {3: 1.0}

    def test_two_state_boundary(self):
        params = AFamilyParams(n=1, p_exp=0.2, pos=frozenset({1}), neg=frozenset({2}),
                               r_d=0.6)
        policy = build_a_family(2, params)
        assert policy.num_states == 2
        # From the single risky state, a negative signal drops to the safe state.
        assert policy.kernel[(1, 2)] == pytest.approx({0: 0.6, 1: 0.4})

    @pytest.mark.parametrize("seed", range(8))
    def test_all_rows_stochastic(self, seed):
        import random

        rng = random.Random(seed)
        k = rng.randint(2, 6)
        signals = list(range(1, k + 1))
        rng.shuffle(signals)
        pos = frozenset(signals[: rng.randint(1, k - 1)])
        neg_pool = [s for s in signals if s not in pos]
        neg = frozenset(neg_pool[: rng.randint(1, len(neg_pool))])
        params = AFamilyParams(
            n=rng.randint(1, 7),
            p_exp=rng.uniform(0.01, 1.0),
            pos=pos,
            neg=neg,
            r_u=rng.uniform(0.1, 1.0),
            r_d=rng.uniform(0.1, 1.0),
        )
        policy = build_a_family(k, params)
        check_policy(policy, k)
        assert all(abs(s - 1.0) <= 1e-12 for s in row_sums(policy))

    def test_exactly_one_safe_state_reachable_from_state_one(self):
        params = AFamilyParams(n=5, p_exp=0.3, pos=frozenset({1}), neg=frozenset({2, 3}),
                               r_d=0.25)
        policy = build_a_family(3, params)
        assert policy.actions.count(SAFE) == 1
        assert policy.actions[0] == SAFE
        for s in params.neg:
            assert policy.kernel[(1, s)][0] == pytest.approx(0.25)

    def test_monotone_layout(self):
        params = AFamilyParams(n=6, p_exp=0.2, pos=frozenset({1}), neg=frozenset({3}),
                               r_u=0.4, r_d=0.9)
        policy = build_a_family(3, params)
        for (q, _obs), row in policy.kernel.items():
            for nxt in row:
                assert abs(nxt - q) <= 1

    def test_signal_out_of_range(self):
        params = AFamilyParams(n=2, p_exp=0.1, pos=frozenset({1}), neg=frozenset({5}))
        with pytest.raises(SignalOutOfRangeError):
            build_a_family(4, params)

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ValidationError):
            AFamilyParams(n=2, p_exp=0.1, pos=frozenset({1, 2}), neg=frozenset({2}))

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            AFamilyParams(n=2, p_exp=0.1, pos=frozenset(), neg=frozenset({1}))

    @pytest.mark.parametrize("p_exp", [0.0, 1.5, -0.1])
    def test_bad_p_exp(self, p_exp):
        with pytest.raises(BadProbabilityError):
            AFamilyParams(n=2, p_exp=p_exp, pos=frozenset({1}), neg=frozenset({2}))


class TestLinearSticky:
    def test_deterministic_walk(self):
        policy = build_linear_sticky(5, [1] * 5, [1] * 5, good_signal=1, bad_signal=4, k=4)
        assert policy.num_states == 5
        assert policy.actions == (HOLD,) * 5
        assert policy.kernel[(2, 1)] == {1: 1.0}
        assert policy.kernel[(2, 4)] == {3: 1.0}
        assert policy.kernel[(2, 2)] == {2: 1.0}
        # Ends clamp.
        assert policy.kernel[(0, 1)] == {0: 1.0}
        assert policy.kernel[(4, 4)] == {4: 1.0}

    def test_sticky_left_end(self):
        policy = build_linear_sticky(
            5, [1] * 5, [0.01, 1, 1, 1, 1], good_signal=1, bad_signal=4, k=4
        )
        assert policy.kernel[(0, 4)] == pytest.approx({1: 0.01, 0: 0.99})

    def test_rows_stochastic_after_construction(self):
        policy = build_linear_sticky(
            4, [0.5, 0.25, 1, 0.75], [0.1, 0.9, 0.3, 0.6], good_signal=2, bad_signal=3, k=3
        )
        check_policy(policy, 3)
        assert all(abs(s - 1.0) <= 1e-12 for s in row_sums(policy))

    def test_bad_probability(self):
        with pytest.raises(BadProbabilityError):
            build_linear_sticky(3, [1, 1, 1.5], [1, 1, 1], good_signal=1, bad_signal=2, k=2)

    def test_same_signals_rejected(self):
        with pytest.raises(ValidationError):
            build_linear_sticky(3, [1] * 3, [1] * 3, good_signal=1, bad_signal=1, k=2)


def test_policy_json_round_trip(ladder_policy_5):
    text = json.dumps(policy_to_dict(ladder_policy_5))
    restored = policy_from_dict(json.loads(text), 4)
    assert restored.kernel == ladder_policy_5.kernel
    assert json.dumps(policy_to_dict(restored)) == text


def test_policy_json_shape(ladder_policy_5):
    doc = policy_to_dict(ladder_policy_5)
    assert set(doc) == {"num_states", "initial_state", "actions", "kernel"}
    assert "0:NoSignal" in doc["kernel"]
    assert "1:4" in doc["kernel"]


def _ladder_doc(**changes):
    doc = policy_to_dict(build_a_family(
        2, AFamilyParams(n=1, p_exp=0.5, pos=frozenset({1}), neg=frozenset({2}))))
    return {**doc, **changes}


class TestPolicyFromDict:
    def test_reads_its_own_json_form(self):
        policy = policy_from_dict(_ladder_doc(), 2)
        check_policy(policy, 2)
        assert policy.kernel[(0, NO_SIGNAL)] == {0: 0.5, 1: 0.5}
        assert policy.kernel[(1, 2)] == {0: 1.0}

    @pytest.mark.parametrize("field", ["num_states", "initial_state", "actions", "kernel"])
    def test_missing_field_is_named(self, field):
        doc = _ladder_doc()
        del doc[field]
        with pytest.raises(ValidationError, match=f"missing keys: \\['{field}'\\]"):
            policy_from_dict(doc, 2)

    @pytest.mark.parametrize("key", ["1", "1-2", "1:2:3", "a:1", "1:x"])
    def test_malformed_key_is_named(self, key):
        doc = _ladder_doc()
        doc["kernel"][key] = doc["kernel"].pop("1:2")
        with pytest.raises(ValidationError, match=f"kernel key '{key}' is not state:obs"):
            policy_from_dict(doc, 2)

    @pytest.mark.parametrize("field", ["num_states", "initial_state"])
    @pytest.mark.parametrize("value", [2.5, "2"])
    def test_non_integer_count_is_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            policy_from_dict(_ladder_doc(**{field: value}), 2)

    @pytest.mark.parametrize("row", [[1.0], {"0": "abc"}, {"x": 1.0}, {"0": None}, 0.5])
    def test_malformed_row_is_named(self, row):
        doc = _ladder_doc()
        doc["kernel"]["1:1"] = row
        with pytest.raises(ValidationError, match="kernel row '1:1' is not an object"):
            policy_from_dict(doc, 2)

    def test_key_set_mismatch_names_extra_and_missing(self):
        doc = _ladder_doc()
        doc["kernel"]["0:1"] = doc["kernel"].pop("0:NoSignal")
        with pytest.raises(DimensionMismatchError) as err:
            policy_from_dict(doc, 2)
        assert "extra=['(0, 1)']" in str(err.value)
        assert "missing=['(0, None)']" in str(err.value)

    def test_signal_count_comes_from_the_caller(self):
        with pytest.raises(DimensionMismatchError, match="missing=\\['\\(1, 3\\)'\\]"):
            policy_from_dict(_ladder_doc(), 3)


def test_safe_state_needs_the_same_row_in_every_slot():
    policy = build_a_family(3, AFamilyParams(n=1, p_exp=0.25, pos=frozenset({1}),
                                             neg=frozenset({3})))
    policy.prob[0, 2] = policy.prob[0, 2, ::-1]  # Safe state 0 explores w.p. 0.75 on signal 3
    message = "Safe state 0 has different rows in signal slots 1 and 3"
    with pytest.raises(ValidationError, match=message):
        check_policy(policy, 3)


def test_kernel_view_lists_positive_entries_only():
    policy = build_linear_sticky(3, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 1, 2, k=2)
    # State 1's rows move with probability 0: their targets are padding.
    assert policy.kernel[(1, 1)] == {1: 1.0}
    assert policy.kernel[(1, 2)] == {1: 1.0}
    assert policy.kernel[(0, 2)] == {1: 1.0}
    view = policy.kernel
    view[(0, 2)][0] = 0.5
    assert policy.kernel[(0, 2)] == {1: 1.0}
