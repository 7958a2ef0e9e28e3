
import sys
import warnings

import pytest

from bounded_agents.automaton import AFamilyParams, build_a_family
from bounded_agents.dynamic_env import (
    is_nontrivial,
    oracle_upper_bound,
    validate_setting,
)
from bounded_agents.errors import (
    BadFlipProbError,
    BadPayoffSignError,
    NonStochasticError,
    ValidationError,
)
from bounded_agents.markov_exact import exact_average_payoff
from oracles import exact_average_payoff_fraction


def test_paper_experiment_setting_is_valid():
    s = validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0, 0.001)
    assert s.k == 4
    assert s.pG == (0.4, 0.3, 0.2, 0.1)
    assert s.pi == 0.001


def test_non_stochastic_vector_rejected():
    with pytest.raises(NonStochasticError):
        validate_setting(2, (0.5, 0.6), (0.5, 0.5), 1.0, -1.0, 0.1)


def test_negative_entry_rejected():
    with pytest.raises(NonStochasticError):
        validate_setting(2, (1.2, -0.2), (0.5, 0.5), 1.0, -1.0, 0.1)


def test_never_silently_normalizes():
    # Off by 1e-6 is far outside the 1e-12 tolerance.
    with pytest.raises(NonStochasticError):
        validate_setting(2, (0.5000005, 0.5000005), (0.5, 0.5), 1.0, -1.0, 0.1)


@pytest.mark.parametrize("xG,xB", [(0.0, -1.0), (1.0, 0.0), (-1.0, -2.0), (1.0, 1.0)])
def test_bad_payoff_signs_rejected(xG, xB):
    with pytest.raises(BadPayoffSignError):
        validate_setting(2, (0.5, 0.5), (0.5, 0.5), xG, xB, 0.1)


@pytest.mark.parametrize("pi", [0.0, -0.1, 0.6, 1.0])
def test_bad_flip_prob_rejected(pi):
    with pytest.raises(BadFlipProbError):
        validate_setting(2, (0.5, 0.5), (0.5, 0.5), 1.0, -1.0, pi)


def test_pi_boundary_half_allowed():
    s = validate_setting(2, (0.5, 0.5), (0.5, 0.5), 1.0, -1.0, 0.5)
    assert s.pi == 0.5


@pytest.mark.parametrize("pi", [5e-324, 1e-310, sys.float_info.min / 2])
def test_subnormal_pi_rejected_naming_pi_and_range(pi):
    # At 5e-324 the paper's 4-rung ladder evaluated 4.1% off its exact value.
    with pytest.raises(BadFlipProbError, match=r"pi must be in \[2\.2250738585072014e-308, 0\.5\]"):
        validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0, pi)


def test_smallest_normal_pi_matches_the_rational_oracle():
    setting = validate_setting(4, (0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 1.0, -1.0,
                               sys.float_info.min)
    ladder = build_a_family(4, AFamilyParams(n=4, p_exp=0.0273668, pos=frozenset({1}),
                                             neg=frozenset({4})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payoff = exact_average_payoff(setting, ladder)
    exact = float(exact_average_payoff_fraction(setting, ladder))
    assert payoff == pytest.approx(exact, rel=1e-14)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        validate_setting(3, (0.5, 0.5), (0.5, 0.5), 1.0, -1.0, 0.1)


def test_nontrivial_paper_setting(paper_setting):
    assert is_nontrivial(paper_setting)


def test_trivial_when_identical(trivial_setting):
    assert not is_nontrivial(trivial_setting)


def test_nontrivial_is_exact_no_tolerance():
    s = validate_setting(2, (0.5, 0.5), (0.5 - 1e-15, 0.5 + 1e-15), 1.0, -1.0, 0.1)
    assert is_nontrivial(s)


def test_nontrivial_symmetric_in_pg_pb(paper_setting):
    swapped = validate_setting(
        paper_setting.k, paper_setting.pB, paper_setting.pG,
        paper_setting.xG, paper_setting.xB, paper_setting.pi,
    )
    assert is_nontrivial(swapped) == is_nontrivial(paper_setting)


@pytest.mark.parametrize("xG,expected", [(1.0, 0.5), (2.0, 1.0), (0.8, 0.4)])
def test_oracle_upper_bound(xG, expected):
    s = validate_setting(2, (0.6, 0.4), (0.4, 0.6), xG, -1.0, 0.01)
    assert oracle_upper_bound(s) == pytest.approx(expected, abs=0)
