"""Resource-bounded decision models: finite-state agents in switching
environments, single-decision automata under a geometric deadline, costly
sequential evidence reading, and machine choice under complexity charges.
"""

from .automaton import (
    AFamilyParams,
    AutomatonPolicy,
    build_a_family,
    build_linear_sticky,
)
from .bias_reader import (
    ReaderDPTable,
    ReaderProblem,
    first_impression_reader,
    polarization_reader,
    posterior,
    simulate_reader,
    solve_reader_dp,
)
from .costly_comp import (
    CompProblem,
    ConversationSpec,
    MachineSpec,
    PrimalityConfig,
    best_machine,
    conversation_value,
    expected_utility,
    make_primality_instance,
)
from .dynamic_env import (
    DynamicSetting,
    is_nontrivial,
    oracle_upper_bound,
    validate_setting,
)
from .markov_exact import (
    JointChainModel,
    StationaryDist,
    build_joint_chain,
    exact_average_payoff,
    stationary,
    stopped_state_distribution,
)
from .montecarlo import SimConfig, SimResult, compare_exact_mc, run_seed_sweep, simulate_run
from .optimize import (
    OptResult,
    ScheduleSpec,
    brute_force_policy_search,
    default_partition,
    exhaustive_partition_search,
    limit_schedule_curve,
    optimize_pexp,
    optimize_rates,
)
from .static_model import (
    DecisionRule,
    StaticSetting,
    first_impression_demo,
    polarization_demo,
    propagate_sequence,
    static_expected_utility,
    threshold_rule,
)

__version__ = "0.1.0"
