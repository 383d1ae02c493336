"""Configuration balancing with stochastic requests: offline and online
policies, an exact adaptive oracle, and a Monte-Carlo harness."""

from .distributions import DiscreteDistribution, ValidationError, point_mass, scaled_bernoulli
from .instances import (
    Configuration,
    ConfigInstance,
    NoFeasiblePath,
    RelatedInstance,
    Request,
    RoutingInstance,
    SmoothedGroups,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
    gen_clairvoyance_adversary_instance,
    random_tiny_instance,
    related_to_unrelated,
    routing_to_config,
    smooth_machines,
    unrelated_to_config,
)
from .instance_io import ParseError, read_instance, write_instance
from .lp import (
    Infeasible,
    LinearProgram,
    NoFeasibleTau,
    NumericalFailure,
    build_lpc,
    min_feasible_tau,
    solve_lpc,
    solve_lpp_column_generation,
)
from .offline import (
    OfflineReport,
    offline_config_balancing,
    offline_related,
    offline_routing,
    randomized_round,
)
from .online import (
    PotentialState,
    guess_and_double,
    nonclairvoyant_sqrt_list,
    online_route_step,
    online_step,
    potential,
    run_online_config,
    run_online_related,
    run_online_routing,
)
from .oracle import (
    AdaptiveOracle,
    IncompletePolicy,
    PolicyValue,
    RestartPolicy,
    StateSpaceExceeded,
    clairvoyance_adversary,
    evaluate_policy,
    non_adaptive_policy,
    optimal_adaptive,
    restart_policy,
)
from .simulate import (
    NonAdaptiveAssignment,
    SimulationReport,
    estimate_expected_max,
    simulate_adaptive_config,
    simulate_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
