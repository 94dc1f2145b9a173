"""Game-theoretic power and channel allocation under the physical SINR model.

Simulator and verification library for best-response spectrum allocation
among wireless access points with partial neighbor knowledge grown by a
peer-discovery mechanism.
"""

from .model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    estimated_gain,
    interference_at,
    is_satisfied,
    necessary_power,
    sinr,
    true_gain,
)
from .game import (
    TraceRecord,
    UtilityContext,
    appendixB_potential,
    best_response,
    exact_potential_full,
    is_nash_equilibrium,
    local_optimality_check,
    selfish_response,
    utility,
    utility_context,
    verify_exact_potential,
    verify_ordinal_improvement,
)
from .knowledge import (
    DiscoveryState,
    KnowledgeBase,
    candidate_test,
    discovery_complete,
    discovery_tick,
    nearest_cover_set,
    sufficiency_check,
)
from .schedulers import RunResult, TimingModel, next_movers, run_dynamics
from .baselines import greedy_admission_bound, random_allocation, run_selfish
from .harness import (
    MetricsSeries,
    ScenarioConfig,
    domino_experiment,
    export_results,
    generate_topology,
    run_experiment,
)

__version__ = "0.1.0"
