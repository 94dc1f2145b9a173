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
    Player,
    PropagationModel,
)
from .game import (
    TraceRecord,
    appendixB_potential,
    best_response,
    exact_potential_full,
    selfish_response,
    utility,
    verify_exact_potential,
    verify_ordinal_improvement,
)
from .knowledge import (
    DiscoveryState,
    KnowledgeBase,
    discovery_complete,
    discovery_tick,
    nearest_cover_set,
    neighbour_order,
)
from .schedulers import RunResult, is_nash_equilibrium, run_dynamics
from .baselines import greedy_admission_bound, random_allocation
from .harness import (
    MetricsSeries,
    ScenarioConfig,
    domino_experiment,
    export_results,
    generate_topology,
    run_experiment,
)

__version__ = "0.1.0"
