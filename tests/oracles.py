"""Scalar per-AP reference forms of the package's array kernels.

Each function computes one quantity for one AP (or one pair of APs) with a
plain Python loop over the topology. The package computes the same
quantities with whole-array kernels (``model.true_gain_matrix``,
``model.satisfied_mask``, ``game.context``, ``KnowledgeBase.from_topology``,
...); the tests hold those kernels to these forms, bit for bit where the
operation order matches.
"""

from __future__ import annotations

import numpy as np

from apgame.game import UtilityContext
from apgame.knowledge import KnowledgeBase, nearest_cover_set
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    PropagationModel,
    distance,
    edge_gain,
    num_channels,
    power_demand,
)


def estimated_gain(i: AccessPoint, j: AccessPoint, model: PropagationModel) -> float:
    """Expected linear gain from transmitter i at receiver j's coverage edge.

    Shadowing is replaced by its mean; used when the realization is unknown.
    """
    if i.id == j.id:
        raise ValueError("estimated_gain requires two distinct APs")
    d = max(distance(i, j) - j.coverage_radius, model.min_separation)
    return d ** -model.path_loss_exponent * model.mean_linear_gain


def true_gain(i: AccessPoint, j: AccessPoint, model: PropagationModel) -> float:
    """Linear gain from transmitter i at receiver j with sampled shadowing."""
    if i.id == j.id:
        raise ValueError("true_gain requires two distinct APs")
    d = max(distance(i, j) - j.coverage_radius, model.min_separation)
    return d ** -model.path_loss_exponent * float(model.shadow_samples[i.id, j.id])


def interference_at(
    j: AccessPoint,
    k: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
) -> float:
    """Total received co-channel power at AP j on channel k, in watts."""
    if k < 0:
        raise ValueError("interference is defined for a real channel, not OFF")
    total = 0.0
    for i, ap in enumerate(topology):
        if i == j.id or state.channels[i] != k or state.powers[i] <= 0:
            continue
        total += true_gain(ap, j, model) * float(state.powers[i])
    return total


def sinr(
    i: AccessPoint,
    k: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
) -> float:
    """Coverage-edge SINR of AP i on channel k at its current power."""
    if k not in i.channels:
        raise ValueError(f"channel {k} is not available to AP {i.id}")
    p = float(state.powers[i.id])
    if p <= 0:
        raise ValueError("SINR is undefined for a silent AP; treat it as unsatisfied")
    noise_plus_i = model.noise_power + interference_at(i, k, topology, state, model)
    return edge_gain(i, model) * p / noise_plus_i


def necessary_power(
    i: AccessPoint,
    k: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
) -> float:
    """Minimum power meeting i's SINR target on k, capped at its budget."""
    if k not in i.channels:
        raise ValueError(f"channel {k} is not available to AP {i.id}")
    interference = interference_at(i, k, topology, state, model)
    return min(power_demand(i, model.noise_power, interference, edge_gain(i, model)), i.max_power)


def is_satisfied(
    i: AccessPoint,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
) -> bool:
    """True iff AP i transmits and meets its SINR target at the coverage edge."""
    k = int(state.channels[i.id])
    if k == OFF or state.powers[i.id] <= 0:
        return False
    return sinr(i, k, topology, state, model) >= i.sinr_target


def utility_context(
    i: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    known: frozenset[int] | set[int] | None = None,
    *,
    gains_true: np.ndarray | None = None,
    gains_est: np.ndarray | None = None,
) -> UtilityContext:
    """Build the per-player view of the current profile.

    ``known=None`` means full knowledge of all other APs.
    """
    ap = topology[i]
    k_total = num_channels(topology)
    interference = np.zeros(k_total)
    generated = np.zeros(k_total)
    for j, other in enumerate(topology):
        k = int(state.channels[j])
        p = float(state.powers[j])
        if j == i or k == OFF or p <= 0:
            continue
        g = float(gains_true[j, i]) if gains_true is not None else true_gain(other, ap, model)
        interference[k] += g * p
        if known is None or j in known:
            ge = float(gains_est[i, j]) if gains_est is not None else estimated_gain(ap, other, model)
            generated[k] += ge
    return UtilityContext(
        player=ap,
        interference=interference,
        generated_weight=generated,
        edge_gain=edge_gain(ap, model),
        noise_power=model.noise_power,
    )


def local_optimality_check(
    i: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    known: frozenset[int] | set[int] | None = None,
) -> bool:
    """True iff least-measured-interference and least-generated-interference agree.

    Both argmins break ties toward the lowest channel id.
    """
    ctx = utility_context(i, topology, state, model, known)
    ks = sorted(ctx.player.channels)
    argmin_measured = min(ks, key=lambda k: (float(ctx.interference[k]), k))
    argmin_generated = min(ks, key=lambda k: (float(ctx.generated_weight[k]), k))
    return argmin_measured == argmin_generated


def candidate_test(i: AccessPoint, j: AccessPoint) -> bool:
    """True iff the coordination areas of the two APs overlap."""
    if i.id == j.id:
        raise ValueError("candidate_test requires two distinct APs")
    return distance(i, j) < i.coordination_radius + j.coordination_radius


def sufficiency_check(
    i: int,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    state: AllocationState,
) -> bool:
    """True iff i already knows its nearest channel-covering neighbor set."""
    return bool(knowledge.known[i, sorted(nearest_cover_set(i, topology, state))].all())
