"""Reference allocation schemes: random, selfish, and a greedy admission bound.

The greedy bound stands in for a centralized comparator. It is a feasible
heuristic lower bound on the number of simultaneously satisfiable APs under
global knowledge; it is not an optimum and can be surpassed.
"""

from __future__ import annotations

import numpy as np

from .model import (
    AccessPoint,
    AllocationState,
    PropagationModel,
    edge_gain,
    power_demand,
    true_gain_matrix,
)
from .schedulers import SELFISH, RunResult, TimingModel, run_dynamics

# Headroom applied to solved admission powers so edge SINR clears the target
# strictly despite rounding.
_POWER_PAD = 1e-9


def random_allocation(
    topology: list[AccessPoint],
    model: PropagationModel,
    rng: np.random.Generator,
    *,
    gains_true: np.ndarray | None = None,
) -> AllocationState:
    """Uniform channel draw per AP, then one sequential necessary-power pass."""
    gt = gains_true if gains_true is not None else true_gain_matrix(topology, model)
    state = AllocationState.all_off(len(topology))
    _draw_allocation(state, range(len(topology)), topology, model, rng, gt)
    return state


def _draw_allocation(
    state: AllocationState,
    ids: list[int] | range,
    topology: list[AccessPoint],
    model: PropagationModel,
    rng: np.random.Generator,
    gt: np.ndarray,
) -> None:
    """Switch on the silent APs ``ids``: uniform channel draws, then necessary powers in order."""
    for i in ids:
        ks = sorted(topology[i].channels)
        state.channels[i] = ks[int(rng.integers(len(ks)))]
    for i in ids:
        ap = topology[i]
        co = (state.channels == state.channels[i]) & (state.powers > 0)
        co[i] = False
        interference = float(np.sum(state.powers[co] * gt[co, i]))
        demand = power_demand(ap, model.noise_power, interference, edge_gain(ap, model))
        state.powers[i] = min(demand, ap.max_power)


def run_selfish(
    topology: list[AccessPoint],
    model: PropagationModel,
    timing: TimingModel,
    max_rounds: int,
    rng: np.random.Generator,
) -> tuple[RunResult, AllocationState]:
    """Least-interference dynamics from a fresh random allocation."""
    state = random_allocation(topology, model, rng)
    result = run_dynamics(topology, state, model, timing, SELFISH, max_rounds, rng)
    return result, state


def _solve_channel_powers(
    members: list[int],
    topology: list[AccessPoint],
    model: PropagationModel,
    gt: np.ndarray,
) -> np.ndarray | None:
    """Exact power fixed point for one co-channel group, or None if infeasible.

    Solves p_a = beta_a (N0 + sum_b g_ba p_b) / g_aa and requires a stable
    positive solution with headroom under every power cap.
    """
    m = len(members)
    beta = np.array([topology[a].sinr_target for a in members])
    edge = np.array([edge_gain(topology[a], model) for a in members])
    caps = np.array([topology[a].max_power for a in members])
    coupling = np.zeros((m, m))
    for ai, a in enumerate(members):
        for bi, b in enumerate(members):
            if ai != bi:
                coupling[ai, bi] = beta[ai] * gt[b, a] / edge[ai]
    const = beta * model.noise_power / edge
    if m > 1 and np.max(np.abs(np.linalg.eigvals(coupling))) >= 1.0:
        return None
    try:
        p = np.linalg.solve(np.eye(m) - coupling, const)
    except np.linalg.LinAlgError:
        return None
    p = p * (1.0 + _POWER_PAD)
    if np.any(p <= 0) or np.any(p > caps):
        return None
    return p


def greedy_admission_bound(
    topology: list[AccessPoint],
    model: PropagationModel,
    rng: np.random.Generator,
    *,
    gains_true: np.ndarray | None = None,
) -> tuple[AllocationState, int]:
    """Admit APs in random order while every admitted AP stays satisfiable.

    Each AP is tried only on the channel that minimizes its necessary power
    against the interference of the already admitted set; if admission there
    breaks feasibility, the AP is powered off. Returned powers keep all
    admitted APs simultaneously satisfied.
    """
    n = len(topology)
    gt = gains_true if gains_true is not None else true_gain_matrix(topology, model)
    state = AllocationState.all_off(n)
    order = [int(i) for i in rng.permutation(n)]
    for i in order:
        ap = topology[i]
        best_k = None
        best_demand = np.inf
        for k in sorted(ap.channels):
            co = (state.channels == k) & (state.powers > 0)
            interference = float(np.sum(state.powers[co] * gt[co, i]))
            demand = power_demand(ap, model.noise_power, interference, edge_gain(ap, model))
            if demand < best_demand:
                best_k, best_demand = k, demand
        members = [j for j in range(n) if state.channels[j] == best_k and state.powers[j] > 0]
        members.append(i)
        solved = _solve_channel_powers(members, topology, model, gt)
        if solved is None:
            continue
        state.channels[i] = best_k
        for mi, j in enumerate(members):
            state.powers[j] = solved[mi]
    admitted = int(np.sum(state.powers > 0))
    return state, admitted
