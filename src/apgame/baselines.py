"""Reference allocation schemes: random and a greedy admission bound.

The greedy bound stands in for a centralized comparator. It is a feasible
heuristic lower bound on the number of simultaneously satisfiable APs under
global knowledge; it is not an optimum and can be surpassed.
"""

from __future__ import annotations

import bisect

import numpy as np

from .model import AllocationState, Network, power_demand

# Headroom applied to solved admission powers so edge SINR clears the target
# strictly despite rounding.
_POWER_PAD = 1e-9


def random_allocation(network: Network, rng: np.random.Generator) -> AllocationState:
    """Uniform channel draw per AP, then one sequential necessary-power pass."""
    state = AllocationState.all_off(len(network.topology))
    _draw_allocation(state, range(len(network.topology)), network, rng)
    return state


def _draw_allocation(
    state: AllocationState,
    ids: list[int] | range,
    network: Network,
    rng: np.random.Generator,
) -> None:
    """Switch on the silent APs ``ids``: uniform channel draws, then necessary powers in order.

    One draw with per-AP bounds gives the same numbers as one scalar draw per AP.
    """
    topology, gt = network.topology, network.gains_true
    sets = [topology[i].channels for i in ids]
    draws = rng.integers(np.array([len(ks) for ks in sets], dtype=np.int64)).tolist()
    ordered = {ks: sorted(ks) for ks in set(sets)}
    for i, ks, d in zip(ids, sets, draws):
        state.channels[i] = ordered[ks][d]
    members: list[list[int]] = [[] for _ in range(network.num_channels)]  # transmitting, ascending
    for j in np.flatnonzero(state.powers > 0).tolist():
        members[state.channels[j]].append(j)
    for i in ids:
        ap = topology[i]
        on_k = members[state.channels[i]]
        interference = _received(state.powers, gt[:, i], on_k)
        demand = power_demand(ap, network.model.noise_power, interference, float(network.edge[i]))
        state.powers[i] = min(demand, ap.max_power)
        bisect.insort(on_k, i)


def _received(powers: np.ndarray, gains_in: np.ndarray, members: list[int]) -> float:
    """Sum of ``powers[j] * gains_in[j]`` over the ascending ``members``.

    ``np.add.reduce`` is the reduction ``np.sum`` runs, so the sum adds in
    the order a boolean mask over all APs would select.
    """
    if not members:
        return 0.0
    idx = np.array(members)
    return float(np.add.reduce(powers.take(idx) * gains_in.take(idx)))


def _solve_channel_powers(
    members: list[int],
    beta: np.ndarray,
    edge: np.ndarray,
    caps: np.ndarray,
    noise_power: float,
    gt: np.ndarray,
) -> np.ndarray | None:
    """Exact power fixed point for one co-channel group, or None if infeasible.

    Solves p_a = beta_a (N0 + sum_b g_ba p_b) / g_aa and requires a positive
    solution, stable because the coupling is nonnegative, with headroom under
    every power cap. ``beta``, ``edge`` and ``caps`` are indexed by AP id.
    """
    m = len(members)
    beta, edge, caps = beta[members], edge[members], caps[members]
    # gt has a zero diagonal, so the coupling has one too
    coupling = beta[:, None] * gt[np.ix_(members, members)].T / edge[:, None]
    const = beta * noise_power / edge
    try:
        p = np.linalg.solve(np.eye(m) - coupling, const)
    except np.linalg.LinAlgError:
        return None
    p = p * (1.0 + _POWER_PAD)
    if np.any(p <= 0) or np.any(p > caps):
        return None
    return p


def greedy_admission_bound(
    network: Network, rng: np.random.Generator
) -> tuple[AllocationState, int]:
    """Admit APs in random order while every admitted AP stays satisfiable.

    Each AP is tried only on the channel that minimizes its necessary power
    against the interference of the already admitted set; if admission there
    breaks feasibility, the AP is powered off. ``Network`` keeps every demand
    finite. Returned powers keep all admitted APs simultaneously satisfied.
    """
    topology, gt, noise_power = network.topology, network.gains_true, network.model.noise_power
    n = len(topology)
    state = AllocationState.all_off(n)
    members: list[list[int]] = [[] for _ in range(network.num_channels)]  # admitted, ascending
    for i in rng.permutation(n).tolist():
        ap = topology[i]
        best_k, best_demand = None, np.inf
        for k in sorted(ap.channels):
            interference = _received(state.powers, gt[:, i], members[k])
            demand = power_demand(ap, noise_power, interference, float(network.edge[i]))
            if demand < best_demand:
                best_k, best_demand = k, demand
        group = members[best_k] + [i]
        solved = _solve_channel_powers(group, network.beta, network.edge, network.caps,
                                       noise_power, gt)
        if solved is None:
            continue
        state.channels[i] = best_k
        state.powers[group] = solved
        bisect.insort(members[best_k], i)
    return state, int(np.sum(state.powers > 0))
