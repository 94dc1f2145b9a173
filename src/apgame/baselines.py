"""Reference allocation schemes: random and a greedy admission bound.

The greedy bound stands in for a centralized comparator. It is a feasible
heuristic lower bound on the number of simultaneously satisfiable APs under
global knowledge; it is not an optimum and can be surpassed.
"""

from __future__ import annotations

import numpy as np

from .model import OFF, AllocationState, Network, necessary_power, power_demand

# Headroom applied to solved admission powers so edge SINR clears the target
# strictly despite rounding.
_POWER_PAD = 1e-9
# Relative demand margin within which the greedy channel choice recomputes a
# channel's received power exactly. Two summation orders of N nonnegative
# terms differ by at most about 2 N 1.1e-16 of the sum, 2e-10 at 1e6 APs.
_CHOICE_SLACK = 1e-8


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
    players, gt = network.players, network.gains_true
    draws = rng.integers(np.array([len(players[i].channels) for i in ids], dtype=np.int64))
    for i, d in zip(ids, draws.tolist()):
        state.channels[i] = players[i].channels[d]
    transmitting = state.powers > 0  # before any of ``ids`` switches on
    drawn = state.channels[ids]
    joining = np.bincount(drawn, minlength=network.num_channels)
    groups: dict[int, _Group] = {}  # built when an AP of ``ids`` first draws the channel
    for i, k in zip(ids, drawn.tolist()):
        if k not in groups:
            on_k = np.flatnonzero(transmitting & (state.channels == k))
            groups[k] = _Group(len(on_k) + int(joining[k]), on_k, state.powers[on_k])
        state.powers[i] = p = necessary_power(players[i], groups[k].received(gt[:, i]))
        groups[k].insert(i, p)


class _Group:
    """The APs on one channel in ascending id order, with their powers in the same order.

    ``ids`` and ``powers`` view the first slots of buffers with room for
    ``capacity`` APs, so an insertion moves only the slots after it.
    """

    def __init__(self, capacity: int, ids: np.ndarray, powers: np.ndarray) -> None:
        m = len(ids)
        self._ids, self._powers = np.empty(capacity, np.intp), np.empty(capacity)
        self._ids[:m], self._powers[:m] = ids, powers
        self.ids, self.powers = self._ids[:m], self._powers[:m]

    def received(self, gains_in: np.ndarray) -> float:
        """Sum of ``powers[j] * gains_in[j]`` over the group.

        ``np.add.reduce`` is the reduction ``np.sum`` runs, so the sum adds in
        the order a boolean mask over all APs would select, and an empty group
        gives 0.0.
        """
        return float(np.add.reduce(self.powers * gains_in.take(self.ids)))

    def insert(self, i: int, p: float) -> int:
        """Add AP i at power p in id order; return its slot."""
        m = len(self.ids)
        pos = int(self.ids.searchsorted(i)) if m and self._ids[m - 1] > i else m
        if pos < m:  # the later slots move up by one
            self._ids[pos + 1:m + 1], self._powers[pos + 1:m + 1] = self.ids[pos:], self.powers[pos:]
        self._ids[pos], self._powers[pos] = i, p
        self.ids, self.powers = self._ids[:m + 1], self._powers[:m + 1]
        return pos


def greedy_admission_bound(
    network: Network, rng: np.random.Generator
) -> tuple[AllocationState, int]:
    """Admit APs in random order while every admitted AP stays satisfiable.

    Each AP is tried only on the channel that minimizes its necessary power
    against the interference of the already admitted set; if admission there
    breaks feasibility, the AP is powered off. ``Network`` keeps every demand
    finite. Returned powers keep all admitted APs simultaneously satisfied.

    Admission solves p_a = beta_a (N0 + sum_b g_ba p_b) / g_aa on the
    channel's group and the AP, and requires a positive solution, stable
    because the coupling M is nonnegative, with headroom under every power
    cap. Each channel keeps its group's I - M in ascending id order; the
    candidate system borders it with the AP's row and column, the AP last,
    and a fresh solve of that matrix gives the powers.
    """
    players, gt = network.players, network.gains_true
    beta, edge, caps = network.beta, network.edge, network.caps
    const = beta * network.noise_power / edge
    n = len(players)
    empty = np.empty(0)
    groups = [_Group(n, empty, empty) for _ in range(network.num_channels)]
    eye_minus = [np.empty((0, 0))] * network.num_channels  # each group's I - M, same order
    admitted_k = np.full(n, network.num_channels)  # each AP's channel; the spare bin until admitted
    admitted_p = np.zeros(n)
    for i in rng.permutation(n).tolist():
        gin, player = gt[:, i], players[i]
        # one in-order sum per channel is within 2 N ulps of the group's exact
        # sum, far inside the slack: only channels whose demand comes that near
        # the least take the exact sum
        approx = np.bincount(admitted_k, admitted_p * gin, network.num_channels + 1).tolist()
        demands = [power_demand(player, approx[k]) for k in player.channels]
        near = min(demands) * (1.0 + _CHOICE_SLACK)
        best_k, best_demand = None, np.inf
        for k, d in zip(player.channels, demands):
            if d <= near:
                demand = power_demand(player, groups[k].received(gin))
                if demand < best_demand:
                    best_k, best_demand = k, demand
        group = groups[best_k]
        ids, m = group.ids, len(group.ids)
        # each entry is 0.0 - c, as np.eye(m) - M computes it: +0.0 stays +0.0
        a = np.empty((m + 1, m + 1))
        a[:m, :m] = eye_minus[best_k]
        a[m, :m] = 0.0 - beta[i] * gin.take(ids) / edge[i]
        a[:m, m] = 0.0 - beta.take(ids) * gt[i].take(ids) / edge.take(ids)
        a[m, m] = 1.0
        members = np.concatenate((ids, (i,)))
        try:
            p = np.linalg.solve(a, const.take(members))
        except np.linalg.LinAlgError:
            continue
        p = p * (1.0 + _POWER_PAD)
        if (p <= 0).any() or (p > caps.take(members)).any():
            continue
        pos = group.insert(i, p[m])
        group.powers[:pos], group.powers[pos + 1:] = p[:pos], p[pos:m]
        order = np.arange(m + 1)  # the bordered matrix's rows in ascending id order
        order[pos + 1:] -= 1
        order[pos] = m
        eye_minus[best_k] = a.take(order, 0).take(order, 1)
        admitted_k[i] = best_k
        admitted_p[group.ids] = group.powers
    admitted = admitted_p > 0
    return AllocationState(np.where(admitted, admitted_k, OFF), admitted_p), int(np.sum(admitted))
