"""Player utilities, response rules, potential functions and their checkers.

The utility of an AP trades off the interference it measures against the
interference it estimates it will generate at its known neighbors. The
first part is a measurement over the whole network (true gains); the second
uses mean-shadowing gain estimates restricted to the known set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import OFF, AllocationState, Network, Player, co_channel_mask, necessary_power


def utility(interference: list[float], weight: list[float], player: Player, k: int) -> float:
    """Negative of measured interference plus estimated generated interference on channel k.

    ``interference`` and ``weight`` are per channel, as ``best_response`` takes them.
    """
    channels, beta, noise, edge, cap = player
    if k not in channels:
        raise ValueError(f"channel {k} is not among the player's channels {channels}")
    p = beta * (noise + interference[k]) / edge  # necessary_power, inlined as in best_response
    return -interference[k] - (cap if cap < p else p) * weight[k]


def best_response(interference: list[float], weight: list[float], player: Player,
                  current_channel: int) -> tuple[int, float]:
    """Utility-maximizing channel of ``player`` with its necessary power.

    ``interference`` and ``weight`` give the measured interference and the
    generated weight per channel. Scores keep the operation order of
    ``utility``; without generated weight a channel scores exactly its
    negated interference, so the least interference wins, compared directly.
    Exact ties keep the current channel if it is among the maximizers, else
    the lowest id wins.
    """
    channels, beta, noise, edge, cap = player
    best_k = OFF
    if not any(weight):  # -I[k] orders the channels as I[k] does, ties included
        least = math.inf
        for k in channels:
            if interference[k] < least or (interference[k] == least and k == current_channel):
                best_k, least = k, interference[k]
    else:
        best = -math.inf
        for k in channels:
            score = -interference[k]
            if weight[k] != 0:  # necessary_power(player, interference[k]), inlined
                p = beta * (noise + interference[k]) / edge
                score -= (cap if cap < p else p) * weight[k]
            if score > best or (score == best and k == current_channel):
                best_k, best = k, score
    p = beta * (noise + interference[best_k]) / edge
    return best_k, cap if cap < p else p  # min(p, cap): the same comparison, without the call


def selfish_response(interference: list[float], weight: list[float], player: Player,
                     current_channel: int) -> tuple[int, float]:
    """Channel with least measured interference, same tie rule as best_response.

    It ignores ``weight``: it is best response without neighbour information.
    """
    best_k, least = OFF, math.inf
    for k in player.channels:
        if interference[k] < least or (interference[k] == least and k == current_channel):
            best_k, least = k, interference[k]
    return best_k, necessary_power(player, interference[best_k])


def exact_potential_full(network: Network, state: AllocationState) -> float:
    """Half-sum potential of the full-knowledge game.

    Necessary powers are frozen at the current transmit powers, so the value
    depends only on the profile.
    """
    co = co_channel_mask(state)
    p = state.powers
    # C-ordered products, so each sum adds in the same order whatever the layout
    # of gains_true: sum_i sum_j p_j g_ji and sum_i sum_j p_i gbar_ij over co-channel
    received = float(np.sum(co * np.multiply(p[:, None], network.gains_true, order="C")))
    generated = float(np.sum(co * (p[:, None] * network.gains_est)))
    return -0.5 * (received + generated)


def appendixB_potential(network: Network, state: AllocationState) -> float:
    """Sum over APs of the altered selfish utility (interference times own power)."""
    p = state.powers
    weights = co_channel_mask(state) * (p[:, None] * p[None, :])
    return float(np.sum(np.multiply(weights, network.gains_true, order="C")))


class TraceRecord(NamedTuple):
    """One unilateral move: the mover's old/new strategy, utility and potential."""

    mover: int
    old_channel: int
    new_channel: int
    old_power: float
    new_power: float
    u_before: float
    u_after: float
    potential_before: float | None = None
    potential_after: float | None = None


def verify_exact_potential(
    network: Network,
    *,
    trials: int,
    tol: float,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Sweep random unilateral channel deviations, every AP at 0.05 W.

    Compares each mover's change in altered selfish utility (its measured
    co-channel interference scaled by its own power) with the change of the
    summed-utility potential. The sum counts every co-channel pair twice, so
    the exact comparison uses half of it. With equal coverage radii the two
    changes agree to rounding; with unequal radii violations are expected and
    counted rather than raised. Returns the number of trials whose two changes
    differ by more than ``tol`` and the largest difference.
    """
    players, gt = network.players, network.gains_true
    n, power = len(players), 0.05  # watts
    channels = [p.channels[int(rng.integers(len(p.channels)))] for p in players]
    state = AllocationState(channels, np.full(n, power))

    def altered_utility(i: int, k: int) -> float:
        on_k = (state.channels == k)
        on_k[i] = False
        return power * float(np.sum(state.powers[on_k] * gt[on_k, i]))

    violations, worst = 0, 0.0
    p_new = appendixB_potential(network, state)
    for _ in range(trials):
        i = int(rng.integers(n))
        ks = players[i].channels
        new_k = ks[int(rng.integers(len(ks)))]
        old_k = int(state.channels[i])
        du = altered_utility(i, new_k) - altered_utility(i, old_k)
        p_old = p_new  # the state after the last trial is the state before this one
        state.channels[i] = new_k
        p_new = appendixB_potential(network, state)
        d_phi = 0.5 * (p_new - p_old)
        gap = abs(du - d_phi)
        worst = max(worst, gap)
        violations += not gap <= tol  # a NaN gap counts as a violation
    return violations, worst


def verify_ordinal_improvement(trace: list[TraceRecord]) -> tuple[int, int, float]:
    """Check that every strict utility improvement strictly raised the potential.

    Returns the number of strict improvements, how many of them did not raise
    the potential, and the largest drop among those.
    """
    improvements = violations = 0
    worst = 0.0
    for rec in trace:
        if rec.u_after <= rec.u_before:
            continue
        if rec.potential_before is None or rec.potential_after is None:
            raise ValueError("trace lacks potential values; rerun with potential recording")
        improvements += 1
        if not rec.potential_after > rec.potential_before:
            violations += 1
            worst = max(worst, rec.potential_before - rec.potential_after)
    return improvements, violations, worst
