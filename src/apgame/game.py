"""Player utilities, response rules, potential functions and their checkers.

The utility of an AP trades off the interference it measures against the
interference it estimates it will generate at its known neighbors. The
first part is a measurement over the whole network (true gains); the second
uses mean-shadowing gain estimates restricted to the known set.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import OFF, AccessPoint, AllocationState, Network, co_channel_mask, power_demand


@dataclass(slots=True)
class UtilityContext:
    """Everything one AP needs to evaluate its utility on each channel.

    ``interference[k]`` is the measured co-channel power at the player on
    channel k, accumulated over the whole network with true gains.
    ``generated_weight[k]`` sums the estimated outgoing gains to known
    neighbors active on k; all zeros when the player knows no neighbour, as
    under the selfish rule.
    """

    player: AccessPoint
    interference: list[float]
    generated_weight: list[float]
    edge_gain: float
    noise_power: float

    def necessary_power(self, k: int) -> float:
        demand = power_demand(self.player, self.noise_power, self.interference[k], self.edge_gain)
        return min(demand, self.player.max_power)


def profile_arrays(state: AllocationState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-AP arrays ``context`` reads: ``act``, ``ch`` and ``wp`` of ``state``."""
    act = (state.channels != OFF) & (state.powers > 0)
    return act, np.where(act, state.channels, 0), state.powers * act


def context(network: Network, i: int, ch: np.ndarray, wp: np.ndarray,
            weight: list[float]) -> UtilityContext:
    """Player i's utility context with the given ``generated_weight``.

    ``ch`` holds each AP's channel (any valid id when silent) and ``wp`` its
    power times its activity. Silent APs and i add exact zeros, and
    ``bincount`` adds in index order like a scalar loop: the sums are bit-equal.
    """
    return UtilityContext(
        network.topology[i],
        np.bincount(ch, wp * network.gains_true[:, i], network.num_channels).tolist(),
        weight,
        float(network.edge[i]),
        network.model.noise_power,
    )


def generated_weight(neighbours: Iterable[tuple[int, float]], ch: list[int], act: list[bool],
                     num_channels: int) -> list[float]:
    """Per channel, the estimated gains ĝ_ij from a player to its active neighbours j on it.

    ``neighbours`` yields (j, ĝ_ij) in ascending j; ``ch`` and ``act`` list
    each AP's channel and activity. The sums are bit-equal to sums over all
    APs with zero weight off the active neighbours (README, "Exactness contract").
    """
    weight = [0.0] * num_channels
    for j, g in neighbours:
        if act[j]:
            weight[ch[j]] += g
    return weight


def _channels(ap: AccessPoint, num_channels: int) -> Iterable[int]:
    """The channels available to ``ap``, in ascending id order."""
    return range(num_channels) if len(ap.channels) == num_channels else sorted(ap.channels)


def utility(ctx: UtilityContext, k: int) -> float:
    """Negative of measured interference plus estimated generated interference."""
    if k not in ctx.player.channels:
        raise ValueError(f"channel {k} is not available to AP {ctx.player.id}")
    return -ctx.interference[k] - ctx.necessary_power(k) * ctx.generated_weight[k]


def best_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Utility-maximizing available channel with its necessary power.

    Scores keep the operation order of ``utility``; without generated weight
    a channel scores exactly its negated interference. Exact ties keep the
    current channel if it is among the maximizers, else the lowest id wins.
    """
    ap, interference, weight = ctx.player, ctx.interference, ctx.generated_weight
    beta, noise, edge, cap = ap.sinr_target, ctx.noise_power, ctx.edge_gain, ap.max_power
    best_k, best = OFF, -math.inf
    for k in _channels(ap, len(interference)):
        score = -interference[k]
        if weight[k] != 0:
            # necessary_power(k), inlined
            score -= min(beta * (noise + interference[k]) / edge, cap) * weight[k]
        if score > best or (score == best and k == current_channel):
            best_k, best = k, score
    return best_k, ctx.necessary_power(best_k)


def selfish_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Channel with least measured interference, same tie rule as best_response."""
    interference = ctx.interference
    best_k, least = OFF, math.inf
    for k in _channels(ctx.player, len(interference)):
        if interference[k] < least or (interference[k] == least and k == current_channel):
            best_k, least = k, interference[k]
    return best_k, ctx.necessary_power(best_k)


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


def is_nash_equilibrium(network: Network, state: AllocationState) -> bool:
    """True iff no AP strictly improves by a unilateral channel change.

    Power is re-optimized to the necessary power on each candidate channel,
    and every AP knows every other: each AP's ``best_response`` keeps its
    channel, which a tie allows. Guarded against oversized inputs.
    """
    if state.num_aps * network.num_channels > 1_000_000:
        raise ValueError("instance too large for the NE deviation sweep")
    act, ch, wp = profile_arrays(state)
    channels, active = state.channels.tolist(), act.tolist()
    for i, cur in enumerate(channels):
        # every AP is a neighbour; i's own pair adds its zero gain
        pairs = enumerate(network.gains_est[i].tolist())
        weight = generated_weight(pairs, channels, active, network.num_channels)
        if best_response(context(network, i, ch, wp, weight), cur)[0] != cur:
            return False
    return True


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


@dataclass(frozen=True)
class Finding:
    mover: int
    delta_u: float
    delta_potential: float
    verdict: str  # "ok" or "violation"


@dataclass
class VerificationReport:
    findings: list[Finding] = field(default_factory=list)
    max_violation: float = 0.0

    @property
    def passed(self) -> bool:
        return all(f.verdict == "ok" for f in self.findings)

    def violations(self) -> list[Finding]:
        return [f for f in self.findings if f.verdict != "ok"]


def verify_exact_potential(
    network: Network,
    *,
    trials: int,
    tol: float,
    rng: np.random.Generator,
    power: float = 0.05,
) -> VerificationReport:
    """Sweep random unilateral channel deviations at a fixed uniform power.

    Compares each mover's change in altered selfish utility (its measured
    co-channel interference scaled by its own power) with the change of the
    summed-utility potential. The sum counts every co-channel pair twice, so
    the exact comparison uses half of it. With equal coverage radii the two
    changes agree to rounding; with unequal radii violations are expected and
    reported rather than raised.
    """
    topology = network.topology
    gt = network.gains_true
    n = len(topology)
    channels = np.empty(n, dtype=np.int64)
    for i, ap in enumerate(topology):
        ks = sorted(ap.channels)
        channels[i] = ks[int(rng.integers(len(ks)))]
    powers = np.full(n, power)
    state = AllocationState(channels, powers)

    def altered_utility(i: int, k: int) -> float:
        on_k = (state.channels == k)
        on_k[i] = False
        return power * float(np.sum(state.powers[on_k] * gt[on_k, i]))

    report = VerificationReport()
    for _ in range(trials):
        i = int(rng.integers(n))
        ks = sorted(topology[i].channels)
        new_k = ks[int(rng.integers(len(ks)))]
        old_k = int(state.channels[i])
        du = altered_utility(i, new_k) - altered_utility(i, old_k)
        p_old = appendixB_potential(network, state)
        state.channels[i] = new_k
        p_new = appendixB_potential(network, state)
        d_phi = 0.5 * (p_new - p_old)
        gap = abs(du - d_phi)
        report.max_violation = max(report.max_violation, gap)
        report.findings.append(
            Finding(mover=i, delta_u=du, delta_potential=d_phi,
                    verdict="ok" if gap <= tol else "violation")
        )
    return report


def verify_ordinal_improvement(trace: list[TraceRecord]) -> VerificationReport:
    """Check that every strict utility improvement strictly raised the potential."""
    report = VerificationReport()
    for rec in trace:
        if rec.u_after <= rec.u_before:
            continue
        if rec.potential_before is None or rec.potential_after is None:
            raise ValueError("trace lacks potential values; rerun with potential recording")
        ok = rec.potential_after > rec.potential_before
        if not ok:
            report.max_violation = max(
                report.max_violation, rec.potential_before - rec.potential_after
            )
        report.findings.append(
            Finding(
                mover=rec.mover,
                delta_u=rec.u_after - rec.u_before,
                delta_potential=rec.potential_after - rec.potential_before,
                verdict="ok" if ok else "violation",
            )
        )
    return report
