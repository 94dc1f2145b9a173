"""Player utilities, response rules, potential functions and their checkers.

The utility of an AP trades off the interference it measures against the
interference it estimates it will generate at its known neighbors. The
first part is a measurement over the whole network (true gains); the second
uses mean-shadowing gain estimates restricted to the known set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import OFF, AccessPoint, AllocationState, Network, co_channel_mask, power_demand


@dataclass(slots=True)
class UtilityContext:
    """Everything one AP needs to evaluate its utility on each channel.

    ``interference[k]`` is the measured co-channel power at the player on
    channel k, accumulated over the whole network with true gains.
    ``generated_weight[k]`` sums the estimated outgoing gains to known
    neighbors currently active on k. It is None in an ``interference_context``
    until it is set; ``utility`` and ``best_response`` refuse such a context.
    """

    player: AccessPoint
    interference: np.ndarray
    generated_weight: np.ndarray | None
    edge_gain: float
    noise_power: float

    def necessary_power(self, k: int) -> float:
        interference = float(self.interference[k])
        demand = power_demand(self.player, self.noise_power, interference, self.edge_gain)
        return min(demand, self.player.max_power)


def profile_arrays(state: AllocationState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-AP arrays ``context`` reads: ``act``, ``ch`` and ``wp`` of ``state``."""
    act = (state.channels != OFF) & (state.powers > 0)
    return act, np.where(act, state.channels, 0), state.powers * act


def context(
    network: Network, i: int, ch: np.ndarray, wp: np.ndarray, known: np.ndarray
) -> UtilityContext:
    """Player i's utility context from per-AP arrays of the profile.

    ``ch`` holds each AP's channel (any valid id when silent), ``wp`` its
    power times its activity and ``known`` marks the active APs whose
    estimated gains i counts. Silent APs and i itself add exact zeros, since
    their weight and the gain diagonals are zero, and ``bincount`` adds in
    index order like a scalar loop over the APs: the sums are bit-equal.
    """
    ctx = interference_context(network, i, ch, wp)
    ctx.generated_weight = generated_weight(network, i, ch, known)
    return ctx


def interference_context(
    network: Network, i: int, ch: np.ndarray, wp: np.ndarray
) -> UtilityContext:
    """Player i's ``context`` with ``generated_weight`` left None.

    ``selfish_response`` reads only the interference. That is column i of
    ``gains_true``, which is contiguous.
    """
    return UtilityContext(
        network.topology[i],
        np.bincount(ch, wp * network.gains_true[:, i], network.num_channels),
        None,
        float(network.edge[i]),
        network.model.noise_power,
    )


def generated_weight(network: Network, i: int, ch: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Per channel, the estimated gains from player i to the ``known`` APs on it."""
    return np.bincount(ch, network.gains_est[i] * known, network.num_channels)


def _weight(ctx: UtilityContext) -> np.ndarray:
    if ctx.generated_weight is None:
        raise ValueError(
            f"AP {ctx.player.id}'s context has no generated weight; build it with context()"
        )
    return ctx.generated_weight


def utility(ctx: UtilityContext, k: int) -> float:
    """Negative of measured interference plus estimated generated interference."""
    if k not in ctx.player.channels:
        raise ValueError(f"channel {k} is not available to AP {ctx.player.id}")
    return -float(ctx.interference[k]) - ctx.necessary_power(k) * float(_weight(ctx)[k])


def _argmax_channel(ctx: UtilityContext, score: np.ndarray, current_channel: int) -> int:
    """Available channel of highest ``score[k]``, compared exactly on doubles.

    Ties keep the current channel if it is among the maximizers, otherwise
    the lowest channel id wins. The scores are finite, so ``max`` and
    ``index`` find the first maximizer as ``argmax`` does.
    """
    s = score.tolist()
    channels = ctx.player.channels
    if len(channels) < len(s):  # an AP that may use every channel skips the mask
        s = [v if k in channels else -math.inf for k, v in enumerate(s)]
    best = max(s)
    if current_channel != OFF and s[current_channel] == best:
        return current_channel
    return s.index(best)


def best_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Utility-maximizing channel with its necessary power.

    All channels are scored at once, with the operation order of ``utility``;
    ties follow ``_argmax_channel``.
    """
    ap = ctx.player
    power = np.minimum(
        power_demand(ap, ctx.noise_power, ctx.interference, ctx.edge_gain), ap.max_power
    )
    k = _argmax_channel(ctx, -ctx.interference - power * _weight(ctx), current_channel)
    return k, float(power[k])


def selfish_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Channel with least measured interference, same tie rule as best_response."""
    k = _argmax_channel(ctx, -ctx.interference, current_channel)
    return k, ctx.necessary_power(k)


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
    for i, cur in enumerate(state.channels.tolist()):
        if best_response(context(network, i, ch, wp, act), cur)[0] != cur:
            return False
    return True


@dataclass(frozen=True)
class TraceRecord:
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
