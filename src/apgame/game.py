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

from .model import (
    OFF,
    AccessPoint,
    AllocationState,
    PropagationModel,
    edge_gain,
    estimated_gain,
    estimated_gain_matrix,
    num_channels,
    power_demand,
    true_gain,
    true_gain_matrix,
)

FLAVOR_EXACT_FULL = "exact-full"
FLAVOR_APPENDIX_A = "appendix-a-local"
FLAVOR_APPENDIX_B = "appendix-b-selfish"


@dataclass(frozen=True)
class UtilityContext:
    """Everything one AP needs to evaluate its utility on each channel.

    ``interference[k]`` is the measured co-channel power at the player on
    channel k, accumulated over the whole network with true gains.
    ``generated_weight[k]`` sums the estimated outgoing gains to known
    neighbors currently active on k.
    """

    player: AccessPoint
    interference: np.ndarray
    generated_weight: np.ndarray
    edge_gain: float
    noise_power: float

    def necessary_power(self, k: int) -> float:
        interference = float(self.interference[k])
        demand = power_demand(self.player, self.noise_power, interference, self.edge_gain)
        return min(demand, self.player.max_power)


def utility_context(
    i: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    known: frozenset[int] | set[int] | None = None,
    *,
    gains_true: np.ndarray | None = None,
    gains_est: np.ndarray | None = None,
    channel_count: int | None = None,
) -> UtilityContext:
    """Build the per-player view of the current profile.

    ``known=None`` means full knowledge of all other APs.
    """
    ap = topology[i]
    k_total = channel_count if channel_count is not None else num_channels(topology)
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


def utility(ctx: UtilityContext, k: int) -> float:
    """Negative of measured interference plus estimated generated interference."""
    if k not in ctx.player.channels:
        raise ValueError(f"channel {k} is not available to AP {ctx.player.id}")
    return -float(ctx.interference[k]) - ctx.necessary_power(k) * float(ctx.generated_weight[k])


def best_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Utility-maximizing channel with its necessary power.

    Ties keep the current channel if it is among the maximizers, otherwise
    the lowest channel id wins. Comparison is exact on doubles.
    """
    best_k = -1
    best_u = -math.inf
    for k in sorted(ctx.player.channels):
        u = utility(ctx, k)
        if u > best_u or (u == best_u and k == current_channel):
            best_k, best_u = k, u
    return best_k, ctx.necessary_power(best_k)


def selfish_response(ctx: UtilityContext, current_channel: int) -> tuple[int, float]:
    """Channel with least measured interference, same tie rule as best_response."""
    best_k = -1
    best_i = math.inf
    for k in sorted(ctx.player.channels):
        v = float(ctx.interference[k])
        if v < best_i or (v == best_i and k == current_channel):
            best_k, best_i = k, v
    return best_k, ctx.necessary_power(best_k)


@dataclass(frozen=True)
class PotentialValue:
    value: float
    flavor: str


def _co_channel_mask(state: AllocationState) -> np.ndarray:
    ch = state.channels
    active = (ch != OFF) & (state.powers > 0)
    co = (ch[:, None] == ch[None, :]) & active[:, None] & active[None, :]
    np.fill_diagonal(co, False)
    return co


def exact_potential_full(
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    *,
    gains_true: np.ndarray | None = None,
    gains_est: np.ndarray | None = None,
) -> PotentialValue:
    """Half-sum potential of the full-knowledge game.

    Necessary powers are frozen at the current transmit powers, so the value
    depends only on the profile.
    """
    gt = gains_true if gains_true is not None else true_gain_matrix(topology, model)
    ge = gains_est if gains_est is not None else estimated_gain_matrix(topology, model)
    co = _co_channel_mask(state)
    p = state.powers
    received = float(np.sum(co * (p[:, None] * gt)))   # sum_i sum_j p_j g_ji over co-channel
    generated = float(np.sum(co * (p[:, None] * ge)))  # sum_i sum_j p_i gbar_ij over co-channel
    return PotentialValue(value=-0.5 * (received + generated), flavor=FLAVOR_EXACT_FULL)


def appendixB_potential(
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    *,
    gains_true: np.ndarray | None = None,
) -> PotentialValue:
    """Sum over APs of the altered selfish utility (interference times own power)."""
    gt = gains_true if gains_true is not None else true_gain_matrix(topology, model)
    co = _co_channel_mask(state)
    p = state.powers
    value = float(np.sum(co * (p[:, None] * p[None, :]) * gt))
    return PotentialValue(value=value, flavor=FLAVOR_APPENDIX_B)


def is_nash_equilibrium(
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    known_sets: list[frozenset[int]] | None = None,
) -> bool:
    """True iff no AP strictly improves by a unilateral channel change.

    Power is re-optimized to the necessary power on each candidate channel.
    Guarded against oversized inputs.
    """
    n = len(topology)
    k_total = num_channels(topology)
    if n * k_total > 1_000_000:
        raise ValueError("instance too large for the NE deviation sweep")
    gt = true_gain_matrix(topology, model)
    ge = estimated_gain_matrix(topology, model)
    for i, ap in enumerate(topology):
        known = known_sets[i] if known_sets is not None else None
        ctx = utility_context(
            i, topology, state, model, known,
            gains_true=gt, gains_est=ge, channel_count=k_total,
        )
        cur = int(state.channels[i])
        u_cur = utility(ctx, cur) if cur != OFF else -math.inf
        for k in ap.channels:
            if utility(ctx, k) > u_cur:
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
    flavor: str
    findings: list[Finding] = field(default_factory=list)
    max_violation: float = 0.0

    @property
    def passed(self) -> bool:
        return all(f.verdict == "ok" for f in self.findings)

    def violations(self) -> list[Finding]:
        return [f for f in self.findings if f.verdict != "ok"]

    def to_text(self) -> str:
        lines = [
            f"mover={f.mover} du={f.delta_u:.12g} dP={f.delta_potential:.12g} verdict={f.verdict}"
            for f in self.findings
        ]
        lines.append(f"summary flavor={self.flavor} max_violation={self.max_violation:.12g} "
                     f"passed={self.passed}")
        return "\n".join(lines)


def verify_exact_potential(
    topology: list[AccessPoint],
    model: PropagationModel,
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
    n = len(topology)
    gt = true_gain_matrix(topology, model)
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

    report = VerificationReport(flavor=FLAVOR_APPENDIX_B)
    for _ in range(trials):
        i = int(rng.integers(n))
        ks = sorted(topology[i].channels)
        new_k = ks[int(rng.integers(len(ks)))]
        old_k = int(state.channels[i])
        du = altered_utility(i, new_k) - altered_utility(i, old_k)
        p_old = appendixB_potential(topology, state, model, gains_true=gt).value
        state.channels[i] = new_k
        p_new = appendixB_potential(topology, state, model, gains_true=gt).value
        d_phi = 0.5 * (p_new - p_old)
        gap = abs(du - d_phi)
        report.max_violation = max(report.max_violation, gap)
        report.findings.append(
            Finding(mover=i, delta_u=du, delta_potential=d_phi,
                    verdict="ok" if gap <= tol else "violation")
        )
    return report


def verify_ordinal_improvement(
    trace: list[TraceRecord],
    potential_flavor: str = FLAVOR_EXACT_FULL,
) -> VerificationReport:
    """Check that every strict utility improvement strictly raised the potential."""
    report = VerificationReport(flavor=potential_flavor)
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
