"""Physical-layer arithmetic: topology, propagation, SINR and transmit power.

All quantities are linear (not dB) and in SI units: meters, watts,
dimensionless gains and ratios. Functions here are pure; they never mutate
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Channel value used for an AP that is not transmitting.
OFF = -1


@dataclass(frozen=True)
class AccessPoint:
    """A wireless access point, the player of the allocation game.

    ``id`` must equal the AP's index in its topology list. ``channels`` is
    the set of channel ids this AP may transmit on, a subset of the global
    channel set ``range(num_channels)``.
    """

    id: int
    position: tuple[float, float]
    coverage_radius: float
    coordination_radius: float
    sinr_target: float
    max_power: float
    channels: frozenset[int]

    def __post_init__(self) -> None:
        if self.coverage_radius <= 0:
            raise ValueError(f"coverage_radius must be positive, got {self.coverage_radius}")
        if self.coordination_radius < self.coverage_radius:
            raise ValueError("coordination_radius must be >= coverage_radius")
        if self.sinr_target <= 0:
            raise ValueError("sinr_target must be a positive linear ratio")
        if self.max_power <= 0:
            raise ValueError("max_power must be positive")
        if not self.channels:
            raise ValueError("channel set must be nonempty")
        if any(k < 0 for k in self.channels):
            raise ValueError("channel ids must be nonnegative")


def distance(a: AccessPoint, b: AccessPoint) -> float:
    """Euclidean distance between two APs in meters."""
    return math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])


def num_channels(topology: list[AccessPoint]) -> int:
    """Size of the global channel set, inferred as 1 + highest channel id."""
    return 1 + max(max(ap.channels) for ap in topology)


def lognormal_mean_linear(mean_db: float, std_db: float) -> float:
    """Mean of the linear gain 10**(X/10) for X ~ Normal(mean_db, std_db)."""
    scale = math.log(10.0) / 10.0
    return math.exp(scale * mean_db + 0.5 * (scale * std_db) ** 2)


@dataclass
class PropagationModel:
    """Path loss plus symmetric log-normal shadowing between AP pairs.

    ``shadow_samples[i, j]`` is the sampled linear shadowing gain for the
    unordered pair (i, j); the matrix is symmetric and frequency-flat.
    ``mean_linear_gain`` is the analytic mean of the shadowing distribution
    and is used wherever the shadowing realization is assumed unknown.
    """

    path_loss_exponent: float
    mean_linear_gain: float
    shadow_samples: np.ndarray
    noise_power: float
    min_separation: float = 0.1
    shadow_mean_db: float = 0.0
    shadow_std_db: float = 8.0

    def __post_init__(self) -> None:
        z = np.asarray(self.shadow_samples, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("shadow_samples must be a square matrix")
        if not np.array_equal(z, z.T):
            raise ValueError("shadow_samples must be symmetric")
        if np.any(z <= 0):
            raise ValueError("shadow gains must be positive")
        if self.min_separation <= 0:
            raise ValueError("min_separation must be positive")
        if self.path_loss_exponent < 2:
            raise ValueError("path_loss_exponent must be >= 2")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        object.__setattr__(self, "shadow_samples", z)

    @classmethod
    def sample(
        cls,
        num_aps: int,
        rng: np.random.Generator,
        *,
        path_loss_exponent: float = 3.0,
        shadow_mean_db: float = 0.0,
        shadow_std_db: float = 8.0,
        noise_power: float = 1e-8,
        min_separation: float = 0.1,
    ) -> "PropagationModel":
        """Draw one symmetric shadowing matrix and bundle the parameters."""
        x_db = rng.normal(shadow_mean_db, shadow_std_db, size=(num_aps, num_aps))
        upper = np.triu(10.0 ** (x_db / 10.0), 1)
        z = upper + upper.T + np.eye(num_aps)
        return cls(
            path_loss_exponent=path_loss_exponent,
            mean_linear_gain=lognormal_mean_linear(shadow_mean_db, shadow_std_db),
            shadow_samples=z,
            noise_power=noise_power,
            min_separation=min_separation,
            shadow_mean_db=shadow_mean_db,
            shadow_std_db=shadow_std_db,
        )


@dataclass
class AllocationState:
    """Per-AP (channel, transmit power); the strategy profile.

    ``channels[i] == OFF`` together with ``powers[i] == 0`` marks a silent AP.
    """

    channels: np.ndarray
    powers: np.ndarray

    def __post_init__(self) -> None:
        ch = np.asarray(self.channels, dtype=np.int64)
        p = np.asarray(self.powers, dtype=float)
        if ch.shape != p.shape or ch.ndim != 1:
            raise ValueError("channels and powers must be 1-D arrays of equal length")
        if not np.all(np.isfinite(p) & (p >= 0)):
            raise ValueError("powers must be finite and nonnegative")
        if np.any((p > 0) & (ch == OFF)):
            raise ValueError("a positive power requires an assigned channel")
        self.channels = ch
        self.powers = p

    @classmethod
    def all_off(cls, n: int) -> "AllocationState":
        return cls(np.full(n, OFF, dtype=np.int64), np.zeros(n))

    @property
    def num_aps(self) -> int:
        return len(self.channels)

    def copy(self) -> "AllocationState":
        return AllocationState(self.channels.copy(), self.powers.copy())


def validate_state(state: AllocationState, topology: list[AccessPoint]) -> None:
    """Check the per-AP invariants that need topology context."""
    if state.num_aps != len(topology):
        raise ValueError("state size does not match topology")
    for i, ap in enumerate(topology):
        if state.powers[i] > ap.max_power:
            raise ValueError(f"AP {i} exceeds its power cap")
        k = int(state.channels[i])
        if k != OFF and k not in ap.channels:
            raise ValueError(f"AP {i} is on channel {k} outside its channel set")


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


def edge_gain(i: AccessPoint, model: PropagationModel) -> float:
    """Own-link gain evaluated at the edge of i's coverage area."""
    return i.coverage_radius ** -model.path_loss_exponent * model.mean_linear_gain


def _gain_matrix(
    topology: list[AccessPoint], model: PropagationModel, shadowing: np.ndarray | float
) -> np.ndarray:
    """Matrix of path loss from i to j's coverage edge times ``shadowing``; zero diagonal."""
    pos = np.array([ap.position for ap in topology], dtype=float)
    r = np.array([ap.coverage_radius for ap in topology])
    d = np.hypot(pos[:, 0:1] - pos[:, 0:1].T, pos[:, 1:2] - pos[:, 1:2].T)
    eff = np.maximum(d - r[None, :], model.min_separation)
    g = eff ** -model.path_loss_exponent * shadowing
    np.fill_diagonal(g, 0.0)
    return g


def true_gain_matrix(topology: list[AccessPoint], model: PropagationModel) -> np.ndarray:
    """Matrix G with G[i, j] = true_gain(i, j); zero diagonal."""
    return _gain_matrix(topology, model, model.shadow_samples)


def estimated_gain_matrix(topology: list[AccessPoint], model: PropagationModel) -> np.ndarray:
    """Matrix with [i, j] = estimated_gain(i, j); zero diagonal."""
    return _gain_matrix(topology, model, model.mean_linear_gain)


def power_demand(ap: AccessPoint, noise_power: float, interference: float, edge: float) -> float:
    """Necessary power beta (N0 + I) / g_edge before the cap at ``ap.max_power``."""
    return ap.sinr_target * (noise_power + interference) / edge


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


def satisfied_mask(
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    *,
    gains_true: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized is_satisfied over the whole topology."""
    gt = gains_true if gains_true is not None else true_gain_matrix(topology, model)
    ch = state.channels
    p = state.powers
    active = (ch != OFF) & (p > 0)
    contrib = (p * active)[:, None] * gt  # [j, i]: power j delivers at i
    co = (ch[:, None] == ch[None, :]) & active[:, None]
    np.fill_diagonal(co, False)
    interference = np.sum(contrib * co, axis=0)
    beta = np.array([ap.sinr_target for ap in topology])
    edge = np.array([edge_gain(ap, model) for ap in topology])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = edge * p / (model.noise_power + interference)
    return active & (ratio >= beta)
