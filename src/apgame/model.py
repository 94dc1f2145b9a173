"""Physical-layer arithmetic: topology, propagation, SINR and transmit power.

All quantities are linear (not dB) and in SI units: meters, watts,
dimensionless gains and ratios. Functions here never mutate their inputs,
except that ``path_loss`` and ``true_gain_matrix`` overwrite the N x N
buffer they are given, so that set-up holds no temporary N x N copy.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

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

    def __post_init__(self) -> None:
        z = np.asarray(self.shadow_samples, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("shadow_samples must be a square matrix")
        if not np.array_equal(z, z.T):
            raise ValueError("shadow_samples must be symmetric")
        if np.any(z <= 0):
            raise ValueError("shadow gains must be positive")
        for name in ("path_loss_exponent", "noise_power", "min_separation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    ) -> "PropagationModel":
        """Draw one symmetric shadowing matrix and bundle the parameters."""
        # in place, and mirrored by row slices: triangle indices would cost N² index pairs
        z = rng.normal(shadow_mean_db, shadow_std_db, size=(num_aps, num_aps))
        z /= 10.0
        np.power(10.0, z, out=z)
        for i in range(1, num_aps):
            z[i, :i] = z[:i, i]
        np.fill_diagonal(z, 1.0)
        return cls(
            path_loss_exponent=path_loss_exponent,
            mean_linear_gain=lognormal_mean_linear(shadow_mean_db, shadow_std_db),
            shadow_samples=z,
            noise_power=noise_power,
        )


@dataclass
class AllocationState:
    """Per-AP (channel, transmit power); the strategy profile.

    ``channels[i] == OFF`` with ``powers[i] == 0`` marks a silent AP; an AP
    transmits when its power is positive. Channels are integers >= ``OFF``.
    """

    channels: np.ndarray
    powers: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.channels)
        with np.errstate(invalid="ignore"):  # a NaN or out-of-range value fails the test below
            ch = raw.astype(np.int64)
        p = np.asarray(self.powers, dtype=float)
        if ch.shape != p.shape or ch.ndim != 1:
            raise ValueError("channels and powers must be 1-D arrays of equal length")
        bad = np.flatnonzero((ch != raw) | (ch < OFF))
        if len(bad):
            raise ValueError(f"channel {raw[bad[0]]} of AP {bad[0]} is not an integer >= {OFF}")
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


def edge_gain(i: AccessPoint, model: PropagationModel) -> float:
    """Own-link gain evaluated at the edge of i's coverage area."""
    return i.coverage_radius ** -model.path_loss_exponent * model.mean_linear_gain


def ap_positions(topology: list[AccessPoint]) -> np.ndarray:
    """The N x 2 array of AP coordinates in meters."""
    return np.array([ap.position for ap in topology], dtype=float)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix D with D[r, j] the distance in meters from point a[r] to point b[j].

    The one distance kernel: each entry is the same elementwise hypot, so a
    row computed alone equals that row of the whole matrix bit for bit.
    """
    dx = a[:, 0:1] - b[:, 0]
    return np.hypot(dx, a[:, 1:2] - b[:, 1], out=dx)


def path_loss(topology: list[AccessPoint], model: PropagationModel,
              distances: np.ndarray) -> np.ndarray:
    """Receiver-major path loss: entry [j, i] from transmitter i to receiver j's coverage edge.

    ``distances`` is the APs' ``pairwise_distances``, which this overwrites
    and returns as the loss; the diagonal is zero. Distances and shadowing
    are symmetric, so both gain layouts are products of this one matrix
    (``true_gain_matrix``, ``estimated_gain_matrix``).
    """
    r = np.array([ap.coverage_radius for ap in topology])
    loss = np.subtract(distances, r[:, None], out=distances)
    np.maximum(loss, model.min_separation, out=loss)
    loss **= -model.path_loss_exponent
    np.fill_diagonal(loss, 0.0)
    return loss


def true_gain_matrix(loss: np.ndarray, model: PropagationModel) -> np.ndarray:
    """Gain G[i, j] from transmitter i at receiver j, sampled shadowing; zero diagonal.

    ``loss`` is the ``path_loss`` matrix, which this overwrites: G is the
    ``.T`` view of ``loss`` times the shadowing, so each receiver's incoming
    gains ``G[:, j]`` are contiguous. Take ``estimated_gain_matrix`` first.
    """
    return np.multiply(loss, model.shadow_samples, out=loss).T


def estimated_gain_matrix(loss: np.ndarray, model: PropagationModel) -> np.ndarray:
    """``true_gain_matrix`` with the mean shadowing gain, C-ordered; zero diagonal."""
    return np.multiply(loss.T, model.mean_linear_gain, order="C")


def candidate_matrix(topology: list[AccessPoint], distances: np.ndarray) -> np.ndarray:
    """Whether the coordination areas of distinct APs, ``distances`` apart, overlap."""
    r = np.array([ap.coordination_radius for ap in topology])
    candidates = distances < r[:, None] + r[None, :]
    np.fill_diagonal(candidates, False)
    return candidates


class Player(NamedTuple):
    """One AP's constants for its payoff: channels in ascending order, β, N0, edge gain, cap."""

    channels: tuple[int, ...]
    beta: float
    noise: float
    edge: float
    cap: float


def power_demand(player: Player, interference: float | np.ndarray) -> float | np.ndarray:
    """Necessary power β (N0 + I) / g_edge before the cap.

    With an array of per-channel interference it gives one demand per channel.
    """
    return player.beta * (player.noise + interference) / player.edge


def necessary_power(player: Player, interference: float) -> float:
    """The power that meets the SINR target against ``interference``, capped."""
    return min(power_demand(player, interference), player.cap)


@dataclass(frozen=True, eq=False)
class Network:
    """Per-topology constants that stay fixed while profiles and knowledge change.

    ``positions`` holds the AP coordinates; ``edge[i]``, ``beta[i]`` and
    ``caps[i]`` are AP i's ``edge_gain``, SINR target and power cap, which
    ``players[i]`` holds too, with its channels, for scalar loops;
    ``candidates`` and the ``path_loss`` behind ``gains_true`` and ``gains_est``
    come from one distance matrix, whose buffer ends as ``gains_true``'s.
    Of ``model`` only ``noise_power`` is kept: the shadowing sample is freed
    with the caller's reference, so set-up holds at most three N x N float
    matrices and keeps two. Every array is read-only. ``num_channels`` is one
    more than the highest channel id. A topology whose powers times gains,
    or demands, can overflow raises ValueError.
    """

    topology: list[AccessPoint]
    model: InitVar[PropagationModel]
    noise_power: float = field(init=False)
    positions: np.ndarray = field(init=False, repr=False)
    edge: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    caps: np.ndarray = field(init=False, repr=False)
    players: tuple[Player, ...] = field(init=False, repr=False)
    gains_true: np.ndarray = field(init=False, repr=False)
    gains_est: np.ndarray = field(init=False, repr=False)
    candidates: np.ndarray = field(init=False, repr=False)
    num_channels: int = field(init=False)

    def __post_init__(self, model: PropagationModel) -> None:
        topology = self.topology
        object.__setattr__(self, "noise_power", model.noise_power)
        positions = ap_positions(topology)
        distances = pairwise_distances(positions, positions)
        candidates = candidate_matrix(topology, distances)
        loss = path_loss(topology, model, distances)
        players = tuple(Player(tuple(sorted(ap.channels)), ap.sinr_target, model.noise_power,
                               float(edge_gain(ap, model)), ap.max_power) for ap in topology)
        object.__setattr__(self, "players", players)
        arrays = {
            "positions": positions,
            "edge": np.array([p.edge for p in players]),
            "beta": np.array([p.beta for p in players]),
            "caps": np.array([p.cap for p in players]),
            "gains_est": estimated_gain_matrix(loss, model),
            "gains_true": true_gain_matrix(loss, model),  # overwrites loss, so it comes last
            "candidates": candidates,
        }
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "num_channels", 1 + max(p.channels[-1] for p in players))
        # worst cases in Python floats, which overflow to inf without a warning
        gain = max(float(self.gains_true.max()), float(self.gains_est.max()))
        received = len(topology) * float(self.caps.max()) * gain
        edge = float(self.edge.min())
        demand = (float(self.beta.max()) * (self.noise_power + received) / edge
                  if edge > 0 else math.inf)
        if not math.isfinite(demand):
            raise ValueError(f"the largest received power (APs x max_power x gain), {received}, "
                             f"or the largest power demand, {demand}, is not finite")


def co_channel_mask(state: AllocationState) -> np.ndarray:
    """Matrix with [i, j] true iff i and j are distinct, active and on one channel."""
    ch = state.channels
    active = state.powers > 0
    co = (ch[:, None] == ch[None, :]) & active[:, None] & active[None, :]
    np.fill_diagonal(co, False)
    return co


def received_interference(state: AllocationState, gains_true: np.ndarray) -> np.ndarray:
    """Per AP, the power it receives from the other active APs on its channel.

    Each busy channel's columns sum a C-ordered product in ascending row order:
    bit-equal to a column sum over all APs, whose other terms are exact +0.0.
    """
    p, ch = state.powers, state.channels
    active = p > 0
    interference = np.zeros(len(p))
    for k in np.flatnonzero(np.bincount(ch[active])).tolist():  # the busy channels, ascending
        m = np.flatnonzero(active & (ch == k))
        interference[m] = np.multiply(p[m, None], gains_true[np.ix_(m, m)], order="C").sum(axis=0)
    return interference


def satisfied_mask(network: Network, state: AllocationState) -> np.ndarray:
    """Whether each AP transmits and meets its SINR target at its coverage edge."""
    # a silent AP has zero power, so an SINR of zero, below its positive target
    noise_plus_i = network.noise_power + received_interference(state, network.gains_true)
    return network.edge * state.powers / noise_plus_i >= network.beta
