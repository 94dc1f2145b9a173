"""Physical-layer arithmetic: topology, propagation, SINR and transmit power.

All quantities are linear (not dB) and in SI units: meters, watts,
dimensionless gains and ratios. Functions here never mutate their inputs,
except that ``true_gain_matrix`` writes the block it is given first, and
``Network`` takes its model's shadowing sample: the sample's buffer becomes
the true gains, and ``model.shadow_samples`` is None from then on. The
estimated gains have one kernel, ``estimated_gain_matrix``, over any pairs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Channel value used for an AP that is not transmitting.
OFF = -1

# Rows per block of the symmetric set-up matrices: 64 timed no slower than 32, 128 or 256.
BLOCK = 64

# Meters: path loss is taken at no less than this distance past the receiver's coverage edge.
MIN_SEPARATION = 0.1


def symmetric(m: np.ndarray) -> bool:
    """Whether square ``m`` equals its transpose: each block of ``BLOCK`` rows, from its
    diagonal on, against the columns below it, so no N x N temporary is made."""
    return not any((m[i0:i0 + BLOCK, i0:] != m[i0:, i0:i0 + BLOCK].T).any()
                   for i0 in range(0, len(m), BLOCK))


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


def shadowing_db(num_aps: int, rng: np.random.Generator, mean_db: float,
                 std_db: float) -> np.ndarray:
    """The N x N normal draw, in dB, that ``PropagationModel.sample`` converts.

    All N² normals are drawn, for the stream's sake; those above the diagonal count.
    """
    return rng.normal(mean_db, std_db, size=(num_aps, num_aps))


@dataclass
class PropagationModel:
    """Path loss plus symmetric log-normal shadowing between AP pairs.

    ``shadow_samples[i, j]`` is the sampled linear shadowing gain for the
    unordered pair (i, j); the matrix is symmetric and frequency-flat.
    ``mean_linear_gain`` is the analytic mean of the shadowing distribution
    and is used wherever the shadowing realization is assumed unknown.
    A ``Network`` built from the model takes the sample and sets it to None.
    """

    path_loss_exponent: float
    mean_linear_gain: float
    shadow_samples: np.ndarray | None
    noise_power: float

    def __post_init__(self) -> None:
        z = np.asarray(self.shadow_samples, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("shadow_samples must be a square matrix")
        if z.size and not math.isfinite(z.max()):  # a NaN is the max, as is an inf
            raise ValueError(f"shadow_samples must be finite, got {z.max()}")
        if z.size and not z.min() > 0:
            raise ValueError("shadow gains must be positive")
        if not symmetric(z):
            raise ValueError("shadow_samples must be symmetric")
        for name in ("path_loss_exponent", "mean_linear_gain", "noise_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mean_linear_gain <= 0:
            raise ValueError(f"mean_linear_gain must be positive, got {self.mean_linear_gain}")
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
        z = shadowing_db(num_aps, rng, shadow_mean_db, shadow_std_db)
        for i0 in range(0, num_aps, BLOCK):  # convert each block's rows from its diagonal on
            i1 = min(i0 + BLOCK, num_aps)
            block = z[i0:i1, i0:]
            block /= 10.0
            np.power(10.0, block, out=block)
            corner = block[:, :i1 - i0]
            np.copyto(corner, corner.T, where=np.tri(i1 - i0, k=-1, dtype=bool))
            z[i1:, i0:i1] = block[:, i1 - i0:].T
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
    row computed alone equals that row of the whole matrix bit for bit, and
    swapping a pair's ends keeps its bits: fl(x_i - x_j) = -fl(x_j - x_i),
    and hypot ignores signs.
    """
    dx = a[:, 0:1] - b[:, 0]
    return np.hypot(dx, a[:, 1:2] - b[:, 1], out=dx)


def candidate_blocks(topology: list[AccessPoint], positions: np.ndarray,
                     candidates: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one candidate pass: whether the coordination areas of distinct APs overlap,
    into the N x N ``candidates``, which is whole once the pass is exhausted.

    Per block of ``BLOCK`` rows i0:i1 it tests the distances from the block's diagonal on,
    ``pairwise_distances(positions[i0:i1], positions[i0:])``, into the candidate rows,
    mirrors them below the block (r_i + r_j = r_j + r_i) and yields ``(i0, i1, distances)``.
    """
    n = len(topology)
    reach = np.array([ap.coordination_radius for ap in topology])
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        d = pairwise_distances(positions[i0:i1], positions[i0:])
        rows = np.less(d, reach[i0:i1, None] + reach[i0:], out=candidates[i0:i1, i0:])
        np.fill_diagonal(rows, False)
        candidates[i1:, i0:i1] = rows[:, i1 - i0:].T
        yield i0, i1, d


def path_loss(distances: np.ndarray, radii: np.ndarray, exponent: float) -> np.ndarray:
    """Receiver-major path loss: entry [r, c] from transmitter c to the coverage edge,
    ``radii[r, c]`` meters out (``radii`` broadcast), of the receiver ``distances[r, c]`` away.

    A fresh array in the layout of ``distances``: one subtract, clip at ``MIN_SEPARATION``
    and power pass, with the path-loss ``exponent``. Self pairs are not zeroed.
    """
    loss = np.subtract(distances, radii)
    np.maximum(loss, MIN_SEPARATION, out=loss)
    loss **= -exponent
    return loss


def true_gain_matrix(shadow: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Receiver-major true gains: the ``shadow`` block times the ``loss`` block, into ``shadow``.

    ``Network`` views the whole result through ``.T``, so that G[i, j], from
    transmitter i at receiver j, has each receiver's incoming gains contiguous.
    """
    return np.multiply(shadow, loss, out=shadow)


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

    ``positions`` holds the AP coordinates and ``radii`` their coverage radii;
    ``edge[i]``, ``beta[i]`` and ``caps[i]`` are AP i's ``edge_gain``, SINR
    target and power cap, which ``players[i]`` holds too, with its channels,
    for scalar loops.
    ``candidates`` and ``gains_true`` are built in one pass over blocks of
    ``BLOCK`` rows, ``candidate_blocks``: each block's distances, from its
    diagonal on, give its candidate rows and two fresh ``path_loss`` blocks,
    the block's receiver rows and, through the distances' transpose, its
    transmitter columns below the corner. Both multiply into the shadowing
    sample. No N x N distance or loss matrix is made, so set-up holds one
    N x N float matrix, and keeps it.
    The estimated gains come from ``estimated_gain_matrix`` over the pairs a
    caller needs; ``gains_est``, all N x N of them, is built on its first read.
    The model's sample is consumed: its buffer becomes ``gains_true``'s
    C-ordered base, ``model.shadow_samples`` is None from then on, and a second
    Network from that model raises ValueError. Of ``model`` the Network keeps
    ``noise_power`` and the estimated gains' ``path_loss_exponent`` and
    ``mean_gain`` (its ``mean_linear_gain``). Every array is read-only.
    ``num_channels`` is one more than the highest channel id. A topology whose
    powers times gains, or demands, can overflow raises ValueError.
    """

    topology: list[AccessPoint]
    model: InitVar[PropagationModel]
    noise_power: float = field(init=False)
    path_loss_exponent: float = field(init=False)
    mean_gain: float = field(init=False)
    positions: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)
    edge: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    caps: np.ndarray = field(init=False, repr=False)
    players: tuple[Player, ...] = field(init=False, repr=False)
    gains_true: np.ndarray = field(init=False, repr=False)
    candidates: np.ndarray = field(init=False, repr=False)
    num_channels: int = field(init=False)

    def __post_init__(self, model: PropagationModel) -> None:
        topology = self.topology
        n = len(topology)
        shadow = model.shadow_samples
        if shadow is None:
            raise ValueError("the model's shadowing sample was consumed by an earlier Network; "
                             "draw the model again")
        if shadow.shape != (n, n):
            raise ValueError(f"shadow_samples has shape {shadow.shape}, not {(n, n)} for {n} APs")
        model.shadow_samples = None
        gains = np.require(shadow, requirements="CW")  # receiver-major, in the sample's buffer
        for name, value in (("noise_power", model.noise_power),
                            ("path_loss_exponent", model.path_loss_exponent),
                            ("mean_gain", model.mean_linear_gain)):
            object.__setattr__(self, name, value)
        positions = ap_positions(topology)
        radii = np.array([ap.coverage_radius for ap in topology])
        candidates = np.empty((n, n), dtype=bool)
        most_loss = 0.0
        for i0, i1, d in candidate_blocks(topology, positions, candidates):
            # later blocks read only rows and columns from i1 on, which this one leaves
            rows = path_loss(d, radii[i0:i1, None], model.path_loss_exponent)
            np.fill_diagonal(rows, 0.0)
            columns = path_loss(d[:, i1 - i0:].T, radii[i1:, None], model.path_loss_exponent)
            most_loss = max(most_loss, float(rows.max()), float(columns.max(initial=0.0)))
            true_gain_matrix(gains[i0:i1, i0:], rows)
            true_gain_matrix(gains[i1:, i0:i1], columns)
        players = tuple(Player(tuple(sorted(ap.channels)), ap.sinr_target, model.noise_power,
                               float(edge_gain(ap, model)), ap.max_power) for ap in topology)
        object.__setattr__(self, "players", players)
        arrays = {
            "positions": positions,
            "radii": radii,
            "edge": np.array([p.edge for p in players]),
            "beta": np.array([p.beta for p in players]),
            "caps": np.array([p.cap for p in players]),
            "gains_true": gains.T,
            "candidates": candidates,
        }
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "num_channels", 1 + max(p.channels[-1] for p in players))
        # worst cases in Python floats, which overflow to inf without a warning; rounding
        # is monotone, so the largest loss times the mean gain is the largest estimated gain
        gain = max(float(self.gains_true.max()), most_loss * float(self.mean_gain))
        received = len(topology) * float(self.caps.max()) * gain
        edge = float(self.edge.min())
        demand = (float(self.beta.max()) * (self.noise_power + received) / edge
                  if edge > 0 else math.inf)
        if not math.isfinite(demand):
            raise ValueError(f"the largest received power (APs x max_power x gain), {received}, "
                             f"or the largest power demand, {demand}, is not finite")

    @cached_property
    def gains_est(self) -> np.ndarray:
        """Transmitter-major estimated gains, [i, j] from transmitter i at receiver j.

        ``estimated_gain_matrix`` over every pair, built in blocks of ``BLOCK``
        rows on the first read and kept, read-only and C-ordered. Only dense
        known rows and ``exact_potential_full`` need every pair.
        """
        n = len(self.topology)
        every = np.arange(n)
        gains = np.empty((n, n))
        for i0 in range(0, n, BLOCK):
            gains[i0:i0 + BLOCK] = estimated_gain_matrix(self, every[i0:i0 + BLOCK, None], every)
        gains.flags.writeable = False
        return gains


def estimated_gain_matrix(network: Network, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Estimated gains from transmitters ``tx`` at receivers ``rx``, elementwise over the
    broadcast of the two index arrays; 0 where ``tx == rx``.

    The mean shadowing gain times the ``path_loss`` to the receiver's coverage
    edge, of distances computed as ``pairwise_distances`` does, on fresh
    contiguous arrays, so each entry has the bits that the whole-matrix
    formula gives it, whichever pairs are asked for.
    """
    x, y = network.positions.T
    d = np.subtract(x[tx], x[rx])
    np.hypot(d, y[tx] - y[rx], out=d)
    g = path_loss(d, network.radii[rx], network.path_loss_exponent)
    g *= network.mean_gain
    g[tx == rx] = 0.0
    return g


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
