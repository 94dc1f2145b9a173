"""Scalar per-AP reference forms of the package's array kernels.

Each function computes one quantity for one AP (or one pair of APs) with a
plain Python loop over the topology. The package computes the same
quantities with whole-array kernels (``Network``'s block pass over
``model.path_loss`` and the two gain layouts, ``model.satisfied_mask``,
``KnowledgeBase.from_topology``, ``knowledge.nearest_cover_set``, the
activation kernel of ``schedulers.run_dynamics``, ...); the tests hold those
kernels to these forms, bit for bit where the operation order matches. ``context`` and
``generated_weight`` are the engine's former per-player context functions;
a context is the ``(interference, weight, player)`` triple that
``game.utility`` and the response rules take first. ``solve_channel_powers``
is the greedy bound's admission solve with a fresh gather of the group's
coupling, against which the bound's kept per-channel I - M is held.
``shadow_out_of_place``, ``distances_out_of_place``, ``loss_out_of_place``
and ``gain_matrices`` are the set-up formulas over whole N x N matrices, and
``unique_cover_set`` is the cover set by ``np.unique``; the package's
in-place, per-block and sort-free forms must return the same bits.
``one_sided_pair`` breaks the symmetry of a matrix at one entry, for the
per-block symmetry check, on both sides of the ``BLOCK_EDGE_PAIRS`` edges.
``Network`` takes its model's shadowing sample, so a test that reads the
model after building a Network builds it with ``network_of_copy``.
``discovery_missing`` is ``knowledge.discovery_complete``'s count on the
boolean matrices, which the package counts on its bit rows, and
``one_tick_completion_ticks`` is the sweep's completion count taken one
``discovery_tick`` call at a time, which the package takes from blocks of
ticks. ``column`` reads one column of an experiment's ``MetricsSeries``.
``make_ap`` and ``make_model`` build the tests' hand-placed APs and flat or
given shadowing models.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from apgame.baselines import _POWER_PAD
from apgame.harness import MetricsSeries, ScenarioConfig, generate_topology
from apgame.knowledge import DiscoveryState, KnowledgeBase, discovery_tick
from apgame.model import (
    MIN_SEPARATION,
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    Player,
    PropagationModel,
    ap_positions,
    edge_gain,
    power_demand,
)

Context = tuple[np.ndarray | list[float], np.ndarray | list[float], Player]


def make_ap(i, x, y, radius=10.0, beta=2.0, pmax=0.1, channels=(0, 1), coord=None):
    """AP ``i`` at (x, y); its coordination radius is ``coord``, else 4 x ``radius``."""
    return AccessPoint(
        id=i,
        position=(x, y),
        coverage_radius=radius,
        coordination_radius=coord if coord is not None else 4 * radius,
        sinr_target=beta,
        max_power=pmax,
        channels=frozenset(channels),
    )


def make_model(n, alpha=3.0, noise=1e-8, z=None, mu=1.0):
    """A model of ``n`` APs with shadowing sample ``z``, all ones (no shadowing) by default."""
    return PropagationModel(
        path_loss_exponent=alpha,
        mean_linear_gain=mu,
        shadow_samples=z if z is not None else np.ones((n, n)),
        noise_power=noise,
    )


def network_of_copy(topology: list[AccessPoint], model: PropagationModel) -> Network:
    """``Network(topology, model)`` built on a copy of the model's shadowing sample,
    so that ``model`` keeps it for the scalar forms."""
    return Network(topology, replace(model, shadow_samples=model.shadow_samples.copy()))


def setup_topology(config: ScenarioConfig) -> tuple[list[AccessPoint], PropagationModel]:
    """The topology and model that ``harness._setup`` draws for ``config``, drawn again.

    ``Network`` keeps no ``PropagationModel``; a test that needs the model
    behind a ``_setup`` network redraws it from the same topology stream.
    """
    seeds = np.random.default_rng(config.seed).integers(2**63, size=6)
    return generate_topology(config, np.random.default_rng(seeds[0]))


def shadow_out_of_place(num_aps: int, rng: np.random.Generator, *,
                        shadow_mean_db: float = 0.0, shadow_std_db: float = 8.0) -> np.ndarray:
    """``PropagationModel.sample``'s matrix as the upper triangle plus its transpose plus I."""
    x_db = rng.normal(shadow_mean_db, shadow_std_db, size=(num_aps, num_aps))
    upper = np.triu(10.0 ** (x_db / 10.0), 1)
    return upper + upper.T + np.eye(num_aps)


def distances_out_of_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``pairwise_distances`` with ``np.hypot`` into a fresh array."""
    return np.hypot(a[:, 0:1] - b[:, 0], a[:, 1:2] - b[:, 1])


def candidates_out_of_place(topology: list[AccessPoint], distances: np.ndarray) -> np.ndarray:
    """``model.candidate_blocks``'s candidates as one broadcast test over every ordered pair."""
    r = np.array([ap.coordination_radius for ap in topology])
    candidates = distances < r[:, None] + r[None, :]
    np.fill_diagonal(candidates, False)
    return candidates


# (n, i, j, memory order) of a one-sided entry on either side of a model.BLOCK = 64 edge
BLOCK_EDGE_PAIRS = {
    "first-block-to-last": (129, 0, 128, "C"),
    "last-block": (129, 128, 127, "C"),
    "second-block-F": (129, 64, 128, "F"),
    "last-block-to-first-F": (129, 128, 0, "F"),
}


def one_sided_pair(n: int, i: int, j: int, order: str) -> np.ndarray:
    """An n x n boolean matrix, in the given memory order, whose only True entry is [i, j]."""
    m = np.zeros((n, n), dtype=bool, order=order)
    m[i, j] = True
    return m


def loss_out_of_place(topology: list[AccessPoint], model: PropagationModel,
                      distances: np.ndarray) -> np.ndarray:
    """Receiver-major path loss over the whole ``distances`` matrix, zero diagonal."""
    r = np.array([ap.coverage_radius for ap in topology])
    loss = np.subtract(distances, r[:, None])
    np.maximum(loss, MIN_SEPARATION, out=loss)
    loss **= -model.path_loss_exponent
    np.fill_diagonal(loss, 0.0)
    return loss


def gain_matrices(topology: list[AccessPoint],
                  model: PropagationModel) -> tuple[np.ndarray, np.ndarray]:
    """``Network``'s ``gains_est`` and ``gains_true``, from one whole loss matrix:
    its C-ordered transpose times the mean gain, and the ``.T`` view of its
    product with the shadowing sample."""
    pos = ap_positions(topology)
    loss = loss_out_of_place(topology, model, distances_out_of_place(pos, pos))
    return (np.multiply(loss.T, model.mean_linear_gain, order="C"),
            np.multiply(loss, model.shadow_samples).T)


def distance(a: AccessPoint, b: AccessPoint) -> float:
    """Euclidean distance between two APs in meters.

    ``np.hypot``, the function behind ``pairwise_distances``: ``math.hypot``
    can differ from it in the last bit.
    """
    return float(np.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]))


def _loss(d: float, model: PropagationModel) -> float:
    """Path loss at ``d`` meters past the receiver's coverage edge, clipped at ``MIN_SEPARATION``.

    ``np.power`` on a scalar runs the elementwise routine of the array kernel,
    which can differ from Python's ``**`` in the last bit.
    """
    return float(np.power(max(d, MIN_SEPARATION), -model.path_loss_exponent))


def estimated_gain(i: AccessPoint, j: AccessPoint, model: PropagationModel) -> float:
    """Expected linear gain from transmitter i at receiver j's coverage edge.

    Shadowing is replaced by its mean; used when the realization is unknown.
    """
    if i.id == j.id:
        raise ValueError("estimated_gain requires two distinct APs")
    return _loss(distance(i, j) - j.coverage_radius, model) * model.mean_linear_gain


def true_gain(i: AccessPoint, j: AccessPoint, model: PropagationModel) -> float:
    """Linear gain from transmitter i at receiver j with sampled shadowing."""
    if i.id == j.id:
        raise ValueError("true_gain requires two distinct APs")
    shadow = float(model.shadow_samples[i.id, j.id])
    return _loss(distance(i, j) - j.coverage_radius, model) * shadow


def player(ap: AccessPoint, model: PropagationModel) -> Player:
    """AP ``ap``'s payoff constants, as ``Network.players`` holds them."""
    return Player(tuple(sorted(ap.channels)), ap.sinr_target, model.noise_power,
                  edge_gain(ap, model), ap.max_power)


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
    return min(power_demand(player(i, model), interference), i.max_power)


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


def utility_context(
    i: int,
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    known: frozenset[int] | set[int] | None = None,
    *,
    gains_true: np.ndarray | None = None,
    gains_est: np.ndarray | None = None,
) -> Context:
    """Build the per-player view of the current profile, with array-valued sums.

    ``known=None`` means full knowledge of all other APs.
    """
    ap = topology[i]
    k_total = 1 + max(max(ap.channels) for ap in topology)
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
    return interference, generated, player(ap, model)


def context(network: Network, i: int, state: AllocationState, weight: list[float]) -> Context:
    """Player i's list-valued context at ``state`` with the given generated ``weight``.

    A silent AP has zero power and i zero gain to itself, so each adds an
    exact zero (to bin 0 when OFF), and ``bincount`` adds in index order like
    a scalar loop: the sums are bit-equal.
    """
    interference = np.bincount(np.maximum(state.channels, 0),
                               state.powers * network.gains_true[:, i], network.num_channels)
    return interference.tolist(), weight, network.players[i]


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
    interference, weight, own = utility_context(i, topology, state, model, known)
    argmin_measured = min(own.channels, key=lambda k: (float(interference[k]), k))
    argmin_generated = min(own.channels, key=lambda k: (float(weight[k]), k))
    return argmin_measured == argmin_generated


def solve_channel_powers(
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


def candidate_test(i: AccessPoint, j: AccessPoint) -> bool:
    """True iff the coordination areas of the two APs overlap."""
    if i.id == j.id:
        raise ValueError("candidate_test requires two distinct APs")
    return distance(i, j) < i.coordination_radius + j.coordination_radius


def nearest_cover_set(
    i: int,
    topology: list[AccessPoint],
    state: AllocationState,
) -> set[int]:
    """Smallest distance-prefix of other APs jointly using every busy channel.

    A channel counts as busy when some other AP transmits on it; channels
    unused by everyone else impose no requirement. Returns the prefix as a
    set of AP ids (possibly empty).
    """
    needed = {
        int(state.channels[j])
        for j in range(len(topology))
        if j != i and state.channels[j] != OFF and state.powers[j] > 0
    }
    if not needed:
        return set()
    order = sorted(
        (j for j in range(len(topology)) if j != i),
        key=lambda j: (distance(topology[i], topology[j]), j),
    )
    prefix: set[int] = set()
    for j in order:
        prefix.add(j)
        if state.powers[j] > 0:
            needed.discard(int(state.channels[j]))
        if not needed:
            return prefix
    return prefix


def unique_cover_set(order: np.ndarray, state: AllocationState) -> np.ndarray:
    """``knowledge.nearest_cover_set``, the busy channels' first transmitters from ``np.unique``."""
    on = np.flatnonzero(state.powers[order] > 0)
    if not len(on):
        return order[:0]
    _, first = np.unique(state.channels[order[on]], return_index=True)
    return order[:on[first.max()] + 1]


def sufficiency_check(
    i: int,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    state: AllocationState,
) -> bool:
    """True iff i already knows its nearest channel-covering neighbor set."""
    return bool(knowledge.known[i, sorted(nearest_cover_set(i, topology, state))].all())


def discovery_missing(candidates: np.ndarray, known: np.ndarray, ids: list[int]) -> int:
    """APs of ``ids`` with a candidate among ``ids`` that they have not discovered."""
    return int((candidates & ~known)[np.ix_(ids, ids)].any(axis=1).sum())


def one_tick_completion_ticks(config: ScenarioConfig, num_aps: int, rep: int,
                              max_ticks: int) -> int:
    """``harness.discovery_completion_ticks`` one ``discovery_tick`` call at a time,
    checking again only the rows of each tick's hits."""
    rng = np.random.default_rng((config.seed, num_aps, rep))
    topology, _ = generate_topology(replace(config, num_aps=num_aps), rng)
    kb = KnowledgeBase.from_topology(topology)
    dstate = DiscoveryState(rng=rng, samples_per_tick=config.samples_per_tick)
    incomplete = set(kb.missing(range(num_aps)))
    while incomplete:
        his, hjs = discovery_tick(dstate, kb, topology)
        touched = incomplete.intersection(his + hjs)  # either end, not both
        incomplete -= touched.difference(kb.missing(touched))
        if dstate.tick > max_ticks:
            break
    return dstate.tick


def column(series: MetricsSeries, name: str) -> list[float]:
    """The values of the column ``name`` of ``series``, row by row."""
    idx = series.columns.index(name)
    return [row[idx] for row in series.rows]
