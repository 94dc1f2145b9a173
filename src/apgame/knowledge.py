"""Neighbor knowledge sets and the simulated peer-discovery mechanism.

Each AP accumulates a known set of candidate neighbors by random sampling of
the network plus transitive gossip: when two candidates meet they exchange
their current known lists and keep whatever passes the candidate test. One
tick models one second of protocol time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AccessPoint, AllocationState, ap_positions, candidate_matrix, pairwise_distances


@dataclass
class KnowledgeBase:
    """Who knows whom, and who may: two N x N boolean matrices.

    ``candidates[i, j]`` says that the coordination areas of i and j overlap
    (symmetric, False on the diagonal). ``known[i, j]`` says that i has
    discovered j; it only ever holds candidates of i (soundness) and never
    turns back to False.
    Peer metadata (position, radius, current channel) is read from the
    shared topology and allocation state: channel updates are pushed
    instantly once a neighbor is known.
    """

    known: np.ndarray
    candidates: np.ndarray

    @classmethod
    def from_topology(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        pos = ap_positions(topology)
        candidates = candidate_matrix(topology, pairwise_distances(pos, pos))
        return cls(known=np.zeros_like(candidates), candidates=candidates)

    @classmethod
    def complete(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        """Knowledge as if discovery had already finished."""
        kb = cls.from_topology(topology)
        kb.known = kb.candidates.copy()
        return kb

    @classmethod
    def full(cls, n: int) -> "KnowledgeBase":
        """Full knowledge: each of ``n`` APs knows every other as a candidate."""
        return cls(known=~np.eye(n, dtype=bool), candidates=~np.eye(n, dtype=bool))


@dataclass
class DiscoveryState:
    """Tick counter plus the seeded sampling stream and contact log."""

    rng: np.random.Generator
    samples_per_tick: int = 1
    tick: int = 0
    exchange_log: list[tuple[int, int, int]] = field(default_factory=list)


def neighbour_order(positions: np.ndarray, i: int) -> np.ndarray:
    """The other APs by ascending distance from AP i, ties broken by id."""
    order = np.argsort(pairwise_distances(positions[i:i + 1], positions)[0], kind="stable")
    return order[order != i]


def nearest_cover_set(order: np.ndarray, state: AllocationState) -> np.ndarray:
    """Shortest prefix of ``order`` whose transmitting members use every busy channel.

    ``order`` is a ``neighbour_order``; a channel counts as busy when one of
    its APs transmits on it, and channels that none of them uses impose no
    requirement. The prefix ends at the last of the busy channels' first
    transmitters, found without a sort; it is empty when none transmits.
    """
    on = np.flatnonzero(state.powers[order] > 0)
    if not len(on):
        return order[:0]
    channels = state.channels[order[on]]
    first = np.full(channels.max() + 1, len(on))  # len(on) marks an idle channel
    np.minimum.at(first, channels, np.arange(len(on)))
    return order[:on[first[first < len(on)].max()] + 1]


def sorted_ids(active: set[int], n: int) -> list[int]:
    """The AP ids in ``active`` in ascending order; one outside [0, n) raises ValueError."""
    ids = sorted(active)
    for i in ids[:1] + ids[-1:]:
        if not 0 <= i < n:  # as an index, -1 would wrap to the last AP
            raise ValueError(f"active id {i} is not an AP of the {n}-AP network")
    return ids


def discovery_tick(
    dstate: DiscoveryState,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    active: set[int] | None = None,
) -> None:
    """One second of sampling: every active AP probes random peers.

    A probe that hits a candidate makes the pair mutually known and triggers
    an exchange of their current known lists; received entries are kept when
    they are candidates of the receiver. Hits are handled in probe order,
    each exchange seeing the ones before it.
    """
    ids = None if active is None else np.array(sorted_ids(active, len(topology)))
    n = len(topology) if ids is None else len(ids)
    if n > 1:
        # numpy draws bounded integers one element at a time, so this equals
        # one scalar draw per probe in probe order (tests/golden pins it)
        peers = dstate.rng.integers(n - 1, size=(n, dstate.samples_per_tick))
        owners = np.arange(n)[:, None]
        peers += peers >= owners  # a draw indexes the others: skip the owner's position
        if ids is not None:
            owners, peers = ids[owners], ids[peers]
        known, cand = knowledge.known, knowledge.candidates
        probes, samples = np.nonzero(cand[owners, peers])  # the hits, in probe order
        log, tick = dstate.exchange_log, dstate.tick
        for i, j in zip(owners[probes, 0].tolist(), peers[probes, samples].tolist()):
            row_i, row_j = known[i], known[j]
            row_i[j] = row_j[i] = True
            log.append((tick, i, j))
            row_i |= row_j & cand[i]
            row_j |= row_i & cand[j]
    dstate.tick += 1


def discovery_complete(
    knowledge: KnowledgeBase,
    active: set[int] | None = None,
) -> tuple[bool, int]:
    """Whether every AP knows all its candidates, plus the count still missing.

    With ``active`` only active APs and their active candidates count. APs
    without candidates never count as missing.
    """
    unknown = knowledge.candidates & ~knowledge.known
    if active is not None:
        ids = sorted_ids(active, len(unknown))
        unknown = unknown[np.ix_(ids, ids)]
    missing = int(unknown.any(axis=1).sum())
    return missing == 0, missing
