"""Neighbor knowledge sets and the simulated peer-discovery mechanism.

Each AP accumulates a known set of candidate neighbors by random sampling of
the network plus transitive gossip: when two candidates meet they exchange
their current known lists and keep whatever passes the candidate test. One
tick models one second of protocol time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import OFF, AccessPoint, AllocationState, distance, pairwise_distances


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
        r = np.array([ap.coordination_radius for ap in topology])
        candidates = pairwise_distances(topology) < r[:, None] + r[None, :]
        np.fill_diagonal(candidates, False)
        return cls(known=np.zeros_like(candidates), candidates=candidates)

    @classmethod
    def complete(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        """Knowledge as if discovery had already finished."""
        kb = cls.from_topology(topology)
        kb.known = kb.candidates.copy()
        return kb


@dataclass
class DiscoveryState:
    """Tick counter plus the seeded sampling stream and contact log."""

    rng: np.random.Generator
    samples_per_tick: int = 1
    tick: int = 0
    exchange_log: list[tuple[int, int, int]] = field(default_factory=list)


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


def discovery_tick(
    dstate: DiscoveryState,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    active: set[int] | None = None,
) -> KnowledgeBase:
    """One second of sampling: every active AP probes random peers.

    A probe that hits a candidate makes the pair mutually known and triggers
    an exchange of their current known lists; received entries are kept when
    they are candidates of the receiver. Hits are handled in probe order,
    each exchange seeing the ones before it.
    """
    ids = np.array(sorted(active) if active is not None else range(len(topology)), dtype=int)
    n = len(ids)
    if n > 1:
        # numpy draws bounded integers one element at a time, so this equals
        # one scalar draw per probe in probe order (tests/golden pins it)
        draws = dstate.rng.integers(n - 1, size=(n, dstate.samples_per_tick))
        owners = np.broadcast_to(ids[:, None], draws.shape)
        peers = ids[draws + (draws >= np.arange(n)[:, None])]
        known, cand = knowledge.known, knowledge.candidates
        hits = cand[owners, peers]
        for i, j in zip(owners[hits].tolist(), peers[hits].tolist()):
            known[i, j] = known[j, i] = True
            dstate.exchange_log.append((dstate.tick, i, j))
            known[i] |= known[j] & cand[i]
            known[j] |= known[i] & cand[j]
    dstate.tick += 1
    return knowledge


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
        ids = sorted(active)
        unknown = unknown[np.ix_(ids, ids)]
    missing = int(unknown.any(axis=1).sum())
    return missing == 0, missing
