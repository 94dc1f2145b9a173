"""Neighbor knowledge sets and the simulated peer-discovery mechanism.

Each AP accumulates a known set of candidate neighbors by random sampling of
the network plus transitive gossip: when two candidates meet they exchange
their current known lists and keep whatever passes the candidate test. One
tick models one second of protocol time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import OFF, AccessPoint, AllocationState, distance


def candidate_test(i: AccessPoint, j: AccessPoint) -> bool:
    """True iff the coordination areas of the two APs overlap."""
    if i.id == j.id:
        raise ValueError("candidate_test requires two distinct APs")
    return distance(i, j) < i.coordination_radius + j.coordination_radius


@dataclass
class KnowledgeBase:
    """Per-AP known neighbor sets plus the ground-truth candidate sets.

    ``known[i]`` only ever contains candidates of i (soundness) and never
    shrinks. Peer metadata (position, radius, current channel) is read from
    the shared topology and allocation state: channel updates are pushed
    instantly once a neighbor is known.
    """

    known: list[set[int]]
    candidates: list[set[int]]

    @classmethod
    def from_topology(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        n = len(topology)
        candidates: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if candidate_test(topology[i], topology[j]):
                    candidates[i].add(j)
                    candidates[j].add(i)
        return cls(known=[set() for _ in range(n)], candidates=candidates)

    @classmethod
    def complete(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        """Knowledge as if discovery had already finished."""
        kb = cls.from_topology(topology)
        kb.known = [set(c) for c in kb.candidates]
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


def sufficiency_check(
    i: int,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    state: AllocationState,
) -> bool:
    """True iff i already knows its nearest channel-covering neighbor set."""
    return nearest_cover_set(i, topology, state) <= knowledge.known[i]


def discovery_tick(
    dstate: DiscoveryState,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    active: set[int] | None = None,
) -> KnowledgeBase:
    """One second of sampling: every active AP probes random peers.

    A probe that hits a candidate makes the pair mutually known and triggers
    an exchange of their current known lists; received entries are kept when
    they are candidates of the receiver. Candidacy is read from
    ``knowledge.candidates``, which holds the candidate test's outcomes.
    """
    ids = sorted(active) if active is not None else list(range(len(topology)))
    n = len(ids)
    if n > 1:
        # numpy draws bounded integers one element at a time, so this equals
        # one scalar draw per probe in probe order (tests/golden pins it)
        draws = dstate.rng.integers(n - 1, size=(n, dstate.samples_per_tick)).tolist()
        for pos, i in enumerate(ids):
            for draw in draws[pos]:
                j = ids[draw if draw < pos else draw + 1]
                if j not in knowledge.candidates[i]:
                    continue
                knowledge.known[i].add(j)
                knowledge.known[j].add(i)
                dstate.exchange_log.append((dstate.tick, i, j))
                for owner, peer in ((i, j), (j, i)):
                    for c in list(knowledge.known[peer]):
                        if c != owner and c in knowledge.candidates[owner]:
                            knowledge.known[owner].add(c)
    dstate.tick += 1
    return knowledge


def discovery_complete(
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    active: set[int] | None = None,
) -> tuple[bool, int]:
    """Whether every AP knows all its candidates, plus the count still missing.

    APs without candidates never count as missing.
    """
    if active is None:
        wanted, known = knowledge.candidates, knowledge.known
    else:
        active = set(active)
        wanted = [knowledge.candidates[i] & active for i in active]
        known = [knowledge.known[i] for i in active]
    missing = len(wanted) - sum(map(set.issubset, wanted, known))
    return missing == 0, missing


def knowledge_snapshot_csv(
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    state: AllocationState,
    path: str | Path,
) -> None:
    """Dump one row per AP: id, known count, candidate count, sufficiency flag."""
    lines = ["ap_id,known_count,candidate_count,sufficient_flag"]
    for i in range(len(topology)):
        flag = int(sufficiency_check(i, knowledge, topology, state))
        lines.append(f"{i},{len(knowledge.known[i])},{len(knowledge.candidates[i])},{flag}")
    Path(path).write_text("\n".join(lines) + "\n")
