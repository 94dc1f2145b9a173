"""Neighbor knowledge sets and the simulated peer-discovery mechanism.

Each AP accumulates a known set of candidate neighbors by random sampling of
the network plus transitive gossip: when two candidates meet they exchange
their current known lists and keep whatever passes the candidate test. One
tick models one second of protocol time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .model import (
    AccessPoint,
    AllocationState,
    ap_positions,
    candidate_blocks,
    pairwise_distances,
    symmetric,
)


def _bits(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit j is the row's entry j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


class KnowledgeBase:
    """Who knows whom, and who may.

    ``candidates[i, j]``, an N x N boolean matrix, says that the coordination
    areas of i and j overlap (square, symmetric and False on the diagonal, or
    ValueError names the check that failed). It is kept C-ordered, so that a
    discovery tick reads it flat without a copy: a C-contiguous array, a view
    included, is kept as given, and any other layout is copied once. AP i's known
    row is an int whose bit j is set once i has discovered j; it only ever
    holds candidates of i (soundness) and never loses a bit. The rows are the
    one store of knowledge: ``known`` unpacks them into a fresh read-only
    N x N boolean matrix on each read.
    Peer metadata (position, radius, current channel) is read from the
    shared topology and allocation state: channel updates are pushed
    instantly once a neighbor is known.
    """

    def __init__(self, candidates: np.ndarray, known: np.ndarray | None = None) -> None:
        if candidates.ndim != 2 or candidates.shape[0] != candidates.shape[1]:
            raise ValueError(f"candidates has shape {candidates.shape}, which is not square")
        if candidates.diagonal().any():
            raise ValueError("candidates is True on the diagonal: an AP would be its own candidate")
        if not symmetric(candidates):
            raise ValueError("candidates is not symmetric")
        self.candidates = np.ascontiguousarray(candidates)
        self._cand = _bits(candidates)
        if known is not None and np.shape(known) != candidates.shape:
            raise ValueError(f"known has shape {np.shape(known)}, not {candidates.shape}")
        self._rows = [0] * len(candidates) if known is None else _bits(known)
        if any(k & ~c for k, c in zip(self._rows, self._cand)):
            raise ValueError("known holds a pair that is not a candidate")

    @property
    def known(self) -> np.ndarray:
        """``known[i, j]``: whether i has discovered j. A read-only array, every
        row unpacked afresh by ``known_rows``."""
        return self.known_rows(range(len(self._rows)))

    def known_rows(self, ids: Sequence[int]) -> np.ndarray:
        """The known rows of ``ids``, in that order, unpacked with one ``np.unpackbits``
        into a fresh read-only boolean matrix, one row per id."""
        n = len(self._rows)
        size = (n + 7) // 8
        rows = self._rows
        packed = b"".join([rows[i].to_bytes(size, "little") for i in ids])
        known = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(len(ids), size),
                              axis=1, count=n, bitorder="little").view(bool)
        known.flags.writeable = False
        return known

    def known_counts(self, ids: Iterable[int]) -> list[int]:
        """How many APs each of ``ids`` knows, read from the bit rows without an unpack."""
        rows = self._rows
        return [rows[i].bit_count() for i in ids]

    def missing(self, ids: Iterable[int], below: int | None = None) -> list[int]:
        """The APs of ``ids`` that have yet to discover a candidate, counting
        only the candidates with an id below ``below`` when it is given."""
        mask = -1 if below is None else (1 << below) - 1  # -1: every bit set
        rows, cand = self._rows, self._cand
        return [i for i in ids if cand[i] & mask & ~rows[i]]

    @classmethod
    def from_topology(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        n = len(topology)
        candidates = np.empty((n, n), dtype=bool)
        for _ in candidate_blocks(topology, ap_positions(topology), candidates):
            pass
        return cls(candidates)

    @classmethod
    def complete(cls, topology: list[AccessPoint]) -> "KnowledgeBase":
        """Knowledge as if discovery had already finished."""
        kb = cls.from_topology(topology)
        kb._rows = kb._cand.copy()
        return kb

    @classmethod
    def full(cls, n: int) -> "KnowledgeBase":
        """Full knowledge: each of ``n`` APs knows every other as a candidate."""
        kb = cls(~np.eye(n, dtype=bool))
        kb._rows = kb._cand.copy()
        return kb


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


def active_count(active: int | None, n: int) -> int:
    """How many of ``n`` APs are on, the ids ``0..active-1``: all of them for
    None; a count outside [0, n] raises ValueError."""
    if active is None:
        return n
    if not 0 <= active <= n:
        raise ValueError(f"active count {active} is outside [0, {n}] for the {n}-AP network")
    return active


@lru_cache(maxsize=4)
def _probe_owners(n: int, samples: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's owner, ``samples`` for each of the APs ``0..n-1`` in turn, and the
    offset of the owner's row in a flat ``size`` x ``size`` matrix. Read-only:
    every tick of one shape shares them."""
    owners = np.arange(n).repeat(samples)
    offsets = owners * size
    owners.flags.writeable = offsets.flags.writeable = False
    return owners, offsets


def discovery_tick(
    dstate: DiscoveryState,
    knowledge: KnowledgeBase,
    topology: list[AccessPoint],
    active: int | None = None,
) -> tuple[list[int], list[int]]:
    """One second of sampling: each of the first ``active`` APs (every AP for
    None) probes random peers among them.

    A probe that hits a candidate makes the pair mutually known and triggers
    an exchange of their current known lists; received entries are kept when
    they are candidates of the receiver. Hits are handled in probe order,
    each exchange seeing the ones before it. Returns the hits' two ends
    ``(his, hjs)`` in probe order, the only known rows the tick changed;
    with fewer than two APs probing, two empty lists.
    """
    n = active_count(active, len(topology))
    if n > 1:
        # numpy draws bounded integers one element at a time, so this equals
        # one scalar draw per probe in probe order (tests/golden pins it)
        peers = dstate.rng.integers(n - 1, size=n * dstate.samples_per_tick)
        candidates = knowledge.candidates
        owners, offsets = _probe_owners(n, dstate.samples_per_tick, len(candidates))
        peers += peers >= owners  # a draw indexes the others: skip the owner's id
        # one gather from the C-ordered matrix, read flat in place: the hits, in probe order
        hits = candidates.take(offsets + peers).nonzero()[0]
        his, hjs = owners[hits].tolist(), peers[hits].tolist()
        rows, cand = knowledge._rows, knowledge._cand
        for i, j in zip(his, hjs):
            ki, kj = rows[i] | 1 << j, rows[j] | 1 << i
            ki |= kj & cand[i]
            rows[i], rows[j] = ki, kj | ki & cand[j]
        dstate.exchange_log.extend(zip(repeat(dstate.tick), his, hjs))
    else:
        his, hjs = [], []
    dstate.tick += 1
    return his, hjs


def discovery_complete(knowledge: KnowledgeBase, active: int | None = None) -> int:
    """How many APs have yet to discover a candidate: 0 once discovery is complete.

    With ``active`` only the first ``active`` APs and their candidates among
    them count. APs without candidates never count as missing.
    """
    n = active_count(active, len(knowledge.candidates))
    return len(knowledge.missing(range(n), below=active))
