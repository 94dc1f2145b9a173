"""The dynamics loop, sequential or synchronous, with convergence detection.

An activation is one sequential mover, or every mover at once under the
synchronous schedule; a round is as many activations as it takes to touch
every mover. Convergence is judged per round: no channel change and a
maximum power change below the tolerance. No schedule draws at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import game
from .game import TraceRecord, exact_potential_full, utility
from .knowledge import KnowledgeBase, nearest_cover_set, neighbour_order
from .model import OFF, AllocationState, Network, necessary_power

POWER_TOLERANCE = 1e-12  # watts
# A known row longer than DENSE_ROW + N // DENSE_ROW_PER_AP takes the N-wide
# bincount form of the generated weight, a shorter one the pair loop. The two
# forms cost the same at about 55 known APs of 200 and 85 of 1,000 (the
# dense-churn and scale-1000 networks with random rows, on a 2-vCPU x86 box).
DENSE_ROW = 48
DENSE_ROW_PER_AP = 32


@dataclass
class RunResult:
    converged: bool
    iterations: int  # rounds executed
    trace: list[TraceRecord]
    cycle_detected: bool


def run_dynamics(
    network: Network,
    state: AllocationState,
    max_rounds: int,
    *,
    knowledge: KnowledgeBase | None,
    synchronous: bool = False,
    enforce_sufficiency: bool = False,
    record_potential: bool = False,
    active: set[int] | None = None,
) -> RunResult:
    """Iterate best response until convergence or the round cap.

    Movers act one at a time in ascending id order or, when ``synchronous``,
    all at once, each responding to the profile as it was before the
    activation. Mutates ``state`` in place. Non-convergence is a result, not
    an error. A revisited channel profile after at least one channel change
    marks a cycle; the flag is only reported when the run did not converge.
    With ``record_potential`` every move records ``exact_potential_full``.

    ``knowledge`` is what each mover knows of its neighbours: its ``known``
    row of a ``KnowledgeBase`` (``KnowledgeBase.full`` for every other AP),
    or nothing for ``None``, which makes best response the selfish rule.
    ``enforce_sufficiency`` adds the mover's nearest cover set at the
    current profile. A move's ``u_before``/``u_after`` are the game utility
    under that knowledge. An AP, mover or not, on a channel outside its own
    set, or OFF with a nonzero power, raises ValueError before anything is
    written.
    """
    players = network.players
    ids = sorted(active) if active is not None else list(range(len(players)))
    chl, pl = state.channels.tolist(), state.powers.tolist()
    for i, (k, p, player) in enumerate(zip(chl, pl, players)):
        if k == OFF and p != 0:
            raise ValueError(f"AP {i} is OFF but has power {p}")
        if k != OFF and k not in player.channels:
            raise ValueError(f"channel {k} is not available to AP {i}")
    if not ids:
        return RunResult(converged=True, iterations=0, trace=[], cycle_detected=False)

    # The engine's view of the profile: ``state``'s arrays, the bins ``ch``
    # (0 for OFF) and list mirrors for the generated weight, the tie rule and
    # the trace. A silent AP's power is 0, so it adds an exact +0.0 to any
    # per-channel sum. Only applied updates write to it.
    channels, powers = state.channels, state.powers
    ch = np.maximum(channels, 0)
    gains_est, num_channels = network.gains_est, network.num_channels
    terms = np.empty(len(players))  # one response's interference terms, reused
    # revisit keys: the smallest signed type that holds every id in [OFF, num_channels)
    key = channels.astype(np.min_scalar_type(-num_channels))
    no_information = [0.0] * num_channels  # the weight of a mover that knows nobody; never written
    dense_from = DENSE_ROW + len(players) // DENSE_ROW_PER_AP

    def known_rows() -> list[list[tuple[int, float]] | np.ndarray]:
        """Each mover's known row for the call: its (j, ĝ_ij) pairs in ascending j,
        or its boolean row when dense. One nonzero scans the short rows alone."""
        if knowledge is None:
            return [[]] * len(ids)
        known = knowledge.known
        counts = np.count_nonzero(known, axis=1).tolist()
        short = [i for i in ids if counts[i] <= dense_from]
        # ``known`` itself, not a copy, when every AP moves and every row is short
        r, c = np.nonzero(known if len(short) == len(known) else known[short])
        cl, gl = c.tolist(), gains_est[np.array(short, dtype=np.intp)[r], c].tolist()
        rows, end = [], 0
        for i in ids:
            m = counts[i]
            if m > dense_from:
                rows.append(known[i])
            else:
                rows.append(list(zip(cl[end:end + m], gl[end:end + m])))
                end += m
        return rows

    orders = {i: neighbour_order(network.positions, i) for i in ids} if enforce_sufficiency else {}
    # per mover: its id, contiguous incoming-gain column, response constants and known row
    movers = [(i, network.gains_true[:, i], players[i], row) for i, row in zip(ids, known_rows())]

    def weight(i: int, row: list[tuple[int, float]] | np.ndarray) -> list[float]:
        """Mover i's generated weight over its known row and, if enforced, its cover set."""
        if type(row) is list:
            if enforce_sufficiency:
                cover = nearest_cover_set(orders[i], state)
                row = sorted(set(row).union(zip(cover.tolist(), gains_est[i, cover].tolist())))
            if not row:
                return no_information
            w = [0.0] * num_channels
            for j, g in row:
                if pl[j] > 0:
                    w[chl[j]] += g
            return w
        if enforce_sufficiency:
            row = row.copy()
            row[nearest_cover_set(orders[i], state)] = True
        # the sum over all APs: an unknown or silent AP adds +0.0, in index order
        return np.bincount(ch, gains_est[i] * (row & (powers > 0)), num_channels).tolist()

    def response(mover: tuple) -> tuple:
        """The mover's update against the profile as it is before any write."""
        i, column, player, row = mover
        np.multiply(powers, column, out=terms)
        interference = np.bincount(ch, terms, num_channels).tolist()
        w = weight(i, row)
        return i, player, *game.best_response(interference, w, player, chl[i]), interference, w

    per_round = 1 if synchronous else len(movers)
    trace: list[TraceRecord] = []
    seen = {key.tobytes()}
    revisit = False
    converged = False
    rounds = 0

    for rnd in range(max_rounds):
        round_channel_change = False
        round_max_dp = 0.0
        for a in range(per_round):
            # synchronous movers respond to the pre-activation profile: all
            # responses are computed before the first write
            updates = [response(m) for m in movers] if synchronous else (response(movers[a]),)
            activation_changed = False
            for i, player, new_k, new_p, interference, w in updates:
                old_k, old_p = chl[i], pl[i]
                if new_k == old_k and new_p == old_p:
                    continue  # the write would store the bits already there
                round_max_dp = max(round_max_dp, abs(new_p - old_p))
                if new_k != old_k:
                    view = (interference, w, player)
                    u_before = utility(*view, old_k) if old_k != OFF else -math.inf
                    p_before = p_after = None
                    if record_potential:
                        # the response refreshes the mover's power before the
                        # channel switch; book the potential against that
                        if old_k != OFF:
                            powers[i] = necessary_power(player, interference[old_k])
                        p_before = exact_potential_full(network, state)
                    channels[i] = key[i] = ch[i] = chl[i] = new_k
                    powers[i] = new_p
                    if record_potential:
                        p_after = exact_potential_full(network, state)
                    trace.append(TraceRecord(i, old_k, new_k, old_p, new_p, u_before,
                                             utility(*view, new_k), p_before, p_after))
                    activation_changed = True
                    round_channel_change = True
                else:
                    powers[i] = new_p
                pl[i] = new_p
            if activation_changed:
                k = key.tobytes()
                if k in seen:
                    revisit = True
                else:
                    seen.add(k)
        rounds = rnd + 1
        if not round_channel_change and round_max_dp < POWER_TOLERANCE:
            converged = True
            break

    return RunResult(
        converged=converged,
        iterations=rounds,
        trace=trace,
        cycle_detected=revisit and not converged,
    )


def is_nash_equilibrium(network: Network, state: AllocationState) -> bool:
    """True iff no AP strictly improves by a unilateral channel change.

    Power is re-optimized to the necessary power on each candidate channel,
    and every AP knows every other: one synchronous activation of
    ``run_dynamics`` on a copy of ``state`` moves no AP, which a tie allows.
    Above 50 APs its known rows are dense, so it caches no pairs. Guarded against oversized inputs.
    """
    if state.num_aps * network.num_channels > 1_000_000:
        raise ValueError("instance too large for the NE deviation sweep")
    result = run_dynamics(network, state.copy(), 1, knowledge=KnowledgeBase.full(state.num_aps),
                          synchronous=True)
    return not result.trace
