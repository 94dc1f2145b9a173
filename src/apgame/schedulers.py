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
from .knowledge import KnowledgeBase, active_count, nearest_cover_set, neighbour_order
from .model import BLOCK, OFF, AllocationState, Network, estimated_gain_matrix, necessary_power

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
    active: int | None = None,
) -> RunResult:
    """Iterate best response until convergence or the round cap.

    The movers are the first ``active`` APs, or every AP for None. They act
    one at a time in ascending id order or, when ``synchronous``, all at
    once, each responding to the profile as it was before the activation.
    Mutates ``state`` in place. Non-convergence is a result, not an error. A
    state, channels and powers byte for byte, that recurs at the end of a
    round marks a cycle: each round is a deterministic map of the state, so
    every exact cycle shows as such a repeat and never converges.
    With ``record_potential`` every move records ``exact_potential_full``.

    ``knowledge`` is what each mover knows of its neighbours: its ``known``
    row of a ``KnowledgeBase`` (``KnowledgeBase.full`` for every other AP),
    or nothing for ``None``, which makes best response the selfish rule.
    ``enforce_sufficiency`` adds the mover's nearest cover set at the
    current profile. A move's ``u_before``/``u_after`` are the game utility
    under that knowledge. An AP, mover or not, on a channel outside its own
    set, or OFF with a nonzero power, or an ``active`` count outside [0, N],
    raises ValueError before anything is written.
    """
    players = network.players
    ids = range(active_count(active, len(players)))
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
    num_channels = network.num_channels
    terms = np.empty(len(players))  # one response's interference terms, reused
    no_information = [0.0] * num_channels  # the weight of a mover that knows nobody; never written
    dense_from = DENSE_ROW + len(players) // DENSE_ROW_PER_AP

    def known_rows() -> list[list[tuple[int, float]] | np.ndarray]:
        """Each mover's known row for the call: its boolean row when enforced or dense,
        else its (j, ĝ_ij) pairs in ascending j. Only rows with a bit set are unpacked,
        the short ones ``BLOCK`` at a time, and one kernel call gives every pair's ĝ."""
        if knowledge is None:
            return [np.zeros(len(players), dtype=bool) if enforce_sufficiency else []] * len(ids)
        if enforce_sufficiency:
            return list(knowledge.known_rows(ids))
        counts = knowledge.known_counts(ids)
        dense = iter(knowledge.known_rows([i for i, m in zip(ids, counts) if m > dense_from]))
        short = np.array([i for i, m in zip(ids, counts) if 0 < m <= dense_from], dtype=np.intp)
        tx, rx = [], []
        for b in range(0, len(short), BLOCK):
            r, c = np.nonzero(knowledge.known_rows(short[b:b + BLOCK]))
            tx.append(short[b + r])
            rx.append(c)
        cl, gl = [], []
        if tx:
            c = np.concatenate(rx)
            cl, gl = c.tolist(), estimated_gain_matrix(network, np.concatenate(tx), c).tolist()
        rows, end = [], 0
        for m in counts:
            if m > dense_from:
                rows.append(next(dense))
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
        return np.bincount(ch, network.gains_est[i] * (row & (powers > 0)), num_channels).tolist()

    bincount, multiply, respond = np.bincount, np.multiply, game.best_response
    trace: list[TraceRecord] = []
    seen = {channels.tobytes() + powers.tobytes()}  # the entry state and each round end's
    converged = cycled = False
    rounds = 0
    # where the updates go: the live profile, or under the synchronous schedule
    # a copy of it taken per activation, so every mover reads the profile before it
    target, t_ch, t_chl, t_pl = state, ch, chl, pl
    for rnd in range(max_rounds):
        round_channel_change = False
        round_max_dp = 0.0
        if synchronous:
            target, t_ch, t_chl, t_pl = state.copy(), ch.copy(), chl[:], pl[:]
        t_channels, t_powers = target.channels, target.powers
        for i, column, player, row in movers:
            multiply(powers, column, out=terms)
            interference = bincount(ch, terms, num_channels).tolist()
            w = weight(i, row)
            old_k, old_p = chl[i], pl[i]
            new_k, new_p = respond(interference, w, player, old_k)
            if new_k == old_k and new_p == old_p:
                continue  # the write would store the bits already there
            dp = abs(new_p - old_p)
            if dp > round_max_dp:  # max(), without the call
                round_max_dp = dp
            if new_k != old_k:
                view = (interference, w, player)
                u_before = utility(*view, old_k) if old_k != OFF else -math.inf
                p_before = p_after = None
                if record_potential:
                    # the response refreshes the mover's power before the
                    # channel switch; book the potential against that
                    if old_k != OFF:
                        t_powers[i] = necessary_power(player, interference[old_k])
                    p_before = exact_potential_full(network, target)
                t_channels[i] = t_ch[i] = t_chl[i] = new_k
                t_powers[i] = new_p
                if record_potential:
                    p_after = exact_potential_full(network, target)
                trace.append(TraceRecord(i, old_k, new_k, old_p, new_p, u_before,
                                         utility(*view, new_k), p_before, p_after))
                round_channel_change = True
            else:
                t_powers[i] = new_p
            t_pl[i] = new_p
        if synchronous:
            channels[:], powers[:], ch[:] = t_channels, t_powers, t_ch
            chl[:], pl[:] = t_chl, t_pl
        rounds = rnd + 1
        if not round_channel_change and round_max_dp < POWER_TOLERANCE:
            converged = True
            break
        end = channels.tobytes() + powers.tobytes()
        cycled = cycled or end in seen
        seen.add(end)

    return RunResult(
        converged=converged,
        iterations=rounds,
        trace=trace,
        cycle_detected=cycled,
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
