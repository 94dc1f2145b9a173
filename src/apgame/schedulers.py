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
from .game import TraceRecord, exact_potential_full
from .knowledge import KnowledgeBase, nearest_cover_set, neighbour_order
from .model import OFF, AllocationState, Network

POWER_TOLERANCE = 1e-12  # watts


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
    under that knowledge.
    """
    respond = game.best_response
    ids = sorted(active) if active is not None else list(range(len(network.topology)))
    if not ids:
        return RunResult(converged=True, iterations=0, trace=[], cycle_detected=False)

    per_round = 1 if synchronous else len(ids)

    # The engine's view of the profile: arrays for the interference, lists
    # for the generated weight. Only applied updates write to it.
    act, ch, wp = game.profile_arrays(state)
    chl, actl = state.channels.tolist(), act.tolist()
    channels, powers = state.channels, state.powers
    gains_est, num_channels = network.gains_est, network.num_channels
    context, generated_weight, utility = game.context, game.generated_weight, game.utility
    # revisit keys: the smallest signed type that holds every id in [OFF, num_channels)
    key = channels.astype(np.min_scalar_type(-num_channels))
    no_information = [0.0] * num_channels  # shared by movers that know nobody; never written
    known_pairs: dict[int, list[tuple[int, float]]] = {}  # knowledge is fixed within a call
    orders: dict[int, np.ndarray] = {}  # and so are the positions

    def weight(i: int) -> list[float]:
        """Mover i's generated weight over its known row and, if enforced, its cover set."""
        if knowledge is None and not enforce_sufficiency:
            return no_information
        pairs = known_pairs.get(i)
        if pairs is None:
            known = np.flatnonzero(knowledge.known[i]).tolist() if knowledge is not None else []
            pairs = known_pairs[i] = list(zip(known, gains_est[i, known].tolist()))
        if enforce_sufficiency:
            if i not in orders:
                orders[i] = neighbour_order(network.positions, i)
            cover = nearest_cover_set(orders[i], state).tolist()
            pairs = sorted(set(pairs).union(zip(cover, gains_est[i, cover].tolist())))
        return generated_weight(pairs, chl, actl, num_channels)

    def response(i: int) -> tuple[int, int, int, float, game.UtilityContext]:
        """Mover i's update against the profile as it is before any write."""
        ctx = context(network, i, ch, wp, weight(i))
        old_k = chl[i]
        return i, old_k, *respond(ctx, old_k), ctx

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
            updates = [response(i) for i in ids] if synchronous else (response(ids[a]),)
            activation_changed = False
            for i, old_k, new_k, new_p, ctx in updates:
                old_p = float(powers[i])
                round_max_dp = max(round_max_dp, abs(new_p - old_p))
                if new_k != old_k:
                    u_before = utility(ctx, old_k) if old_k != OFF else -math.inf
                    p_before = p_after = None
                    if record_potential:
                        # the response refreshes the mover's power before the
                        # channel switch; book the potential against that
                        if old_k != OFF:
                            powers[i] = ctx.necessary_power(old_k)
                        p_before = exact_potential_full(network, state)
                    channels[i] = key[i] = chl[i] = new_k
                    powers[i] = new_p
                    if record_potential:
                        p_after = exact_potential_full(network, state)
                    trace.append(TraceRecord(i, old_k, new_k, old_p, new_p, u_before,
                                             utility(ctx, new_k), p_before, p_after))
                    activation_changed = True
                    round_channel_change = True
                else:
                    powers[i] = new_p
                actl[i] = new_p > 0
                ch[i] = new_k
                wp[i] = new_p
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
    Guarded against oversized inputs.
    """
    if state.num_aps * network.num_channels > 1_000_000:
        raise ValueError("instance too large for the NE deviation sweep")
    result = run_dynamics(network, state.copy(), 1, knowledge=KnowledgeBase.full(state.num_aps),
                          synchronous=True)
    return not result.trace
