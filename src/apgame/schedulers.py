"""Update timing models and the dynamics loop with convergence detection.

An iteration is one mover-set activation; a round is as many activations as
it takes every timing model to touch N movers (one activation for
synchronous timing). Convergence is judged per round: no channel change and
a maximum power change below the tolerance.
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


@dataclass(frozen=True)
class TimingModel:
    variant: str  # round-robin | random | asynchronous | synchronous
    subset_size: int = 1

    VARIANTS = ("round-robin", "random", "asynchronous", "synchronous")

    def __post_init__(self) -> None:
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown timing variant: {self.variant}")
        if self.subset_size < 1:
            raise ValueError("subset_size must be at least 1")


ROUND_ROBIN = TimingModel("round-robin")
RANDOM_TIMING = TimingModel("random")
SYNCHRONOUS = TimingModel("synchronous")


def next_movers(
    timing: TimingModel,
    iteration: int,
    ids: list[int],
    rng: np.random.Generator,
) -> list[int]:
    """The AP ids activated at this iteration."""
    n = len(ids)
    if timing.variant == "round-robin":
        return [ids[iteration % n]]
    if timing.variant == "random":
        return [ids[int(rng.integers(n))]]
    if timing.variant == "asynchronous":
        size = min(timing.subset_size, n)
        picks = rng.choice(n, size=size, replace=False)
        return [ids[p] for p in sorted(int(p) for p in picks)]
    return list(ids)  # synchronous


@dataclass
class RunResult:
    converged: bool
    iterations: int  # rounds executed
    trace: list[TraceRecord]
    cycle_detected: bool


def run_dynamics(
    network: Network,
    state: AllocationState,
    timing: TimingModel,
    max_rounds: int,
    rng: np.random.Generator,
    *,
    knowledge: KnowledgeBase | None,
    enforce_sufficiency: bool = False,
    record_potential: bool = False,
    active: set[int] | None = None,
) -> RunResult:
    """Iterate best response until convergence or the round cap.

    Mutates ``state`` in place. Non-convergence is a result, not an error.
    A revisited channel profile after at least one channel change marks a
    cycle; the flag is only reported when the run did not converge. With
    ``record_potential`` every move records ``exact_potential_full``.

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

    n = len(ids)
    if timing.variant == "synchronous":
        per_round = 1
    elif timing.variant == "asynchronous":
        per_round = math.ceil(n / min(timing.subset_size, n))
    else:
        per_round = n
    round_robin = timing.variant == "round-robin"

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
    iteration = 0

    for rnd in range(max_rounds):
        round_channel_change = False
        round_max_dp = 0.0
        for _ in range(per_round):
            if round_robin:
                updates = (response(ids[iteration % n]),)
            else:
                # every mover responds to the pre-activation profile: all
                # responses are computed before the first write
                updates = [response(i) for i in next_movers(timing, iteration, ids, rng)]
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
            iteration += 1
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
