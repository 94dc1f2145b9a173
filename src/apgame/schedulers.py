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
from .game import TraceRecord, UtilityContext, appendixB_potential, exact_potential_full
from .knowledge import KnowledgeBase, nearest_cover_set
from .model import (
    OFF,
    AccessPoint,
    AllocationState,
    PropagationModel,
    edge_gain,
    estimated_gain_matrix,
    num_channels,
    true_gain_matrix,
)

BEST_RESPONSE = "best-response"
SELFISH = "selfish"
RANDOM_RESPONSE = "random"
RESPONDERS = (BEST_RESPONSE, SELFISH, RANDOM_RESPONSE)

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


class _Engine:
    """Precomputed arrays shared across activations of one dynamics run.

    ``known_masks[i, j]`` is True iff AP i knows AP j; None means full knowledge.
    """

    def __init__(self, topology, model, knowledge):
        self.topology = topology
        self.model = model
        self.k_total = num_channels(topology)
        self.gt = true_gain_matrix(topology, model)
        self.ge = estimated_gain_matrix(topology, model)
        self.edge = np.array([edge_gain(ap, model) for ap in topology])
        self.known_masks = None
        if knowledge is not None:
            sets = knowledge.known if isinstance(knowledge, KnowledgeBase) else knowledge
            self.known_masks = np.zeros((len(topology), len(topology)), dtype=bool)
            for i, s in enumerate(sets):
                self.known_masks[i, list(s)] = True

    def context(self, i, channels, powers, enforce_sufficiency):
        act = (channels != OFF) & (powers > 0)
        act[i] = False
        idx = np.nonzero(act)[0]
        interference = np.zeros(self.k_total)
        np.add.at(interference, channels[idx], powers[idx] * self.gt[idx, i])
        if self.known_masks is None:
            kn = act
        else:
            kn = act & self.known_masks[i]
            if enforce_sufficiency:
                for j in nearest_cover_set(i, self.topology, AllocationState(channels, powers)):
                    kn[j] |= act[j]
        kidx = np.nonzero(kn)[0]
        generated = np.zeros(self.k_total)
        np.add.at(generated, channels[kidx], self.ge[i, kidx])
        return UtilityContext(
            player=self.topology[i],
            interference=interference,
            generated_weight=generated,
            edge_gain=float(self.edge[i]),
            noise_power=self.model.noise_power,
        )


def run_dynamics(
    topology: list[AccessPoint],
    state: AllocationState,
    model: PropagationModel,
    timing: TimingModel,
    responder: str,
    max_rounds: int,
    rng: np.random.Generator,
    *,
    knowledge: KnowledgeBase | list[set[int]] | None = None,
    enforce_sufficiency: bool = False,
    record_potential: str | None = None,
    active: set[int] | None = None,
    power_tolerance: float = POWER_TOLERANCE,
) -> RunResult:
    """Iterate the chosen response rule until convergence or the round cap.

    Mutates ``state`` in place. Non-convergence is a result, not an error.
    A revisited channel profile after at least one channel change marks a
    cycle; the flag is only reported when the run did not converge.
    """
    if responder not in RESPONDERS:
        raise ValueError(f"unknown responder: {responder}")
    ids = sorted(active) if active is not None else list(range(len(topology)))
    if not ids:
        return RunResult(converged=True, iterations=0, trace=[], cycle_detected=False)
    engine = _Engine(topology, model, knowledge)

    if timing.variant == "synchronous":
        per_round = 1
    elif timing.variant == "asynchronous":
        per_round = math.ceil(len(ids) / min(timing.subset_size, len(ids)))
    else:
        per_round = len(ids)

    def potential(st: AllocationState) -> float:
        if record_potential == game.FLAVOR_APPENDIX_B:
            return appendixB_potential(topology, st, model, gains_true=engine.gt).value
        return exact_potential_full(
            topology, st, model, gains_true=engine.gt, gains_est=engine.ge
        ).value

    trace: list[TraceRecord] = []
    seen = {state.channels.tobytes()}
    revisit = False
    converged = False
    rounds = 0
    iteration = 0

    for rnd in range(max_rounds):
        round_channel_change = False
        round_max_dp = 0.0
        for _ in range(per_round):
            movers = next_movers(timing, iteration, ids, rng)
            snap_ch = state.channels.copy()
            snap_p = state.powers.copy()
            updates = []
            for i in movers:
                ctx = engine.context(i, snap_ch, snap_p, enforce_sufficiency)
                old_k = int(snap_ch[i])
                if responder == BEST_RESPONSE:
                    new_k, new_p = game.best_response(ctx, old_k)
                elif responder == SELFISH:
                    new_k, new_p = game.selfish_response(ctx, old_k)
                else:
                    ks = sorted(topology[i].channels)
                    new_k = ks[int(rng.integers(len(ks)))]
                    new_p = ctx.necessary_power(new_k)
                u_before = game.utility(ctx, old_k) if old_k != OFF else -math.inf
                u_after = game.utility(ctx, new_k)
                updates.append((i, old_k, new_k, new_p, u_before, u_after, ctx))
            activation_changed = False
            for i, old_k, new_k, new_p, u_before, u_after, ctx in updates:
                old_p = float(state.powers[i])
                round_max_dp = max(round_max_dp, abs(new_p - old_p))
                if new_k != old_k:
                    p_before = None
                    if record_potential:
                        # the response refreshes the mover's power before the
                        # channel switch; book the potential against that
                        if old_k != OFF:
                            state.powers[i] = ctx.necessary_power(old_k)
                        p_before = potential(state)
                    state.channels[i] = new_k
                    state.powers[i] = new_p
                    p_after = potential(state) if record_potential else None
                    trace.append(TraceRecord(
                        mover=i, old_channel=old_k, new_channel=new_k,
                        old_power=old_p, new_power=new_p,
                        u_before=u_before, u_after=u_after,
                        potential_before=p_before, potential_after=p_after,
                    ))
                    activation_changed = True
                    round_channel_change = True
                else:
                    state.powers[i] = new_p
            iteration += 1
            if activation_changed:
                key = state.channels.tobytes()
                if key in seen:
                    revisit = True
                else:
                    seen.add(key)
        rounds = rnd + 1
        if not round_channel_change and round_max_dp < power_tolerance:
            converged = True
            break

    return RunResult(
        converged=converged,
        iterations=rounds,
        trace=trace,
        cycle_detected=revisit and not converged,
    )


def trace_to_csv_text(trace: list[TraceRecord]) -> str:
    """Trace export: one row per move with utilities and recorded potential."""
    lines = ["iteration,mover,old_channel,new_channel,u_before,u_after,P_value"]
    for t, rec in enumerate(trace):
        p_val = "" if rec.potential_after is None else format(rec.potential_after, ".12g")
        lines.append(
            f"{t},{rec.mover},{rec.old_channel},{rec.new_channel},"
            f"{format(rec.u_before, '.12g')},{format(rec.u_after, '.12g')},{p_val}"
        )
    return "\n".join(lines) + "\n"
