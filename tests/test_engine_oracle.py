"""The dynamics engine against a reference copy of its straightforward form.

The reference below is the engine as it was before its hot paths were made
lean: one frozen context per mover with both bincounts, a mover list built
on every activation, a masked argmax for the tie rule and the potential over
a C-ordered transmitter-major gain matrix. It builds its profile arrays and
co-channel mask from ``state`` itself. Without knowledge the known set is
empty: the game without neighbour information, the selfish rule. Its cycle
check is its own: a list of the states at each round end, scanned for the
new one. The lean engine must reproduce it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame.game import TraceRecord
from apgame.knowledge import KnowledgeBase, nearest_cover_set, neighbour_order
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    Player,
    PropagationModel,
    power_demand,
)
from apgame.schedulers import POWER_TOLERANCE, RunResult, run_dynamics


def ref_profile(state):
    """Each AP's activity, channel (0 when silent) and power times activity."""
    act = (state.channels != OFF) & (state.powers > 0)
    return act, np.where(act, state.channels, 0), state.powers * act


def ref_co_channel(state):
    """[i, j] true iff i and j are distinct, active and on one channel."""
    act, ch, _ = ref_profile(state)
    co = (ch[:, None] == ch[None, :]) & act[:, None] & act[None, :]
    np.fill_diagonal(co, False)
    return co


@dataclass(frozen=True)
class RefContext:
    player: Player
    interference: np.ndarray
    generated_weight: np.ndarray

    def necessary_power(self, k: int) -> float:
        interference = float(self.interference[k])
        demand = power_demand(self.player, interference)
        return min(demand, self.player.cap)


def ref_context(network, i, ch, wp, known, gt):
    k = network.num_channels
    return RefContext(
        player=network.players[i],
        interference=np.bincount(ch, wp * gt[:, i], k),
        generated_weight=np.bincount(ch, network.gains_est[i] * known, k),
    )


def ref_utility(ctx, k):
    if k not in ctx.player.channels:
        raise ValueError(f"channel {k} is not available to the player")
    return -float(ctx.interference[k]) - ctx.necessary_power(k) * float(ctx.generated_weight[k])


def ref_argmax_channel(ctx, score, current_channel):
    if len(ctx.player.channels) < len(score):
        available = list(ctx.player.channels)
        masked = np.full(len(score), -math.inf)
        masked[available] = score[available]
        score = masked
    k = int(score.argmax())
    if current_channel != OFF and score[current_channel] == score[k]:
        return current_channel
    return k


def ref_best_response(ctx, current_channel):
    power = np.minimum(power_demand(ctx.player, ctx.interference), ctx.player.cap)
    k = ref_argmax_channel(ctx, -ctx.interference - power * ctx.generated_weight,
                           current_channel)
    return k, float(power[k])


def ref_exact_potential_full(network, state, gt):
    ge = network.gains_est
    co = ref_co_channel(state)
    p = state.powers
    received = float(np.sum(co * (p[:, None] * gt)))
    generated = float(np.sum(co * (p[:, None] * ge)))
    return -0.5 * (received + generated)


def ref_run_dynamics(network, state, max_rounds, *, knowledge, synchronous=False,
                     enforce_sufficiency=False, record_potential=False, active=None):
    gt = np.ascontiguousarray(network.gains_true)  # transmitter-major, C-ordered
    ids = list(range(len(network.topology) if active is None else active))
    if not ids:
        return RunResult(converged=True, iterations=0, trace=[], cycle_detected=False)
    per_round = 1 if synchronous else len(ids)
    act, ch, wp = ref_profile(state)
    trace = []
    # the state, both arrays byte for byte, at entry and after each round that did not converge
    history = [(state.channels.tobytes(), state.powers.tobytes())]
    revisit = False
    converged = False
    rounds = 0
    iteration = 0
    for rnd in range(max_rounds):
        round_channel_change = False
        round_max_dp = 0.0
        for _ in range(per_round):
            updates = []
            movers = ids if synchronous else [ids[iteration % len(ids)]]
            for i in movers:
                known = np.zeros_like(act) if knowledge is None else act & knowledge.known[i]
                if enforce_sufficiency:
                    cover = nearest_cover_set(neighbour_order(network.positions, i), state)
                    known[cover] |= act[cover]
                ctx = ref_context(network, i, ch, wp, known, gt)
                old_k = int(state.channels[i])
                updates.append((i, old_k, *ref_best_response(ctx, old_k), ctx))
            for i, old_k, new_k, new_p, ctx in updates:
                old_p = float(state.powers[i])
                round_max_dp = max(round_max_dp, abs(new_p - old_p))
                if new_k != old_k:
                    u_before = ref_utility(ctx, old_k) if old_k != OFF else -math.inf
                    p_before = p_after = None
                    if record_potential:
                        if old_k != OFF:
                            state.powers[i] = ctx.necessary_power(old_k)
                        p_before = ref_exact_potential_full(network, state, gt)
                    state.channels[i] = new_k
                    state.powers[i] = new_p
                    if record_potential:
                        p_after = ref_exact_potential_full(network, state, gt)
                    trace.append(TraceRecord(
                        mover=i, old_channel=old_k, new_channel=new_k,
                        old_power=old_p, new_power=new_p,
                        u_before=u_before, u_after=ref_utility(ctx, new_k),
                        potential_before=p_before, potential_after=p_after,
                    ))
                    round_channel_change = True
                else:
                    state.powers[i] = new_p
                act[i] = new_p > 0
                ch[i] = new_k
                wp[i] = new_p
            iteration += 1
        rounds = rnd + 1
        if not round_channel_change and round_max_dp < POWER_TOLERANCE:
            converged = True
            break
        snapshot = (state.channels.tobytes(), state.powers.tobytes())
        revisit = revisit or snapshot in history
        history.append(snapshot)
    return RunResult(converged=converged, iterations=rounds, trace=trace,
                     cycle_detected=revisit and not converged)


@st.composite
def instances(draw):
    """A small network with some restricted channel sets and a mixed profile.

    Silent APs are OFF or hold a channel at zero power; dense placements make
    co-channel moves, ties and the power cap likely. Returns the topology, its
    ``PropagationModel``, the profile and the rng. Each test builds its own
    ``Network``: hypothesis prints a dataclass by its init fields, and
    ``Network.model`` is an ``InitVar`` it cannot read back.
    """
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.sampled_from([60.0, 150.0, 400.0]))
    topology = []
    for i in range(n):
        if i == 0 or draw(st.booleans()):
            channels = frozenset(range(k))
        else:
            channels = frozenset(draw(st.sets(st.integers(0, k - 1), min_size=1)))
        radius = float(rng.uniform(3.0, 20.0))
        topology.append(AccessPoint(
            id=i, position=(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            coverage_radius=radius, coordination_radius=40.0,
            sinr_target=float(rng.uniform(1.0, 6.0)), max_power=0.1, channels=channels,
        ))
    model = PropagationModel.sample(n, rng)
    channels = np.array([
        draw(st.sampled_from([OFF] + sorted(ap.channels))) for ap in topology
    ])
    powers = np.array([draw(st.just(0.0) | st.floats(1e-5, 0.1)) for _ in range(n)])
    powers[channels == OFF] = 0.0
    return topology, model, AllocationState(channels, powers), rng


@settings(max_examples=200, deadline=None)
@given(
    instance=instances(),
    synchronous=st.booleans(),
    knowledge_level=st.sampled_from(["none", "partial", "complete", "full"]),
    enforce_sufficiency=st.booleans(),
    record_potential=st.booleans(),
    prefix=st.booleans(),
    max_rounds=st.integers(1, 6),
)
def test_engine_equals_reference(instance, synchronous, knowledge_level, enforce_sufficiency,
                                 record_potential, prefix, max_rounds):
    topology, model, start, rng = instance
    network = Network(topology, model)
    n = len(topology)
    knowledge = None
    if knowledge_level == "full":
        knowledge = KnowledgeBase.full(n)
    elif knowledge_level != "none":
        knowledge = KnowledgeBase.complete(network.topology)
        if knowledge_level == "partial":
            partial = knowledge.known & (rng.random((n, n)) < 0.5)
            knowledge = KnowledgeBase(knowledge.candidates, known=partial)
    active = int(rng.integers(0, n + 1)) if prefix else None  # the first ``active`` APs move
    kwargs = dict(knowledge=knowledge, synchronous=synchronous,
                  enforce_sufficiency=enforce_sufficiency, record_potential=record_potential,
                  active=active)

    state, ref_state = start.copy(), start.copy()
    got = run_dynamics(network, state, max_rounds, **kwargs)
    want = ref_run_dynamics(network, ref_state, max_rounds, **kwargs)

    assert (got.converged, got.iterations, got.cycle_detected) \
        == (want.converged, want.iterations, want.cycle_detected)
    assert len(got.trace) == len(want.trace)
    for a, b in zip(got.trace, want.trace):
        # repr tells 0.0 from -0.0 and keeps None apart from a float
        assert repr(a) == repr(b)
    assert state.channels.tobytes() == ref_state.channels.tobytes()
    assert state.powers.tobytes() == ref_state.powers.tobytes()


def test_fixed_instance_with_restricted_set_and_zero_power_holder():
    """A fixed line of APs in which the game moves with and without knowledge, with potentials."""
    rng = np.random.default_rng(5)
    topology = [
        AccessPoint(id=i, position=(float(x), 0.0), coverage_radius=10.0,
                    coordination_radius=40.0, sinr_target=2.0, max_power=0.1,
                    channels=frozenset({0, 1, 2}) if i != 2 else frozenset({1}))
        for i, x in enumerate([0.0, 30.0, 60.0, 90.0])
    ]
    network = Network(topology, PropagationModel.sample(4, rng))
    # AP 3 holds channel 0 at zero power; AP 2 may only use channel 1
    start = AllocationState(np.array([0, 0, 1, 0]), np.array([0.01, 0.01, 0.01, 0.0]))
    for knowledge in (None, KnowledgeBase.full(4)):
        state, ref_state = start.copy(), start.copy()
        got = run_dynamics(network, state, 5, knowledge=knowledge, record_potential=True)
        want = ref_run_dynamics(network, ref_state, 5, knowledge=knowledge,
                                record_potential=True)
        assert got.trace and repr(got) == repr(want)
        assert state.powers.tobytes() == ref_state.powers.tobytes()
