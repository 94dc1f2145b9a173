"""Utilities, response rules, potential functions and their checkers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame.game import (
    TraceRecord,
    appendixB_potential,
    best_response,
    exact_potential_full,
    selfish_response,
    utility,
    verify_exact_potential,
    verify_ordinal_improvement,
)
from apgame.harness import ScenarioConfig, generate_topology
from apgame.model import (
    OFF,
    AllocationState,
    Network,
    Player,
    PropagationModel,
    co_channel_mask,
    edge_gain,
    received_interference,
    satisfied_mask,
)
from apgame.model import necessary_power as capped_power
from apgame.schedulers import is_nash_equilibrium
from oracles import (
    context,
    estimated_gain,
    gain_matrices,
    generated_weight,
    local_optimality_check,
    make_ap,
    make_model,
    necessary_power,
    network_of_copy,
    true_gain,
    utility_context,
)
from test_engine_oracle import RefContext, ref_best_response


def make_context(ap, interference, weight, edge_gain, noise_power):
    """The ``(interference, weight, player)`` triple of ``ap`` with the given constants."""
    player = Player(tuple(sorted(ap.channels)), ap.sinr_target, noise_power, edge_gain,
                    ap.max_power)
    return interference, weight, player


def random_instance(rng, n=6, k=2, area=200.0, shadow=True):
    topo = [
        make_ap(i, *rng.uniform(0, area, 2), radius=float(rng.uniform(3, 15)),
                beta=float(rng.uniform(1, 6)), channels=tuple(range(k)))
        for i in range(n)
    ]
    if shadow:
        model = PropagationModel.sample(n, rng)
    else:
        model = make_model(n)
    channels = rng.integers(0, k, size=n).astype(np.int64)
    powers = rng.uniform(1e-5, 0.1, size=n)
    return topo, model, AllocationState(channels, powers)


class TestUtility:
    def test_matches_hand_sum(self):
        rng = np.random.default_rng(1)
        topo, model, state = random_instance(rng)
        ctx = utility_context(2, topo, state, model)
        for k in (0, 1):
            measured = sum(
                float(state.powers[j]) * true_gain(topo[j], topo[2], model)
                for j in range(6)
                if j != 2 and state.channels[j] == k
            )
            pnec = min(
                topo[2].sinr_target * (model.noise_power + measured)
                / edge_gain(topo[2], model),
                topo[2].max_power,
            )
            outgoing = sum(
                estimated_gain(topo[2], topo[j], model)
                for j in range(6)
                if j != 2 and state.channels[j] == k
            )
            assert utility(*ctx, k) == pytest.approx(-measured - pnec * outgoing)

    def test_restricted_knowledge_shrinks_second_sum(self):
        rng = np.random.default_rng(2)
        topo, model, state = random_instance(rng)
        full_interference, _, _ = utility_context(0, topo, state, model)
        interference, weight, _ = utility_context(0, topo, state, model, known=set())
        for k in (0, 1):
            assert float(weight[k]) == 0.0
            # the measured part is identical regardless of knowledge
            assert float(interference[k]) == float(full_interference[k])

    def test_unavailable_channel_raises(self):
        topo = [make_ap(0, 0, 0, channels=(0,))]
        state = AllocationState(np.array([0]), np.array([0.01]))
        ctx = utility_context(0, topo, state, make_model(1))
        with pytest.raises(ValueError):
            utility(*ctx, 1)

    def test_zero_weight_context_is_the_selfish_game(self):
        rng = np.random.default_rng(4)
        topo, model, state = random_instance(rng, k=4)
        state.powers[3:] = 0.0  # the rest transmit on 0 and 1: 2 and 3 tie at zero
        net = Network(topo, model)
        for i in range(len(topo)):
            args = context(net, i, state, [0.0] * net.num_channels)
            for k in range(net.num_channels):
                assert utility(*args, k) == -args[0][k]
            for current in [OFF, *range(net.num_channels)]:
                assert selfish_response(*args, current) == best_response(*args, current)
        # hand-built: channels 1 and 3 tie at equal interference, 0 and 2 at infinite
        args = make_context(make_ap(0, 0, 0, channels=(0, 1, 2, 3)),
                            [math.inf, 3e-7, math.inf, 3e-7], [0.0] * 4, 1e-3, 1e-8)
        for current in [OFF, 0, 1, 2, 3]:
            assert selfish_response(*args, current) == best_response(*args, current)
        assert [best_response(*args, current)[0] for current in [OFF, 0, 1, 2, 3]] \
            == [1, 1, 1, 1, 3]

    def test_positive_scaling_keeps_argmax(self):
        # scaling both utility terms by c > 0 is equivalent to scaling the
        # interference and weights; the best channel must not change
        rng = np.random.default_rng(3)
        topo, model, state = random_instance(rng)
        interference, weight, player = ctx = utility_context(1, topo, state, model)
        scaled = (interference * 1.0, weight * 1.0, player)
        assert best_response(*ctx, OFF)[0] == best_response(*scaled, OFF)[0]


class TestResponses:
    def _two_channel_ctx(self, u0, u1):
        """Context where channel utilities are exactly (-u0, -u1) via interference."""
        ap = make_ap(0, 0, 0, beta=1.0, pmax=100.0)
        return make_context(
            ap,
            interference=np.array([u0, u1]),
            weight=np.zeros(2),
            edge_gain=1.0,
            noise_power=0.0,
        )

    def test_best_response_argmax(self):
        ctx = self._two_channel_ctx(1e-5, 2e-5)
        k, p = best_response(*ctx, OFF)
        assert k == 0
        assert p == pytest.approx(1e-5)

    def test_best_response_tie_keeps_current(self):
        ctx = self._two_channel_ctx(1e-5, 1e-5)
        assert best_response(*ctx, 1)[0] == 1
        assert best_response(*ctx, OFF)[0] == 0  # no current channel: lowest id

    def test_best_response_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            topo, model, state = random_instance(rng, n=3, k=2)
            i = int(rng.integers(3))
            ctx = utility_context(i, topo, state, model)
            k_star, _ = best_response(*ctx, int(state.channels[i]))
            best = max(sorted(topo[i].channels), key=lambda k: utility(*ctx, k))
            assert utility(*ctx, k_star) == utility(*ctx, best)

    def test_best_response_never_worsens_mover(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            topo, model, state = random_instance(rng, n=8, k=3)
            i = int(rng.integers(8))
            cur = int(state.channels[i])
            ctx = utility_context(i, topo, state, model)
            k_star, _ = best_response(*ctx, cur)
            assert utility(*ctx, k_star) >= utility(*ctx, cur)

    def test_selfish_response_argmin(self):
        ap = make_ap(0, 0, 0, channels=(0, 1, 2))
        ctx = make_context(
            ap,
            interference=np.array([1e-6, 1e-7, 1e-6]),
            weight=np.zeros(3),
            edge_gain=1e-3, noise_power=1e-8,
        )
        assert selfish_response(*ctx, OFF)[0] == 1

    def test_selfish_on_empty_channels_picks_lowest(self):
        ap = make_ap(0, 0, 0, radius=10.0, beta=2.0)
        ctx = make_context(
            ap,
            interference=np.zeros(2), weight=np.zeros(2),
            edge_gain=1e-3, noise_power=1e-8,
        )
        k, p = selfish_response(*ctx, OFF)
        assert k == 0
        assert p == pytest.approx(2.0 * 1e-8 / 1e-3)

    def test_selfish_equals_best_under_symmetric_uniform_power(self):
        # equal radii, full knowledge, uniform powers and no shadowing:
        # the generated-interference argmin coincides with the measured one
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 6
            topo = [
                make_ap(i, *rng.uniform(0, 150, 2), radius=8.0, beta=1.0,
                        pmax=10.0, channels=(0, 1, 2))
                for i in range(n)
            ]
            model = make_model(n)
            channels = rng.integers(0, 3, size=n).astype(np.int64)
            state = AllocationState(channels, np.full(n, 0.05))
            i = int(rng.integers(n))
            args = utility_context(i, topo, state, model)
            assert selfish_response(*args, OFF)[0] == best_response(*args, OFF)[0]


def loop_best_response(ctx, current_channel):
    """Per-channel loop that the vectorised best_response must reproduce."""
    interference, _, player = ctx
    best_k, best_u = -1, -math.inf
    for k in sorted(player.channels):
        u = utility(*ctx, k)
        if u > best_u or (u == best_u and k == current_channel):
            best_k, best_u = k, u
    return best_k, capped_power(player, interference[best_k])


def loop_selfish_response(ctx, current_channel):
    """Per-channel loop that the vectorised selfish_response must reproduce."""
    interference, _, player = ctx
    best_k, best_i = -1, math.inf
    for k in sorted(player.channels):
        v = float(interference[k])
        if v < best_i or (v == best_i and k == current_channel):
            best_k, best_i = k, v
    return best_k, capped_power(player, interference[best_k])


@st.composite
def response_cases(draw):
    """A context whose channels repeat (interference, weight) pairs from a
    small pool, so exact utility ties are common, plus a current channel
    that may be OFF or unavailable."""
    k_total = draw(st.integers(1, 6))
    value = st.floats(0.0, 1e-4, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.tuples(value, st.sampled_from([0.0, 1e-6, 1e-3, 1.0, 250.0])),
                         min_size=1, max_size=3))
    pairs = [draw(st.sampled_from(pool)) for _ in range(k_total)]
    channels = draw(st.sets(st.integers(0, k_total - 1), min_size=1))
    ap = make_ap(0, 0, 0, beta=draw(st.floats(1.0, 6.0)),
                 pmax=draw(st.sampled_from([1e-4, 0.1, 100.0])), channels=tuple(channels))
    ctx = make_context(
        ap,
        interference=np.array([i for i, _ in pairs]),
        weight=np.array([g for _, g in pairs]),
        edge_gain=draw(st.sampled_from([1e-3, 0.5, 1.0])),
        noise_power=draw(st.sampled_from([0.0, 1e-8])),
    )
    return ctx, draw(st.integers(OFF, k_total - 1))


class TestVectorisedResponses:
    @settings(max_examples=200, deadline=None)
    @given(response_cases())
    def test_best_response_equals_channel_loop(self, case):
        ctx, current = case
        assert best_response(*ctx, current) == loop_best_response(ctx, current)

    @settings(max_examples=200, deadline=None)
    @given(response_cases())
    def test_selfish_response_equals_channel_loop(self, case):
        ctx, current = case
        assert selfish_response(*ctx, current) == loop_selfish_response(ctx, current)


@st.composite
def zero_weight_cases(draw):
    """Interference from a three-value pool, so exact ties are common, a zero
    weight that may hold -0.0, a channel subset, and a current channel that is
    OFF, outside the subset or on a channel tied with another."""
    k_total = draw(st.integers(1, 6))
    interference = [draw(st.sampled_from([0.0, 1e-12, 2e-12])) for _ in range(k_total)]
    weight = [draw(st.sampled_from([0.0, -0.0])) for _ in range(k_total)]
    channels = tuple(sorted(draw(st.sets(st.integers(0, k_total - 1), min_size=1))))
    player = Player(channels, draw(st.floats(1.0, 6.0)), draw(st.sampled_from([0.0, 1e-8])),
                    draw(st.sampled_from([1e-3, 0.5, 1.0])),
                    draw(st.sampled_from([1e-4, 0.1, 100.0])))
    values = [interference[k] for k in channels]
    outside = [k for k in range(k_total) if k not in channels]
    tied = [k for k in channels if values.count(interference[k]) > 1]
    return interference, weight, player, draw(st.sampled_from([OFF, *outside, *tied]))


class TestZeroWeightResponse:
    """Without generated weight best response compares the interference
    directly; it must equal the selfish rule and the vectorised reference."""

    @settings(max_examples=300, deadline=None)
    @given(zero_weight_cases())
    def test_equals_selfish_and_reference_on_exact_ties(self, case):
        interference, weight, player, current = case
        got = best_response(interference, weight, player, current)
        assert repr(got) == repr(selfish_response(interference, weight, player, current))
        ctx = RefContext(player, np.array(interference), np.array(weight))
        assert repr(got) == repr(ref_best_response(ctx, current))


class TestPotentials:
    def test_exact_potential_all_off(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        state = AllocationState.all_off(2)
        assert exact_potential_full(Network(topo, make_model(2)), state) == 0.0

    def test_exact_potential_orthogonal_pair(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        state = AllocationState(np.array([0, 1]), np.array([0.01, 0.02]))
        assert exact_potential_full(Network(topo, make_model(2)), state) == 0.0

    def test_exact_potential_cochannel_pair_hand_sum(self):
        # symmetric gains g and no shadowing: value is -g (p1 + p2)
        topo = [make_ap(0, 0, 0, radius=10.0), make_ap(1, 50, 0, radius=10.0)]
        model = make_model(2)
        g = true_gain(topo[0], topo[1], model)
        p1, p2 = 0.03, 0.07
        state = AllocationState(np.array([1, 1]), np.array([p1, p2]))
        value = exact_potential_full(Network(topo, model), state)
        assert value == pytest.approx(-g * (p1 + p2))

    def test_appendixB_all_off_and_orthogonal(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        model = make_model(2)
        net = Network(topo, model)
        assert appendixB_potential(net, AllocationState.all_off(2)) == 0.0
        ortho = AllocationState(np.array([0, 1]), np.array([0.01, 0.02]))
        assert appendixB_potential(net, ortho) == 0.0

    def test_appendixB_cochannel_pair(self):
        topo = [make_ap(0, 0, 0, radius=10.0), make_ap(1, 50, 0, radius=10.0)]
        model = make_model(2)
        g = true_gain(topo[0], topo[1], model)
        p1, p2 = 0.03, 0.07
        state = AllocationState(np.array([0, 0]), np.array([p1, p2]))
        assert appendixB_potential(Network(topo, model), state) == pytest.approx(
            2 * g * p1 * p2
        )


class TestReceiverMajorLayout:
    """Reductions over the ``.T`` view ``gains_true`` add in the order they
    add over a C-ordered transmitter-major matrix."""

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(50, 305), clustered=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_reductions_equal_c_ordered_formulas(self, n, clustered, seed):
        rng = np.random.default_rng(seed)
        cfg = ScenarioConfig(num_aps=n, num_channels=int(rng.integers(1, 14)),
                             clustered=clustered, seed=0)
        topo, model = generate_topology(cfg, rng)
        net = network_of_copy(topo, model)
        assert net.gains_true.flags.f_contiguous and net.gains_true.base is not None
        gt = np.ascontiguousarray(net.gains_true)
        ge = net.gains_est
        channels = rng.integers(OFF, cfg.num_channels, size=n)
        powers = rng.uniform(1e-6, 0.1, size=n) * (rng.random(n) < 0.9)
        powers[channels == OFF] = 0.0
        state = AllocationState(channels, powers)
        co, p = co_channel_mask(state), state.powers

        # every active AP's target is set to its SINR exactly, so a sum that
        # adds in another order and ends a bit higher flips its AP
        interference = np.sum(co * (p[:, None] * gt), axis=0)
        ratio = net.edge * p / (model.noise_power + interference)
        topology = [replace(ap, sinr_target=float(ratio[i])) if p[i] > 0 else ap
                    for i, ap in enumerate(net.topology)]
        beta = np.array([ap.sinr_target for ap in topology])
        expected_mask = ratio >= beta
        assert expected_mask.sum() == np.count_nonzero(p)
        assert np.array_equal(satisfied_mask(Network(topology, model), state), expected_mask)
        # the mask reads the F-ordered gains; its interference equals the C-ordered one's
        assert (received_interference(state, net.gains_true).tobytes()
                == received_interference(state, gt).tobytes())

        received = float(np.sum(co * (p[:, None] * gt)))
        generated = float(np.sum(co * (p[:, None] * ge)))
        assert exact_potential_full(net, state) == -0.5 * (received + generated)
        assert appendixB_potential(net, state) \
            == float(np.sum(co * (p[:, None] * p[None, :]) * gt))


class TestNashOracle:
    def test_single_ap_is_ne(self):
        topo = [make_ap(0, 0, 0)]
        state = AllocationState(np.array([1]), np.array([2e-5]))
        assert is_nash_equilibrium(Network(topo, make_model(1)), state)

    def test_orthogonal_pair_is_ne(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 40, 0)]
        model = make_model(2)
        state = AllocationState.all_off(2)
        p0 = necessary_power(topo[0], 0, topo, state, model)
        p1 = necessary_power(topo[1], 1, topo, state, model)
        state = AllocationState(np.array([0, 1]), np.array([p0, p1]))
        assert is_nash_equilibrium(Network(topo, model), state)

    def test_forced_cochannel_singleton_strategy_is_ne(self):
        topo = [make_ap(0, 0, 0, channels=(0,)), make_ap(1, 40, 0, channels=(0,))]
        state = AllocationState(np.array([0, 0]), np.array([0.01, 0.01]))
        assert is_nash_equilibrium(Network(topo, make_model(2)), state)

    def test_profitable_deviation_is_flagged(self):
        # both APs crowded on channel 0 with channel 1 free: not a NE
        topo = [make_ap(0, 0, 0), make_ap(1, 30, 0)]
        state = AllocationState(np.array([0, 0]), np.array([0.05, 0.05]))
        assert not is_nash_equilibrium(Network(topo, make_model(2)), state)

    def test_size_guard(self):
        rng = np.random.default_rng(7)
        n = 1100
        topo = [
            make_ap(i, *rng.uniform(0, 1000, 2), channels=tuple(range(1000)))
            for i in range(n)
        ]
        state = AllocationState.all_off(n)
        with pytest.raises(ValueError):
            is_nash_equilibrium(Network(topo, make_model(n)), state)


def sweep_is_nash_equilibrium(topology, state, model):
    """Deviation sweep over ``utility_context`` that ``is_nash_equilibrium``
    must reproduce: it builds both gain matrices and every context with the
    per-AP loop."""
    ge, gt = gain_matrices(topology, model)
    for i, ap in enumerate(topology):
        ctx = utility_context(i, topology, state, model, gains_true=gt, gains_est=ge)
        cur = int(state.channels[i])
        u_cur = utility(*ctx, cur) if cur != OFF else -math.inf
        for k in ap.channels:
            if utility(*ctx, k) > u_cur:
                return False
    return True


def loop_is_nash_equilibrium(network, state):
    """The per-AP loop ``is_nash_equilibrium`` replaced: each AP's ``best_response``
    on the weight of its whole ``gains_est`` row keeps its channel."""
    channels, active = state.channels.tolist(), (state.powers > 0).tolist()
    for i, cur in enumerate(channels):
        # every AP is a neighbour; i's own pair adds its zero gain
        pairs = enumerate(network.gains_est[i].tolist())
        weight = generated_weight(pairs, channels, active, network.num_channels)
        if best_response(*context(network, i, state, weight), cur)[0] != cur:
            return False
    return True


@st.composite
def nash_cases(draw):
    """A small network on a coarse grid with equal-gain pairs, so exact
    utility ties are common; APs miss some channels, and some are OFF or
    hold a channel at zero power."""
    n = draw(st.integers(1, 6))
    k_total = draw(st.integers(1, 4))
    grid = st.sampled_from([0.0, 30.0, 60.0])
    topo = [
        make_ap(i, draw(grid), draw(grid), radius=draw(st.sampled_from([5.0, 10.0])),
                beta=draw(st.sampled_from([1.0, 2.0])),
                pmax=draw(st.sampled_from([1e-4, 0.1])),
                channels=tuple(draw(st.sets(st.integers(0, k_total - 1), min_size=1))))
        for i in range(n)
    ]
    channels, powers = [], []
    for ap in topo:
        k = draw(st.sampled_from([OFF, *sorted(ap.channels)]))
        p = 0.0 if k == OFF else min(draw(st.sampled_from([0.0, 1e-4, 0.01])), ap.max_power)
        channels.append(k)
        powers.append(p)
    if draw(st.booleans()):
        model = PropagationModel.sample(n, np.random.default_rng(draw(st.integers(0, 99))))
    else:
        model = make_model(n)
    return topo, model, AllocationState(np.array(channels), np.array(powers))


class TestNashSweep:
    @settings(max_examples=200, deadline=None)
    @given(nash_cases())
    def test_equals_utility_context_sweep(self, case):
        topo, model, state = case
        expected = sweep_is_nash_equilibrium(topo, state, model)
        network = Network(topo, model)
        before = state.channels.tobytes(), state.powers.tobytes()
        assert is_nash_equilibrium(network, state) == expected
        assert (state.channels.tobytes(), state.powers.tobytes()) == before
        assert loop_is_nash_equilibrium(network, state) == expected


class TestVerifiers:
    def test_exact_verifier_passes_on_equal_radii(self):
        rng = np.random.default_rng(8)
        n = 6
        topo = [
            make_ap(i, *rng.uniform(0, 150, 2), radius=8.0, channels=(0, 1, 2))
            for i in range(n)
        ]
        model = PropagationModel.sample(n, rng)
        violations, worst = verify_exact_potential(Network(topo, model), trials=300, tol=1e-9,
                                                   rng=rng)
        assert violations == 0
        assert worst <= 1e-9

    def test_exact_verifier_flags_asymmetric_radii(self):
        # two-AP counterexample: unequal radii break gain symmetry, so the
        # altered utility change differs from the potential change
        topo = [make_ap(0, 0.0, 0.0, radius=3.0, channels=(0, 1)),
                make_ap(1, 30.0, 0.0, radius=20.0, channels=(0, 1))]
        model = make_model(2)
        rng = np.random.default_rng(9)
        violations, worst = verify_exact_potential(Network(topo, model), trials=200, tol=1e-12,
                                                   rng=rng)
        assert 0 < violations <= 200 and worst > 1e-12

    def test_noop_deviation_has_zero_deltas(self):
        topo = [make_ap(0, 0, 0, channels=(0,)), make_ap(1, 60, 0, channels=(0,))]
        model = make_model(2)
        rng = np.random.default_rng(10)
        # one channel: every deviation is a no-op, so no trial has a gap
        assert verify_exact_potential(Network(topo, model), trials=50, tol=1e-9,
                                      rng=rng) == (0, 0.0)

    def test_ordinal_empty_trace_passes(self):
        assert verify_ordinal_improvement([]) == (0, 0, 0.0)

    def test_ordinal_flags_potential_drop(self):
        rec = TraceRecord(
            mover=0, old_channel=0, new_channel=1, old_power=0.01, new_power=0.01,
            u_before=-2.0, u_after=-1.0, potential_before=5.0, potential_after=4.0,
        )
        assert verify_ordinal_improvement([rec]) == (1, 1, 1.0)

    def test_ordinal_counts_strict_improvements_only(self):
        # a move that does not raise the mover's utility is skipped, potentials or not
        flat = TraceRecord(mover=1, old_channel=0, new_channel=1, old_power=0.01,
                           new_power=0.01, u_before=-1.0, u_after=-1.0)
        up = TraceRecord(mover=0, old_channel=0, new_channel=1, old_power=0.01, new_power=0.01,
                         u_before=-2.0, u_after=-1.0, potential_before=4.0, potential_after=5.0)
        assert verify_ordinal_improvement([flat, up, flat]) == (1, 0, 0.0)

    def test_ordinal_requires_recorded_potential(self):
        rec = TraceRecord(
            mover=0, old_channel=0, new_channel=1, old_power=0.01, new_power=0.01,
            u_before=-2.0, u_after=-1.0,
        )
        with pytest.raises(ValueError):
            verify_ordinal_improvement([rec])


class TestLocalOptimality:
    def test_single_neighbor_avoided(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 30, 0)]
        model = make_model(2)
        state = AllocationState(np.array([OFF, 0]), np.array([0.0, 0.05]))
        assert local_optimality_check(0, topo, state, model)

    def test_symmetric_uniform_instances_always_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = 6
            topo = [
                make_ap(i, *rng.uniform(0, 150, 2), radius=8.0, channels=(0, 1, 2))
                for i in range(n)
            ]
            model = make_model(n)
            channels = rng.integers(0, 3, size=n).astype(np.int64)
            state = AllocationState(channels, np.full(n, 0.05))
            assert local_optimality_check(int(rng.integers(n)), topo, state, model)

    def test_near_neighbor_on_quiet_channel_disagrees(self):
        # one strong close transmitter sits on the channel with the least
        # measured interference; a distant loud pair raises the measured
        # level of the other channel
        topo = [
            make_ap(0, 0.0, 0.0, channels=(0, 1)),
            make_ap(1, 12.0, 0.0, radius=10.0, pmax=1.0),
            make_ap(2, 200.0, 0.0, radius=10.0, pmax=1.0),
        ]
        model = make_model(3)
        # AP1 (close) on channel 0 at tiny power; AP2 (far) on channel 1, loud
        state = AllocationState(np.array([OFF, 0, 1]), np.array([0.0, 1e-6, 1.0]))
        i0 = 1e-6 * true_gain(topo[1], topo[0], model)
        i1 = 1.0 * true_gain(topo[2], topo[0], model)
        assert i0 < i1  # channel 0 measures quieter
        w0 = estimated_gain(topo[0], topo[1], model)
        w1 = estimated_gain(topo[0], topo[2], model)
        assert w0 > w1  # but generates more interference at the close AP
        assert not local_optimality_check(0, topo, state, model)
