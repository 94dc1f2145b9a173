"""Timing models, dynamics loop, convergence and cycle detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame import game
from apgame.baselines import random_allocation
from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import DiscoveryState, KnowledgeBase, discovery_tick, nearest_cover_set
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    estimated_gain_matrix,
    true_gain_matrix,
)
from apgame.schedulers import (
    BEST_RESPONSE,
    RANDOM_TIMING,
    ROUND_ROBIN,
    SELFISH,
    SYNCHRONOUS,
    TimingModel,
    next_movers,
    run_dynamics,
)
from oracles import necessary_power, utility_context
from test_engine_oracle import instances


def make_ap(i, x, y, radius=10.0, beta=2.0, channels=(0, 1)):
    return AccessPoint(
        id=i,
        position=(x, y),
        coverage_radius=radius,
        coordination_radius=4 * radius,
        sinr_target=beta,
        max_power=0.1,
        channels=frozenset(channels),
    )


def flat_model(n, noise=1e-8):
    return PropagationModel(
        path_loss_exponent=3.0,
        mean_linear_gain=1.0,
        shadow_samples=np.ones((n, n)),
        noise_power=noise,
    )


def symmetric_pair():
    """Two equal APs, two channels, both starting co-channel."""
    topo = [make_ap(0, 0.0, 0.0), make_ap(1, 40.0, 0.0)]
    model = flat_model(2)
    blank = AllocationState.all_off(2)
    p = necessary_power(topo[0], 0, topo, blank, model)
    state = AllocationState(np.array([0, 0]), np.array([p, p]))
    return topo, model, state


class TestTimingModel:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            TimingModel("sometimes")

    def test_subset_size_must_be_positive(self):
        with pytest.raises(ValueError):
            TimingModel("asynchronous", subset_size=0)

    def test_round_robin_sequence(self):
        rng = np.random.default_rng(0)
        ids = [0, 1, 2]
        seq = [next_movers(ROUND_ROBIN, t, ids, rng) for t in range(6)]
        assert seq == [[0], [1], [2], [0], [1], [2]]

    def test_synchronous_returns_all(self):
        rng = np.random.default_rng(0)
        assert next_movers(SYNCHRONOUS, 3, [4, 7, 9], rng) == [4, 7, 9]

    def test_random_returns_single_valid_id(self):
        rng = np.random.default_rng(1)
        ids = [2, 5, 6, 8]
        for t in range(50):
            movers = next_movers(RANDOM_TIMING, t, ids, rng)
            assert len(movers) == 1 and movers[0] in ids

    def test_asynchronous_subset_size(self):
        rng = np.random.default_rng(2)
        timing = TimingModel("asynchronous", subset_size=2)
        ids = list(range(5))
        for t in range(50):
            movers = next_movers(timing, t, ids, rng)
            assert len(movers) == 2
            assert len(set(movers)) == 2
            assert all(m in ids for m in movers)


class TestRunDynamics:
    def test_single_ap_converges_immediately(self):
        topo = [make_ap(0, 0.0, 0.0)]
        model = flat_model(1)
        state = AllocationState(np.array([1]), np.array([2e-5]))
        rng = np.random.default_rng(0)
        result = run_dynamics(Network(topo, model), state, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        assert result.converged
        assert result.iterations == 1
        assert not result.cycle_detected

    def test_synchronous_pair_cycles(self):
        topo, model, state = symmetric_pair()
        rng = np.random.default_rng(0)
        result = run_dynamics(Network(topo, model), state, SYNCHRONOUS, BEST_RESPONSE, 10, rng)
        assert not result.converged
        assert result.cycle_detected
        # both APs flip together every iteration
        movers = [rec.mover for rec in result.trace[:4]]
        assert sorted(movers[:2]) == [0, 1]

    def test_synchronous_pair_cycles_near_channel_999(self):
        # the revisit keys hold the largest channel ids the CLI accepts
        topo = [make_ap(0, 0.0, 0.0, channels=(998, 999)),
                make_ap(1, 40.0, 0.0, channels=(998, 999))]
        model = flat_model(2)
        p = necessary_power(topo[0], 999, topo, AllocationState.all_off(2), model)
        state = AllocationState(np.array([999, 999]), np.array([p, p]))
        result = run_dynamics(Network(topo, model), state, SYNCHRONOUS, BEST_RESPONSE, 10,
                              np.random.default_rng(0))
        assert not result.converged
        assert result.cycle_detected
        assert {rec.new_channel for rec in result.trace} == {998, 999}

    def test_channel_ids_with_equal_low_byte_are_distinct_profiles(self):
        # 743 and 999 differ by 256: a one-byte key would take the move for a revisit
        topo = [make_ap(0, 0.0, 0.0, channels=(743, 999)), make_ap(1, 40.0, 0.0, channels=(999,))]
        model = flat_model(2)
        p = necessary_power(topo[0], 999, topo, AllocationState.all_off(2), model)
        state = AllocationState(np.array([999, 999]), np.array([p, p]))
        result = run_dynamics(Network(topo, model), state, ROUND_ROBIN, BEST_RESPONSE, 1,
                              np.random.default_rng(0))
        assert [(r.mover, r.old_channel, r.new_channel) for r in result.trace] == [(0, 999, 743)]
        assert not result.converged
        assert not result.cycle_detected

    def test_round_robin_pair_converges_to_orthogonal_ne(self):
        topo, model, state = symmetric_pair()
        rng = np.random.default_rng(0)
        result = run_dynamics(Network(topo, model), state, ROUND_ROBIN, BEST_RESPONSE, 10, rng)
        assert result.converged
        assert result.iterations <= 3
        assert sorted(state.channels.tolist()) == [0, 1]
        assert game.is_nash_equilibrium(Network(topo, model), state)

    def test_unknown_responder_rejected(self):
        topo, model, state = symmetric_pair()
        with pytest.raises(ValueError):
            run_dynamics(Network(topo, model), state, ROUND_ROBIN, "greedy", 10,
                         np.random.default_rng(0))

    def test_sufficiency_without_knowledge_rejected(self):
        # the nearest cover set extends a knowledge row; with no knowledge
        # there is no row to extend and the flag would do nothing
        topo, model, state = symmetric_pair()
        with pytest.raises(ValueError, match="enforce_sufficiency"):
            run_dynamics(Network(topo, model), state, ROUND_ROBIN, BEST_RESPONSE, 10,
                         np.random.default_rng(0), enforce_sufficiency=True)

    def test_converged_run_never_flags_cycle(self):
        for seed in range(20):
            rng = np.random.default_rng((61, seed))
            cfg = ScenarioConfig(num_aps=12, num_channels=3, area_width=250.0,
                                 area_height=250.0, seed=61)
            net = Network(*generate_topology(cfg, rng))
            state = random_allocation(net, rng)
            result = run_dynamics(net, state, ROUND_ROBIN,
                                  BEST_RESPONSE, 100, rng)
            if result.converged:
                assert not result.cycle_detected
            assert result.iterations <= 100

    def test_converged_profiles_are_nash(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng((62, seed))
            cfg = ScenarioConfig(num_aps=6, num_channels=3, area_width=150.0,
                                 area_height=150.0, seed=62)
            topo, model = generate_topology(cfg, rng)
            net = Network(topo, model)
            state = random_allocation(net, rng)
            result = run_dynamics(net, state, ROUND_ROBIN,
                                  BEST_RESPONSE, 100, rng)
            if result.converged:
                hits += 1
                assert game.is_nash_equilibrium(net, state)
        assert hits > 0

    def test_trace_records_are_unilateral_channel_changes(self):
        rng = np.random.default_rng(63)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=63)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        for rec in result.trace:
            assert rec.old_channel != rec.new_channel
            assert 0 <= rec.mover < 15

    def test_best_response_trace_never_decreases_mover_utility(self):
        rng = np.random.default_rng(64)
        cfg = ScenarioConfig(num_aps=20, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=64)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        assert result.trace  # something must have moved
        for rec in result.trace:
            assert rec.u_after >= rec.u_before

    def test_determinism(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=20, num_channels=3, area_width=300.0,
                                 area_height=300.0, seed=seed)
            net = Network(*generate_topology(cfg, np.random.default_rng(9)))
            state = random_allocation(net, rng)
            result = run_dynamics(net, state, RANDOM_TIMING,
                                  BEST_RESPONSE, 50, rng)
            return state.channels.copy(), state.powers.copy(), result.iterations

        ch_a, p_a, it_a = run(5)
        ch_b, p_b, it_b = run(5)
        assert np.array_equal(ch_a, ch_b)
        assert np.array_equal(p_a, p_b)
        assert it_a == it_b

    def test_active_subset_leaves_others_untouched(self):
        rng = np.random.default_rng(65)
        cfg = ScenarioConfig(num_aps=10, num_channels=3, area_width=200.0,
                             area_height=200.0, seed=65)
        topo, model = generate_topology(cfg, rng)
        state = AllocationState.all_off(10)
        state.channels[:5] = rng.integers(0, 3, size=5)
        state.powers[:5] = 0.01
        before = state.channels[5:].copy()
        run_dynamics(Network(topo, model), state, ROUND_ROBIN, BEST_RESPONSE, 20, rng,
                     active=set(range(5)))
        assert np.array_equal(state.channels[5:], before)
        assert np.all(state.powers[5:] == 0.0)

    @staticmethod
    def assert_selfish_is_empty_knowledge(net, timing, max_rounds):
        """Best response on an empty KnowledgeBase is the selfish run, trace included.

        The selfish rule reads no knowledge, so a complete one with the
        cover set enforced changes nothing either.
        """
        start = random_allocation(net, np.random.default_rng(1))
        empty = KnowledgeBase.from_topology(net.topology)
        complete = KnowledgeBase.complete(net.topology)
        runs = [
            (BEST_RESPONSE, dict(knowledge=empty)),
            (SELFISH, {}),
            (SELFISH, dict(knowledge=complete, enforce_sufficiency=True)),
        ]
        results, powers = [], []
        for responder, kwargs in runs:
            state = start.copy()
            results.append(run_dynamics(net, state, timing, responder, max_rounds,
                                        np.random.default_rng(2), record_potential=True,
                                        **kwargs))
            powers.append(state.powers.tobytes())
        assert results[0].trace
        assert repr(results[0]) == repr(results[1]) == repr(results[2])
        assert powers[0] == powers[1] == powers[2]
        return results[0]

    def test_partial_knowledge_limits_generated_term(self):
        # with empty knowledge the mover optimizes measured interference only,
        # which is exactly the selfish rule, trace included
        for seed in (66, 67, 68, 69):
            cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                                 area_height=250.0, seed=seed)
            net = Network(*generate_topology(cfg, np.random.default_rng(seed)))
            for timing in (ROUND_ROBIN, RANDOM_TIMING):
                self.assert_selfish_is_empty_knowledge(net, timing, 30)

    def test_selfish_is_the_game_without_information_at_the_round_cap(self):
        # clustered APs on 3 channels: the dynamics keep moving until the cap
        cfg = ScenarioConfig(num_aps=80, num_channels=3, clustered=True, seed=0)
        net = Network(*generate_topology(cfg, np.random.default_rng(0)))
        result = self.assert_selfish_is_empty_knowledge(net, ROUND_ROBIN, 10)
        assert not result.converged and result.iterations == 10

    def test_recorded_potentials_present_and_finite(self):
        rng = np.random.default_rng(67)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=67)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, ROUND_ROBIN, BEST_RESPONSE, 50,
                              rng, record_potential=True)
        assert result.trace
        for rec in result.trace:
            assert rec.potential_before is not None
            assert np.isfinite(rec.potential_before)
            assert np.isfinite(rec.potential_after)

    @pytest.mark.parametrize("timing", [SYNCHRONOUS, TimingModel("asynchronous", subset_size=2)])
    def test_all_movers_respond_to_the_pre_activation_profile(self, timing):
        # both APs see the other on channel 0 and an empty channel 1, so both
        # move to 1 at the noise-only power p; had the first write been seen,
        # the second AP would have stayed on the channel the first one left
        topo, model, state = symmetric_pair()
        p = float(state.powers[0])
        result = run_dynamics(Network(topo, model), state, timing, BEST_RESPONSE, 1,
                              np.random.default_rng(0))
        assert state.channels.tolist() == [1, 1]
        assert state.powers.tolist() == [p, p]
        g = 30.0 ** -3.0  # 40 m apart, radius 10 m, no shadowing, mean gain 1
        p_stay = min(2.0 * (1e-8 + g * p) / 10.0 ** -3.0, 0.1)
        assert [(r.mover, r.old_channel, r.new_channel, r.new_power) for r in result.trace] \
            == [(0, 0, 1, p), (1, 0, 1, p)]
        for rec in result.trace:
            assert rec.u_before == pytest.approx(-g * p - p_stay * g, rel=1e-12)
            assert rec.u_after == 0.0


def known_set(kb, i):
    """AP i's row of the known matrix as the id set ``utility_context`` takes."""
    return set(np.flatnonzero(kb.known[i]).tolist())


class TestSufficiencyEnforcement:
    """Round-robin best response with partial knowledge and enforce_sufficiency."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(71)
        cfg = ScenarioConfig(num_aps=40, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=71)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        kb = KnowledgeBase.from_topology(net.topology)
        dstate = DiscoveryState(rng=np.random.default_rng(72))
        for _ in range(3):
            discovery_tick(dstate, kb, net.topology)
        return net, state, kb

    def test_moves_match_step_by_step_oracle(self):
        net, state, kb = self.instance()
        topo, model = net.topology, net.model
        start = state.copy()
        result = run_dynamics(net, state, ROUND_ROBIN, BEST_RESPONSE, 30,
                              np.random.default_rng(0), knowledge=kb,
                              enforce_sufficiency=True)
        assert result.trace

        # replay the same activations: the player knows its known set plus
        # its nearest channel-covering neighbors at the current profile
        gt = true_gain_matrix(topo, model)
        ge = estimated_gain_matrix(topo, model)
        oracle = start.copy()
        moves = []
        n = len(topo)
        for t in range(result.iterations * n):
            i = t % n
            known = known_set(kb, i) | nearest_cover_set(i, topo, oracle)
            ctx = utility_context(i, topo, oracle, model, known,
                                       gains_true=gt, gains_est=ge)
            old_k = int(oracle.channels[i])
            new_k, new_p = game.best_response(ctx, old_k)
            if new_k != old_k:
                moves.append((i, old_k, new_k, new_p))
            oracle.channels[i] = new_k
            oracle.powers[i] = new_p

        recorded = [(r.mover, r.old_channel, r.new_channel, r.new_power)
                    for r in result.trace]
        assert recorded == moves
        assert np.array_equal(state.channels, oracle.channels)
        assert np.array_equal(state.powers, oracle.powers)

    def test_flag_changes_the_outcome(self):
        net, state, kb = self.instance()
        plain = state.copy()
        run_dynamics(net, state, ROUND_ROBIN, BEST_RESPONSE, 30,
                     np.random.default_rng(0), knowledge=kb, enforce_sufficiency=True)
        run_dynamics(net, plain, ROUND_ROBIN, BEST_RESPONSE, 30,
                     np.random.default_rng(0), knowledge=kb)
        assert not np.array_equal(state.channels, plain.channels)


class TestEngineContexts:
    """Every context the engine hands to a response equals the scalar oracle."""

    @pytest.mark.parametrize("timing", [ROUND_ROBIN, SYNCHRONOUS])
    @pytest.mark.parametrize("mode", ["full", "partial", "sufficiency"])
    def test_contexts_equal_utility_context(self, monkeypatch, mode, timing):
        rng = np.random.default_rng(73)
        cfg = ScenarioConfig(num_aps=30, num_channels=4, area_width=250.0,
                             area_height=250.0, seed=73)
        net = Network(*generate_topology(cfg, rng))
        topo, model = net.topology, net.model
        state = random_allocation(net, rng)
        state.channels[[3, 11, 20]] = OFF  # silent, two of them never move
        state.powers[[3, 11, 20, 25]] = 0.0  # AP 25 keeps a channel at zero power
        kb = None
        if mode != "full":
            kb = KnowledgeBase.from_topology(topo)
            dstate = DiscoveryState(rng=np.random.default_rng(74))
            for _ in range(3):
                discovery_tick(dstate, kb, topo)
        gt = true_gain_matrix(topo, model)
        ge = estimated_gain_matrix(topo, model)
        seen = []

        def checked(respond):
            def spy(ctx, current):
                i = ctx.player.id
                known = None
                if mode == "partial":
                    known = known_set(kb, i)
                elif mode == "sufficiency":
                    known = known_set(kb, i) | nearest_cover_set(i, topo, state)
                oracle = utility_context(i, topo, state, model, known,
                                              gains_true=gt, gains_est=ge)
                assert np.array_equal(ctx.interference, oracle.interference)
                assert np.array_equal(ctx.generated_weight, oracle.generated_weight)
                assert (ctx.edge_gain, ctx.noise_power) == (oracle.edge_gain, oracle.noise_power)
                assert current == int(state.channels[i])
                seen.append(i)
                return respond(ctx, current)
            return spy

        monkeypatch.setattr(game, "best_response", checked(game.best_response))
        result = run_dynamics(net, state, timing, BEST_RESPONSE, 4,
                              np.random.default_rng(0), knowledge=kb,
                              enforce_sufficiency=mode == "sufficiency",
                              active=set(range(30)) - {11, 20})
        assert result.trace
        assert len(seen) == 28 * result.iterations
        assert 3 in seen and 25 in seen


class TestListContextsBitEqual:
    """The engine's list-valued contexts equal the scalar oracle bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(instance=instances(),
           level=st.sampled_from(["none", "partial", "sufficiency", "full"]),
           responder=st.sampled_from([BEST_RESPONSE, SELFISH]),
           timing=st.sampled_from([ROUND_ROBIN, SYNCHRONOUS]))
    def test_contexts_bit_equal_utility_context(self, instance, level, responder, timing):
        network, state, rng = instance
        topo, model = network.topology, network.model
        n = len(topo)
        kb = None
        if level != "none":
            kb = KnowledgeBase.complete(topo)
            if level != "full":
                kb.known &= rng.random((n, n)) < 0.5
        gt = true_gain_matrix(topo, model)
        ge = estimated_gain_matrix(topo, model)
        seen = []

        def checked(respond):
            def spy(ctx, current):
                i = ctx.player.id
                known = None if kb is None else known_set(kb, i)
                if level == "sufficiency":
                    known |= nearest_cover_set(i, topo, state)
                oracle = utility_context(i, topo, state, model, known,
                                         gains_true=gt, gains_est=ge)
                assert type(ctx.interference) is list
                assert np.array(ctx.interference).tobytes() == oracle.interference.tobytes()
                if responder == BEST_RESPONSE:
                    assert type(ctx.generated_weight) is list
                    assert np.array(ctx.generated_weight).tobytes() \
                        == oracle.generated_weight.tobytes()
                seen.append(i)
                return respond(ctx, current)
            return spy

        name = "best_response" if responder == BEST_RESPONSE else "selfish_response"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, name, checked(getattr(game, name)))
            result = run_dynamics(network, state, timing, responder, 3,
                                  np.random.default_rng(0), knowledge=kb,
                                  enforce_sufficiency=level == "sufficiency")
        assert len(seen) == n * result.iterations
