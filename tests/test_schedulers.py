"""Update schedules, dynamics loop, convergence and cycle detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame import game, harness, schedulers
from apgame.baselines import random_allocation
from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import (
    DiscoveryState,
    KnowledgeBase,
    discovery_tick,
    nearest_cover_set,
    neighbour_order,
)
from apgame.model import (
    OFF,
    AllocationState,
    Network,
    PropagationModel,
)
from apgame.schedulers import is_nash_equilibrium, run_dynamics
from oracles import (
    gain_matrices,
    generated_weight,
    make_ap,
    make_model,
    necessary_power,
    network_of_copy,
    utility_context,
)
from test_engine_oracle import instances


def symmetric_pair():
    """Two equal APs, two channels, both starting co-channel."""
    topo = [make_ap(0, 0.0, 0.0), make_ap(1, 40.0, 0.0)]
    model = make_model(2)
    blank = AllocationState.all_off(2)
    p = necessary_power(topo[0], 0, topo, blank, model)
    state = AllocationState(np.array([0, 0]), np.array([p, p]))
    return topo, model, state


SEQUENTIAL = {}  # the schedule keywords of run_dynamics
SYNCHRONOUS = {"synchronous": True}


class TestRunDynamics:
    def test_no_active_ap_converges_after_zero_rounds(self):
        topo, model, state = symmetric_pair()
        before = state.copy()
        result = run_dynamics(Network(topo, model), state, 10, knowledge=KnowledgeBase.full(2),
                              active=0)
        assert result == schedulers.RunResult(converged=True, iterations=0, trace=[],
                                              cycle_detected=False)
        assert state.channels.tobytes() == before.channels.tobytes()
        assert state.powers.tobytes() == before.powers.tobytes()

    def test_single_ap_converges_immediately(self):
        topo = [make_ap(0, 0.0, 0.0)]
        model = make_model(1)
        state = AllocationState(np.array([1]), np.array([2e-5]))
        result = run_dynamics(Network(topo, model), state, 50, knowledge=KnowledgeBase.full(1))
        assert result.converged
        assert result.iterations == 1
        assert not result.cycle_detected

    def test_synchronous_pair_cycles(self):
        topo, model, state = symmetric_pair()
        result = run_dynamics(Network(topo, model), state, 10, synchronous=True,
                              knowledge=KnowledgeBase.full(2))
        assert not result.converged
        assert result.cycle_detected
        # both APs flip together every iteration
        movers = [rec.mover for rec in result.trace[:4]]
        assert sorted(movers[:2]) == [0, 1]

    def test_synchronous_pair_cycles_near_channel_999(self):
        # a cycle among the largest channel ids the CLI accepts
        topo = [make_ap(0, 0.0, 0.0, channels=(998, 999)),
                make_ap(1, 40.0, 0.0, channels=(998, 999))]
        model = make_model(2)
        p = necessary_power(topo[0], 999, topo, AllocationState.all_off(2), model)
        state = AllocationState(np.array([999, 999]), np.array([p, p]))
        result = run_dynamics(Network(topo, model), state, 10, synchronous=True,
                              knowledge=KnowledgeBase.full(2))
        assert not result.converged
        assert result.cycle_detected
        assert {rec.new_channel for rec in result.trace} == {998, 999}

    def test_channel_ids_with_equal_low_byte_are_distinct_profiles(self):
        # 743 and 999 differ by 256, so their low bytes are equal: a key of one
        # byte per channel would take the move for a return to the entry state
        topo = [make_ap(0, 0.0, 0.0, channels=(743, 999)), make_ap(1, 40.0, 0.0, channels=(999,))]
        model = make_model(2)
        p = necessary_power(topo[0], 999, topo, AllocationState.all_off(2), model)
        state = AllocationState(np.array([999, 999]), np.array([p, p]))
        result = run_dynamics(Network(topo, model), state, 1, knowledge=KnowledgeBase.full(2))
        assert [(r.mover, r.old_channel, r.new_channel) for r in result.trace] == [(0, 999, 743)]
        assert not result.converged
        assert not result.cycle_detected

    @pytest.mark.parametrize("informed", [False, True], ids=["none", "full"])
    @pytest.mark.parametrize("n, seed, cycled, moves", [
        (30, 11, False, (514, 209)), (30, 19, False, (437, 294)), (20, 2, True, (64, 61))])
    def test_a_cycle_is_an_exact_repeat_of_the_state(self, n, seed, cycled, moves, informed):
        # clustered APs on 3 channels without shadowing never converge here; at
        # 30 APs channel profiles come back at other powers, which is no cycle
        cfg = ScenarioConfig(num_aps=n, num_channels=3, clustered=True, num_clusters=3,
                             shadow_std_db=0.0, seed=seed)
        network = harness._setup(cfg)[0]
        state = random_allocation(network, np.random.default_rng(5))
        result = run_dynamics(network, state, 50,
                              knowledge=KnowledgeBase.full(n) if informed else None)
        assert (result.converged, result.iterations) == (False, 50)
        assert result.cycle_detected is cycled
        assert len(result.trace) == moves[informed]

    def test_round_robin_pair_converges_to_orthogonal_ne(self):
        topo, model, state = symmetric_pair()
        net = Network(topo, model)
        result = run_dynamics(net, state, 10, knowledge=KnowledgeBase.full(2))
        assert result.converged
        assert result.iterations <= 3
        assert sorted(state.channels.tolist()) == [0, 1]
        assert is_nash_equilibrium(net, state)

    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    def test_a_mover_on_a_channel_it_lacks_is_rejected_before_any_write(self, timing):
        # APs 0 and 1 share channel 1 and would move before AP 4, which sits on channel 7
        topo = [make_ap(i, 30.0 * i, 0.0, channels=(0, 1, 2)) for i in range(6)]
        net = Network(topo, make_model(6))
        state = AllocationState(np.array([1, 1, 2, 2, 7, 0]), np.full(6, 0.01))
        before = state.channels.tobytes(), state.powers.tobytes()
        with pytest.raises(ValueError, match="channel 7 is not available to AP 4"):
            run_dynamics(net, state, 5, knowledge=None, **timing)
        assert (state.channels.tobytes(), state.powers.tobytes()) == before
        # nor may AP 4 hold the channel while it does not move
        with pytest.raises(ValueError, match="channel 7 is not available to AP 4"):
            run_dynamics(net, state, 5, knowledge=None, active=4, **timing)
        assert (state.channels.tobytes(), state.powers.tobytes()) == before

    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    def test_a_non_mover_on_a_channel_it_lacks_is_rejected_before_any_write(self, timing):
        # AP 4 sits on channel 7 of a 3-channel network and does not move; the
        # movers know it, so its channel would index their per-channel weight
        topo = [make_ap(i, 30.0 * i, 0.0, channels=(0, 1, 2)) for i in range(6)]
        net = Network(topo, make_model(6))
        state = AllocationState(np.array([1, 1, 2, 2, 7, 0]), np.full(6, 0.01))
        before = state.channels.tobytes(), state.powers.tobytes()
        with pytest.raises(ValueError, match="channel 7 is not available to AP 4"):
            run_dynamics(net, state, 5, knowledge=KnowledgeBase.full(6), active=4, **timing)
        assert (state.channels.tobytes(), state.powers.tobytes()) == before

    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    def test_an_off_ap_with_power_is_rejected_before_any_write(self, timing):
        # AP 3's arrays were mutated after construction: OFF at a positive
        # power, which the engine's per-channel sums would count on channel 0
        topo = [make_ap(i, 30.0 * i, 0.0, channels=(0, 1, 2)) for i in range(5)]
        net = Network(topo, make_model(5))
        state = AllocationState(np.array([1, 1, 2, 0, 0]), np.full(5, 0.01))
        state.channels[3] = OFF
        before = state.channels.tobytes(), state.powers.tobytes()
        for active in (None, 3):
            with pytest.raises(ValueError, match="AP 3 is OFF but has power 0.01"):
                run_dynamics(net, state, 5, knowledge=KnowledgeBase.full(5), active=active,
                             **timing)
            assert (state.channels.tobytes(), state.powers.tobytes()) == before

    @pytest.mark.parametrize("bad", [-1, 21])
    def test_active_count_outside_the_network_is_rejected_before_any_write(self, bad):
        # unchecked, -1 would silently move no AP and 21 would look up a 21st player
        network, kb, _, streams = harness._setup(ScenarioConfig(num_aps=20, seed=1))
        state = random_allocation(network, streams[0])
        start = state.copy()
        with pytest.raises(ValueError, match=rf"active count {bad} is outside \[0, 20\]"):
            run_dynamics(network, state, 5, knowledge=kb, active=bad)
        assert state.channels.tobytes() == start.channels.tobytes()
        assert state.powers.tobytes() == start.powers.tobytes()

    def test_knowledge_is_required(self):
        # no default: a call that forgets what the movers know fails loudly
        topo, model, state = symmetric_pair()
        with pytest.raises(TypeError, match="knowledge"):
            run_dynamics(Network(topo, model), state, 10)

    def test_sufficiency_without_knowledge_is_the_cover_set_alone(self):
        # the cover set extends an empty known row: the same run as an empty
        # KnowledgeBase with the flag, and not the selfish run without it
        net, start, _, _ = TestSufficiencyEnforcement.instance()
        runs = []
        for kwargs in (dict(knowledge=None, enforce_sufficiency=True),
                       dict(knowledge=KnowledgeBase.from_topology(net.topology),
                            enforce_sufficiency=True),
                       dict(knowledge=None)):
            state = start.copy()
            result = run_dynamics(net, state, 30, **kwargs)
            runs.append((repr(result), state.channels.tobytes(), state.powers.tobytes()))
        assert runs[0] == runs[1] != runs[2]

    def test_converged_run_never_flags_cycle(self):
        for seed in range(20):
            rng = np.random.default_rng((61, seed))
            cfg = ScenarioConfig(num_aps=12, num_channels=3, area_width=250.0,
                                 area_height=250.0, seed=61)
            net = Network(*generate_topology(cfg, rng))
            state = random_allocation(net, rng)
            result = run_dynamics(net, state, 100, knowledge=KnowledgeBase.full(len(net.topology)))
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
            result = run_dynamics(net, state, 100, knowledge=KnowledgeBase.full(len(net.topology)))
            if result.converged:
                hits += 1
                assert is_nash_equilibrium(net, state)
        assert hits > 0

    def test_trace_records_are_unilateral_channel_changes(self):
        rng = np.random.default_rng(63)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=63)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=KnowledgeBase.full(len(net.topology)))
        for rec in result.trace:
            assert rec.old_channel != rec.new_channel
            assert 0 <= rec.mover < 15

    def test_best_response_trace_never_decreases_mover_utility(self):
        rng = np.random.default_rng(64)
        cfg = ScenarioConfig(num_aps=20, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=64)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=KnowledgeBase.full(len(net.topology)))
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
            result = run_dynamics(net, state, 50, knowledge=KnowledgeBase.full(len(net.topology)))
            return state.channels.copy(), state.powers.copy(), result.iterations

        ch_a, p_a, it_a = run(5)
        ch_b, p_b, it_b = run(5)
        assert np.array_equal(ch_a, ch_b)
        assert np.array_equal(p_a, p_b)
        assert it_a == it_b

    def test_active_prefix_leaves_others_untouched(self):
        rng = np.random.default_rng(65)
        cfg = ScenarioConfig(num_aps=10, num_channels=3, area_width=200.0,
                             area_height=200.0, seed=65)
        topo, model = generate_topology(cfg, rng)
        state = AllocationState.all_off(10)
        state.channels[:5] = rng.integers(0, 3, size=5)
        state.powers[:5] = 0.01
        before = state.channels[5:].copy()
        run_dynamics(Network(topo, model), state, 20, knowledge=KnowledgeBase.full(10),
                     active=5)
        assert np.array_equal(state.channels[5:], before)
        assert np.all(state.powers[5:] == 0.0)

    @staticmethod
    def assert_selfish_is_empty_knowledge(net, max_rounds):
        """Best response on an empty KnowledgeBase, and without knowledge, is
        the run of the selfish rule, ``game.selfish_response``, trace included."""
        start = random_allocation(net, np.random.default_rng(1))
        empty = KnowledgeBase.from_topology(net.topology)
        results, powers = [], []
        for knowledge, respond in [(empty, game.best_response), (None, game.best_response),
                                   (None, game.selfish_response)]:
            state = start.copy()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(game, "best_response", respond)
                results.append(run_dynamics(net, state, max_rounds, knowledge=knowledge,
                                            record_potential=True))
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
            self.assert_selfish_is_empty_knowledge(net, 30)

    def test_selfish_is_the_game_without_information_at_the_round_cap(self):
        # clustered APs on 3 channels: the dynamics keep moving until the cap
        cfg = ScenarioConfig(num_aps=80, num_channels=3, clustered=True, seed=0)
        net = Network(*generate_topology(cfg, np.random.default_rng(0)))
        result = self.assert_selfish_is_empty_knowledge(net, 10)
        assert not result.converged and result.iterations == 10

    def test_recorded_potentials_present_and_finite(self):
        rng = np.random.default_rng(67)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=67)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=KnowledgeBase.full(15),
                              record_potential=True)
        assert result.trace
        for rec in result.trace:
            assert rec.potential_before is not None
            assert np.isfinite(rec.potential_before)
            assert np.isfinite(rec.potential_after)

    @pytest.mark.parametrize("timing", [SYNCHRONOUS])
    def test_all_movers_respond_to_the_pre_activation_profile(self, timing):
        # both APs see the other on channel 0 and an empty channel 1, so both
        # move to 1 at the noise-only power p; had the first write been seen,
        # the second AP would have stayed on the channel the first one left
        topo, model, state = symmetric_pair()
        p = float(state.powers[0])
        result = run_dynamics(Network(topo, model), state, 1, knowledge=KnowledgeBase.full(2),
                              **timing)
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
        topo, model = generate_topology(cfg, rng)
        net = network_of_copy(topo, model)
        state = random_allocation(net, rng)
        kb = KnowledgeBase.from_topology(net.topology)
        dstate = DiscoveryState(rng=np.random.default_rng(72))
        for _ in range(3):
            discovery_tick(dstate, kb, net.topology)
        return net, state, kb, model

    def test_moves_match_step_by_step_oracle(self):
        net, state, kb, model = self.instance()
        topo = net.topology
        start = state.copy()
        result = run_dynamics(net, state, 30, knowledge=kb, enforce_sufficiency=True)
        assert result.trace

        # replay the same activations: the player knows its known set plus
        # its nearest channel-covering neighbors at the current profile
        ge, gt = gain_matrices(topo, model)
        oracle = start.copy()
        moves = []
        n = len(topo)
        for t in range(result.iterations * n):
            i = t % n
            known = known_set(kb, i) | set(
                nearest_cover_set(neighbour_order(net.positions, i), oracle).tolist())
            ctx = utility_context(i, topo, oracle, model, known,
                                       gains_true=gt, gains_est=ge)
            old_k = int(oracle.channels[i])
            new_k, new_p = game.best_response(*ctx, old_k)
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
        net, state, kb, _ = self.instance()
        plain = state.copy()
        run_dynamics(net, state, 30, knowledge=kb, enforce_sufficiency=True)
        run_dynamics(net, plain, 30, knowledge=kb)
        assert not np.array_equal(state.channels, plain.channels)


class TestEngineContexts:
    """Every context the engine hands to a response equals the scalar oracle."""

    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    @pytest.mark.parametrize("mode", ["full", "partial", "sufficiency"])
    def test_contexts_equal_utility_context(self, monkeypatch, mode, timing):
        rng = np.random.default_rng(73)
        cfg = ScenarioConfig(num_aps=30, num_channels=4, area_width=250.0,
                             area_height=250.0, seed=73)
        topo, model = generate_topology(cfg, rng)
        net = network_of_copy(topo, model)
        state = random_allocation(net, rng)
        state.channels[[3, 28, 29]] = OFF  # silent, the last two never move
        state.powers[[3, 25, 28, 29]] = 0.0  # AP 25 keeps a channel at zero power
        kb = KnowledgeBase.full(30)
        if mode != "full":
            kb = KnowledgeBase.from_topology(topo)
            dstate = DiscoveryState(rng=np.random.default_rng(74))
            for _ in range(3):
                discovery_tick(dstate, kb, topo)
        ge, gt = gain_matrices(topo, model)
        movers = list(range(28))
        seen = []

        def checked(respond):
            def spy(interference, weight, player, current):
                i = movers[len(seen) % len(movers)]  # every activation in ascending id order
                known = None
                if mode == "partial":
                    known = known_set(kb, i)
                elif mode == "sufficiency":
                    known = known_set(kb, i) | set(
                        nearest_cover_set(neighbour_order(net.positions, i), state).tolist())
                oracle = utility_context(i, topo, state, model, known,
                                              gains_true=gt, gains_est=ge)
                assert np.array_equal(interference, oracle[0])
                assert np.array_equal(weight, oracle[1])
                assert player == oracle[2]
                assert current == int(state.channels[i])
                seen.append(i)
                return respond(interference, weight, player, current)
            return spy

        monkeypatch.setattr(game, "best_response", checked(game.best_response))
        result = run_dynamics(net, state, 4, knowledge=kb, **timing,
                              enforce_sufficiency=mode == "sufficiency",
                              active=28)
        assert result.trace
        assert len(seen) == 28 * result.iterations
        assert 3 in seen and 25 in seen and max(seen) == 27


class TestListContextsBitEqual:
    """The engine's list-valued contexts equal the scalar oracle bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(instance=instances(),
           level=st.sampled_from(["none", "partial", "complete", "full"]),
           enforce_sufficiency=st.booleans(),
           synchronous=st.booleans())
    def test_contexts_bit_equal_utility_context(self, instance, level, enforce_sufficiency,
                                                synchronous):
        topo, model, state, rng = instance
        network = network_of_copy(topo, model)
        n = len(topo)
        kb = None
        if level == "full":
            kb = KnowledgeBase.full(n)
        elif level != "none":
            kb = KnowledgeBase.complete(topo)
            if level == "partial":
                kb = KnowledgeBase(kb.candidates, known=kb.known & (rng.random((n, n)) < 0.5))
        ge, gt = gain_matrices(topo, model)
        seen = []

        def checked(respond):
            def spy(interference, weight, player, current):
                i = len(seen) % n  # every activation in ascending id order
                known = set() if kb is None else known_set(kb, i)
                if enforce_sufficiency:
                    known |= set(
                        nearest_cover_set(neighbour_order(network.positions, i), state).tolist())
                oracle = utility_context(i, topo, state, model, known,
                                         gains_true=gt, gains_est=ge)
                assert type(interference) is list
                assert np.array(interference).tobytes() == oracle[0].tobytes()
                assert type(weight) is list
                assert np.array(weight).tobytes() == oracle[1].tobytes()
                seen.append(i)
                return respond(interference, weight, player, current)
            return spy

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "best_response", checked(game.best_response))
            result = run_dynamics(network, state, 3, knowledge=kb, synchronous=synchronous,
                                  enforce_sufficiency=enforce_sufficiency)
        assert len(seen) == n * result.iterations


class TestTracerSeam:
    """A wrapper on the ``game.best_response`` attribute, as the benchmark's
    tracer installs, sees every response: movers times rounds."""

    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    @pytest.mark.parametrize("active", [None, 14])
    @pytest.mark.parametrize("informed", [True, False])
    def test_counting_wrapper_sees_every_activation(self, monkeypatch, timing, active, informed):
        net, start, kb, _ = TestSufficiencyEnforcement.instance()
        knowledge = kb if informed else None
        plain = start.copy()
        expected = run_dynamics(net, plain, 30, knowledge=knowledge, active=active, **timing)
        respond, calls = game.best_response, []

        def counting(*args):
            calls.append(args)
            return respond(*args)

        monkeypatch.setattr(game, "best_response", counting)
        state = start.copy()
        result = run_dynamics(net, state, 30, knowledge=knowledge, active=active, **timing)
        movers = active if active is not None else len(net.topology)
        assert result.iterations > 1
        assert len(calls) == result.iterations * movers
        assert repr(result) == repr(expected)
        assert state.powers.tobytes() == plain.powers.tobytes()


class CountingKnowledge(KnowledgeBase):
    """Knowledge that counts the rows it unpacks and the reads of ``known``,
    each an unpack of every row."""

    reads = 0
    unpacked = 0

    @property
    def known(self):
        self.reads += 1
        return super().known

    def known_rows(self, ids):
        self.unpacked += len(ids)
        return super().known_rows(ids)


class TestKnownReads:
    @pytest.mark.parametrize("timing", [SEQUENTIAL, SYNCHRONOUS])
    @pytest.mark.parametrize("active", [None, 14])
    @pytest.mark.parametrize("enforce_sufficiency", [False, True])
    def test_one_read_per_call(self, timing, active, enforce_sufficiency):
        # each mover's row is unpacked once per call, and only when it has a
        # bit set or the cover set joins it; the N x N ``known`` is never read
        net, start, kb, _ = TestSufficiencyEnforcement.instance()
        counting = CountingKnowledge(kb.candidates, known=kb.known)
        plain, state = start.copy(), start.copy()
        expected = run_dynamics(net, plain, 30, knowledge=kb, active=active,
                                enforce_sufficiency=enforce_sufficiency, **timing)
        result = run_dynamics(net, state, 30, knowledge=counting, active=active,
                              enforce_sufficiency=enforce_sufficiency, **timing)
        ids = range(len(net.players) if active is None else active)
        rows = len(ids) if enforce_sufficiency else sum(bool(kb.known[i].any()) for i in ids)
        assert result.iterations > 1 and counting.reads == 0
        assert 0 < rows < len(ids) or enforce_sufficiency
        assert counting.unpacked == rows
        assert repr(result) == repr(expected)
        assert state.powers.tobytes() == plain.powers.tobytes()


@st.composite
def weight_cases(draw):
    """APs with equal radii on a coarse grid, so estimated gains tie exactly,
    their model, a profile with OFF and zero-power APs, and a random known
    matrix. Each test builds its ``Network``, which hypothesis cannot print."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, 30.0, 60.0])
    topo = [make_ap(i, draw(grid), draw(grid), channels=tuple(range(k))) for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = make_model(n) if draw(st.booleans()) else PropagationModel.sample(n, rng)
    channels = np.array([draw(st.sampled_from([OFF, *range(k)])) for _ in range(n)])
    powers = np.array([draw(st.sampled_from([0.0, 1e-4, 0.01])) for _ in range(n)])
    powers[channels == OFF] = 0.0
    known = (rng.random((n, n)) < draw(st.sampled_from([0.3, 0.7, 1.0]))) & ~np.eye(n, dtype=bool)
    kb = KnowledgeBase(known=known, candidates=~np.eye(n, dtype=bool))
    return topo, model, AllocationState(channels, powers), kb


class TestWeightForms:
    """Both forms of the engine's generated weight, the pair list of a short
    known row and the bincount of a dense one, equal the pair loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=weight_cases(), enforce_sufficiency=st.booleans(), synchronous=st.booleans())
    def test_both_forms_equal_the_pair_loop(self, case, enforce_sufficiency, synchronous):
        topo, model, start, kb = case
        network = Network(topo, model)
        n, ge = len(topo), network.gains_est
        respond, runs = game.best_response, []
        # DENSE_ROW = n makes every row short; -n makes every row dense
        for dense_row in (n, -n):
            state, seen = start.copy(), []

            def spy(interference, weight, player, current):
                i = len(seen) % n  # every activation in ascending id order
                known = set(np.flatnonzero(kb.known[i]).tolist())
                if enforce_sufficiency:
                    known |= set(
                        nearest_cover_set(neighbour_order(network.positions, i), state).tolist())
                pairs = [(j, float(ge[i, j])) for j in sorted(known)]
                loop = generated_weight(pairs, state.channels.tolist(),
                                        (state.powers > 0).tolist(),
                                        network.num_channels)
                assert type(weight) is list
                assert np.array(weight).tobytes() == np.array(loop).tobytes()
                seen.append(i)
                return respond(interference, weight, player, current)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(schedulers, "DENSE_ROW", dense_row)
                patch.setattr(game, "best_response", spy)
                result = run_dynamics(network, state, 3, knowledge=kb, synchronous=synchronous,
                                      enforce_sufficiency=enforce_sufficiency)
            assert len(seen) == n * result.iterations
            runs.append((repr(result), state.channels.tobytes(), state.powers.tobytes()))
        assert runs[0] == runs[1]

    @settings(max_examples=150, deadline=None)
    @given(case=weight_cases(), data=st.data(), enforce_sufficiency=st.booleans(),
           synchronous=st.booleans())
    def test_mixed_forms_and_active_prefixes_equal_the_pair_loop(self, case, data,
                                                                 enforce_sufficiency, synchronous):
        topo, model, start, kb = case
        network = Network(topo, model)
        n, ge = len(topo), network.gains_est
        active = data.draw(st.none() | st.integers(1, n))
        ids = list(range(n if active is None else active))
        # rows of more than ``split`` known APs are dense, the rest short, in one call
        split = data.draw(st.integers(0, n - 2))
        respond, runs = game.best_response, []
        for dense_row in (n, split):
            state, seen = start.copy(), []

            def spy(interference, weight, player, current):
                i = ids[len(seen) % len(ids)]  # the movers in ascending id order
                known = set(np.flatnonzero(kb.known[i]).tolist())
                if enforce_sufficiency:
                    known |= set(
                        nearest_cover_set(neighbour_order(network.positions, i), state).tolist())
                pairs = [(j, float(ge[i, j])) for j in sorted(known)]
                loop = generated_weight(pairs, state.channels.tolist(),
                                        (state.powers > 0).tolist(), network.num_channels)
                assert type(weight) is list
                assert np.array(weight).tobytes() == np.array(loop).tobytes()
                seen.append(i)
                return respond(interference, weight, player, current)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(schedulers, "DENSE_ROW", dense_row)
                patch.setattr(game, "best_response", spy)
                result = run_dynamics(network, state, 3, knowledge=kb, synchronous=synchronous,
                                      enforce_sufficiency=enforce_sufficiency, active=active)
            assert len(seen) == len(ids) * result.iterations
            runs.append((repr(result), state.channels.tobytes(), state.powers.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("dense_row", [schedulers.DENSE_ROW, 4])
    def test_rows_follow_discovery_between_calls(self, dense_row):
        # the game's track in small: an active prefix, then every AP, with
        # discovery ticks between calls; DENSE_ROW = 4 moves rows from the
        # pair form to the dense one as they grow
        cfg = ScenarioConfig(num_aps=80, num_channels=3, clustered=True, num_clusters=3,
                             cluster_std=60.0, seed=4)
        network, kb, dstate, streams = harness._setup(cfg)
        ge, state = network.gains_est, random_allocation(network, streams[0])
        respond, weights = game.best_response, 0

        def spy(interference, weight, player, current):
            nonlocal weights
            i = ids[weights % len(ids)]
            pairs = [(j, float(ge[i, j])) for j in np.flatnonzero(kb.known[i]).tolist()]
            loop = generated_weight(pairs, state.channels.tolist(), (state.powers > 0).tolist(),
                                    network.num_channels)
            assert np.array(weight).tobytes() == np.array(loop).tobytes()
            weights += 1
            return respond(interference, weight, player, current)

        lengths = set()
        for call in range(10):
            active = 50 if call < 5 else None
            ids = list(range(80 if active is None else active))
            for _ in range(2):
                discovery_tick(dstate, kb, network.topology, active=active)
            lengths |= set(np.count_nonzero(kb.known[ids], axis=1).tolist())
            weights = 0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(schedulers, "DENSE_ROW", dense_row)
                patch.setattr(game, "best_response", spy)
                result = run_dynamics(network, state, 4, knowledge=kb, active=active)
            assert weights == len(ids) * result.iterations
        assert min(lengths) <= 4 < max(lengths)  # both forms were taken


    @pytest.mark.parametrize("synchronous", [False, True], ids=["sequential", "synchronous"])
    @pytest.mark.parametrize("informed", [True, False], ids=["complete", "none"])
    def test_enforced_weights_at_305_aps_equal_the_pair_loop(self, informed, synchronous):
        # the paper's scale: the cover set joins the known row (complete
        # knowledge, or nobody) and the weight sums over the union
        network, _, _, streams = harness._setup(ScenarioConfig(seed=5))
        n, ge = len(network.topology), network.gains_est
        kb = KnowledgeBase.complete(network.topology) if informed else None
        state, seen, covers = random_allocation(network, streams[0]), [], 0
        respond = game.best_response

        def spy(interference, weight, player, current):
            nonlocal covers
            i = len(seen) % n  # every activation in ascending id order
            cover = nearest_cover_set(neighbour_order(network.positions, i), state)
            known = set(np.flatnonzero(kb.known[i]).tolist()) if informed else set()
            covers += bool(set(cover.tolist()) - known)
            pairs = [(j, float(ge[i, j])) for j in sorted(known | set(cover.tolist()))]
            loop = generated_weight(pairs, state.channels.tolist(), (state.powers > 0).tolist(),
                                    network.num_channels)
            assert type(weight) is list
            assert np.array(weight).tobytes() == np.array(loop).tobytes()
            seen.append(i)
            return respond(interference, weight, player, current)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "best_response", spy)
            result = run_dynamics(network, state, 2, knowledge=kb, synchronous=synchronous,
                                  enforce_sufficiency=True)
        assert len(seen) == n * result.iterations > 0
        assert covers > 0  # the cover set added APs the row did not hold


class TestFullKnowledgeMemory:
    def test_nash_check_at_1000_aps_builds_no_pairs(self):
        # every row of KnowledgeBase.full is dense at 1,000 APs: the check
        # must not scan them for pairs (an N x N nonzero peaks near 80 MiB)
        n = 1000
        network, _, _, streams = harness._setup(ScenarioConfig(num_aps=n, seed=1))
        state = random_allocation(network, streams[0])
        network.gains_est  # the dense rows' matrix, built on its first read and kept
        tracemalloc.start()
        try:
            is_nash_equilibrium(network, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
