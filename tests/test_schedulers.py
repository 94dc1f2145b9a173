"""Timing models, dynamics loop, convergence and cycle detection."""

import numpy as np
import pytest

from apgame import game
from apgame.baselines import random_allocation
from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import DiscoveryState, KnowledgeBase, discovery_tick, nearest_cover_set
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    PropagationModel,
    estimated_gain_matrix,
    necessary_power,
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
    trace_to_csv_text,
)


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
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        assert result.converged
        assert result.iterations == 1
        assert not result.cycle_detected

    def test_synchronous_pair_cycles(self):
        topo, model, state = symmetric_pair()
        rng = np.random.default_rng(0)
        result = run_dynamics(topo, state, model, SYNCHRONOUS, BEST_RESPONSE, 10, rng)
        assert not result.converged
        assert result.cycle_detected
        # both APs flip together every iteration
        movers = [rec.mover for rec in result.trace[:4]]
        assert sorted(movers[:2]) == [0, 1]

    def test_round_robin_pair_converges_to_orthogonal_ne(self):
        topo, model, state = symmetric_pair()
        rng = np.random.default_rng(0)
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 10, rng)
        assert result.converged
        assert result.iterations <= 3
        assert sorted(state.channels.tolist()) == [0, 1]
        assert game.is_nash_equilibrium(topo, state, model)

    def test_unknown_responder_rejected(self):
        topo, model, state = symmetric_pair()
        with pytest.raises(ValueError):
            run_dynamics(topo, state, model, ROUND_ROBIN, "greedy", 10,
                         np.random.default_rng(0))

    def test_converged_run_never_flags_cycle(self):
        for seed in range(20):
            rng = np.random.default_rng((61, seed))
            cfg = ScenarioConfig(num_aps=12, num_channels=3, area_width=250.0,
                                 area_height=250.0, seed=61)
            topo, model = generate_topology(cfg, rng)
            state = random_allocation(topo, model, rng)
            result = run_dynamics(topo, state, model, ROUND_ROBIN,
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
            state = random_allocation(topo, model, rng)
            result = run_dynamics(topo, state, model, ROUND_ROBIN,
                                  BEST_RESPONSE, 100, rng)
            if result.converged:
                hits += 1
                assert game.is_nash_equilibrium(topo, state, model)
        assert hits > 0

    def test_trace_records_are_unilateral_channel_changes(self):
        rng = np.random.default_rng(63)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=63)
        topo, model = generate_topology(cfg, rng)
        state = random_allocation(topo, model, rng)
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        for rec in result.trace:
            assert rec.old_channel != rec.new_channel
            assert 0 <= rec.mover < 15

    def test_best_response_trace_never_decreases_mover_utility(self):
        rng = np.random.default_rng(64)
        cfg = ScenarioConfig(num_aps=20, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=64)
        topo, model = generate_topology(cfg, rng)
        state = random_allocation(topo, model, rng)
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 50, rng)
        assert result.trace  # something must have moved
        for rec in result.trace:
            assert rec.u_after >= rec.u_before

    def test_determinism(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=20, num_channels=3, area_width=300.0,
                                 area_height=300.0, seed=seed)
            topo, model = generate_topology(cfg, np.random.default_rng(9))
            state = random_allocation(topo, model, rng)
            result = run_dynamics(topo, state, model, RANDOM_TIMING,
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
        run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 20, rng,
                     active=set(range(5)))
        assert np.array_equal(state.channels[5:], before)
        assert np.all(state.powers[5:] == 0.0)

    def test_partial_knowledge_limits_generated_term(self):
        # with empty knowledge the mover optimizes measured interference only,
        # which is exactly the selfish rule
        rng = np.random.default_rng(66)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=66)
        topo, model = generate_topology(cfg, rng)
        state_a = random_allocation(topo, model, np.random.default_rng(1))
        state_b = state_a.copy()
        empty = [set() for _ in range(15)]
        ra = run_dynamics(topo, state_a, model, ROUND_ROBIN, BEST_RESPONSE, 30,
                          np.random.default_rng(2), knowledge=empty)
        rb = run_dynamics(topo, state_b, model, ROUND_ROBIN, SELFISH, 30,
                          np.random.default_rng(2))
        assert np.array_equal(state_a.channels, state_b.channels)
        assert ra.iterations == rb.iterations

    def test_recorded_potentials_present_and_finite(self):
        rng = np.random.default_rng(67)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=250.0,
                             area_height=250.0, seed=67)
        topo, model = generate_topology(cfg, rng)
        state = random_allocation(topo, model, rng)
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 50,
                              rng, record_potential=game.FLAVOR_EXACT_FULL)
        assert result.trace
        for rec in result.trace:
            assert rec.potential_before is not None
            assert np.isfinite(rec.potential_before)
            assert np.isfinite(rec.potential_after)

    def test_trace_csv_header_and_rows(self):
        topo, model, state = symmetric_pair()
        rng = np.random.default_rng(0)
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 10,
                              rng, record_potential=game.FLAVOR_EXACT_FULL)
        text = trace_to_csv_text(result.trace)
        lines = text.splitlines()
        assert lines[0] == "iteration,mover,old_channel,new_channel,u_before,u_after,P_value"
        assert len(lines) == len(result.trace) + 1


class TestSufficiencyEnforcement:
    """Round-robin best response with partial knowledge and enforce_sufficiency."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(71)
        cfg = ScenarioConfig(num_aps=40, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=71)
        topo, model = generate_topology(cfg, rng)
        state = random_allocation(topo, model, rng)
        kb = KnowledgeBase.from_topology(topo)
        dstate = DiscoveryState(rng=np.random.default_rng(72))
        for _ in range(3):
            discovery_tick(dstate, kb, topo)
        return topo, model, state, kb

    def test_moves_match_step_by_step_oracle(self):
        topo, model, state, kb = self.instance()
        start = state.copy()
        result = run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 30,
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
            known = kb.known[i] | nearest_cover_set(i, topo, oracle)
            ctx = game.utility_context(i, topo, oracle, model, known,
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
        topo, model, state, kb = self.instance()
        plain = state.copy()
        run_dynamics(topo, state, model, ROUND_ROBIN, BEST_RESPONSE, 30,
                     np.random.default_rng(0), knowledge=kb, enforce_sufficiency=True)
        run_dynamics(topo, plain, model, ROUND_ROBIN, BEST_RESPONSE, 30,
                     np.random.default_rng(0), knowledge=kb)
        assert not np.array_equal(state.channels, plain.channels)
