"""Utilities, response rules, potential functions and their checkers."""

import math

import numpy as np
import pytest

from apgame import game
from apgame.game import (
    FLAVOR_APPENDIX_B,
    FLAVOR_EXACT_FULL,
    TraceRecord,
    appendixB_potential,
    best_response,
    exact_potential_full,
    is_nash_equilibrium,
    local_optimality_check,
    selfish_response,
    utility,
    utility_context,
    verify_exact_potential,
    verify_ordinal_improvement,
)
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    PropagationModel,
    edge_gain,
    estimated_gain,
    necessary_power,
    true_gain,
)


def make_ap(i, x, y, radius=10.0, beta=2.0, pmax=0.1, channels=(0, 1)):
    return AccessPoint(
        id=i,
        position=(x, y),
        coverage_radius=radius,
        coordination_radius=4 * radius,
        sinr_target=beta,
        max_power=pmax,
        channels=frozenset(channels),
    )


def make_model(n, alpha=3.0, noise=1e-8, z=None, mu=1.0):
    samples = z if z is not None else np.ones((n, n))
    return PropagationModel(
        path_loss_exponent=alpha,
        mean_linear_gain=mu,
        shadow_samples=samples,
        noise_power=noise,
    )


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
            assert utility(ctx, k) == pytest.approx(-measured - pnec * outgoing)

    def test_restricted_knowledge_shrinks_second_sum(self):
        rng = np.random.default_rng(2)
        topo, model, state = random_instance(rng)
        full = utility_context(0, topo, state, model)
        empty = utility_context(0, topo, state, model, known=set())
        for k in (0, 1):
            assert float(empty.generated_weight[k]) == 0.0
            # the measured part is identical regardless of knowledge
            assert float(empty.interference[k]) == float(full.interference[k])

    def test_unavailable_channel_raises(self):
        topo = [make_ap(0, 0, 0, channels=(0,))]
        state = AllocationState(np.array([0]), np.array([0.01]))
        ctx = utility_context(0, topo, state, make_model(1))
        with pytest.raises(ValueError):
            utility(ctx, 1)

    def test_positive_scaling_keeps_argmax(self):
        # scaling both utility terms by c > 0 is equivalent to scaling the
        # interference and weights; the best channel must not change
        rng = np.random.default_rng(3)
        topo, model, state = random_instance(rng)
        ctx = utility_context(1, topo, state, model)
        scaled = game.UtilityContext(
            player=ctx.player,
            interference=ctx.interference * 1.0,
            generated_weight=ctx.generated_weight * 1.0,
            edge_gain=ctx.edge_gain,
            noise_power=ctx.noise_power,
        )
        assert best_response(ctx, OFF)[0] == best_response(scaled, OFF)[0]


class TestResponses:
    def _two_channel_ctx(self, u0, u1):
        """Context where channel utilities are exactly (-u0, -u1) via interference."""
        ap = make_ap(0, 0, 0, beta=1.0, pmax=100.0)
        return game.UtilityContext(
            player=ap,
            interference=np.array([u0, u1]),
            generated_weight=np.zeros(2),
            edge_gain=1.0,
            noise_power=0.0,
        )

    def test_best_response_argmax(self):
        ctx = self._two_channel_ctx(1e-5, 2e-5)
        k, p = best_response(ctx, OFF)
        assert k == 0
        assert p == pytest.approx(1e-5)

    def test_best_response_tie_keeps_current(self):
        ctx = self._two_channel_ctx(1e-5, 1e-5)
        assert best_response(ctx, 1)[0] == 1
        assert best_response(ctx, OFF)[0] == 0  # no current channel: lowest id

    def test_best_response_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            topo, model, state = random_instance(rng, n=3, k=2)
            i = int(rng.integers(3))
            ctx = utility_context(i, topo, state, model)
            k_star, _ = best_response(ctx, int(state.channels[i]))
            best = max(sorted(topo[i].channels), key=lambda k: utility(ctx, k))
            assert utility(ctx, k_star) == utility(ctx, best)

    def test_best_response_never_worsens_mover(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            topo, model, state = random_instance(rng, n=8, k=3)
            i = int(rng.integers(8))
            cur = int(state.channels[i])
            ctx = utility_context(i, topo, state, model)
            k_star, _ = best_response(ctx, cur)
            assert utility(ctx, k_star) >= utility(ctx, cur)

    def test_selfish_response_argmin(self):
        ap = make_ap(0, 0, 0, channels=(0, 1, 2))
        ctx = game.UtilityContext(
            player=ap,
            interference=np.array([1e-6, 1e-7, 1e-6]),
            generated_weight=np.zeros(3),
            edge_gain=1e-3, noise_power=1e-8,
        )
        assert selfish_response(ctx, OFF)[0] == 1

    def test_selfish_on_empty_channels_picks_lowest(self):
        ap = make_ap(0, 0, 0, radius=10.0, beta=2.0)
        ctx = game.UtilityContext(
            player=ap,
            interference=np.zeros(2), generated_weight=np.zeros(2),
            edge_gain=1e-3, noise_power=1e-8,
        )
        k, p = selfish_response(ctx, OFF)
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
            ctx = utility_context(i, topo, state, model)
            assert selfish_response(ctx, OFF)[0] == best_response(ctx, OFF)[0]


class TestPotentials:
    def test_exact_potential_all_off(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        state = AllocationState.all_off(2)
        assert exact_potential_full(topo, state, make_model(2)).value == 0.0

    def test_exact_potential_orthogonal_pair(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        state = AllocationState(np.array([0, 1]), np.array([0.01, 0.02]))
        assert exact_potential_full(topo, state, make_model(2)).value == 0.0

    def test_exact_potential_cochannel_pair_hand_sum(self):
        # symmetric gains g and no shadowing: value is -g (p1 + p2)
        topo = [make_ap(0, 0, 0, radius=10.0), make_ap(1, 50, 0, radius=10.0)]
        model = make_model(2)
        g = true_gain(topo[0], topo[1], model)
        p1, p2 = 0.03, 0.07
        state = AllocationState(np.array([1, 1]), np.array([p1, p2]))
        value = exact_potential_full(topo, state, model).value
        assert value == pytest.approx(-g * (p1 + p2))

    def test_appendixB_all_off_and_orthogonal(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 50, 0)]
        model = make_model(2)
        assert appendixB_potential(topo, AllocationState.all_off(2), model).value == 0.0
        ortho = AllocationState(np.array([0, 1]), np.array([0.01, 0.02]))
        assert appendixB_potential(topo, ortho, model).value == 0.0

    def test_appendixB_cochannel_pair(self):
        topo = [make_ap(0, 0, 0, radius=10.0), make_ap(1, 50, 0, radius=10.0)]
        model = make_model(2)
        g = true_gain(topo[0], topo[1], model)
        p1, p2 = 0.03, 0.07
        state = AllocationState(np.array([0, 0]), np.array([p1, p2]))
        assert appendixB_potential(topo, state, model).value == pytest.approx(
            2 * g * p1 * p2
        )


class TestNashOracle:
    def test_single_ap_is_ne(self):
        topo = [make_ap(0, 0, 0)]
        state = AllocationState(np.array([1]), np.array([2e-5]))
        assert is_nash_equilibrium(topo, state, make_model(1))

    def test_orthogonal_pair_is_ne(self):
        topo = [make_ap(0, 0, 0), make_ap(1, 40, 0)]
        model = make_model(2)
        state = AllocationState.all_off(2)
        p0 = necessary_power(topo[0], 0, topo, state, model)
        p1 = necessary_power(topo[1], 1, topo, state, model)
        state = AllocationState(np.array([0, 1]), np.array([p0, p1]))
        assert is_nash_equilibrium(topo, state, model)

    def test_forced_cochannel_singleton_strategy_is_ne(self):
        topo = [make_ap(0, 0, 0, channels=(0,)), make_ap(1, 40, 0, channels=(0,))]
        state = AllocationState(np.array([0, 0]), np.array([0.01, 0.01]))
        assert is_nash_equilibrium(topo, state, make_model(2))

    def test_profitable_deviation_is_flagged(self):
        # both APs crowded on channel 0 with channel 1 free: not a NE
        topo = [make_ap(0, 0, 0), make_ap(1, 30, 0)]
        state = AllocationState(np.array([0, 0]), np.array([0.05, 0.05]))
        assert not is_nash_equilibrium(topo, state, make_model(2))

    def test_size_guard(self):
        rng = np.random.default_rng(7)
        n = 1100
        topo = [
            make_ap(i, *rng.uniform(0, 1000, 2), channels=tuple(range(1000)))
            for i in range(n)
        ]
        state = AllocationState.all_off(n)
        with pytest.raises(ValueError):
            is_nash_equilibrium(topo, state, make_model(n))


class TestVerifiers:
    def test_exact_verifier_passes_on_equal_radii(self):
        rng = np.random.default_rng(8)
        n = 6
        topo = [
            make_ap(i, *rng.uniform(0, 150, 2), radius=8.0, channels=(0, 1, 2))
            for i in range(n)
        ]
        model = PropagationModel.sample(n, rng)
        report = verify_exact_potential(topo, model, trials=300, tol=1e-9, rng=rng)
        assert report.passed
        assert report.max_violation <= 1e-9

    def test_exact_verifier_flags_asymmetric_radii(self):
        # two-AP counterexample: unequal radii break gain symmetry, so the
        # altered utility change differs from the potential change
        topo = [make_ap(0, 0.0, 0.0, radius=3.0, channels=(0, 1)),
                make_ap(1, 30.0, 0.0, radius=20.0, channels=(0, 1))]
        model = make_model(2)
        rng = np.random.default_rng(9)
        report = verify_exact_potential(topo, model, trials=200, tol=1e-12, rng=rng)
        assert not report.passed

    def test_noop_deviation_has_zero_deltas(self):
        topo = [make_ap(0, 0, 0, channels=(0,)), make_ap(1, 60, 0, channels=(0,))]
        model = make_model(2)
        rng = np.random.default_rng(10)
        report = verify_exact_potential(topo, model, trials=50, tol=1e-9, rng=rng)
        assert all(f.delta_u == 0 and f.delta_potential == 0 for f in report.findings)

    def test_ordinal_empty_trace_passes(self):
        report = verify_ordinal_improvement([])
        assert report.passed and report.findings == []

    def test_ordinal_flags_potential_drop(self):
        rec = TraceRecord(
            mover=0, old_channel=0, new_channel=1, old_power=0.01, new_power=0.01,
            u_before=-2.0, u_after=-1.0, potential_before=5.0, potential_after=4.0,
        )
        report = verify_ordinal_improvement([rec])
        assert not report.passed
        assert report.max_violation == pytest.approx(1.0)

    def test_ordinal_requires_recorded_potential(self):
        rec = TraceRecord(
            mover=0, old_channel=0, new_channel=1, old_power=0.01, new_power=0.01,
            u_before=-2.0, u_after=-1.0,
        )
        with pytest.raises(ValueError):
            verify_ordinal_improvement([rec])

    def test_report_text_has_one_line_per_finding(self):
        rng = np.random.default_rng(11)
        topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=8.0) for i in range(4)]
        model = make_model(4)
        report = verify_exact_potential(topo, model, trials=10, tol=1e-9, rng=rng)
        lines = report.to_text().splitlines()
        assert len(lines) == len(report.findings) + 1
        assert lines[-1].startswith("summary")


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
