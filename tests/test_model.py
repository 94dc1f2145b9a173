"""Physical-layer math: gains, interference, SINR and necessary power."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame import harness
from apgame import model as model_module
from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import KnowledgeBase
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    ap_positions,
    co_channel_mask,
    edge_gain,
    estimated_gain_matrix,
    lognormal_mean_linear,
    pairwise_distances,
    received_interference,
    satisfied_mask,
    true_gain_matrix,
)
from oracles import (
    estimated_gain,
    interference_at,
    is_satisfied,
    necessary_power,
    sinr,
    topology_distances,
    true_gain,
)


def make_ap(i, x, y, radius=10.0, beta=2.0, pmax=0.1, channels=(0, 1), coord=None):
    return AccessPoint(
        id=i,
        position=(x, y),
        coverage_radius=radius,
        coordination_radius=coord if coord is not None else 4 * radius,
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


class TestAccessPoint:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_ap(0, 0, 0, radius=-1.0)

    def test_rejects_coordination_below_coverage(self):
        with pytest.raises(ValueError):
            make_ap(0, 0, 0, radius=10.0, coord=5.0)

    def test_rejects_empty_channel_set(self):
        with pytest.raises(ValueError):
            make_ap(0, 0, 0, channels=())


class TestPropagationModel:
    def test_rejects_asymmetric_shadow_matrix(self):
        z = np.ones((3, 3))
        z[0, 1] = 2.0
        with pytest.raises(ValueError):
            make_model(3, z=z)

    def test_sampled_matrix_is_symmetric_positive(self):
        rng = np.random.default_rng(3)
        m = PropagationModel.sample(20, rng)
        assert np.array_equal(m.shadow_samples, m.shadow_samples.T)
        assert np.all(m.shadow_samples > 0)

    def test_lognormal_mean_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        draws = 10.0 ** (rng.normal(0.0, 8.0, size=400_000) / 10.0)
        analytic = lognormal_mean_linear(0.0, 8.0)
        assert abs(np.mean(draws) - analytic) / analytic < 0.02

    def test_zero_std_means_unit_gain(self):
        assert lognormal_mean_linear(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("name", ["noise_power", "path_loss_exponent", "min_separation"])
    def test_non_finite_parameter_rejected(self, name):
        params = dict(path_loss_exponent=3.0, mean_linear_gain=1.0,
                      shadow_samples=np.ones((2, 2)), noise_power=1e-8)
        params[name] = math.nan
        with pytest.raises(ValueError, match=name):
            PropagationModel(**params)


class TestAllocationState:
    def test_positive_power_requires_channel(self):
        with pytest.raises(ValueError):
            AllocationState(np.array([OFF]), np.array([0.01]))

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="finite"):
            AllocationState(np.array([0]), np.array([power]))

    def test_all_off(self):
        s = AllocationState.all_off(4)
        assert np.all(s.channels == OFF) and np.all(s.powers == 0)


class TestGains:
    def test_estimated_gain_direct_arithmetic(self):
        # d=30, r_j=10, alpha=3, mu=1: (30-10)^-3 = 1.25e-4
        a = make_ap(0, 0.0, 0.0)
        b = make_ap(1, 30.0, 0.0, radius=10.0)
        assert estimated_gain(a, b, make_model(2)) == pytest.approx(20.0 ** -3)

    def test_estimated_gain_unit_distance(self):
        a = make_ap(0, 0.0, 0.0, radius=1.0)
        b = make_ap(1, 2.0, 0.0, radius=1.0)
        assert estimated_gain(a, b, make_model(2, alpha=2.0)) == pytest.approx(1.0)

    def test_estimated_gain_clamps_overlap(self):
        # d == r_j forces the 0.1 m separation clamp: 0.1^-3 = 1000
        a = make_ap(0, 0.0, 0.0, radius=5.0)
        b = make_ap(1, 5.0, 0.0, radius=5.0)
        assert estimated_gain(a, b, make_model(2)) == pytest.approx(1000.0)

    def test_true_gain_scales_with_shadow_sample(self):
        z = np.ones((2, 2))
        z[0, 1] = z[1, 0] = 2.0
        a = make_ap(0, 0.0, 0.0)
        b = make_ap(1, 30.0, 0.0, radius=10.0)
        assert true_gain(a, b, make_model(2, z=z)) == pytest.approx(2.5e-4)

    def test_true_gain_symmetric_for_equal_radii(self):
        rng = np.random.default_rng(5)
        m = PropagationModel.sample(2, rng)
        a = make_ap(0, 0.0, 0.0, radius=7.0)
        b = make_ap(1, 41.0, 13.0, radius=7.0)
        assert true_gain(a, b, m) == pytest.approx(true_gain(b, a, m), rel=0, abs=0)

    def test_estimated_gain_monotone_in_distance(self):
        m = make_model(2)
        a = make_ap(0, 0.0, 0.0)
        gains = [
            estimated_gain(a, make_ap(1, d, 0.0, radius=10.0), m)
            for d in (15.0, 25.0, 60.0, 300.0)
        ]
        assert all(x > y for x, y in zip(gains, gains[1:]))

    def test_gain_matrices_match_scalar_functions(self):
        rng = np.random.default_rng(9)
        m = PropagationModel.sample(5, rng)
        topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=3.0 + i) for i in range(5)]
        gt = true_gain_matrix(topo, m, topology_distances(topo))
        ge = estimated_gain_matrix(topo, m, topology_distances(topo))
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert gt[i, j] == 0 and ge[i, j] == 0
                else:
                    assert gt[i, j] == pytest.approx(true_gain(topo[i], topo[j], m))
                    assert ge[i, j] == pytest.approx(estimated_gain(topo[i], topo[j], m))


class TestNetwork:
    def test_arrays_are_read_only_and_equal_the_kernels(self):
        rng = np.random.default_rng(9)
        m = PropagationModel.sample(5, rng)
        topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=3.0 + i, beta=1.0 + i,
                        channels=(0, 2)) for i in range(5)]
        net = Network(topo, m)
        assert np.array_equal(net.gains_true, true_gain_matrix(topo, m, topology_distances(topo)))
        assert np.array_equal(net.gains_est,
                              estimated_gain_matrix(topo, m, topology_distances(topo)))
        assert net.edge.tolist() == [edge_gain(ap, m) for ap in topo]
        assert net.num_channels == 3
        for name in ("edge", "beta", "caps", "gains_true", "gains_est", "candidates"):
            with pytest.raises(ValueError):
                getattr(net, name)[0] = 1.0

    @pytest.mark.parametrize("clustered", [False, True])
    def test_columns_and_candidates_equal_the_per_ap_forms(self, clustered):
        rng = np.random.default_rng(11)
        cfg = ScenarioConfig(num_aps=150, clustered=clustered, num_clusters=3, seed=0)
        topo, m = generate_topology(cfg, rng)
        # coordination radii that differ per AP, so the overlap test is not one threshold
        topo = [replace(ap, coordination_radius=ap.coverage_radius * (1 + i % 7),
                        max_power=0.01 * (1 + i % 5)) for i, ap in enumerate(topo)]
        net = Network(topo, m)
        candidates = KnowledgeBase.from_topology(topo).candidates
        assert net.candidates.dtype == bool and np.array_equal(net.candidates, candidates)
        assert 0 < net.candidates.sum() < len(topo) * (len(topo) - 1)
        assert net.beta.tolist() == [ap.sinr_target for ap in topo]
        assert net.caps.tolist() == [ap.max_power for ap in topo]
        # no distance matrix is kept: the only N x N arrays are these three
        assert {name for name, v in vars(net).items()
                if isinstance(v, np.ndarray) and v.shape == (len(topo),) * 2} == \
            {"gains_true", "gains_est", "candidates"}

    @pytest.mark.parametrize("pmax, beta, what", [
        (1e308, 1e300, "received power"),  # 2 x 1e308 W x gain 1e3 overflows
        (1e300, 1e300, "power demand"),  # 2e303 W received, times beta 1e300
        (1e300, 2.0, None),  # a demand near 4e306 W is still finite
    ], ids=["received", "demand", "finite"])
    def test_powers_times_gains_that_overflow_are_rejected(self, pmax, beta, what):
        # 10 m radii 10.1 m apart: the largest gain is 0.1 ** -3, about 1e3
        topo = [make_ap(i, 10.1 * i, 0.0, beta=beta, pmax=pmax, channels=(0,))
                for i in range(2)]
        if what is None:
            Network(topo, make_model(2))
        else:
            with pytest.raises(ValueError, match=what):
                Network(topo, make_model(2))

    def test_one_distance_matrix_per_network_and_per_experiment_setup(self, monkeypatch):
        calls = []
        original = model_module.pairwise_distances

        def counted(a, b):
            calls.append(a.shape)
            return original(a, b)

        for name, mod in list(sys.modules.items()):
            if name.startswith("apgame") and getattr(mod, "pairwise_distances", None) is original:
                monkeypatch.setattr(mod, "pairwise_distances", counted)
        cfg = ScenarioConfig(num_aps=40, num_channels=4, area_width=300.0, area_height=300.0,
                             duration=20.0, seed=4)
        Network(*generate_topology(cfg, np.random.default_rng(4)))
        assert calls == [(40, 2)]
        calls.clear()
        network, kb, _, _ = harness._setup(cfg)
        assert calls == [(40, 2)]
        assert kb.candidates is network.candidates and not kb.known.any()
        calls.clear()
        harness.run_experiment(cfg)
        assert calls == [(40, 2)]

    @pytest.mark.parametrize("clustered", [False, True])
    def test_receiver_major_build_is_the_exact_transpose(self, clustered):
        # the true gains are built receiver-major and viewed through .T; they
        # equal the transmitter-major formula bit for bit, with no copy held
        rng = np.random.default_rng(10)
        cfg = ScenarioConfig(num_aps=120, clustered=clustered, num_clusters=3, seed=0)
        topo, m = generate_topology(cfg, rng)
        net = Network(topo, m)
        r = np.array([ap.coverage_radius for ap in topo])
        pos = ap_positions(topo)
        eff = np.maximum(pairwise_distances(pos, pos) - r[None, :], m.min_separation)
        expected = eff ** -m.path_loss_exponent * m.shadow_samples
        np.fill_diagonal(expected, 0.0)
        assert net.gains_true.tobytes(order="C") == expected.tobytes()
        assert net.gains_true.flags.f_contiguous
        assert net.gains_true.base.flags.c_contiguous


class TestInterference:
    def _pair(self):
        topo = [
            make_ap(0, 0.0, 0.0),
            make_ap(1, 30.0, 0.0, radius=10.0),
            make_ap(2, 0.0, 30.0, radius=10.0),
        ]
        return topo, make_model(3)

    def test_empty_channel_is_zero(self):
        topo, m = self._pair()
        state = AllocationState(np.array([0, 1, 1]), np.array([0.1, 0.1, 0.1]))
        assert interference_at(topo[0], 0, topo, state, m) == 0.0

    def test_single_interferer(self):
        topo, m = self._pair()
        state = AllocationState(np.array([0, 0, 1]), np.array([0.0, 0.1, 0.1]))
        # gain (30-10)^-3 = 1.25e-4 at 0.1 W -> 1.25e-5 W
        assert interference_at(topo[0], 0, topo, state, m) == pytest.approx(1.25e-5)

    def test_two_interferers_add(self):
        topo, m = self._pair()
        state = AllocationState(np.array([1, 0, 0]), np.array([0.0, 0.1, 0.05]))
        single_1 = 0.1 * true_gain(topo[1], topo[0], m)
        single_2 = 0.05 * true_gain(topo[2], topo[0], m)
        total = interference_at(topo[0], 0, topo, state, m)
        assert total == pytest.approx(single_1 + single_2)

    def test_off_channel_query_raises(self):
        topo, m = self._pair()
        state = AllocationState.all_off(3)
        with pytest.raises(ValueError):
            interference_at(topo[0], OFF, topo, state, m)


class TestSinrAndPower:
    def test_sinr_constructed_denominator(self):
        # edge gain 1e-3 needs r = 10 with alpha 3 and mu 1; denominator 1e-5
        far = 1e9
        topo = [make_ap(0, 0.0, 0.0), make_ap(1, far, 0.0, radius=10.0)]
        m = make_model(2, noise=1e-8)
        # place the interferer so its received power is 9.99e-6 W
        gain = true_gain(topo[1], topo[0], m)
        p1 = 9.99e-6 / gain
        state = AllocationState(np.array([0, 0]), np.array([1e-2, p1]))
        topo_cap = [make_ap(0, 0.0, 0.0, pmax=1.0), make_ap(1, far, 0.0, pmax=p1 * 2)]
        assert sinr(topo_cap[0], 0, topo_cap, state, m) == pytest.approx(1.0, rel=1e-9)

    def test_sinr_linear_in_power(self):
        topo = [make_ap(0, 0.0, 0.0), make_ap(1, 50.0, 0.0)]
        m = make_model(2)
        s1 = AllocationState(np.array([0, 0]), np.array([0.01, 0.05]))
        s2 = AllocationState(np.array([0, 0]), np.array([0.02, 0.05]))
        assert sinr(topo[0], 0, topo, s2, m) == pytest.approx(
            2 * sinr(topo[0], 0, topo, s1, m)
        )

    def test_sinr_undefined_when_silent(self):
        topo = [make_ap(0, 0.0, 0.0)]
        state = AllocationState(np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError):
            sinr(topo[0], 0, topo, state, make_model(1))

    def test_necessary_power_formula(self):
        # beta=2, N0=1e-8, I=0, g_ii=1e-3 -> 2e-5 W
        topo = [make_ap(0, 0.0, 0.0, radius=10.0, beta=2.0)]
        state = AllocationState.all_off(1)
        m = make_model(1, noise=1e-8)
        assert edge_gain(topo[0], m) == pytest.approx(1e-3)
        assert necessary_power(topo[0], 0, topo, state, m) == pytest.approx(2e-5)

    def test_necessary_power_cap_binds(self):
        topo = [make_ap(0, 0.0, 0.0, radius=10.0, beta=2.0, pmax=0.1),
                make_ap(1, 11.0, 0.0, radius=10.0, pmax=1.0)]
        m = make_model(2)
        state = AllocationState(np.array([OFF, 0]), np.array([0.0, 1.0]))
        assert necessary_power(topo[0], 0, topo, state, m) == 0.1

    def test_necessary_power_linear_in_interference(self):
        topo = [make_ap(0, 0.0, 0.0, beta=3.0), make_ap(1, 40.0, 0.0)]
        m = make_model(2, noise=1e-20)  # make noise negligible
        s1 = AllocationState(np.array([OFF, 0]), np.array([0.0, 0.02]))
        s2 = AllocationState(np.array([OFF, 0]), np.array([0.0, 0.04]))
        p1 = necessary_power(topo[0], 0, topo, s1, m)
        p2 = necessary_power(topo[0], 0, topo, s2, m)
        assert p2 == pytest.approx(2 * p1)

    def test_uncapped_necessary_power_hits_target_exactly(self):
        rng = np.random.default_rng(17)
        m = PropagationModel.sample(4, rng)
        topo = [make_ap(i, *rng.uniform(0, 200, 2), pmax=10.0) for i in range(4)]
        state = AllocationState(np.array([0, 0, 0, OFF]),
                                np.array([0.01, 0.02, 0.0, 0.0]))
        p = necessary_power(topo[2], 0, topo, state, m)
        state.powers[2] = p
        state.channels[2] = 0
        assert sinr(topo[2], 0, topo, state, m) == pytest.approx(
            topo[2].sinr_target, rel=1e-12
        )


class TestSatisfaction:
    def test_off_ap_is_unsatisfied(self):
        topo = [make_ap(0, 0.0, 0.0)]
        assert not is_satisfied(topo[0], topo, AllocationState.all_off(1), make_model(1))

    def test_necessary_power_satisfies(self):
        topo = [make_ap(0, 0.0, 0.0), make_ap(1, 60.0, 0.0)]
        m = make_model(2)
        state = AllocationState(np.array([OFF, 0]), np.array([0.0, 0.01]))
        p = necessary_power(topo[0], 0, topo, state, m)
        state.channels[0] = 0
        state.powers[0] = p
        assert is_satisfied(topo[0], topo, state, m)

    def test_capped_ap_can_be_swamped(self):
        # pile co-channel interferers next to a capped AP until it fails
        m_count = 6
        topo = [make_ap(0, 0.0, 0.0, beta=5.0, pmax=0.001)]
        topo += [make_ap(i, 25.0 + i, 0.0, pmax=0.1) for i in range(1, m_count)]
        m = make_model(m_count)
        channels = np.zeros(m_count, dtype=np.int64)
        powers = np.full(m_count, 0.1)
        powers[0] = 0.001
        state = AllocationState(channels, powers)
        assert not is_satisfied(topo[0], topo, state, m)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_satisfied_mask_matches_scalar(self, data):
        # silent APs are OFF or keep a channel at zero power
        n = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = PropagationModel.sample(n, rng)
        topo = [make_ap(i, *rng.uniform(0, 150, 2), beta=rng.uniform(1.0, 6.0),
                        channels=(0, 1, 2)) for i in range(n)]
        channels = np.array(data.draw(st.lists(st.integers(OFF, 2), min_size=n, max_size=n)))
        powers = np.array(data.draw(st.lists(st.just(0.0) | st.floats(1e-4, 0.1),
                                             min_size=n, max_size=n)))
        powers[channels == OFF] = 0.0
        state = AllocationState(channels, powers)
        mask = satisfied_mask(Network(topo, m), state)
        for i in range(n):
            assert bool(mask[i]) == is_satisfied(topo[i], topo, state, m)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), k=st.integers(1, 13), clustered=st.booleans(),
           layout=st.sampled_from(["F", "C"]), seed=st.integers(0, 2**32 - 1))
    def test_received_interference_equals_full_column_sum(self, n, k, clustered, layout, seed):
        # OFF APs, zero-power channel holders and, with few channels, long
        # co-channel groups whose sums depend on the order they add in
        rng = np.random.default_rng(seed)
        cfg = ScenarioConfig(num_aps=n, num_channels=k, clustered=clustered, seed=0)
        net = Network(*generate_topology(cfg, rng))
        gains = net.gains_true if layout == "F" else np.ascontiguousarray(net.gains_true)
        channels = rng.integers(OFF, k, size=n)
        powers = rng.uniform(1e-6, 0.1, size=n) * (rng.random(n) < 0.9)
        powers[channels == OFF] = 0.0
        state = AllocationState(channels, powers)
        full = np.sum(co_channel_mask(state) * np.multiply(state.powers[:, None], gains,
                                                           order="C"), axis=0)
        assert received_interference(state, gains).tobytes() == full.tobytes()
