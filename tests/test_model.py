"""Physical-layer math: gains, interference, SINR and necessary power."""

import math
import re
import sys
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame import harness
from apgame import model as model_module
from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import KnowledgeBase
from apgame.model import (
    MIN_SEPARATION,
    OFF,
    AllocationState,
    Network,
    Player,
    PropagationModel,
    ap_positions,
    co_channel_mask,
    edge_gain,
    estimated_gain_matrix,
    lognormal_mean_linear,
    pairwise_distances,
    path_loss,
    received_interference,
    satisfied_mask,
)
from oracles import (
    BLOCK_EDGE_PAIRS,
    candidates_out_of_place,
    distances_out_of_place,
    estimated_gain,
    gain_matrices,
    interference_at,
    is_satisfied,
    loss_out_of_place,
    make_ap,
    make_model,
    necessary_power,
    network_of_copy,
    one_sided_pair,
    shadow_out_of_place,
    sinr,
    true_gain,
)


@pytest.fixture
def distance_calls(monkeypatch):
    """The (rows, columns) of each ``pairwise_distances`` call from the package."""
    calls = []
    original = model_module.pairwise_distances

    def counted(a, b):
        calls.append((len(a), len(b)))
        return original(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("apgame") and getattr(mod, "pairwise_distances", None) is original:
            monkeypatch.setattr(mod, "pairwise_distances", counted)
    return calls


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(beta=0.0), "sinr_target must be a positive linear ratio"),
        (dict(pmax=-0.1), "max_power must be positive"),
        (dict(channels=(0, -2)), "channel ids must be nonnegative"),
    ])
    def test_rejects_bad_target_cap_or_channel(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_ap(0, 0, 0, **kwargs)


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

    @pytest.mark.parametrize("name", ["noise_power", "path_loss_exponent"])
    def test_non_finite_parameter_rejected(self, name):
        params = dict(path_loss_exponent=3.0, mean_linear_gain=1.0,
                      shadow_samples=np.ones((2, 2)), noise_power=1e-8)
        params[name] = math.nan
        with pytest.raises(ValueError, match=name):
            PropagationModel(**params)

    @pytest.mark.parametrize("changes, message", [
        (dict(shadow_samples=np.ones((2, 3))), "shadow_samples must be a square matrix"),
        (dict(shadow_samples=np.ones(4)), "shadow_samples must be a square matrix"),
        (dict(shadow_samples=np.array([[1.0, 0.0], [0.0, 1.0]])),
         "shadow gains must be positive"),
        (dict(path_loss_exponent=1.5), "path_loss_exponent must be >= 2"),
        (dict(noise_power=0.0), "noise_power must be positive"),
    ])
    def test_out_of_range_parameter_rejected(self, changes, message):
        params = dict(path_loss_exponent=3.0, mean_linear_gain=1.0,
                      shadow_samples=np.ones((2, 2)), noise_power=1e-8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PropagationModel(**{**params, **changes})

    def test_min_separation_is_not_a_field(self):
        # the clip distance is the module constant; a caller that still passes it learns at once
        params = dict(path_loss_exponent=3.0, mean_linear_gain=1.0,
                      shadow_samples=np.ones((2, 2)), noise_power=1e-8)
        with pytest.raises(TypeError, match="min_separation"):
            PropagationModel(**params, min_separation=0.5)

    def test_path_loss_clips_at_min_separation(self):
        # a receiver inside, at or just past the transmitter's coverage edge is held at
        # MIN_SEPARATION (0.1 m); beyond it the loss is the plain power of the gap
        distances = np.array([[0.0, 10.0, 10.05, 10.5, 12.0]])
        loss = path_loss(distances, np.full((1, 1), 10.0), 3.0)
        assert MIN_SEPARATION == 0.1
        assert loss.shape == distances.shape
        assert np.array_equal(loss[0, :3], np.full(3, np.power(MIN_SEPARATION, -3.0)))
        assert loss[0, 3] == 0.5 ** -3.0
        assert loss[0, 4] == 2.0 ** -3.0
        assert np.array_equal(distances, [[0.0, 10.0, 10.05, 10.5, 12.0]])  # left as it was


    @pytest.mark.parametrize("mu, message", [
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (0.0, "must be positive, got 0.0"),
        (-1.0, "must be positive, got -1.0"),
    ])
    def test_mean_gain_that_is_not_finite_and_positive_is_rejected(self, mu, message):
        # the model says which field is wrong, before a Network's overflow check would
        with pytest.raises(ValueError, match=f"^mean_linear_gain {message}$"):
            make_model(2, mu=mu)

    @pytest.mark.parametrize("entry, message", [
        (math.inf, "shadow_samples must be finite, got inf"),
        (math.nan, "shadow_samples must be finite, got nan"),
        (-math.inf, "shadow gains must be positive"),
    ])
    def test_shadow_entry_that_is_not_finite_and_positive_is_rejected(self, entry, message):
        z = np.ones((3, 3))
        z[0, 2] = z[2, 0] = entry
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_model(3, z=z)

    def test_no_aps_are_accepted(self):
        assert make_model(0, z=np.ones((0, 0))).shadow_samples.shape == (0, 0)
        assert PropagationModel.sample(0, np.random.default_rng(0)).shadow_samples.shape == (0, 0)

    @pytest.mark.parametrize("case", BLOCK_EDGE_PAIRS.values(), ids=list(BLOCK_EDGE_PAIRS))
    def test_one_sided_entry_at_a_block_edge_is_rejected(self, case):
        # the per-block check that KnowledgeBase shares, on both sides of each edge
        z = 1.0 + one_sided_pair(*case)
        assert z.flags.f_contiguous == (case[-1] == "F")
        with pytest.raises(ValueError, match="^shadow_samples must be symmetric$"):
            make_model(len(z), z=z)

    def test_checks_make_no_square_temporary(self):
        n = 1000
        z = PropagationModel.sample(n, np.random.default_rng(4)).shadow_samples
        tracemalloc.start()
        try:
            make_model(n, z=z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n / 2  # an N x N bool temporary takes n * n bytes


class TestAllocationState:
    def test_positive_power_requires_channel(self):
        with pytest.raises(ValueError):
            AllocationState(np.array([OFF]), np.array([0.01]))

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="finite"):
            AllocationState(np.array([0]), np.array([power]))

    @pytest.mark.parametrize("channels, entry", [
        ([1.7, 2], "channel 1.7 of AP 0"),  # was truncated to channel 1
        ([2, np.nan], "channel nan of AP 1"),
        ([0, 1e30], "channel 1e+30 of AP 1"),
    ])
    def test_non_integer_channel_rejected(self, channels, entry):
        with pytest.raises(ValueError, match=re.escape(entry)):
            AllocationState(channels, [0.1, 0.0])

    @pytest.mark.parametrize("power", [0.0, 0.1])
    def test_channel_below_off_rejected(self, power):
        # channel -5 at a positive power counted as a transmitter on channel -5
        with pytest.raises(ValueError, match="channel -5 of AP 1 is not an integer >= -1"):
            AllocationState([0, -5], [0.1, power])

    @pytest.mark.parametrize("channels, powers", [
        ([0, 1], [0.1]),
        ([[0, 1]], [[0.1, 0.1]]),
    ])
    def test_unequal_or_not_1d_arrays_rejected(self, channels, powers):
        with pytest.raises(ValueError, match="^channels and powers must be 1-D arrays of equal"):
            AllocationState(channels, powers)

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
        # both gain layouts of a Network equal the scalar forms bit for bit;
        # AP 11 sits on AP 0, so the clip at MIN_SEPARATION is taken
        for seed in (9, 10, 11):
            rng = np.random.default_rng(seed)
            m = PropagationModel.sample(12, rng)
            topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=float(rng.uniform(3, 15)))
                    for i in range(11)]
            topo.append(make_ap(11, *topo[0].position))
            net = network_of_copy(topo, m)
            ge, gt = net.gains_est, net.gains_true
            assert gt.flags.f_contiguous and ge.flags.c_contiguous
            for i in range(12):
                for j in range(12):
                    if i == j:
                        assert gt[i, j] == 0 and ge[i, j] == 0
                    else:
                        assert gt[i, j] == true_gain(topo[i], topo[j], m)
                        assert ge[i, j] == estimated_gain(topo[i], topo[j], m)


class TestNetwork:
    def test_arrays_are_read_only_and_equal_the_kernels(self):
        rng = np.random.default_rng(9)
        m = PropagationModel.sample(5, rng)
        topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=3.0 + i, beta=1.0 + i,
                        channels=(0, 2)) for i in range(5)]
        ge, gt = gain_matrices(topo, m)
        net = Network(topo, m)
        assert np.array_equal(net.gains_est, ge)
        assert np.array_equal(net.gains_true, gt)
        assert net.edge.tolist() == [edge_gain(ap, m) for ap in topo]
        assert net.num_channels == 3
        for name in ("edge", "beta", "caps", "gains_true", "gains_est", "candidates"):
            with pytest.raises(ValueError):
                getattr(net, name)[0] = 1.0

    def test_players_equal_the_access_points(self):
        rng = np.random.default_rng(12)
        m = PropagationModel.sample(6, rng)
        sets = [(0, 1, 2), (2,), (4, 0), (3, 1), (0, 1, 2), (5,)]
        topo = [make_ap(i, *rng.uniform(0, 100, 2), radius=3.0 + i, beta=1.0 + i,
                        pmax=0.01 * (1 + i), channels=ks) for i, ks in enumerate(sets)]
        net = Network(topo, m)
        assert net.players == tuple(
            Player(tuple(sorted(ap.channels)), ap.sinr_target, m.noise_power,
                   edge_gain(ap, m), ap.max_power)
            for ap in topo)
        assert [p.channels for p in net.players] == [(0, 1, 2), (2,), (0, 4), (1, 3),
                                                     (0, 1, 2), (5,)]
        # the columns hold the same numbers
        assert [p.edge for p in net.players] == net.edge.tolist()
        assert [p.beta for p in net.players] == net.beta.tolist()
        assert [p.cap for p in net.players] == net.caps.tolist()
        with pytest.raises(FrozenInstanceError):
            net.players = ()
        with pytest.raises(TypeError):
            net.players[0] = net.players[1]
        with pytest.raises(AttributeError):
            net.players[0].cap = 1.0

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
        # no distance or estimated-gain matrix is kept: the only N x N arrays are these two
        assert {name for name, v in vars(net).items()
                if isinstance(v, np.ndarray) and v.shape == (len(topo),) * 2} == \
            {"gains_true", "candidates"}

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

    def test_an_estimated_gain_that_overflows_is_rejected(self):
        # shadow samples of 1e-10 keep the true gains near 1e-7, while the mean
        # gain of 1e304 makes the estimated one about 1e307: 2 x 100 W x 1e307
        # overflows, and only the estimated gain says so
        topo = [make_ap(i, 10.1 * i, 0.0, pmax=100.0, channels=(0,)) for i in range(2)]
        with pytest.raises(ValueError, match="^the largest received power .* is not finite$"):
            Network(topo, make_model(2, z=np.full((2, 2), 1e-10), mu=1e304))
        net = Network(topo, make_model(2, z=np.full((2, 2), 1e-10), mu=1e302))
        assert 1e304 < net.gains_est.max() < 1e306 and net.gains_true.max() < 1e-6

    def test_one_distance_matrix_per_network_and_per_experiment_setup(self, distance_calls):
        # each AP pair's distance once: one distance block per block of
        # model.BLOCK rows, from the block's diagonal on; 40 APs are one block
        calls = distance_calls
        once = [(40, 40)]
        cfg = ScenarioConfig(num_aps=40, num_channels=4, area_width=300.0, area_height=300.0,
                             duration=20.0, seed=4)
        Network(*generate_topology(cfg, np.random.default_rng(4)))
        assert calls == once
        calls.clear()
        network, kb, _, _ = harness._setup(cfg)
        assert calls == once
        assert kb.candidates is network.candidates and not kb.known.any()
        calls.clear()
        harness.run_experiment(cfg)
        assert calls == once
        calls.clear()
        n, b = 150, model_module.BLOCK
        Network(*generate_topology(replace(cfg, num_aps=n), np.random.default_rng(4)))
        assert calls == [(min(b, n - i0), n - i0) for i0 in range(0, n, b)]

    def test_one_distance_block_per_block_of_knowledge_from_topology(self, distance_calls):
        # the candidate pass that Network runs, with the same distance blocks
        n, b = 150, model_module.BLOCK
        topo, _ = generate_topology(ScenarioConfig(num_aps=n, seed=4), np.random.default_rng(4))
        KnowledgeBase.from_topology(topo)
        assert distance_calls == [(min(b, n - i0), n - i0) for i0 in range(0, n, b)]

    @pytest.mark.parametrize("clustered", [False, True])
    def test_receiver_major_build_is_the_exact_transpose(self, clustered):
        # the true gains are built receiver-major and viewed through .T; they
        # equal the transmitter-major formula bit for bit, with no copy held
        rng = np.random.default_rng(10)
        cfg = ScenarioConfig(num_aps=120, clustered=clustered, num_clusters=3, seed=0)
        topo, m = generate_topology(cfg, rng)
        net = network_of_copy(topo, m)
        r = np.array([ap.coverage_radius for ap in topo])
        pos = ap_positions(topo)
        eff = np.maximum(pairwise_distances(pos, pos) - r[None, :], MIN_SEPARATION)
        expected = eff ** -m.path_loss_exponent * m.shadow_samples
        np.fill_diagonal(expected, 0.0)
        assert net.gains_true.tobytes(order="C") == expected.tobytes()
        assert net.gains_true.flags.f_contiguous
        assert net.gains_true.base.flags.c_contiguous
        # the estimated gains, taken from the same matrix through its .T view
        expected = eff ** -m.path_loss_exponent * m.mean_linear_gain
        np.fill_diagonal(expected, 0.0)
        assert net.gains_est.tobytes() == expected.tobytes() and net.gains_est.flags.c_contiguous


# both sides of every block edge of the symmetric set-up passes (model.BLOCK = 64)
BLOCK_EDGES = [1, 2, 63, 64, 65, 129, 305]


class TestSetUpInPlace:
    """Set-up builds each N x N matrix in place, with the bits of the out-of-place formulas."""

    def test_the_sizes_straddle_the_block_edges(self):
        b = model_module.BLOCK
        assert {b - 1, b, b + 1, 2 * b + 1} <= set(BLOCK_EDGES)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_sample_equals_the_three_temporary_formula(self, n):
        for seed, (mean_db, std_db) in enumerate([(0.0, 8.0), (0.0, 0.0), (-3.0, 12.0),
                                                  (2.5, 4.0)]):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = PropagationModel.sample(n, rng, shadow_mean_db=mean_db, shadow_std_db=std_db)
            expected = shadow_out_of_place(n, twin, shadow_mean_db=mean_db,
                                           shadow_std_db=std_db)
            assert np.array_equal(got.shadow_samples, expected)
            assert got.shadow_samples.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_distances_and_loss_equal_the_out_of_place_forms(self, n):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=n, clustered=seed == 2, num_clusters=2, seed=seed)
            topo, m = generate_topology(cfg, rng)
            pos = ap_positions(topo)
            d = pairwise_distances(pos, pos)
            assert np.array_equal(d, distances_out_of_place(pos, pos))
            assert np.array_equal(pairwise_distances(pos[:1], pos),
                                  distances_out_of_place(pos[:1], pos))
            expected = loss_out_of_place(topo, m, d)
            loss = path_loss(d, np.array([ap.coverage_radius for ap in topo])[:, None],
                             m.path_loss_exponent)
            np.fill_diagonal(loss, 0.0)
            assert np.array_equal(d, distances_out_of_place(pos, pos))  # left as it was
            assert np.array_equal(loss, expected)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_self_distances_with_duplicates_and_negative_coordinates(self, n):
        # signed differences of both orders, and exact zeros off the diagonal
        rng = np.random.default_rng(n)
        pos = rng.uniform(-1e3, 1e3, size=(n, 2)) * rng.choice([1e-6, 1.0, 1e6], size=(n, 1))
        pos[n // 2:] = pos[:n - n // 2]  # AP i + n // 2 stands on AP i
        d = pairwise_distances(pos, pos)
        assert d.tobytes() == distances_out_of_place(pos, pos).tobytes()
        assert d.flags.c_contiguous and np.array_equal(d, d.T)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_candidates_equal_the_broadcast_test(self, n):
        # per-AP coordination radii, so that r_i + r_j is not one number; the
        # knowledge and the Network come from the one candidate pass
        for seed in range(3):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=n, clustered=seed == 2, num_clusters=2, seed=seed)
            topo, m = generate_topology(cfg, rng)
            topo = [replace(ap, coordination_radius=ap.coverage_radius * f)
                    for ap, f in zip(topo, rng.uniform(1.0, 8.0, size=n))]
            pos = ap_positions(topo)
            d = pairwise_distances(pos, pos)
            got = KnowledgeBase.from_topology(topo).candidates
            expected = candidates_out_of_place(topo, d)
            assert got.dtype == bool and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()
            assert Network(topo, m).candidates.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_network_equals_the_out_of_place_forms(self, n):
        # uniform and clustered placement, the clustered one with every AP of
        # the second half standing on one of the first, and per-AP coordination
        # radii, so that r_i + r_j is not one number
        for seed in range(3):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=n, clustered=seed > 0, num_clusters=2, seed=seed)
            topo, m = generate_topology(cfg, rng)
            if seed == 2:
                topo = [replace(ap, position=topo[i - n // 2].position) if i >= n // 2 else ap
                        for i, ap in enumerate(topo)]
            topo = [replace(ap, coordination_radius=ap.coverage_radius * f)
                    for ap, f in zip(topo, rng.uniform(1.0, 8.0, size=n))]
            pos = ap_positions(topo)
            ge, gt = gain_matrices(topo, m)
            candidates = candidates_out_of_place(topo, distances_out_of_place(pos, pos))
            net = Network(topo, m)
            assert net.gains_true.T.tobytes() == gt.T.tobytes()
            assert net.gains_true.flags.f_contiguous and net.gains_true.base.flags.c_contiguous
            assert net.gains_est.tobytes() == ge.tobytes() and net.gains_est.flags.c_contiguous
            assert net.candidates.tobytes() == candidates.tobytes()

    def test_network_allocates_the_candidates_and_blocks_alone(self):
        # the sample's buffer becomes the true gains and the estimated gains wait
        # for their first read, so the build allocates the candidates (1/8 of a
        # float matrix) and blocks of model.BLOCK rows: one more matrix breaks it
        n = 1000
        made = generate_topology(ScenarioConfig(num_aps=n, seed=1), np.random.default_rng(1))
        tracemalloc.start()
        try:
            network = Network(*made)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert network.gains_true.base is not None and "gains_est" not in vars(network)
        assert peak <= 0.5 * 8 * n * n

    def test_setup_holds_one_matrix_and_keeps_one(self):
        # the shadowing draw, which becomes the true gains; bools, blocks and
        # the topology's objects make up the rest, and a second matrix breaks it
        n = 1000
        cfg = ScenarioConfig(num_aps=n, duration=10.0, seed=1)
        tracemalloc.start()
        try:
            setup = harness._setup(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert setup[0].gains_true.shape == (n, n)
        matrix = 8 * n * n
        assert peak <= 1.75 * matrix
        assert kept <= 1.5 * matrix

    def test_a_consumed_or_misshapen_sample_is_rejected(self):
        topo, m = generate_topology(ScenarioConfig(num_aps=5, seed=2), np.random.default_rng(2))
        sample = m.shadow_samples
        net = Network(topo, m)
        assert m.shadow_samples is None and net.gains_true.base is sample
        with pytest.raises(ValueError, match="^the model's shadowing sample was consumed by an "
                                             "earlier Network; draw the model again$"):
            Network(topo, m)
        with pytest.raises(ValueError, match=re.escape("shadow_samples has shape (4, 4), "
                                                       "not (5, 5) for 5 APs")):
            Network(topo, make_model(4))

    def test_network_frees_the_model_it_is_given(self):
        cfg = ScenarioConfig(num_aps=30, seed=3)
        made = generate_topology(cfg, np.random.default_rng(3))
        sampled = weakref.ref(made[1])
        net = Network(*made)
        del made
        assert sampled() is None
        assert net.noise_power == cfg.noise_power and not hasattr(net, "model")


class TestEstimatedGainKernel:
    """``estimated_gain_matrix`` over any pairs has the bits of the whole-matrix formula."""

    @staticmethod
    def networks(n):
        """Per seed: uniform, clustered, and clustered with every AP of the second
        half standing on one of the first; coverage radii drawn per AP. Each
        ``Network`` with the oracle's estimated gains, taken before set-up."""
        for seed in range(3):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=n, clustered=seed > 0, num_clusters=2, seed=seed)
            topo, m = generate_topology(cfg, rng)
            if seed == 2:
                topo = [replace(ap, position=topo[i - n // 2].position) if i >= n // 2 else ap
                        for i, ap in enumerate(topo)]
            assert len({ap.coverage_radius for ap in topo}) == n
            ge, _ = gain_matrices(topo, m)
            yield seed, Network(topo, m), ge

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_scattered_pairs_and_the_full_broadcast_equal_the_oracle(self, n):
        for seed, net, ge in self.networks(n):
            every = np.arange(n)
            full = estimated_gain_matrix(net, every[:, None], every)
            assert full.shape == (n, n) and full.tobytes() == ge.tobytes()
            tx, rx = np.random.default_rng(seed).integers(n, size=(2, 4 * n + 3))
            tx[::5] = rx[::5]  # self pairs among them
            got = estimated_gain_matrix(net, tx, rx)
            assert got.tobytes() == ge[tx, rx].tobytes()
            assert np.all(got[tx == rx] == 0) and np.all(got[tx != rx] > 0)
            # one transmitter against every receiver, as a row of the matrix
            assert estimated_gain_matrix(net, n - 1, every).tobytes() == ge[n - 1].tobytes()
            assert net.gains_est.tobytes() == ge.tobytes()

    def test_gains_est_is_built_once_on_its_first_read(self):
        net = next(self.networks(65))[1]
        assert "gains_est" not in vars(net)
        gains = net.gains_est
        assert net.gains_est is gains and vars(net)["gains_est"] is gains
        assert gains.flags.c_contiguous and not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0, 1] = 1.0
        with pytest.raises(FrozenInstanceError):
            net.gains_est = gains.copy()

    def test_a_run_builds_no_estimated_gain_matrix(self):
        # the game's track reads the estimated gains of its known pairs, and the
        # baselines none: neither builds the N x N matrix at 1,000 APs
        cfg = ScenarioConfig(num_aps=1000, duration=10.0, seed=1)
        network, kb, dstate, streams = harness._setup(cfg)
        game_rows = harness._game_rows(network, kb, dstate, streams[0], cfg, math.inf)
        baseline_rows = harness._baseline_rows(network, streams, cfg)
        assert len(game_rows) == len(baseline_rows) > 1 and kb.known.any()
        assert "gains_est" not in vars(network)


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
        mask = satisfied_mask(network_of_copy(topo, m), state)
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
