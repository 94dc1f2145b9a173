"""Random, selfish and greedy-admission reference schemes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from apgame.baselines import (
    _POWER_PAD,
    _draw_allocation,
    _solve_channel_powers,
    greedy_admission_bound,
    random_allocation,
)
from apgame.harness import ScenarioConfig, generate_topology
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    edge_gain,
    power_demand,
    satisfied_mask,
    true_gain_matrix,
)
from apgame.schedulers import run_dynamics
from oracles import topology_distances


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


def flat_model(n):
    return PropagationModel(
        path_loss_exponent=3.0,
        mean_linear_gain=1.0,
        shadow_samples=np.ones((n, n)),
        noise_power=1e-8,
    )


class TestRandomAllocation:
    def test_singleton_channel_set(self):
        topo = [make_ap(0, 0.0, 0.0, channels=(4,))]
        state = random_allocation(Network(topo, flat_model(1)), np.random.default_rng(0))
        assert state.channels[0] == 4

    def test_channel_distribution_uniform(self):
        # 1e4 draws over 13 channels; chi-square goodness of fit
        topo = [make_ap(0, 0.0, 0.0, channels=tuple(range(13)))]
        net = Network(topo, flat_model(1))
        rng = np.random.default_rng(42)
        counts = np.zeros(13)
        for _ in range(10_000):
            counts[random_allocation(net, rng).channels[0]] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        cfg = ScenarioConfig(num_aps=25, num_channels=5, area_width=300.0,
                             area_height=300.0, seed=3)
        net = Network(*generate_topology(cfg, rng))
        a = random_allocation(net, np.random.default_rng(11))
        b = random_allocation(net, np.random.default_rng(11))
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.powers, b.powers)

    def test_single_pass_necessary_powers(self):
        # each AP's power must equal its necessary power against the
        # interference of lower-id APs only (one sequential pass)
        rng = np.random.default_rng(4)
        cfg = ScenarioConfig(num_aps=10, num_channels=2, area_width=150.0,
                             area_height=150.0, seed=4)
        topo, model = generate_topology(cfg, rng)
        state = random_allocation(Network(topo, model), np.random.default_rng(5))
        gt = true_gain_matrix(topology=topo, model=model, distances=topology_distances(topo))
        for i, ap in enumerate(topo):
            interference = sum(
                float(state.powers[j]) * gt[j, i]
                for j in range(i)
                if state.channels[j] == state.channels[i]
            )
            demand = ap.sinr_target * (model.noise_power + interference)
            expected = min(demand / edge_gain(ap, model), ap.max_power)
            assert state.powers[i] == pytest.approx(expected)


class TestRunSelfish:
    def test_returns_result_and_state(self):
        rng = np.random.default_rng(6)
        cfg = ScenarioConfig(num_aps=15, num_channels=3, area_width=300.0,
                             area_height=300.0, seed=6)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=None)
        assert state.num_aps == 15
        assert result.iterations <= 50

    def test_equal_radii_converges(self):
        for seed in range(20):
            rng = np.random.default_rng((71, seed))
            cfg = ScenarioConfig(num_aps=30, num_channels=5, area_width=300.0,
                                 area_height=300.0, coverage_radius_min=10.0,
                                 coverage_radius_max=10.0, seed=71)
            net = Network(*generate_topology(cfg, rng))
            result = run_dynamics(net, random_allocation(net, rng), 50, knowledge=None)
            assert result.converged


def brute_force_admission_optimum(topo, model):
    """Exhaustive search over channel assignments including powering off."""
    n = len(topo)
    gt = true_gain_matrix(topo, model, topology_distances(topo))
    k_all = sorted(set().union(*(ap.channels for ap in topo)))
    best = 0
    for assignment in itertools.product([OFF] + k_all, repeat=n):
        admitted = [i for i, k in enumerate(assignment) if k != OFF]
        if len(admitted) <= best:
            continue
        powers = np.zeros(n)
        feasible = True
        for k in k_all:
            members = [i for i in admitted if assignment[i] == k]
            if not members:
                continue
            m = len(members)
            beta = np.array([topo[a].sinr_target for a in members])
            edge = np.array([edge_gain(topo[a], model) for a in members])
            caps = np.array([topo[a].max_power for a in members])
            coupling = np.zeros((m, m))
            for ai, a in enumerate(members):
                for bi, b in enumerate(members):
                    if ai != bi:
                        coupling[ai, bi] = beta[ai] * gt[b, a] / edge[ai]
            if m > 1 and np.max(np.abs(np.linalg.eigvals(coupling))) >= 1.0:
                feasible = False
                break
            p = np.linalg.solve(np.eye(m) - coupling, beta * model.noise_power / edge)
            if np.any(p <= 0) or np.any(p > caps):
                feasible = False
                break
            powers[members] = p
        if feasible:
            best = len(admitted)
    return best


class TestGreedyAdmissionBound:
    def test_single_ap_admitted(self):
        net = Network([make_ap(0, 0.0, 0.0)], flat_model(1))
        state, count = greedy_admission_bound(net, np.random.default_rng(0))
        assert count == 1
        assert satisfied_mask(net, state)[0]

    def test_two_aps_get_orthogonal_channels(self):
        topo = [make_ap(0, 0.0, 0.0), make_ap(1, 25.0, 0.0)]
        model = flat_model(2)
        state, count = greedy_admission_bound(Network(topo, model), np.random.default_rng(1))
        assert count == 2
        assert state.channels[0] != state.channels[1]

    def test_all_admitted_are_satisfied(self):
        for seed in range(10):
            rng = np.random.default_rng((72, seed))
            cfg = ScenarioConfig(num_aps=40, num_channels=3, area_width=200.0,
                                 area_height=200.0, seed=72)
            net = Network(*generate_topology(cfg, rng))
            state, count = greedy_admission_bound(net, rng)
            sat = satisfied_mask(net, state)
            admitted = state.powers > 0
            assert count == int(np.sum(admitted))
            assert np.all(sat[admitted])

    def test_never_exceeds_bruteforce_optimum(self):
        for seed in range(5):
            rng = np.random.default_rng((73, seed))
            # dense cluster so that not everyone fits
            cfg = ScenarioConfig(num_aps=6, num_channels=2, area_width=40.0,
                                 area_height=40.0, coverage_radius_min=3.0,
                                 coverage_radius_max=12.0, sinr_target_low=3.0,
                                 sinr_target_high=6.0, seed=73)
            topo, model = generate_topology(cfg, rng)
            _, count = greedy_admission_bound(Network(topo, model), rng)
            optimum = brute_force_admission_optimum(topo, model)
            assert count <= optimum



def guarded_channel_powers(members, beta, edge, caps, noise_power, gt):
    """The group power solve as it was with a spectral-radius test: a
    coupling with radius 1 or more is rejected before the solve."""
    m = len(members)
    beta, edge, caps = beta[members], edge[members], caps[members]
    coupling = beta[:, None] * gt[np.ix_(members, members)].T / edge[:, None]
    const = beta * noise_power / edge
    if m > 1 and np.max(np.abs(np.linalg.eigvals(coupling))) >= 1.0:
        return None
    try:
        p = np.linalg.solve(np.eye(m) - coupling, const)
    except np.linalg.LinAlgError:
        return None
    p = p * (1.0 + _POWER_PAD)
    if np.any(p <= 0) or np.any(p > caps):
        return None
    return p


class TestChannelPowerSolve:
    @pytest.mark.parametrize("rho", [None, 0.9, 0.999999, 1.0, 1.000001, 1.5])
    def test_positivity_decides_like_spectral_radius(self, rho):
        # Without the radius test, a coupling within rounding of radius 1
        # yields powers near c / 1e-16, which only a cap above about 1e14
        # times the noise-limited power c = beta N0 / g_edge could admit;
        # the caps span the program's range well below that.
        rng = np.random.default_rng(74)
        n = 8
        outcomes = set()
        for _ in range(300):
            members = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            gt = rng.lognormal(-8.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.8)
            np.fill_diagonal(gt, 0.0)
            beta = rng.uniform(1.0, 6.0, n)
            edge = rng.uniform(3.0, 20.0, n) ** -3.0
            caps = rng.choice([1e-4, 0.1, 1.0, 1e3], n)
            block = np.ix_(members, members)
            radius = np.max(np.abs(np.linalg.eigvals(
                beta[members, None] * gt[block].T / edge[members, None])))
            if rho is not None and radius > 0:
                gt[block] *= rho / radius
            expected = guarded_channel_powers(members, beta, edge, caps, 1e-8, gt)
            solved = _solve_channel_powers(members, beta, edge, caps, 1e-8, gt)
            if expected is None:
                assert solved is None
            else:
                assert solved is not None and np.array_equal(solved, expected)
            outcomes.add((len(members) > 1, expected is None))
        # groups of two or more are rejected at every radius, admitted below 1
        assert (True, True) in outcomes
        if rho is None or rho < 1:
            assert (True, False) in outcomes


def masked_draw_allocation(state, ids, network, rng):
    """The allocation pass with one scalar draw per AP and O(N) co-channel masks."""
    topology, gt = network.topology, network.gains_true
    for i in ids:
        ks = sorted(topology[i].channels)
        state.channels[i] = ks[int(rng.integers(len(ks)))]
    for i in ids:
        ap = topology[i]
        co = (state.channels == state.channels[i]) & (state.powers > 0)
        co[i] = False
        interference = float(np.sum(state.powers[co] * gt[co, i]))
        demand = power_demand(ap, network.model.noise_power, interference, float(network.edge[i]))
        state.powers[i] = min(demand, ap.max_power)


def masked_greedy_admission_bound(topology, model, rng, gt):
    """The greedy bound with its channel choice and groups read from O(N) masks."""
    n = len(topology)
    beta = np.array([ap.sinr_target for ap in topology])
    edge = np.array([edge_gain(ap, model) for ap in topology])
    caps = np.array([ap.max_power for ap in topology])
    state = AllocationState.all_off(n)
    for i in [int(i) for i in rng.permutation(n)]:
        ap = topology[i]
        best_k = None
        best_demand = np.inf
        for k in sorted(ap.channels):
            co = (state.channels == k) & (state.powers > 0)
            interference = float(np.sum(state.powers[co] * gt[co, i]))
            demand = power_demand(ap, model.noise_power, interference, float(edge[i]))
            if demand < best_demand:
                best_k, best_demand = k, demand
        on_k = (state.channels == best_k) & (state.powers > 0)
        members = np.flatnonzero(on_k).tolist() + [i]
        solved = _solve_channel_powers(members, beta, edge, caps, model.noise_power, gt)
        if solved is None:
            continue
        state.channels[i] = best_k
        for mi, j in enumerate(members):
            state.powers[j] = solved[mi]
    return state, int(np.sum(state.powers > 0))


@st.composite
def allocation_instances(draw):
    """A network whose channel sets all have one size, or sizes that differ.

    Windows of one width over the channel range give equal sizes on
    different sets; with mixed sizes the singleton sets pin their APs.
    """
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    equal_sizes = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, k))
    topology = []
    for i in range(n):
        if equal_sizes:
            start = int(rng.integers(k - width + 1))
            channels = frozenset(range(start, start + width))
        else:
            size = 1 + int(rng.integers(k))
            channels = frozenset(rng.choice(k, size, replace=False).tolist())
        topology.append(AccessPoint(
            id=i, position=(float(rng.uniform(0, 150)), float(rng.uniform(0, 150))),
            coverage_radius=float(rng.uniform(3.0, 20.0)), coordination_radius=40.0,
            sinr_target=float(rng.uniform(1.0, 6.0)), max_power=0.1, channels=channels,
        ))
    return Network(topology, PropagationModel.sample(n, rng)), rng


class TestMemberListOracle:
    """Member lists and the array draw reproduce the masked passes bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(instance=allocation_instances(), pre_active=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_draw_allocation_equals_masked_pass(self, instance, pre_active, seed):
        network, rng = instance
        n = len(network.topology)
        start = AllocationState.all_off(n)
        if pre_active:
            # active APs below, between and above the silent ids, as after
            # an insertion in the domino experiment
            on = rng.random(n) < 0.5
            for j in np.flatnonzero(on):
                ks = sorted(network.topology[j].channels)
                start.channels[j] = ks[int(rng.integers(len(ks)))]
                start.powers[j] = rng.uniform(1e-5, 0.1)
        ids = [i for i in range(n) if start.powers[i] == 0]
        state, expected = start.copy(), start.copy()
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        _draw_allocation(state, ids, network, rng_a)
        masked_draw_allocation(expected, ids, network, rng_b)
        assert state.channels.tobytes() == expected.channels.tobytes()
        assert state.powers.tobytes() == expected.powers.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_domino_insertion_with_active_aps_on_both_sides(self):
        rng = np.random.default_rng(81)
        cfg = ScenarioConfig(num_aps=60, num_channels=3, clustered=True, num_clusters=3,
                             seed=81)
        network = Network(*generate_topology(cfg, rng))
        ids = list(range(20, 35))
        start = AllocationState.all_off(60)
        _draw_allocation(start, [i for i in range(60) if i not in ids], network,
                         np.random.default_rng(1))
        state, expected = start.copy(), start.copy()
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        _draw_allocation(state, ids, network, rng_a)
        masked_draw_allocation(expected, ids, network, rng_b)
        assert state.channels.tobytes() == expected.channels.tobytes()
        assert state.powers.tobytes() == expected.powers.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(instance=allocation_instances(), seed=st.integers(0, 2**32 - 1))
    def test_greedy_bound_equals_masked_bound(self, instance, seed):
        network, _ = instance
        topology, model = network.topology, network.model
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        state, admitted = greedy_admission_bound(network, rng_a)
        expected, expected_admitted = masked_greedy_admission_bound(
            topology, model, rng_b, np.ascontiguousarray(network.gains_true))
        assert admitted == expected_admitted
        assert state.channels.tobytes() == expected.channels.tobytes()
        assert state.powers.tobytes() == expected.powers.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
