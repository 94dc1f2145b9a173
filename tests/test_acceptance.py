"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Property-based and trend-level checks; absolute figures from the original
field deployment are out of reach at desk scale, so every criterion asserts
orderings, monotonicity or exact algebraic identities instead.
"""

import math
import time

import numpy as np
import pytest

from apgame import game
from apgame.baselines import greedy_admission_bound, random_allocation
from apgame.harness import (
    ScenarioConfig,
    discovery_completion_ticks,
    domino_experiment,
    generate_topology,
    run_experiment,
)
from apgame.knowledge import KnowledgeBase
from apgame.model import (
    OFF,
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    edge_gain,
    satisfied_mask,
)
from apgame.schedulers import is_nash_equilibrium, run_dynamics
from oracles import column, estimated_gain, necessary_power, network_of_copy, true_gain


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# --- criterion 1: exact potential under uniform power and equal radii -------


def test_criterion_1_exact_potential():
    t0 = time.time()
    worst = 0.0
    all_ok = True
    for seed in range(50):
        rng = np.random.default_rng((101, seed))
        n = int(rng.integers(6, 11))
        cfg = ScenarioConfig(num_aps=n, num_channels=3, area_width=200.0,
                             area_height=200.0, coverage_radius_min=10.0,
                             coverage_radius_max=10.0, seed=101)
        net = Network(*generate_topology(cfg, rng))
        violations, gap = game.verify_exact_potential(net, trials=1000, tol=1e-9, rng=rng)
        worst = max(worst, gap)
        all_ok = all_ok and violations == 0
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 10.0
    report(1, ok, f"max |du - dP| = {worst:.3g} over 50 instances, {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 10.0


# --- criterion 2: ordinal monotonicity along best-response traces -----------


def test_criterion_2_ordinal_monotonicity():
    # gains must be known for the potential argument to be exact, so the
    # verification scenario samples no shadowing; every mover knows every
    # other AP, so this tests the full-knowledge game, where the
    # nearest-cover condition holds trivially
    t0 = time.time()
    converged = violations = moves = 0
    for seed in range(100):
        rng = np.random.default_rng((2024, seed))
        cfg = ScenarioConfig(num_aps=50, num_channels=5, shadow_std_db=0.0, seed=2024)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=KnowledgeBase.full(50),
                              record_potential=True)
        converged += result.converged
        improvements, drops, _ = game.verify_ordinal_improvement(result.trace)
        moves += improvements
        violations += drops
    elapsed = time.time() - t0
    ok = violations == 0 and converged >= 95 and elapsed < 60.0
    report(2, ok, f"{violations} violations over {moves} improvements, "
                  f"{converged}/100 converged, {elapsed:.1f}s")
    assert violations == 0
    assert converged >= 95
    assert elapsed < 60.0


# --- criterion 3: NE oracle against brute force ------------------------------


def _power_fixed_point(topo, model, channels, iterations=200):
    """Iterate necessary powers at fixed channels to a capped fixed point."""
    n = len(topo)
    state = AllocationState(channels.copy(), np.zeros(n))
    for i in range(n):
        if channels[i] != OFF:
            state.powers[i] = 1e-6
    for _ in range(iterations):
        new = state.powers.copy()
        for i, ap in enumerate(topo):
            if channels[i] != OFF:
                new[i] = necessary_power(ap, int(channels[i]), topo, state, model)
        if np.max(np.abs(new - state.powers)) < 1e-15:
            state.powers[:] = new
            break
        state.powers[:] = new
    return state


def _naive_is_ne(topo, model, state):
    """Deviation check written from scratch with the scalar gain functions."""
    n = len(topo)
    for i, ap in enumerate(topo):
        def u(k):
            measured = sum(
                float(state.powers[j]) * true_gain(topo[j], ap, model)
                for j in range(n)
                if j != i and state.channels[j] == k and state.powers[j] > 0
            )
            pnec = min(
                ap.sinr_target * (model.noise_power + measured) / edge_gain(ap, model),
                ap.max_power,
            )
            outgoing = sum(
                estimated_gain(ap, topo[j], model)
                for j in range(n)
                if j != i and state.channels[j] == k and state.powers[j] > 0
            )
            return -measured - pnec * outgoing

        cur = int(state.channels[i])
        u_cur = u(cur) if cur != OFF else -math.inf
        for k in sorted(ap.channels):
            if u(k) > u_cur:
                return False
    return True


def test_criterion_3_ne_oracle():
    t0 = time.time()
    converged_checked = 0
    oracle_ok = True
    for seed in range(200):
        rng = np.random.default_rng((103, seed))
        cfg = ScenarioConfig(num_aps=6, num_channels=3, area_width=150.0,
                             area_height=150.0, seed=103)
        topo, model = generate_topology(cfg, rng)
        net = Network(topo, model)
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 100, knowledge=KnowledgeBase.full(len(net.topology)))
        if result.converged:
            converged_checked += 1
            oracle_ok = oracle_ok and is_nash_equilibrium(net, state)

    bruteforce_ok = True
    for seed in range(20):
        rng = np.random.default_rng((104, seed))
        cfg = ScenarioConfig(num_aps=4, num_channels=3, area_width=120.0,
                             area_height=120.0, seed=104)
        topo, model = generate_topology(cfg, rng)
        net = network_of_copy(topo, model)
        for code in range(3 ** 4):
            channels = np.array(
                [(code // 3 ** i) % 3 for i in range(4)], dtype=np.int64
            )
            state = _power_fixed_point(topo, model, channels)
            oracle = is_nash_equilibrium(net, state)
            naive = _naive_is_ne(topo, model, state)
            bruteforce_ok = bruteforce_ok and (oracle == naive)
    elapsed = time.time() - t0
    ok = oracle_ok and bruteforce_ok and converged_checked > 0 and elapsed < 60.0
    report(3, ok, f"{converged_checked}/200 converged profiles all NE, "
                  f"oracle matches brute force on 20 instances, {elapsed:.1f}s")
    assert oracle_ok
    assert bruteforce_ok
    assert converged_checked > 0
    assert elapsed < 60.0


# --- criterion 4: synchronous cycling versus sequential convergence ---------


def _symmetric_pair():
    topo = [
        AccessPoint(id=i, position=(40.0 * i, 0.0), coverage_radius=10.0,
                    coordination_radius=40.0, sinr_target=2.0, max_power=0.1,
                    channels=frozenset((0, 1)))
        for i in range(2)
    ]
    model = PropagationModel(
        path_loss_exponent=3.0, mean_linear_gain=1.0,
        shadow_samples=np.ones((2, 2)), noise_power=1e-8,
    )
    blank = AllocationState.all_off(2)
    p = necessary_power(topo[0], 0, topo, blank, model)
    return topo, model, AllocationState(np.array([0, 0]), np.array([p, p]))


def test_criterion_4_synchronous_cycle():
    t0 = time.time()
    topo, model, state = _symmetric_pair()
    sync = run_dynamics(Network(topo, model), state, 10, knowledge=KnowledgeBase.full(2),
                        synchronous=True)
    topo, model, state = _symmetric_pair()
    seq = run_dynamics(Network(topo, model), state, 10, knowledge=KnowledgeBase.full(2))
    elapsed = time.time() - t0
    ok = (sync.cycle_detected and not sync.converged and sync.iterations <= 10
          and seq.converged and seq.iterations <= 3 and elapsed < 1.0)
    report(4, ok, f"synchronous cycles in {sync.iterations} iterations, "
                  f"round-robin converges in {seq.iterations} rounds, {elapsed:.2f}s")
    assert sync.cycle_detected and not sync.converged
    assert seq.converged and seq.iterations <= 3
    assert elapsed < 1.0


# --- criterion 5: selfish convergence, equal versus heterogeneous radii -----


def test_criterion_5_selfish_convergence():
    t0 = time.time()
    equal_converged = 0
    for seed in range(100):
        rng = np.random.default_rng((11, seed))
        cfg = ScenarioConfig(num_aps=30, num_channels=5, area_width=300.0,
                             area_height=300.0, coverage_radius_min=10.0,
                             coverage_radius_max=10.0, seed=11)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=None)
        equal_converged += result.converged

    hetero_failed = 0
    for seed in range(100):
        rng = np.random.default_rng((12, seed))
        cfg = ScenarioConfig(num_aps=30, num_channels=5, area_width=80.0,
                             area_height=80.0, coverage_radius_min=3.0,
                             coverage_radius_max=20.0, seed=12)
        net = Network(*generate_topology(cfg, rng))
        state = random_allocation(net, rng)
        result = run_dynamics(net, state, 50, knowledge=None)
        hetero_failed += not result.converged
    elapsed = time.time() - t0
    ok = equal_converged == 100 and hetero_failed > 0 and elapsed < 60.0
    report(5, ok, f"equal radii {equal_converged}/100 converged, dense "
                  f"heterogeneous {hetero_failed}/100 non-converged, {elapsed:.1f}s")
    assert equal_converged == 100
    assert hetero_failed > 0
    assert elapsed < 60.0


# --- criteria 6, 7, 10 share one batch of experiment runs -------------------


@pytest.fixture(scope="module")
def experiment_batch():
    t0 = time.time()
    runs = []
    for seed in range(20):
        cfg = ScenarioConfig(num_aps=100, num_channels=13, seed=seed, duration=600.0)
        runs.append((cfg, run_experiment(cfg)))
    return runs, time.time() - t0


def _completion_index(series):
    missing = column(series, "missing_candidates")
    for i, m in enumerate(missing):
        if m == 0:
            return i
    return None


def test_criterion_6_satisfaction_trend(experiment_batch):
    runs, elapsed = experiment_batch
    tails = {"game": [], "selfish": [], "random": []}
    nondecreasing = True
    for _, series in runs:
        for name in tails:
            tails[name].append(np.mean(column(series, f"satisfied_{name}")[-5:]))
        done = _completion_index(series)
        assert done is not None  # discovery must finish inside the run
        sg = column(series, "satisfied_game")
        nondecreasing = nondecreasing and all(
            sg[i + 1] >= sg[i] - 1 for i in range(done, len(sg) - 1)
        )
    mg = float(np.mean(tails["game"]))
    ms = float(np.mean(tails["selfish"]))
    mr = float(np.mean(tails["random"]))
    ok = (mg >= ms >= mr) and (mg >= mr + 10.0) and nondecreasing and elapsed < 300.0
    report(6, ok, f"steady-state means game {mg:.1f} >= selfish {ms:.1f} >= "
                  f"random {mr:.1f}, gap {mg - mr:.1f} APs, batch {elapsed:.1f}s")
    assert mg >= ms >= mr
    assert mg >= mr + 10.0
    assert nondecreasing
    assert elapsed < 300.0


def test_criterion_7_rounds_drop_after_discovery(experiment_batch):
    runs, _ = experiment_batch
    before, after = [], []
    for _, series in runs:
        done = _completion_index(series)
        rounds = column(series, "rounds_game")
        before += rounds[:done]
        after += rounds[done:]
    mean_before = float(np.mean(before))
    mean_after = float(np.mean(after))
    ok = mean_after < mean_before
    report(7, ok, f"mean rounds to convergence {mean_before:.2f} before vs "
                  f"{mean_after:.2f} after discovery completion")
    assert mean_after < mean_before


def test_criterion_10_bound_feasibility(experiment_batch):
    runs, _ = experiment_batch
    all_ok = True
    total_admitted = 0
    for cfg, _ in runs:
        # reproduce the experiment's bound run from its published seeding
        master = np.random.default_rng(cfg.seed)
        seeds = master.integers(2 ** 63, size=8)
        net = Network(*generate_topology(cfg, np.random.default_rng(seeds[0])))
        state, admitted = greedy_admission_bound(net, np.random.default_rng(seeds[5]))
        sat = satisfied_mask(net, state)
        admitted_mask = state.powers > 0
        total_admitted += admitted
        all_ok = all_ok and admitted == int(np.sum(admitted_mask))
        all_ok = all_ok and bool(np.all(sat[admitted_mask]))
    report(10, all_ok, f"all {total_admitted} admitted APs across 20 runs satisfied")
    assert all_ok


# --- criterion 8: domino effect of AP insertion ------------------------------


def test_criterion_8_domino_trend():
    t0 = time.time()
    passing = 0
    for seed in range(20):
        cfg = ScenarioConfig(num_aps=100, num_channels=13, seed=seed, duration=300.0)
        series = domino_experiment(cfg, 10, 150.0)
        times = column(series, "time")
        changes = column(series, "channel_changes")
        at_insert = changes[times.index(150.0)]
        later = [c for t, c in zip(times, changes) if t >= 180.0]
        if all(at_insert > c for c in later) and changes[-1] <= 2:
            passing += 1
    elapsed = time.time() - t0
    ok = passing > 10 and elapsed < 300.0
    report(8, ok, f"{passing}/20 seeds show insertion spike with quiet tail, "
                  f"{elapsed:.1f}s")
    assert passing > 10
    assert elapsed < 300.0


# --- criterion 9: discovery completion time versus density ------------------


def test_criterion_9_discovery_density_trend():
    t0 = time.time()
    means = []
    cfg = ScenarioConfig(seed=5)
    for n in (50, 150, 300):
        ticks = [discovery_completion_ticks(cfg, n, rep, max_ticks=49_999) for rep in range(20)]
        assert all(t < 50_000 for t in ticks)
        means.append(float(np.mean(ticks)))
    elapsed = time.time() - t0
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    ok = monotone and elapsed < 120.0
    report(9, ok, "mean completion ticks " +
           " <= ".join(f"{m:.0f}" for m in means) + f", {elapsed:.1f}s")
    assert monotone
    assert elapsed < 120.0
