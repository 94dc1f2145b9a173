"""Neighbor knowledge sets, sufficiency condition and peer discovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame.harness import ScenarioConfig, generate_topology
from apgame.knowledge import (
    DiscoveryState,
    KnowledgeBase,
    discovery_complete,
    discovery_tick,
    nearest_cover_set,
    neighbour_order,
)
from apgame.model import OFF, AccessPoint, AllocationState, ap_positions, pairwise_distances
from oracles import candidate_test, sufficiency_check, unique_cover_set
from oracles import nearest_cover_set as oracle_cover_set


def make_ap(i, x, y, radius=10.0, coord=40.0, channels=(0, 1)):
    return AccessPoint(
        id=i,
        position=(x, y),
        coverage_radius=radius,
        coordination_radius=coord,
        sinr_target=2.0,
        max_power=0.1,
        channels=frozenset(channels),
    )


def line_topology(xs, coord=40.0):
    return [make_ap(i, float(x), 0.0, coord=coord) for i, x in enumerate(xs)]


def cover(i, topo, state):
    """The package's nearest cover set of AP i as an id set."""
    return set(nearest_cover_set(neighbour_order(ap_positions(topo), i), state).tolist())


class TestCandidateTest:
    def test_overlap_geometry(self):
        a = make_ap(0, 0.0, 0.0, coord=40.0)
        assert candidate_test(a, make_ap(1, 79.0, 0.0, coord=40.0))
        assert not candidate_test(a, make_ap(2, 81.0, 0.0, coord=40.0))

    def test_colocated_pair(self):
        a = make_ap(0, 5.0, 5.0)
        b = make_ap(1, 5.0, 5.0)
        assert candidate_test(a, b)

    def test_self_comparison_rejected(self):
        a = make_ap(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            candidate_test(a, a)


    @pytest.mark.parametrize("clustered", [False, True])
    def test_matrix_matches_scalar_test(self, clustered):
        cfg = ScenarioConfig(num_aps=60, area_width=400.0, area_height=400.0,
                             clustered=clustered, num_clusters=3, seed=8)
        topo, _ = generate_topology(cfg, np.random.default_rng(8))
        # exact boundary: the areas of the last two APs only touch
        topo += [make_ap(60, 900.0, 900.0), make_ap(61, 980.0, 900.0)]
        cand = KnowledgeBase.from_topology(topo).candidates
        assert cand.dtype == bool and not cand.diagonal().any()
        for i in range(len(topo)):
            for j in range(len(topo)):
                if i != j:
                    assert cand[i, j] == candidate_test(topo[i], topo[j])
        assert not cand[60, 61]


class TestNearestCoverSet:
    def test_all_off_is_empty(self):
        topo = line_topology([0, 10, 20])
        assert cover(0, topo, AllocationState.all_off(3)) == set()

    def test_two_nearest_cover_both_channels(self):
        # others at distances 10/20/30 on channels 0/1/0
        topo = line_topology([0, 10, 20, 30])
        state = AllocationState(
            np.array([OFF, 0, 1, 0]), np.array([0.0, 0.01, 0.01, 0.01])
        )
        assert cover(0, topo, state) == {1, 2}

    def test_matches_bruteforce_prefix_scan(self):
        rng = np.random.default_rng(2)
        cfg = ScenarioConfig(num_aps=20, num_channels=4, area_width=300.0,
                             area_height=300.0, seed=2)
        topo, _ = generate_topology(cfg, rng)
        channels = rng.integers(0, 4, size=20).astype(np.int64)
        powers = rng.uniform(0.001, 0.1, size=20)
        powers[rng.integers(20)] = 0.0
        channels[powers == 0.0] = OFF
        state = AllocationState(channels, powers)
        for i in range(20):
            got = cover(i, topo, state)
            # oracle: scan every prefix of the distance-sorted order and take
            # the first whose active members use all busy channels
            busy = {
                int(channels[j]) for j in range(20)
                if j != i and powers[j] > 0 and channels[j] != OFF
            }
            order = sorted(
                (j for j in range(20) if j != i),
                key=lambda j: np.hypot(
                    topo[i].position[0] - topo[j].position[0],
                    topo[i].position[1] - topo[j].position[1],
                ),
            )
            expect = set()
            if busy:
                seen = set()
                for j in order:
                    expect.add(j)
                    if powers[j] > 0:
                        seen.add(int(channels[j]))
                    if busy <= seen:
                        break
            assert got == expect


class TestCoverSetAgainstOracle:
    """The array cover set over one cached order equals the scalar prefix scan."""

    @staticmethod
    def random_state(rng, n, k):
        # some APs silent, one holding a channel at zero power
        channels = rng.integers(0, k, size=n).astype(np.int64)
        powers = rng.uniform(0.001, 0.1, size=n)
        silent = rng.random(n) < 0.2
        channels[silent], powers[silent] = OFF, 0.0
        powers[np.flatnonzero(~silent)[0]] = 0.0
        return AllocationState(channels, powers)

    def assert_equals_oracle(self, topo, state):
        pos = ap_positions(topo)
        for i in range(len(topo)):
            got = nearest_cover_set(neighbour_order(pos, i), state)
            assert len(set(got.tolist())) == len(got)
            assert set(got.tolist()) == oracle_cover_set(i, topo, state)

    @pytest.mark.parametrize("clustered, seed", [(False, 5), (False, 6), (True, 7), (True, 8)])
    def test_seeded_instances(self, clustered, seed):
        rng = np.random.default_rng(seed)
        cfg = ScenarioConfig(num_aps=150, num_channels=6, clustered=clustered,
                             num_clusters=4, seed=seed)
        topo, _ = generate_topology(cfg, rng)
        self.assert_equals_oracle(topo, self.random_state(rng, 150, 6))

    def test_exact_distance_ties_on_a_grid(self):
        topo = [make_ap(5 * r + c, 10.0 * c, 10.0 * r) for r in range(5) for c in range(5)]
        rng = np.random.default_rng(9)
        for _ in range(5):
            self.assert_equals_oracle(topo, self.random_state(rng, 25, 4))

    def test_ap_sharing_a_position_is_not_first_in_its_own_order(self):
        topo = line_topology([0, 10, 20, 0, 30])
        order = neighbour_order(ap_positions(topo), 3)
        assert order.tolist() == [0, 1, 2, 4]
        state = AllocationState(np.array([1, 0, 1, OFF, 2]),
                                np.array([0.01, 0.01, 0.01, 0.0, 0.01]))
        assert nearest_cover_set(order, state).tolist() == [0, 1, 2, 4]
        self.assert_equals_oracle(topo, state)

    def test_all_off(self):
        topo = line_topology([0, 10, 20, 30])
        state = AllocationState.all_off(4)
        for i in range(4):
            assert nearest_cover_set(neighbour_order(ap_positions(topo), i), state).size == 0
        self.assert_equals_oracle(topo, state)

    def test_one_busy_channel(self):
        # the prefix ends at the nearest transmitter
        topo = line_topology([0, 10, 20, 30, 40])
        state = AllocationState(np.array([OFF, 1, OFF, 1, 1]),
                                np.array([0.0, 0.0, 0.0, 0.01, 0.01]))
        order = neighbour_order(ap_positions(topo), 0)
        assert nearest_cover_set(order, state).tolist() == [1, 2, 3]
        self.assert_equals_oracle(topo, state)

    def test_order_reads_the_one_distance_kernel(self):
        rng = np.random.default_rng(11)
        cfg = ScenarioConfig(num_aps=80, clustered=True, num_clusters=3, seed=11)
        pos = ap_positions(generate_topology(cfg, rng)[0])
        full = pairwise_distances(pos, pos)
        for i in range(80):
            row = pairwise_distances(pos[i:i + 1], pos)[0]
            assert row.tobytes() == full[i].tobytes()
            order = neighbour_order(pos, i)
            assert sorted(order.tolist(), key=lambda j: (full[i, j], j)) == order.tolist()


class TestCoverSetWithoutSort:
    """The sort-free first transmitters give the prefix of the ``np.unique`` form."""

    @staticmethod
    def assert_equals_unique_form(order, state):
        got, expected = nearest_cover_set(order, state), unique_cover_set(order, state)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_unique_form(self, data):
        n = data.draw(st.integers(1, 40))
        # a few channel ids, far apart or not, that many APs repeat
        pool = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=6, unique=True))
        channels = data.draw(st.lists(st.sampled_from([OFF] + pool), min_size=n, max_size=n))
        powers = data.draw(st.lists(st.sampled_from([0.0, 1e-6, 0.05]), min_size=n, max_size=n))
        powers = [0.0 if k == OFF else p for k, p in zip(channels, powers)]
        state = AllocationState(np.array(channels), np.array(powers))
        order = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)[1:]
        self.assert_equals_unique_form(order, state)

    @pytest.mark.parametrize("channels, powers", [
        ([OFF] * 5, [0.0] * 5),  # every AP OFF
        ([0, 2, 2, OFF, 1], [0.0] * 5),  # channels held at zero power
        ([3, 3, 3, 3, 3], [0.01] * 5),  # one channel, all transmitting
    ])
    def test_no_or_one_busy_channel(self, channels, powers):
        state = AllocationState(np.array(channels), np.array(powers))
        for i in range(5):
            self.assert_equals_unique_form(neighbour_order(np.zeros((5, 2)), i), state)
        self.assert_equals_unique_form(np.arange(0), state)


class TestSufficiency:
    def test_full_knowledge_is_sufficient(self):
        topo = line_topology([0, 10, 20])
        state = AllocationState(np.array([0, 1, 0]), np.array([0.01] * 3))
        everyone = ~np.eye(3, dtype=bool)
        kb = KnowledgeBase(known=everyone.copy(), candidates=everyone)
        assert all(sufficiency_check(i, kb, topo, state) for i in range(3))

    def test_empty_knowledge_with_transmitters_fails(self):
        topo = line_topology([0, 10, 20])
        state = AllocationState(np.array([0, 1, 0]), np.array([0.01] * 3))
        kb = KnowledgeBase(known=np.zeros((3, 3), dtype=bool),
                           candidates=~np.eye(3, dtype=bool))
        assert not sufficiency_check(0, kb, topo, state)

    def test_completed_discovery_is_mostly_sufficient_when_dense(self):
        # dense enough that the nearest user of every busy channel sits
        # inside coordination range for nearly every AP
        hits = total = 0
        for seed in range(20):
            rng = np.random.default_rng((31, seed))
            cfg = ScenarioConfig(num_aps=100, num_channels=3, area_width=300.0,
                                 area_height=300.0, seed=31)
            topo, _ = generate_topology(cfg, rng)
            kb = KnowledgeBase.complete(topo)
            channels = rng.integers(0, 3, size=100).astype(np.int64)
            state = AllocationState(channels, np.full(100, 0.01))
            hits += sum(sufficiency_check(i, kb, topo, state) for i in range(100))
            total += 100
        assert hits / total >= 0.95


class TestDiscovery:
    def test_single_ap_never_changes(self):
        topo = [make_ap(0, 0.0, 0.0)]
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(0))
        for _ in range(5):
            discovery_tick(ds, kb, topo)
        assert kb.known.tolist() == [[False]]
        assert ds.tick == 5

    def test_two_candidates_meet_quickly_and_symmetrically(self):
        ticks_needed = []
        for seed in range(50):
            topo = line_topology([0, 30])
            kb = KnowledgeBase.from_topology(topo)
            ds = DiscoveryState(rng=np.random.default_rng(seed))
            while not discovery_complete(kb)[0]:
                discovery_tick(ds, kb, topo)
            assert kb.known.tolist() == [[False, True], [True, False]]
            ticks_needed.append(ds.tick)
        # with two nodes the only possible probe is the peer: one tick
        assert max(ticks_needed) == 1

    def test_knowledge_monotone_and_sound(self):
        rng = np.random.default_rng(4)
        cfg = ScenarioConfig(num_aps=40, num_channels=3, area_width=300.0,
                             area_height=300.0, seed=4)
        topo, _ = generate_topology(cfg, rng)
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=rng)
        prev = np.zeros((40, 40), dtype=bool)
        for _ in range(30):
            discovery_tick(ds, kb, topo)
            assert not (prev & ~kb.known).any()           # never shrinks
            assert not (kb.known & ~kb.candidates).any()  # soundness
            prev = kb.known.copy()

    def test_deterministic_given_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            cfg = ScenarioConfig(num_aps=30, num_channels=3, area_width=250.0,
                                 area_height=250.0, seed=seed)
            topo, _ = generate_topology(cfg, np.random.default_rng(7))
            kb = KnowledgeBase.from_topology(topo)
            ds = DiscoveryState(rng=rng)
            for _ in range(40):
                discovery_tick(ds, kb, topo)
            return kb.known, ds.exchange_log

        known_a, log_a = run(123)
        known_b, log_b = run(123)
        assert np.array_equal(known_a, known_b) and log_a == log_b

    def test_completion_reached_and_counts_drop(self):
        rng = np.random.default_rng(5)
        cfg = ScenarioConfig(num_aps=50, num_channels=3, seed=5)
        topo, _ = generate_topology(cfg, rng)
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=rng)
        counts = []
        while not discovery_complete(kb)[0]:
            discovery_tick(ds, kb, topo)
            counts.append(discovery_complete(kb)[1])
            assert ds.tick < 10_000
        assert counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_isolated_ap_never_counts_as_missing(self):
        topo = line_topology([0, 30, 5000])  # third AP has no candidates
        kb = KnowledgeBase.from_topology(topo)
        assert not kb.candidates[2].any()
        complete, missing = discovery_complete(kb)
        assert not complete and missing == 2  # only the near pair is missing
        kb.known[0, 1] = kb.known[1, 0] = True
        assert discovery_complete(kb) == (True, 0)

    def test_active_subset_restricts_sampling(self):
        topo = line_topology([0, 20, 40])
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(0))
        for _ in range(30):
            discovery_tick(ds, kb, topo, active={0, 1})
        assert not kb.known[0, 2] and not kb.known[1, 2]
        assert not kb.known[2].any()


def set_discovery_tick(rng, tick, samples_per_tick, known, candidates, ids, log):
    """The tick on per-AP known and candidate sets that the matrix tick must
    reproduce: the same draws, then per hit a mutual add and a two-way
    exchange that keeps the receiver's candidates."""
    n = len(ids)
    if n > 1:
        draws = rng.integers(n - 1, size=(n, samples_per_tick)).tolist()
        for pos, i in enumerate(ids):
            for draw in draws[pos]:
                j = ids[draw if draw < pos else draw + 1]
                if j not in candidates[i]:
                    continue
                known[i].add(j)
                known[j].add(i)
                log.append((tick, i, j))
                for owner, peer in ((i, j), (j, i)):
                    for c in list(known[peer]):
                        if c != owner and c in candidates[owner]:
                            known[owner].add(c)


@st.composite
def discovery_cases(draw):
    """A dense uniform or clustered topology, an optional active subset and
    a short run of ticks."""
    n = draw(st.integers(1, 40))
    cfg = ScenarioConfig(num_aps=n, area_width=draw(st.sampled_from([100.0, 250.0, 500.0])),
                         area_height=250.0, clustered=draw(st.booleans()), num_clusters=3,
                         cluster_std=30.0, seed=0)
    topo, _ = generate_topology(cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    active = draw(st.none() | st.sets(st.integers(0, n - 1)))
    return topo, active, draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 12))


class TestMatrixTickOracle:
    @settings(max_examples=150, deadline=None)
    @given(discovery_cases(), st.integers(0, 2**32 - 1))
    def test_matrix_tick_equals_set_tick(self, case, seed):
        topo, active, samples, ticks = case
        n = len(topo)
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(seed), samples_per_tick=samples)
        candidates = [{j for j in range(n) if j != i and candidate_test(topo[i], topo[j])}
                      for i in range(n)]
        known = [set() for _ in range(n)]
        ref_rng, ref_log = np.random.default_rng(seed), []
        ids = sorted(active) if active is not None else list(range(n))
        for t in range(ticks):
            discovery_tick(ds, kb, topo, active)
            set_discovery_tick(ref_rng, t, samples, known, candidates, ids, ref_log)
        assert [set(np.flatnonzero(row).tolist()) for row in kb.known] == known
        assert ds.exchange_log == ref_log
        assert ds.rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("active", [None, set(range(200))], ids=["all", "prefix"])
    @pytest.mark.parametrize("clustered", [False, True], ids=["uniform", "clustered"])
    def test_matrix_tick_equals_set_tick_at_300_aps(self, clustered, active, samples):
        # the paper's scale, 100 ticks: 5 to 55 hits per tick, and gossip
        # carried along chains of earlier exchanges
        cfg = ScenarioConfig(num_aps=300, clustered=clustered, seed=0)
        seed = 300 + 2 * samples + clustered
        topo, _ = generate_topology(cfg, np.random.default_rng(seed))
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(seed), samples_per_tick=samples)
        candidates = [set(np.flatnonzero(row).tolist()) for row in kb.candidates]
        known = [set() for _ in topo]
        ref_rng, ref_log = np.random.default_rng(seed), []
        ids = sorted(active) if active is not None else list(range(len(topo)))
        for t in range(100):
            discovery_tick(ds, kb, topo, active)
            set_discovery_tick(ref_rng, t, samples, known, candidates, ids, ref_log)
        assert [set(np.flatnonzero(row).tolist()) for row in kb.known] == known
        assert ds.exchange_log == ref_log
        assert ds.rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(ref_log) > 100
