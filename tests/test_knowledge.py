"""Neighbor knowledge sets, sufficiency condition and peer discovery."""

import tracemalloc
from dataclasses import replace

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
from apgame.model import OFF, AllocationState, ap_positions, pairwise_distances
from oracles import (
    BLOCK_EDGE_PAIRS,
    candidate_test,
    discovery_missing,
    make_ap,
    one_sided_pair,
    sufficiency_check,
    unique_cover_set,
)
from oracles import nearest_cover_set as oracle_cover_set


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
            assert discovery_tick(ds, kb, topo) == ([], [])
        assert kb.known.tolist() == [[False]]
        assert ds.tick == 5

    def test_two_candidates_meet_quickly_and_symmetrically(self):
        ticks_needed = []
        for seed in range(50):
            topo = line_topology([0, 30])
            kb = KnowledgeBase.from_topology(topo)
            ds = DiscoveryState(rng=np.random.default_rng(seed))
            while discovery_complete(kb):
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
        while discovery_complete(kb):
            discovery_tick(ds, kb, topo)
            counts.append(discovery_complete(kb))
            assert ds.tick < 10_000
        assert counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_isolated_ap_never_counts_as_missing(self):
        topo = line_topology([0, 30, 5000])  # third AP has no candidates
        kb = KnowledgeBase.from_topology(topo)
        assert not kb.candidates[2].any()
        assert discovery_complete(kb) == 2  # only the near pair is missing
        known = np.zeros((3, 3), dtype=bool)
        known[0, 1] = known[1, 0] = True
        kb = KnowledgeBase(kb.candidates, known=known)
        assert discovery_complete(kb) == 0

    def test_known_is_read_only(self):
        topo = line_topology([0, 30])
        kb = KnowledgeBase.from_topology(topo)
        with pytest.raises(ValueError, match="read-only"):
            kb.known[0, 1] = True
        with pytest.raises(ValueError, match="read-only"):
            kb.known[:] |= kb.candidates
        with pytest.raises(AttributeError):
            kb.known = kb.candidates.copy()
        assert not kb.known.any()

    def test_known_of_another_shape_is_rejected(self):
        candidates = KnowledgeBase.from_topology(line_topology([0, 30, 60])).candidates
        with pytest.raises(ValueError, match=r"known has shape \(2, 2\), not \(3, 3\)"):
            KnowledgeBase(candidates, known=candidates[:2, :2])

    def test_known_outside_the_candidates_is_rejected(self):
        candidates = KnowledgeBase.from_topology(line_topology([0, 30, 5000])).candidates
        known = candidates.copy()
        known[0, 2] = True  # AP 2 is out of AP 0's coordination area
        with pytest.raises(ValueError, match="known holds a pair that is not a candidate"):
            KnowledgeBase(candidates, known=known)
        assert KnowledgeBase(candidates, known=candidates).known.tolist() == candidates.tolist()
        # complete and full knowledge copy the candidate rows: the two-argument form's state
        everyone = ~np.eye(3, dtype=bool)
        for kb, two in [(KnowledgeBase.complete(line_topology([0, 30, 5000])),
                         KnowledgeBase(candidates, known=candidates)),
                        (KnowledgeBase.full(3), KnowledgeBase(everyone, known=everyone))]:
            assert kb.known.tobytes() == two.known.tobytes()
            assert kb.missing(range(3)) == two.missing(range(3)) == []

    @pytest.mark.parametrize("candidates, check", [
        (np.zeros((2, 3), dtype=bool), "not square"),
        (np.zeros(3, dtype=bool), "not square"),
        (np.eye(3, dtype=bool), "diagonal"),
        (np.triu(~np.eye(3, dtype=bool)), "not symmetric"),
        # the check compares blocks of model.BLOCK = 64 rows with the columns below them
        *[(one_sided_pair(*case), "not symmetric") for case in BLOCK_EDGE_PAIRS.values()],
    ], ids=["2x3", "vector", "diagonal", "one-sided", *BLOCK_EDGE_PAIRS])
    def test_malformed_candidates_are_rejected(self, candidates, check):
        with pytest.raises(ValueError, match=check):
            KnowledgeBase(candidates)

    def test_symmetry_check_makes_no_square_temporary(self):
        n = 1000
        rng = np.random.default_rng(4)
        candidates = np.triu(rng.random((n, n)) < 0.2, 1)
        candidates |= candidates.T
        tracemalloc.start()
        try:
            KnowledgeBase(candidates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n / 2  # an N x N bool temporary takes n * n bytes

    def test_no_aps(self):
        kb = KnowledgeBase(np.zeros((0, 0), dtype=bool))
        assert kb.known.shape == (0, 0)
        assert discovery_complete(kb) == discovery_complete(kb, active=0) == 0

    def test_active_prefix_restricts_sampling(self):
        topo = line_topology([0, 20, 40])
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(0))
        for _ in range(30):
            discovery_tick(ds, kb, topo, active=2)
        assert not kb.known[0, 2] and not kb.known[1, 2]
        assert not kb.known[2].any()

    @pytest.mark.parametrize("active", [0, 1])
    def test_fewer_than_two_active_aps_draw_nothing(self, active):
        topo, _ = generate_topology(ScenarioConfig(num_aps=20, seed=1), np.random.default_rng(1))
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(0))
        drawn = ds.rng.bit_generator.state
        for _ in range(3):
            assert discovery_tick(ds, kb, topo, active=active) == ([], [])
        assert ds.rng.bit_generator.state == drawn
        assert ds.tick == 3 and not kb.known.any() and not ds.exchange_log
        assert discovery_complete(kb, active=active) == 0  # no candidate among them

    @pytest.mark.parametrize("bad", [-1, 21])
    def test_active_count_outside_the_network_is_rejected_before_any_draw(self, bad):
        # unchecked, -1 would silently probe nothing and 21 would draw before indexing past
        # the matrix
        topo, _ = generate_topology(ScenarioConfig(num_aps=20, seed=1), np.random.default_rng(1))
        kb = KnowledgeBase.from_topology(topo)
        ds = DiscoveryState(rng=np.random.default_rng(0))
        drawn = ds.rng.bit_generator.state
        known = kb.known.tobytes()
        with pytest.raises(ValueError, match=rf"active count {bad} is outside \[0, 20\]"):
            discovery_tick(ds, kb, topo, active=bad)
        assert ds.rng.bit_generator.state == drawn
        assert ds.tick == 0 and kb.known.tobytes() == known and not ds.exchange_log

    @pytest.mark.parametrize("bad", [-1, 21])
    def test_active_count_outside_the_network_fails_the_completion_check(self, bad):
        topo, _ = generate_topology(ScenarioConfig(num_aps=20, seed=1), np.random.default_rng(1))
        with pytest.raises(ValueError, match=rf"active count {bad} is outside \[0, 20\]"):
            discovery_complete(KnowledgeBase.from_topology(topo), active=bad)


def hit_ends(log):
    """The ``(i, j)`` of the ``(tick, i, j)`` entries of an exchange log as two lists."""
    return [i for _, i, _ in log], [j for _, _, j in log]


def set_discovery_tick(rng, tick, samples_per_tick, known, candidates, n, log):
    """The tick of the first ``n`` APs on per-AP known and candidate sets that
    the matrix tick must reproduce: the same draws, then per hit a mutual add
    and a two-way exchange that keeps the receiver's candidates."""
    if n > 1:
        draws = rng.integers(n - 1, size=(n, samples_per_tick)).tolist()
        for i in range(n):
            for draw in draws[i]:
                j = draw if draw < i else draw + 1
                if j not in candidates[i]:
                    continue
                known[i].add(j)
                known[j].add(i)
                log.append((tick, i, j))
                for owner, peer in ((i, j), (j, i)):
                    for c in list(known[peer]):
                        if c != owner and c in candidates[owner]:
                            known[owner].add(c)


def assert_tick_equals_set_tick(kb, topo, active, samples, seed, ticks):
    """Run ``ticks`` discovery ticks on ``kb`` and on per-AP sets of its
    candidates from one seed: the returns, known rows, log and generator
    state must agree. Returns the log."""
    ds = DiscoveryState(rng=np.random.default_rng(seed), samples_per_tick=samples)
    candidates = [set(np.flatnonzero(row).tolist()) for row in kb.candidates]
    known = [set() for _ in topo]
    ref_rng, ref_log = np.random.default_rng(seed), []
    on = len(topo) if active is None else active
    for t in range(ticks):
        start = len(ref_log)
        hits = discovery_tick(ds, kb, topo, active)
        set_discovery_tick(ref_rng, t, samples, known, candidates, on, ref_log)
        assert hits == hit_ends(ref_log[start:])  # the rows it changed, in probe order
    assert [set(np.flatnonzero(row).tolist()) for row in kb.known] == known
    assert ds.exchange_log == ref_log
    assert ds.rng.bit_generator.state == ref_rng.bit_generator.state
    return ref_log


@st.composite
def discovery_cases(draw):
    """A dense uniform or clustered topology, an optional active count and
    a short run of ticks."""
    n = draw(st.integers(1, 40))
    cfg = ScenarioConfig(num_aps=n, area_width=draw(st.sampled_from([100.0, 250.0, 500.0])),
                         area_height=250.0, clustered=draw(st.booleans()), num_clusters=3,
                         cluster_std=30.0, seed=0)
    topo, _ = generate_topology(cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    active = draw(st.none() | st.integers(0, n))
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
        on = n if active is None else active
        for t in range(ticks):
            start = len(ref_log)
            hits = discovery_tick(ds, kb, topo, active)
            set_discovery_tick(ref_rng, t, samples, known, candidates, on, ref_log)
            assert hits == hit_ends(ref_log[start:])  # the rows it changed, in probe order
        assert [set(np.flatnonzero(row).tolist()) for row in kb.known] == known
        assert ds.exchange_log == ref_log
        assert ds.rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("active", [None, 200], ids=["all", "prefix"])
    @pytest.mark.parametrize("clustered", [False, True], ids=["uniform", "clustered"])
    def test_matrix_tick_equals_set_tick_at_300_aps(self, clustered, active, samples):
        # the paper's scale, 100 ticks: 5 to 55 hits per tick, and gossip
        # carried along chains of earlier exchanges
        cfg = ScenarioConfig(num_aps=300, clustered=clustered, seed=0)
        seed = 300 + 2 * samples + clustered
        topo, _ = generate_topology(cfg, np.random.default_rng(seed))
        log = assert_tick_equals_set_tick(KnowledgeBase.from_topology(topo), topo, active,
                                          samples, seed, 100)
        assert len(log) > 100

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("xs", [[0, 10], [0, 500]], ids=["candidates", "apart"])
    def test_two_aps(self, xs, samples):
        # each AP can only draw the other: one hit per probe, or none
        topo = line_topology(xs)
        log = assert_tick_equals_set_tick(KnowledgeBase.from_topology(topo), topo, None,
                                          samples, 7 + samples, 5)
        assert len(log) == (5 * 2 * samples if xs[1] == 10 else 0)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_two_active_aps_in_a_300_ap_network(self, samples):
        # the topology reordered so that the two APs on, ids 0 and 1, are
        # candidates of each other or far apart
        topo, _ = generate_topology(ScenarioConfig(num_aps=300, seed=0), np.random.default_rng(5))
        kb = KnowledgeBase.from_topology(topo)
        i = int(np.flatnonzero(kb.candidates.any(axis=1))[-1])
        j = int(np.flatnonzero(kb.candidates[i])[0])
        apart = np.flatnonzero(~kb.candidates[i])
        far = int(apart[apart != i][-1])  # not i itself, whose diagonal entry is False
        for first in ([i, j], [i, far]):
            order = first + [k for k in range(len(topo)) if k not in first]
            reordered = [replace(topo[k], id=new) for new, k in enumerate(order)]
            kb = KnowledgeBase.from_topology(reordered)
            log = assert_tick_equals_set_tick(kb, reordered, 2, samples, 11, 4)
            assert len(log) == (4 * 2 * samples if first[1] == j else 0)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_fortran_ordered_candidates(self, samples):
        cfg = ScenarioConfig(num_aps=300, clustered=True, seed=0)
        topo, _ = generate_topology(cfg, np.random.default_rng(3))
        c_kb = KnowledgeBase.from_topology(topo)
        f_kb = KnowledgeBase(np.asfortranarray(c_kb.candidates))
        assert f_kb.candidates.flags.c_contiguous
        c_log = assert_tick_equals_set_tick(c_kb, topo, None, samples, 13, 30)
        f_log = assert_tick_equals_set_tick(f_kb, topo, None, samples, 13, 30)
        assert f_log == c_log and f_kb.known.tobytes() == c_kb.known.tobytes()

    def test_a_c_ordered_matrix_is_kept_as_given(self):
        # a C-contiguous view included: the tick then reads it flat with no copy
        candidates = KnowledgeBase.from_topology(line_topology(range(0, 300, 30))).candidates
        padded = np.zeros((len(candidates) + 2, len(candidates)), dtype=bool)
        padded[1:-1] = candidates
        view = padded[1:-1]
        assert KnowledgeBase(candidates).candidates is candidates
        assert KnowledgeBase(view).candidates is view


def run_reading_known(case, seed, read_every):
    """Run a discovery case, reading ``known`` after every ``read_every``-th
    tick (never when it is 0), and return its state at the end."""
    topo, active, samples, ticks = case
    kb = KnowledgeBase.from_topology(topo)
    ds = DiscoveryState(rng=np.random.default_rng(seed), samples_per_tick=samples)
    for t in range(1, 3 * ticks + 1):
        discovery_tick(ds, kb, topo, active)
        if read_every and t % read_every == 0:
            kb.known.copy()
    return kb.known.copy(), ds.exchange_log, ds.rng.bit_generator.state


class TestBitRows:
    """The bit rows behind ``known`` and the completion check."""

    @settings(max_examples=100, deadline=None)
    @given(discovery_cases(), st.integers(0, 2**32 - 1))
    def test_reading_known_midway_changes_nothing(self, case, seed):
        known, log, rng_state = run_reading_known(case, seed, 0)
        for read_every in (1, 7):
            again, again_log, again_state = run_reading_known(case, seed, read_every)
            assert again.dtype == bool and again.tobytes() == known.tobytes()
            assert again_log == log and again_state == rng_state

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_completion_count_equals_the_matrix_form(self, data):
        n = data.draw(st.integers(0, 70))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.random((n, n)) < data.draw(st.sampled_from([0.1, 0.5, 1.0])), 1)
        candidates = upper | upper.T
        known = candidates & (rng.random((n, n)) < data.draw(st.sampled_from([0.0, 0.5, 0.9])))
        kb = KnowledgeBase(candidates, known=known)
        ids = list(range(n))
        for active in [None, *range(n + 1)]:  # every AP, then every prefix
            want = discovery_missing(candidates, known, ids[:active])
            assert discovery_complete(kb, active) == want
