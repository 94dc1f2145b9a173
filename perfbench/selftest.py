"""Tests of the benchmark's tracer. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import shutil
import sys
import tempfile
import types
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, is_wrapper  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def nest(clock: FakeClock) -> types.SimpleNamespace:
    """outer spends 1 s, calls middle twice and leaf once; middle spends 2 s
    and calls leaf; leaf spends 4 s. Names are looked up on the namespace at
    call time, as module globals are."""
    ns = types.SimpleNamespace()

    def leaf():
        clock.spend(4.0)

    def middle():
        clock.spend(2.0)
        ns.leaf()

    def outer():
        clock.spend(1.0)
        ns.middle()
        ns.middle()
        ns.leaf()

    def failing():
        clock.spend(8.0)
        raise RuntimeError("boom")

    ns.leaf, ns.middle, ns.outer, ns.failing = leaf, middle, outer, failing
    return ns


class SyntheticNestTest(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = FakeClock()
        self.ns = nest(self.clock)
        self.originals = dict(vars(self.ns))
        self.tracer = Tracer(clock=self.clock)
        self.tracer.wrap(self.ns, "outer", "a.outer")
        self.tracer.wrap(self.ns, "middle", "b.middle")
        self.tracer.wrap(self.ns, "leaf", "c.leaf")
        self.tracer.wrap(self.ns, "failing", "c.failing")

    def test_self_times_add_up_to_parent_span(self) -> None:
        self.ns.outer()
        stats = self.tracer.stats
        self.assertEqual(stats["a.outer"].total_s, 17.0)
        self.assertEqual(stats["a.outer"].self_s, 1.0)
        self.assertEqual((stats["b.middle"].calls, stats["b.middle"].total_s), (2, 12.0))
        self.assertEqual(stats["b.middle"].self_s, 4.0)
        self.assertEqual((stats["c.leaf"].calls, stats["c.leaf"].self_s), (3, 12.0))
        self.assertEqual(sum(s.self_s for s in stats.values()), stats["a.outer"].total_s)
        self.assertEqual(self.tracer.root_s, 17.0)
        self.assertEqual(self.tracer.self_by_layer(), {"a": 1.0, "b": 4.0, "c": 12.0})

    def test_span_closes_when_the_call_raises(self) -> None:
        with self.assertRaises(RuntimeError):
            self.ns.failing()
        self.ns.leaf()
        self.assertEqual(self.tracer.stats["c.failing"].total_s, 8.0)
        self.assertEqual(self.tracer.root_s, 12.0)

    def test_unwrap_restores_every_attribute(self) -> None:
        self.assertTrue(all(is_wrapper(v) for v in vars(self.ns).values()))
        self.tracer.unwrap_all()
        for name, fn in self.originals.items():
            self.assertIs(getattr(self.ns, name), fn)


class SpeedSamplerTest(unittest.TestCase):
    def test_stretches_convert_at_probe_speed(self) -> None:
        import signal
        import time

        import speed

        real_probe = speed.probe
        speed.probe = lambda: 2 * speed.REFERENCE_PROBE_S  # a machine at half speed
        before = signal.getsignal(signal.SIGALRM)
        try:
            start = time.perf_counter()
            with speed.SpeedSampler() as sampler:
                while time.perf_counter() - start < 0.3:
                    pass
            elapsed = time.perf_counter() - start
        finally:
            speed.probe = real_probe
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreaterEqual(len(sampler.probes), 4)
        self.assertLessEqual(sampler.raw_s, elapsed)
        self.assertAlmostEqual(sampler.ref_s, sampler.raw_s / 2, delta=1e-12)


class ApgameTraceTest(unittest.TestCase):
    """One small real CLI call, traced the way the benchmark traces it."""

    def test_traced_cli_call(self) -> None:
        import apgame.cli
        from apgame import knowledge, schedulers
        from layers import Instrumentation, leftover_wrappers

        before_run = apgame.cli.run_experiment
        before_gain = schedulers.true_gain_matrix
        before_kb = knowledge.KnowledgeBase.__dict__["from_topology"]
        instr = Instrumentation()
        instr.install()
        wrapped = set(leftover_wrappers())
        for site in ("apgame.cli.main", "apgame.cli.run_experiment",
                     "apgame.schedulers.true_gain_matrix", "apgame.game.best_response",
                     "apgame.harness.discovery_tick", "KnowledgeBase.from_topology"):
            self.assertIn(site, wrapped)
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
        try:
            with redirect_stdout(io.StringIO()):
                code = apgame.cli.main(["run", "--seed", "3", "--num-aps", "30",
                                        "--duration", "20", "--out", str(out)])
        finally:
            leftovers = instr.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        self.assertEqual(code, 0)
        self.assertEqual(leftovers, [])
        self.assertIs(apgame.cli.run_experiment, before_run)
        self.assertIs(schedulers.true_gain_matrix, before_gain)
        self.assertIs(knowledge.KnowledgeBase.__dict__["from_topology"], before_kb)

        root = instr.tracer.root_s
        self.assertEqual(instr.checks(root), [])
        self.assertAlmostEqual(sum(instr.tracer.self_by_layer().values()), root, delta=1e-9)
        m = instr.metrics()
        # 3 reporting rows x 2 schemes of dynamics, one engine each with two gain
        # matrices, plus the experiment's own true gain matrix.
        self.assertEqual(m["schedulers.dynamics_calls"], 6)
        self.assertEqual(m["model.gain_matrix_calls"], 13)
        self.assertEqual(m["knowledge.tick_calls"], 20)
        self.assertGreater(m["game.response_calls"], 0)


if __name__ == "__main__":
    unittest.main()
