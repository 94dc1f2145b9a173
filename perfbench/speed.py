"""Machine-speed probe, so that times taken on a shared machine compare.

On a shared virtual machine, other tenants slow this process down by up to
1.7x for stretches of seconds to minutes, and its CPU time grows with its
wall time, so neither is steady from one run to the next. A fixed probe run
while the measured code runs tracks the current speed, and times are
reported in reference seconds: raw seconds times the probe's reference
duration over its duration at the time.

The probe mixes what apgame spends its time on: interpreted arithmetic,
small numpy calls, and set and dict operations. Its data is a few hundred
KiB, and it runs twice and times only the second pass, so that it meets
warm caches whatever the measured code evicted: a change to apgame cannot
move the probe (a numpy upgrade can).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05  # wall time between probes while a call is measured
WINDOW = 5  # probes whose median gives the speed of one stretch
# About the probe's median duration on an uncontended 2-vCPU Intel Xeon (the
# machine the benchmark was written on), so that reference seconds read
# close to wall seconds there.
REFERENCE_PROBE_S = 4.5e-4

_INDEX = np.arange(64) % 8
_ONES = np.ones(64)
_VALUES = list(range(0, 6000, 3))
_MEMBERS = set(range(0, 20000, 7))
_TABLE: dict[int, int] = {}


def _probe_work() -> int:
    x = 0
    for i in range(1500):
        x += i * i
    for _ in range(40):
        acc = np.zeros(8)
        np.add.at(acc, _INDEX, _ONES)
        np.nonzero(_ONES > 0.5)
    seen = set()
    for v in _VALUES:
        if v in _MEMBERS:
            x += 1
        seen.add(v & 1023)
        _TABLE[v & 255] = v
    return x


def probe() -> float:
    """Run the fixed probe; returns the duration of its timed pass in seconds."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def reference_seconds(raw_s: float, probes: list[float]) -> float:
    """``raw_s`` seconds at the speed the probes show, in reference seconds."""
    return raw_s * REFERENCE_PROBE_S / statistics.median(probes)


class SpeedSampler:
    """Context manager that runs the probe every ``INTERVAL_S`` through SIGALRM.

    Each stretch of measured time between two probes is converted at the
    median of the ``WINDOW`` probes centred on the one that ends it, which
    follows the speed as it changes during a call without trusting one probe.
    After the block, ``raw_s`` is its wall time less the time spent in
    probes, and ``ref_s`` is that time in reference seconds. Signal handlers
    run between bytecodes, so a probe never interrupts native code and the
    measured code's results do not change.
    """

    def __enter__(self) -> "SpeedSampler":
        self.stretches: list[float] = []
        self.probes: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum: int, frame: object) -> None:
        self.stretches.append(time.perf_counter() - self._mark)
        self.probes.append(probe())
        self._mark = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick(signal.SIGALRM, None)  # ends the last stretch
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = sum(self.stretches)
        half = WINDOW // 2
        self.ref_s = sum(
            reference_seconds(stretch, self.probes[max(0, i - half):i + half + 1])
            for i, stretch in enumerate(self.stretches)
        )
