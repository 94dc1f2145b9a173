"""The pinned outputs of seeded runs, held to one table, ``PINS``.

Each pin compares an output that must stay byte-identical across refactors with the
table's value; two also hold a memory peak to a bound. Every pin runs, even after a
failure, and prints what it observed, as the table holds it, and its seconds; the script
exits 1 if any failed. Run from the repository root: PYTHONPATH=src python3 tests/pins.py
"""

import functools
import hashlib
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from collections import namedtuple
from pathlib import Path
from typing import Any

import numpy as np

from apgame import harness
from apgame.baselines import random_allocation
from apgame.knowledge import KnowledgeBase, discovery_ticks
from apgame.schedulers import run_dynamics

APGAME = (sys.executable, "-m", "apgame.cli")  # no installed console script needed

# An exec keeps the exec'ing process's peak resident set as the new program's, so a small
# interpreter starts each command and reads os.wait4 on its pid: its peak, its worker's included.
SPAWN = ("import os, sys; pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ); "
         "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss, flush=True); "
         "sys.exit(os.waitstatus_to_exitcode(status))")

# compute() must return expected; with a bound it returns (value, peak_mb), peak_mb <= bound_mb
Pin = namedtuple("Pin", "name why compute expected bound_mb", defaults=[None])


def run(*command: str) -> tuple[str, float]:
    """The stdout of ``command``, which must exit 0, and its peak resident set in MB."""
    done = subprocess.run([sys.executable, "-c", SPAWN, *command],
                          stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n{done.stdout}")
    *out, peak_kb = done.stdout.splitlines(keepends=True)
    return "".join(out), int(peak_kb) / 1024


def cli(args: str) -> str:
    """The stdout of ``apgame ARGS``, run as ``python -m apgame.cli``."""
    return run(*APGAME, *args.split())[0]


def metrics(args: str) -> tuple[str, float]:
    """sha256 of the ``metrics.csv`` that ``apgame ARGS --out <dir>`` writes, and its peak."""
    with tempfile.TemporaryDirectory() as out:
        peak_mb = run(*APGAME, *args.split(), "--out", out)[1]
        return hashlib.sha256(Path(out, "metrics.csv").read_bytes()).hexdigest(), peak_mb


def perfbench(workload: str, *names: str, one_cpu: bool = False) -> dict[str, Any]:
    """``perfbench/run.py --workload W --seconds 1`` (under ``taskset -c 0``): its digest,
    or with ``names``, traced: ``correct`` from its closing line, and the named counts."""
    out = run(*["taskset", "-c", "0"] * one_cpu, sys.executable, "perfbench/run.py",
              "--workload", workload, "--seconds", "1", *["--trace", "1"] * bool(names))[0]
    lines = dict(line.split(None, 1) for line in out.splitlines() if " " in line)
    if not names:
        return {"digest": lines["digest"].split()[0].removeprefix("sha256:")}
    lines["correct"] = json.loads(out.splitlines()[-1])["correct"]
    return {name: lines[name] if name == "correct" else int(lines[name]) for name in names}


def digest(result: Any, state: Any) -> str:
    """sha256 of a ``run_dynamics`` result's repr and of the state it left."""
    return hashlib.sha256(repr(result).encode() + state.channels.tobytes()
                          + state.powers.tobytes()).hexdigest()


def seeded(n: int, enforce: bool) -> str:
    """Seed 1, ``random_allocation`` with ``default_rng(5)``, then 3 synchronous rounds with
    full knowledge, or 5 enforced rounds with the knowledge of 30 ticks (complete at 305 APs)."""
    network, kb, discovery, _ = harness._setup(harness.ScenarioConfig(num_aps=n, seed=1))
    if enforce and n == 305:
        kb = KnowledgeBase.complete(network.topology)
    elif enforce:
        for _ in discovery_ticks(discovery, kb, network.topology, 30):
            pass
    state = random_allocation(network, np.random.default_rng(5))
    if enforce:
        result = run_dynamics(network, state, 5, knowledge=kb, enforce_sufficiency=True)
    else:
        result = run_dynamics(network, state, 3, knowledge=KnowledgeBase.full(n),
                              synchronous=True, record_potential=n == 200)
    return digest(result, state)


def setup_3000() -> tuple[str, bool]:
    """The set-up matrices' digest; whether from_topology gives the Network's candidates."""
    network, sha = harness._setup(harness.ScenarioConfig(num_aps=3000, seed=1))[0], hashlib.sha256()
    for matrix in (network.gains_true, network.gains_est, network.candidates):
        sha.update(matrix.tobytes())
    candidates = KnowledgeBase.from_topology(network.topology).candidates
    return sha.hexdigest(), candidates.tobytes() == network.candidates.tobytes()


def selfish_3000() -> tuple[tuple[int, int, bool, str], float]:
    """50 rounds without knowledge: rounds, moves, cycle and digest, and the tracemalloc
    peak of ``run_dynamics`` alone in MB."""
    network = harness._setup(harness.ScenarioConfig(num_aps=3000, seed=1))[0]
    state = random_allocation(network, np.random.default_rng(5))
    tracemalloc.start()
    result = run_dynamics(network, state, 50, knowledge=None)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return (result.iterations, len(result.trace), result.cycle_detected,
            digest(result, state)), peak_mb


VERIFY = ("[PASS] exact-potential max_violation={}\n[PASS] ordinal-improvement violations=0\n"
          "[PASS] converged-profile NE failures=0\n")
RESPONSES, MOVES = "game.response_calls", "schedulers.moves"
TICKS, CHECKS = "knowledge.tick_calls", "knowledge.complete_calls"
DIGESTS = {"paper-305": "ee385e80406fbdd9b7dd7903d752355f2ab9963f3dc7da0eb412fcde41933a1d",
           "dense-churn": "90a480ad761a4a5a59800a5892ad1475bf159ae57ef970ceabac5d00e86beb83",
           "scale-1000": "125177cb778ce873213994bae0ddf358ab7bd7263309f341e6870d38d1c1d61b",
           "discovery-sweep": "24a4fc17def7c63b6abccc953a169636bcaecce2681b58caa72ea9b6bda38a1d"}
TRACED = {"paper-305": {"correct": True, RESPONSES: 15860, MOVES: 518, TICKS: 200, CHECKS: 21},
          "dense-churn": {"correct": True, RESPONSES: 40000, MOVES: 6829},
          "scale-1000": {"correct": True, RESPONSES: 22000, MOVES: 2276},
          "discovery-sweep": {"correct": True, TICKS: 1674}}
SYNCHRONOUS = {1000: "c7a16467296c8f76dbdd35416e5db95f1fab081a9eb584c2ff4a3c00f3504061",
               200: "366317b2f6cfcda95cb445eb525d72cac37f8b1b8339bd8349a9d698407ee6de"}
ENFORCED = {305: "3e349340e98eb4b8c4dc227ed2406446911e9f2f057d71743efb3860f0a3e5a9",
            1000: "418980a269aaae9a8843197ce2e6cb3c74a825c38863e52c3621b19c2430ae90"}
UNBENCHED = "no benchmark workload runs it: "
PINS = [
    *(Pin(f"verify --seed {seed}", "each seed runs record_potential on other instances",
          functools.partial(cli, f"verify --seed {seed}"), VERIFY.format(worst))
      for seed, worst in ((1, "5.33e-15"), (2, "1.33e-15"), (3, "2.22e-16"))),
    *(Pin(f"synchronous, {n:,} APs", UNBENCHED + "each mover responds to the profile before "
          "the activation, and writes to a copy", functools.partial(seeded, n, False), pinned)
      for n, pinned in SYNCHRONOUS.items()),
    *(Pin(f"enforced, {n:,} APs", UNBENCHED + "each mover's known row joins its nearest cover "
          "set at the current profile", functools.partial(seeded, n, True), pinned)
      for n, pinned in ENFORCED.items()),
    Pin("3,000-AP set-up", "the blocks of model.BLOCK rows end in a partial one; gains_est is "
        "built on this read, and from_topology iterates the same candidate pass without gains",
        setup_3000, ("bad2fda5a3f8bc696e09041fecb388acf3f9c093a90ffd4a292ea85c575525dd", True)),
    Pin("3,000-AP selfish run", "the state repeats at a round end, and the revisit check keeps "
        "one key per round, not per move", selfish_3000,
        (50, 8828, True, "4983c1e8cf22caa0a83d405e23801fa9589487c51e1eb66c684055f6c226b278"), 8),
    *(Pin(f"perfbench {w}", "the benchmark's outputs", functools.partial(perfbench, w),
          {"digest": pinned}) for w, pinned in DIGESTS.items()),
    *(Pin(f"perfbench {w} traced", "each traced function is found, and every activation, tick "
          "and completion check passes its wrapper", functools.partial(perfbench, w, *pinned),
          pinned) for w, pinned in TRACED.items()),
    Pin("perfbench dense-churn on one CPU", "the digest does not depend on how the worker and "
        "its parent are scheduled", functools.partial(perfbench, "dense-churn", one_cpu=True),
        {"digest": "90a480ad761a4a5a59800a5892ad1475bf159ae57ef970ceabac5d00e86beb83"}),
    Pin("README domino", "the README's example", lambda: metrics(
        "domino --seed 7 --num-aps 100 --duration 300 --num-inserted 10 --insert-time 150")[0],
        "aa9abecd4d0b04b9fdeaef327f605d963db8187086cb1286ea741a865350830b"),
    Pin("1,100-AP domino", UNBENCHED + "100 APs switch on at 30 s, so until then discovery, best "
        "response and the completion check take an active count of 1,000", lambda: metrics(
            "domino --seed 3 --num-aps 1000 --num-inserted 100 --duration 60 --insert-time 30")[0],
        "a04d094c01d3294a537c35b716a490923c69b95458e310b8ac35e4868b30c70c"),
    Pin("1,000-AP sweep", "three times the largest size of the benchmark's sweep",
        functools.partial(cli, "sweep --seed 2 --sizes 1000 --repeats 2"),
        "num_aps=1000 mean_completion_ticks=954.5\n"),
    Pin("capped sweep", UNBENCHED + "2 of 3 repeats (1,168 and 602 ticks) stop at the cap, 601, "
        "inside a block of discovery_ticks", functools.partial(
            cli, "sweep --seed 2 --sizes 300 --repeats 3 --max-ticks 600"),
        "num_aps=300 mean_completion_ticks=569.333333333\n"),
    Pin("multi-sample sweep", UNBENCHED + "3 probes per AP and tick chain through the bit rows",
        functools.partial(cli, "sweep --seed 2 --sizes 300,1000 --repeats 2 --samples-per-tick 3"),
        "num_aps=300 mean_completion_ticks=208.5\nnum_aps=1000 mean_completion_ticks=553.5\n"),
    Pin("3,000-AP run", "set-up holds one 3,000 x 3,000 float matrix (72 MB), and the run reads "
        "estimated gains for known pairs only: 124 to 131 MB on a 2-vCPU box, 195 with a second",
        functools.partial(metrics, "run --num-aps 3000 --duration 10 --seed 1"),
        "af90e28372aa40046b1f228d09c354dce7fabee9e3cb129809ee47fbcd70739e", 165),
]


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    failed, start = [], time.perf_counter()
    for pin in PINS:
        t, peak, error = time.perf_counter(), "", ""
        try:
            observed = pin.compute()
            if pin.bound_mb is not None:
                observed, peak_mb = observed
                peak = f", peak {peak_mb:.1f} MB (bound {pin.bound_mb} MB)"
            ok = observed == pin.expected and (pin.bound_mb is None or peak_mb <= pin.bound_mb)
        except Exception:  # a pin that raises fails alone, and the others still run
            observed, ok, error = "raised", False, "\n" + traceback.format_exc()
        print(f"{'PASS' if ok else 'FAIL'} {pin.name}: {observed!r}{peak} "
              f"in {time.perf_counter() - t:.1f} s{error}")
        if not ok:
            print(f"     expected {pin.expected!r}; {pin.why}")
            failed.append(pin.name)
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins passed in "
          f"{time.perf_counter() - start:.1f} s; failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
