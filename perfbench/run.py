"""Benchmark of the apgame command line interface.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: one ``apgame.cli.main`` call at a time, each
in a fresh interpreter (perfbench/child.py), so no in-process memo or warm
cache carries over between repetitions. Repetitions continue while the next
one is expected to finish within ``--seconds``. Every repetition's outputs
are checked, and their digest must be identical across repetitions.

Times are in reference seconds: wall seconds corrected for the machine's
current speed by a fixed probe (perfbench/speed.py); raw seconds are printed
beside them. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the run ends with one traced repetition
and the metrics are the per-layer ones. Readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 6  # import-only interpreters per run, for setup_s
HARD_LIMIT_S = 165.0  # every child is stopped by then, so a run ends within 180 s
TRACED_COST = 1.5  # room kept for the traced repetition, in untraced repetitions
ALLOCATION_PERIOD = 10  # the CLI's default reporting period, in seconds

RUN_COLUMNS = [
    "time", "satisfied_game", "satisfied_selfish", "satisfied_random",
    "satisfied_bound", "rounds_game", "rounds_selfish",
    "missing_candidates", "channel_changes",
]
RUN_FILES = ["fig_changes.csv", "fig_discovery.csv", "fig_iterations.csv",
             "fig_satisfied.csv", "metrics.csv"]


@dataclass(frozen=True)
class Workload:
    command: str  # run | sweep
    seed: int  # apgame --seed: the scenario, fixed (see perfbench/README.md)
    args: tuple[str, ...]
    num_aps: int = 0  # run: APs in the scenario
    duration: int = 0  # run: simulated seconds
    sizes: tuple[int, ...] = ()  # sweep
    repeats: int = 0  # sweep
    max_ticks: int = 0  # sweep

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, *self.args, "--seed", str(self.seed)]
        return argv + ["--out", str(out_dir)] if self.command == "run" else argv


def _run(seed: int, num_aps: int, duration: int, *extra: str) -> Workload:
    args = ("--num-aps", str(num_aps), *extra, "--duration", str(duration))
    return Workload("run", seed, args, num_aps=num_aps, duration=duration)


def _sweep(seed: int, sizes: tuple[int, ...], repeats: int, max_ticks: int) -> Workload:
    args = ("--sizes", ",".join(map(str, sizes)), "--repeats", str(repeats),
            "--max-ticks", str(max_ticks))
    return Workload("sweep", seed, args, sizes=sizes, repeats=repeats, max_ticks=max_ticks)


# Why each workload is here, and what it stresses, is in perfbench/README.md.
WORKLOADS = {
    "paper-305": _run(1, 305, 200),
    "dense-churn": _run(1, 200, 30, "--num-channels", "3", "--clustered", "true"),
    "scale-1000": _run(1, 1000, 10),
    "discovery-sweep": _sweep(2, (50, 150, 300), 3, 10000),
}


@dataclass
class Outcome:
    """What one workload repetition produced and whether it passed its checks."""

    failures: list[str]
    digest: str = ""
    quality: dict[str, float] | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(mode: str, argv: list[str], work: Path, deadline: float) -> tuple[dict | None, str]:
    """Launch child.py once; returns its record or a failure."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    with open(work / "stdout.txt", "wb") as out:
        launched = time.perf_counter()
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), repr(launched), mode, *argv]
        try:
            proc = subprocess.run(cmd, stdout=out, env=child_env(),
                                  timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            return None, f"{mode} child stopped after the {HARD_LIMIT_S:g} s limit"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"{mode} child exited with code {proc.returncode}"
    return json.loads(result_path.read_text()), ""


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def check_run(w: Workload, work: Path) -> Outcome:
    """Checks on a run's CSV outputs, plus its quality metrics."""
    out_dir = work / "out"
    missing = [name for name in RUN_FILES if not (out_dir / name).is_file()]
    if missing:
        return Outcome([f"missing output files: {missing}"])
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in row] for row in rows[1:]]
    failures = []
    if header != RUN_COLUMNS:
        failures.append(f"metrics.csv columns are {header}")
        return Outcome(failures)
    expected_rows = w.duration // ALLOCATION_PERIOD + 1
    if len(body) != expected_rows:
        failures.append(f"metrics.csv has {len(body)} rows, expected {expected_rows}")
    col = {name: [row[i] for row in body] for i, name in enumerate(header)}
    for name in ("satisfied_game", "satisfied_selfish", "satisfied_random", "satisfied_bound"):
        bad = [v for v in col[name] if v != int(v) or not 0 <= v <= w.num_aps]
        if bad:
            failures.append(f"{name} has values outside the integers 0..{w.num_aps}: {bad[:3]}")
    if len(set(col["satisfied_bound"])) > 1:
        failures.append("satisfied_bound changes over time")
    missing_cands = col["missing_candidates"]
    if any(b > a for a, b in zip(missing_cands, missing_cands[1:])):
        failures.append("missing_candidates increases")
    quality = {
        name: statistics.fmean(col[column]) / w.num_aps
        for name, column in (("satisfied_frac_game", "satisfied_game"),
                             ("satisfied_frac_selfish", "satisfied_selfish"),
                             ("bound_admitted_frac", "satisfied_bound"))
    }
    return Outcome(failures, digest_files([out_dir / n for n in RUN_FILES]), quality)


def check_sweep(w: Workload, work: Path) -> Outcome:
    """Checks on a sweep's stdout: one line per size, every size complete."""
    stdout = work / "stdout.txt"
    lines = stdout.read_text().splitlines()
    failures = []
    ticks = {}
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split())
        ticks[int(fields["num_aps"])] = float(fields["mean_completion_ticks"])
    if sorted(ticks) != sorted(w.sizes) or len(lines) != len(w.sizes):
        failures.append(f"sweep printed sizes {sorted(ticks)}, expected {list(w.sizes)}")
        return Outcome(failures)
    for n, mean in ticks.items():
        # A repeat that hit --max-ticks stops at max_ticks + 1, so a sum of
        # completion ticks up to max_ticks proves that every repeat completed.
        if mean * w.repeats > w.max_ticks:
            failures.append(f"size {n} may not have completed before --max-ticks")
    quality = {"completion_ticks": ticks[max(w.sizes)]}
    return Outcome(failures, digest_files([stdout]), quality)


def check_repetition(w: Workload, record: dict | None, error: str, work: Path) -> Outcome:
    if record is None:
        return Outcome([error])
    if record["exit_code"] != 0:
        return Outcome([f"apgame exited with code {record['exit_code']}"])
    try:
        outcome = check_run(w, work) if w.command == "run" else check_sweep(w, work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome([f"unreadable output: {exc!r}"])
    outcome.failures += record.get("trace_failures", [])
    return outcome


def environment(numpy_version: str) -> str:
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"git={sha} python={platform.python_version()} numpy={numpy_version} "
            f"nproc={os.cpu_count()} cpu={cpu!r} loadavg={load}")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    w = WORKLOADS[name]
    start = time.perf_counter()
    soft_deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    failures: list[str] = []
    run_dir = OUT_ROOT / f"{name}-{os.getpid()}"

    # An untimed import first compiles bytecode and warms the file cache,
    # which an installed CLI does not pay on every call.
    warm, error = run_child("setup", [], run_dir / "warm", hard_deadline)
    if warm is None:
        print(f"error: apgame.cli does not import: {error}", file=sys.stderr)
        return 1
    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# env {environment(warm['numpy'])}")
    print(f"# command: apgame {' '.join(w.argv(Path('<tmp>')))}")

    setups: list[dict] = []  # every child's record carries one set-up sample
    for i in range(SETUP_SAMPLES):
        record, error = run_child("setup", [], run_dir / f"setup{i}", hard_deadline)
        if record is None:
            failures.append(error)
        else:
            setups.append(record)

    # An untraced run starts with one repetition without the speed probe, for
    # peak memory; the probed ones give wall_s.
    memory: dict | None = None
    plain: list[dict] = []
    outcomes: list[Outcome] = []
    rep_seconds: list[float] = []
    traced: dict | None = None
    while True:
        now = time.perf_counter()
        expected = statistics.median(rep_seconds) if rep_seconds else 0.0
        room = expected * (1 + TRACED_COST if trace else 1)
        final = bool(plain) and (now + room > soft_deadline or now > hard_deadline)
        if final and not trace:
            break
        mode = "trace" if final else "memory" if not (trace or outcomes) else "plain"
        work = run_dir / f"rep{len(outcomes)}"
        record, error = run_child(mode, w.argv(work / "out"), work, hard_deadline)
        rep_seconds.append(time.perf_counter() - now)
        outcome = check_repetition(w, record, error, work)
        outcomes.append(outcome)
        shutil.rmtree(work, ignore_errors=True)
        if record is not None:
            setups.append(record)
        if mode == "trace":
            traced = record
            break
        if record is not None and not outcome.failures:
            if mode == "memory":
                memory = record
            else:
                plain.append(record)
        elif not plain:
            break  # the first repetition failed: report it rather than retry

    failed = sum(1 for o in outcomes if o.failures)
    digests = {o.digest for o in outcomes if not o.failures}
    for i, o in enumerate(outcomes):
        failures += [f"repetition {i}: {f}" for f in o.failures]
    if len(digests) > 1:
        failures.append(f"outputs differ between repetitions: {sorted(digests)}")
    if trace and traced is None:
        failures.append("the traced repetition did not run")

    metrics: dict[str, float] = {}
    if plain and memory is not None and not trace:
        # Times are in reference seconds (see speed.py); raw seconds are shown beside them.
        for key, raw_key, records in (("wall_s", "wall_raw_s", plain),
                                      ("setup_s", "setup_raw_s", setups)):
            values = [r[key] for r in records]
            raw = [r[raw_key] for r in records]
            metrics[key] = statistics.median(values)
            print(f"{key:13s} {metrics[key]:.4f} s  ({spread(values)}); "
                  f"raw seconds: median {statistics.median(raw):.4f} ({spread(raw)})")
        metrics["peak_rss_mb"] = memory["peak_rss_mb"]
        print(f"peak_rss_mb   {metrics['peak_rss_mb']:.2f} MB  (the repetition without the probe)")
    elif plain and traced is not None and "per_layer" in traced:
        metrics = dict(traced["per_layer"])
        untraced = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_frac"] = (traced["wall_s"] - untraced) / untraced
        for key, value in metrics.items():
            print(f"{key:36s} {value:.6g}")
    print(f"failed_frac   {failed / max(1, len(outcomes)):.4g} ratio  ({failed} of {len(outcomes)})")
    quality = next((o.quality for o in outcomes if o.quality), {})
    for key, value in quality.items():
        unit = "ticks" if key == "completion_ticks" else "ratio"
        print(f"{key:22s} {value:.4f} {unit}")
    print(f"digest sha256:{'/'.join(sorted(digests)) or 'none'} "
          f"(repetitions: {len(outcomes)}{', traced included' if traced else ''})")
    for failure in failures:
        print(f"FAILED {failure}")

    correct = not failures and bool(metrics)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: each workload's scenario seed is fixed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apgame" / "cli.py").is_file():
        print(f"error: no apgame sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        return measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    finally:
        shutil.rmtree(OUT_ROOT / f"{args.workload}-{os.getpid()}", ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
