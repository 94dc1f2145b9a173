"""Command line interface: experiments, domino runs, verification, sweeps.

Exit codes: 0 success, 1 invalid config, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import game
from .baselines import random_allocation
from .harness import (
    MAX_DURATION,
    MetricsSeries,
    ScenarioConfig,
    _forked,
    check_count,
    discovery_completion_ticks,
    domino_experiment,
    export_results,
    generate_topology,
    run_experiment,
)
from .knowledge import KnowledgeBase
from .model import Network
from .schedulers import is_nash_equilibrium, run_dynamics

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3
MAX_REPEATS = 10_000  # each sweep repetition builds a topology and runs discovery


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # invalid flags count as invalid config
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file overriding defaults")
    for f in fields(ScenarioConfig):
        if f.name == "seed":
            continue
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=str, default=None)
    parser.add_argument("--seed", type=int, required=True)


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        cfg = ScenarioConfig.from_file(args.config)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(ScenarioConfig)
        if f.name != "seed" and getattr(args, f.name, None) is not None
    }
    cfg.apply(overrides)
    cfg.seed = args.seed
    cfg.validate()
    return cfg


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``run`` or ``domino``: one experiment, then its CSV files."""
    cfg = _build_config(args)
    if args.command == "run":
        series = run_experiment(cfg)
    else:
        insert_time = cfg.duration / 2 if args.insert_time is None else args.insert_time
        series = domino_experiment(cfg, args.num_inserted, insert_time)
    for path in export_results(series, args.out):
        print(path)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes must be positive, got {args.sizes}")
    check_count("each --sizes value", max(sizes), "num_aps")
    if not 1 <= args.repeats <= MAX_REPEATS:
        raise ValueError(f"--repeats must be in [1, {MAX_REPEATS}], got {args.repeats}")
    if not 0 <= args.max_ticks <= MAX_DURATION:
        raise ValueError(f"--max-ticks must be in [0, {MAX_DURATION:.0f}], got {args.max_ticks}")
    # every (size, repetition) is seeded on its own: this process and a forked worker
    # take them largest first, each to the side with less work so far (size squared)
    pairs = [(n, rep) for n in sizes for rep in range(args.repeats)]
    shares, work = ([], []), [0, 0]
    for x in sorted(range(len(pairs)), key=lambda x: -pairs[x][0]):
        side = work.index(min(work))
        shares[side].append(x)
        work[side] += pairs[x][0] ** 2

    def ticks(share: list[int]) -> list[int]:
        return [discovery_completion_ticks(cfg, *pairs[x], args.max_ticks) for x in share]

    with _forked(ticks, shares[1]) as worker_ticks:
        by_pair = dict(zip(shares[0] + shares[1], ticks(shares[0]) + worker_ticks()))
    rows = []
    for i, n in enumerate(sizes):
        times = [by_pair[x] for x in range(i * args.repeats, (i + 1) * args.repeats)]
        mean_time = sum(times) / len(times)
        rows.append([n, mean_time])
        print(f"num_aps={n} mean_completion_ticks={mean_time:.12g}")
        capped = sum(t > args.max_ticks for t in times)
        if capped:
            print(f"warning: num_aps={n}: {capped} of {len(times)} repetitions did not "
                  f"complete discovery within {args.max_ticks} ticks; the mean counts "
                  f"each as {args.max_ticks + 1}", file=sys.stderr)
    if args.out:
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            table = MetricsSeries(["num_aps", "mean_completion_ticks"], rows)
            Path(args.out).write_text(table.to_csv_text())
        except OSError as exc:
            raise OSError(f"failed to write {args.out}: {exc}") from exc
    return EXIT_OK


def _instances(
    seed: int, first_stream: int, count: int, **scenario: float
) -> Iterator[tuple[np.random.Generator, Network]]:
    """``count`` seeded verification instances: each stream's rng and its network."""
    for rep in range(count):
        rng = np.random.default_rng((seed, first_stream + rep))
        cfg = ScenarioConfig(seed=seed, **scenario)
        yield rng, Network(*generate_topology(cfg, rng))


def _verify_exactness(seed: int) -> tuple[bool, str]:
    ok = True
    worst = 0.0
    for rng, network in _instances(seed, 0, 10, num_aps=8, num_channels=3, area_width=200.0,
                                   area_height=200.0, coverage_radius_min=10.0,
                                   coverage_radius_max=10.0):
        report = game.verify_exact_potential(network, trials=200, tol=1e-9, rng=rng)
        worst = max(worst, report.max_violation)
        ok = ok and report.passed
    return ok, f"exact-potential max_violation={worst:.3g}"


def _verify_ordinal(seed: int) -> tuple[bool, str]:
    violations = 0
    for rng, network in _instances(seed, 1000, 10, num_aps=20, num_channels=3,
                                   area_width=300.0, area_height=300.0, shadow_std_db=0.0):
        state = random_allocation(network, rng)
        result = run_dynamics(network, state, 50,
                              knowledge=KnowledgeBase.full(len(network.topology)),
                              record_potential=True)
        report = game.verify_ordinal_improvement(result.trace)
        violations += len(report.violations())
    return violations == 0, f"ordinal-improvement violations={violations}"


def _verify_nash(seed: int) -> tuple[bool, str]:
    failures = 0
    for rng, network in _instances(seed, 2000, 20, num_aps=5, num_channels=3,
                                   area_width=150.0, area_height=150.0):
        state = random_allocation(network, rng)
        result = run_dynamics(network, state, 100,
                              knowledge=KnowledgeBase.full(len(network.topology)))
        if result.converged and not is_nash_equilibrium(network, state):
            failures += 1
    return failures == 0, f"converged-profile NE failures={failures}"


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = [_verify_exactness, _verify_ordinal, _verify_nash]
    all_ok = True
    for check in checks:
        ok, text = check(args.seed)
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="discovery-coupled allocation experiment")
    _add_config_flags(p_run)
    p_run.add_argument("--out", type=str, required=True, help="output directory")
    p_run.set_defaults(func=_cmd_experiment)

    p_dom = sub.add_parser("domino", help="AP-insertion domino experiment")
    _add_config_flags(p_dom)
    p_dom.add_argument("--out", type=str, required=True)
    p_dom.add_argument("--num-inserted", type=int, default=10)
    p_dom.add_argument("--insert-time", type=float, default=None,
                       help="seconds into the run (default: half the duration)")
    p_dom.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="potential and equilibrium property suites")
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="discovery completion time vs density")
    _add_config_flags(p_sw)
    p_sw.add_argument("--sizes", type=str, default="50,150,300")
    p_sw.add_argument("--repeats", type=int, default=5)
    p_sw.add_argument("--max-ticks", type=int, default=10000)
    p_sw.add_argument("--out", type=str, default=None)
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
