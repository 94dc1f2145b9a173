"""Command line interface: experiments, domino runs, verification, sweeps.

Exit codes: 0 success, 1 invalid config, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import game
from .baselines import random_allocation
from .harness import (
    ScenarioConfig,
    domino_experiment,
    export_results,
    generate_topology,
    run_experiment,
)
from .knowledge import DiscoveryState, KnowledgeBase, discovery_complete, discovery_tick
from .schedulers import BEST_RESPONSE, ROUND_ROBIN, run_dynamics

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


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


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    series = run_experiment(cfg)
    written = export_results(series, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_domino(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    series = domino_experiment(cfg, args.num_inserted, args.insert_time)
    written = export_results(series, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for n in sizes:
        times = []
        for rep in range(args.repeats):
            rng = np.random.default_rng((cfg.seed, n, rep))
            topology, _ = generate_topology(cfg, rng, num_aps=n)
            kb = KnowledgeBase.from_topology(topology)
            dstate = DiscoveryState(rng=rng, samples_per_tick=cfg.samples_per_tick)
            while not discovery_complete(kb, topology)[0]:
                discovery_tick(dstate, kb, topology)
                if dstate.tick > args.max_ticks:
                    break
            times.append(dstate.tick)
        mean_time = sum(times) / len(times)
        rows.append((n, mean_time))
        print(f"num_aps={n} mean_completion_ticks={mean_time:.12g}")
    if args.out:
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            lines = ["num_aps,mean_completion_ticks"]
            lines += [f"{n},{format(m, '.12g')}" for n, m in rows]
            Path(args.out).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise OSError(f"failed to write {args.out}: {exc}") from exc
    return EXIT_OK


def _verify_exactness(seed: int) -> tuple[bool, str]:
    ok = True
    worst = 0.0
    for rep in range(10):
        rng = np.random.default_rng((seed, rep))
        cfg = ScenarioConfig(num_aps=8, num_channels=3, area_width=200.0, area_height=200.0,
                             coverage_radius_min=10.0, coverage_radius_max=10.0, seed=seed)
        topology, model = generate_topology(cfg, rng)
        report = game.verify_exact_potential(
            topology, model, trials=200, tol=1e-9, rng=rng
        )
        worst = max(worst, report.max_violation)
        ok = ok and report.passed
    return ok, f"exact-potential max_violation={worst:.3g}"


def _verify_ordinal(seed: int) -> tuple[bool, str]:
    violations = 0
    for rep in range(10):
        rng = np.random.default_rng((seed, 1000 + rep))
        cfg = ScenarioConfig(num_aps=20, num_channels=3, area_width=300.0,
                             area_height=300.0, shadow_std_db=0.0, seed=seed)
        topology, model = generate_topology(cfg, rng)
        state = random_allocation(topology, model, rng)
        result = run_dynamics(
            topology, state, model, ROUND_ROBIN, BEST_RESPONSE, 50, rng,
            enforce_sufficiency=True,
            record_potential=game.FLAVOR_EXACT_FULL,
        )
        report = game.verify_ordinal_improvement(result.trace)
        violations += len(report.violations())
    return violations == 0, f"ordinal-improvement violations={violations}"


def _verify_nash(seed: int) -> tuple[bool, str]:
    failures = 0
    for rep in range(20):
        rng = np.random.default_rng((seed, 2000 + rep))
        cfg = ScenarioConfig(num_aps=5, num_channels=3, area_width=150.0,
                             area_height=150.0, seed=seed)
        topology, model = generate_topology(cfg, rng)
        state = random_allocation(topology, model, rng)
        result = run_dynamics(topology, state, model, ROUND_ROBIN,
                              BEST_RESPONSE, 100, rng)
        if result.converged and not game.is_nash_equilibrium(topology, state, model):
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
    p_run.set_defaults(func=_cmd_run)

    p_dom = sub.add_parser("domino", help="AP-insertion domino experiment")
    _add_config_flags(p_dom)
    p_dom.add_argument("--out", type=str, required=True)
    p_dom.add_argument("--num-inserted", type=int, default=10)
    p_dom.add_argument("--insert-time", type=float, default=230.0)
    p_dom.set_defaults(func=_cmd_domino)

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
