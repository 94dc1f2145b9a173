"""Where the traced run wraps apgame, and the per-layer metrics it derives.

Most calls between apgame modules go through names bound by ``from ...
import``, so each target function is wrapped at every apgame module
attribute bound to it, not only where it is defined. ``game.best_response``
and ``game.selfish_response`` are looked up on the ``game`` module and
``KnowledgeBase.from_topology`` on its class, which the same rule covers.
Counts that only a return value or an argument exposes are read there:
rounds, moves and convergence from ``RunResult``, probes from the tick's
arguments, exchanges from ``DiscoveryState.exchange_log``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from apgame import baselines, cli, game, harness, knowledge, model, schedulers

from tracer import SpanStats, Tracer, is_wrapper

# (defining module, attribute, span name); the layer is the part before the dot.
TARGETS = (
    (cli, "main", "cli.main"),
    (harness, "run_experiment", "harness.experiment"),
    (harness, "domino_experiment", "harness.experiment"),
    (harness, "generate_topology", "harness.topology"),
    (harness, "export_results", "harness.export"),
    (schedulers, "run_dynamics", "schedulers.dynamics"),
    (game, "best_response", "game.response"),
    (game, "selfish_response", "game.response"),
    (model, "true_gain_matrix", "model.gain_matrix"),
    (model, "estimated_gain_matrix", "model.gain_matrix"),
    (model, "satisfied_mask", "model.satisfied_mask"),
    (knowledge, "discovery_tick", "knowledge.tick"),
    (knowledge, "discovery_complete", "knowledge.complete"),
    (baselines, "greedy_admission_bound", "baselines.greedy"),
    (baselines, "random_allocation", "baselines.random_allocation"),
)
CLASS_TARGETS = ((knowledge.KnowledgeBase, "from_topology", "knowledge.from_topology"),)

# Largest gap allowed between the summed self times and the root span; only
# floating-point rounding separates them.
PARTITION_TOLERANCE_S = 1e-6


def apgame_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "apgame" or name.startswith("apgame."))]


def leftover_wrappers() -> list[str]:
    """Every apgame module or class attribute that is still a tracer wrapper."""
    owners: list[Any] = apgame_modules() + [owner for owner, _, _ in CLASS_TARGETS]
    return [f"{getattr(o, '__name__', o)}.{attr}"
            for o in owners for attr, value in vars(o).items() if is_wrapper(value)]


@dataclass
class Counters:
    dynamics_rounds: int = 0
    dynamics_moves: int = 0
    dynamics_converged: int = 0
    dynamics_cycles: int = 0
    discovery_probes: int = 0
    aps_ticked: int = 0
    discovery_states: dict[int, Any] = field(default_factory=dict)
    bound_calls: list[tuple[tuple, dict, Any]] = field(default_factory=list)

    def after_dynamics(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.dynamics_rounds += result.iterations
        self.dynamics_moves += len(result.trace)
        self.dynamics_converged += bool(result.converged)
        self.dynamics_cycles += bool(result.cycle_detected)

    def after_tick(self, args: tuple, kwargs: dict, result: Any) -> None:
        # discovery_tick(dstate, knowledge, topology, active=None): every
        # active AP probes samples_per_tick peers when there are two or more.
        dstate, topology = args[0], args[2]
        active = args[3] if len(args) > 3 else kwargs.get("active")
        n = len(active) if active is not None else len(topology)
        self.aps_ticked += n
        if n > 1:
            self.discovery_probes += n * dstate.samples_per_tick
        self.discovery_states[id(dstate)] = dstate

    def after_bound(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.bound_calls.append((args, kwargs, result))


class Instrumentation:
    """Installs the wrappers, removes them, and turns spans into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters = Counters()

    def install(self) -> None:
        hooks = {
            "schedulers.dynamics": self.counters.after_dynamics,
            "knowledge.tick": self.counters.after_tick,
            "baselines.greedy": self.counters.after_bound,
        }
        modules = apgame_modules()
        for home, attr, span in TARGETS:
            fn = getattr(home, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self.tracer.wrap(mod, name, span, hooks.get(span))
        for owner, attr, span in CLASS_TARGETS:
            self.tracer.wrap(owner, attr, span, hooks.get(span))

    def uninstall(self) -> list[str]:
        """Remove every wrapper; returns the names of any still in place."""
        self.tracer.unwrap_all()
        return leftover_wrappers()

    def checks(self, traced_wall_s: float) -> list[str]:
        """Failures of the traced run's own checks, run after ``uninstall``."""
        failures = []
        for args, kwargs, (state, admitted) in self.counters.bound_calls:
            topology, prop = args[0], args[1]
            mask = model.satisfied_mask(topology, state, prop,
                                        gains_true=kwargs.get("gains_true"))
            if int(mask.sum()) != admitted:
                failures.append(f"greedy bound admitted {admitted} APs but "
                                f"{int(mask.sum())} are satisfied")
        selfs = sum(self.tracer.self_by_layer().values())
        root = self.tracer.root_s
        if abs(selfs - root) > PARTITION_TOLERANCE_S or root > traced_wall_s:
            failures.append(f"layer self times {selfs!r} s do not partition the "
                            f"root span {root!r} s within the traced wall {traced_wall_s!r} s")
        return failures

    def metrics(self) -> dict[str, float]:
        stats = self.tracer.stats
        c = self.counters

        def span(name: str) -> SpanStats:
            return stats.get(name, SpanStats())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer_self = self.tracer.self_by_layer()
        activations = span("game.response").calls
        dynamics = span("schedulers.dynamics")
        exchanges = sum(len(d.exchange_log) for d in c.discovery_states.values())
        tick = span("knowledge.tick")
        return {
            "model.gain_matrix_calls": span("model.gain_matrix").calls,
            "model.gain_matrix_s": span("model.gain_matrix").total_s,
            "model.satisfied_mask_calls": span("model.satisfied_mask").calls,
            "model.satisfied_mask_s": span("model.satisfied_mask").total_s,
            "game.response_calls": activations,
            "game.response_s": span("game.response").total_s,
            "schedulers.dynamics_calls": dynamics.calls,
            "schedulers.dynamics_s": dynamics.total_s,
            "schedulers.self_s": dynamics.self_s,
            "schedulers.self_us_per_activation": 1e6 * ratio(dynamics.self_s, activations),
            "schedulers.rounds": c.dynamics_rounds,
            "schedulers.moves": c.dynamics_moves,
            "schedulers.move_ratio": ratio(c.dynamics_moves, activations),
            "schedulers.converged_frac": ratio(c.dynamics_converged, dynamics.calls),
            "schedulers.cycle_frac": ratio(c.dynamics_cycles, dynamics.calls),
            "knowledge.from_topology_s": span("knowledge.from_topology").total_s,
            "knowledge.tick_calls": tick.calls,
            "knowledge.tick_s": tick.total_s,
            "knowledge.tick_us_per_ap": 1e6 * ratio(tick.total_s, c.aps_ticked),
            "knowledge.complete_calls": span("knowledge.complete").calls,
            "knowledge.complete_s": span("knowledge.complete").total_s,
            "knowledge.probe_hit_ratio": ratio(exchanges, c.discovery_probes),
            "baselines.greedy_s": span("baselines.greedy").total_s,
            "baselines.random_allocation_calls": span("baselines.random_allocation").calls,
            "baselines.random_allocation_s": span("baselines.random_allocation").total_s,
            "harness.experiment_s": span("harness.experiment").total_s,
            "harness.self_s": layer_self.get("harness", 0.0),
            "harness.topology_s": span("harness.topology").total_s,
            "harness.export_s": span("harness.export").total_s,
            "cli.self_s": layer_self.get("cli", 0.0),
        }
