"""Scenario generation, the time-coupled discovery + allocation experiment,
metrics series and file export.

Topologies are synthetic (uniform or clustered placement); the experiment
interleaves discovery ticks with allocation passes at a fixed reporting
period, recording satisfaction counts, rounds to convergence, discovery
progress and channel churn. Everything is a pure function of the config,
seed included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import _draw_allocation, greedy_admission_bound, random_allocation
from .knowledge import DiscoveryState, KnowledgeBase, discovery_complete, discovery_tick
from .model import (
    AccessPoint,
    AllocationState,
    PropagationModel,
    satisfied_mask,
    true_gain_matrix,
)
from .schedulers import BEST_RESPONSE, ROUND_ROBIN, SELFISH, run_dynamics


@dataclass
class ScenarioConfig:
    """Evaluation parameters; defaults follow the reference setup.

    ``coverage_radius_max`` doubles as the transmit-range scale: the
    coordination radius is ``coordination_factor`` times it, network wide.
    """

    num_aps: int = 305
    area_width: float = 1000.0
    area_height: float = 1000.0
    num_channels: int = 13
    max_power: float = 0.1
    sinr_target_low: float = 1.0
    sinr_target_high: float = 6.0
    coverage_radius_min: float = 3.0
    coverage_radius_max: float = 20.0
    coordination_factor: float = 2.0
    path_loss_exponent: float = 3.0
    shadow_mean_db: float = 0.0
    shadow_std_db: float = 8.0
    noise_power: float = 1e-8
    max_iterations: int = 50
    seed: int = 0
    samples_per_tick: int = 1
    duration: float = 200.0
    allocation_period: float = 10.0
    clustered: bool = False
    num_clusters: int = 10
    cluster_std: float = 60.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config field {f.name} must be finite, got {value}")
        positive = (
            "num_aps", "area_width", "area_height", "num_channels", "max_power",
            "sinr_target_low", "sinr_target_high", "coverage_radius_min",
            "coverage_radius_max", "coordination_factor", "path_loss_exponent",
            "noise_power", "max_iterations", "samples_per_tick", "duration",
            "allocation_period", "num_clusters", "cluster_std",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.sinr_target_high < self.sinr_target_low:
            raise ValueError("sinr_target_high must be >= sinr_target_low")
        if self.coverage_radius_max < self.coverage_radius_min:
            raise ValueError("coverage_radius_max must be >= coverage_radius_min")
        if self.coverage_radius_max > min(self.area_width, self.area_height):
            raise ValueError("coverage radius exceeds the area scale")
        if self.shadow_std_db < 0:
            raise ValueError("shadow_std_db must be nonnegative")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        cfg = cls()
        cfg.apply(mapping)
        return cfg

    def apply(self, mapping: dict[str, str]) -> None:
        """Override fields from string key-value pairs (config file format)."""
        types = {f.name: f.type for f in fields(self)}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key}")
            current = getattr(self, key)
            if isinstance(current, bool):
                value: object = raw.strip().lower() in ("1", "true", "yes", "on")
            elif isinstance(current, int):
                value = int(raw)
            else:
                value = float(raw)
            setattr(self, key, value)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        mapping: dict[str, str] = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


def generate_topology(
    config: ScenarioConfig,
    rng: np.random.Generator,
    *,
    num_aps: int | None = None,
) -> tuple[list[AccessPoint], PropagationModel]:
    """Seeded synthetic topology plus one sampled shadowing realization."""
    config.validate()
    n = num_aps if num_aps is not None else config.num_aps
    if config.clustered:
        centers = rng.uniform(
            [0.0, 0.0], [config.area_width, config.area_height], size=(config.num_clusters, 2)
        )
        picks = rng.integers(config.num_clusters, size=n)
        xy = centers[picks] + rng.normal(0.0, config.cluster_std, size=(n, 2))
        xy[:, 0] = np.clip(xy[:, 0], 0.0, config.area_width)
        xy[:, 1] = np.clip(xy[:, 1], 0.0, config.area_height)
    else:
        xy = rng.uniform([0.0, 0.0], [config.area_width, config.area_height], size=(n, 2))
    beta = rng.uniform(config.sinr_target_low, config.sinr_target_high, size=n)
    radii = rng.uniform(config.coverage_radius_min, config.coverage_radius_max, size=n)
    coordination = config.coordination_factor * config.coverage_radius_max
    channels = frozenset(range(config.num_channels))
    topology = [
        AccessPoint(
            id=i,
            position=(float(xy[i, 0]), float(xy[i, 1])),
            coverage_radius=float(radii[i]),
            coordination_radius=coordination,
            sinr_target=float(beta[i]),
            max_power=config.max_power,
            channels=channels,
        )
        for i in range(n)
    ]
    model = PropagationModel.sample(
        n,
        rng,
        path_loss_exponent=config.path_loss_exponent,
        shadow_mean_db=config.shadow_mean_db,
        shadow_std_db=config.shadow_std_db,
        noise_power=config.noise_power,
    )
    return topology, model


@dataclass
class MetricsSeries:
    """Tabular per-timestamp metrics; first column is always ``time``."""

    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format(v, ".12g") for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "MetricsSeries":
        lines = [ln for ln in text.splitlines() if ln]
        columns = lines[0].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        return cls(columns=columns, rows=rows)


def _timestamps(config: ScenarioConfig) -> list[float]:
    steps = int(round(config.duration / config.allocation_period))
    return [t * config.allocation_period for t in range(steps + 1)]


def _setup(config: ScenarioConfig, num_aps: int | None = None) -> tuple[
    list[AccessPoint], PropagationModel, np.ndarray, KnowledgeBase, DiscoveryState,
    list[np.random.Generator],
]:
    """Topology, true gains, empty knowledge, discovery state and six allocation streams.

    The streams come from fixed slots of the seed sequence drawn from ``config.seed``.
    """
    seeds = np.random.default_rng(config.seed).integers(2**63, size=8)
    topo_rng, discovery_rng, *streams = [np.random.default_rng(s) for s in seeds]
    topology, model = generate_topology(config, topo_rng, num_aps=num_aps)
    gt = true_gain_matrix(topology, model)
    kb = KnowledgeBase.from_topology(topology)
    dstate = DiscoveryState(rng=discovery_rng, samples_per_tick=config.samples_per_tick)
    return topology, model, gt, kb, dstate, streams


def run_experiment(config: ScenarioConfig) -> MetricsSeries:
    """Discovery-coupled comparison of the game against the baselines.

    Per reporting interval: advance discovery, evolve the game and the
    selfish scheme from their persistent states, redraw the one-shot random
    scheme, and record all metrics. The greedy bound uses global knowledge
    and is therefore constant over time.
    """
    config.validate()
    topology, model, gt, kb, dstate, streams = _setup(config)
    game_rng, selfish_rng, random_rng, bound_rng = streams[:4]

    game_state = random_allocation(topology, model, game_rng, gains_true=gt)
    selfish_state = random_allocation(topology, model, selfish_rng, gains_true=gt)
    bound_state, bound_count = greedy_admission_bound(topology, model, bound_rng, gains_true=gt)

    ticks_per_period = int(round(config.allocation_period))
    columns = [
        "time", "satisfied_game", "satisfied_selfish", "satisfied_random",
        "satisfied_bound", "rounds_game", "rounds_selfish",
        "missing_candidates", "channel_changes",
    ]
    series = MetricsSeries(columns=columns)
    prev_game_channels = game_state.channels.copy()

    for t in _timestamps(config):
        if t > 0:
            for _ in range(ticks_per_period):
                discovery_tick(dstate, kb, topology)
        game_run = run_dynamics(
            topology, game_state, model, ROUND_ROBIN, BEST_RESPONSE,
            config.max_iterations, game_rng, knowledge=kb,
        )
        selfish_run = run_dynamics(
            topology, selfish_state, model, ROUND_ROBIN, SELFISH,
            config.max_iterations, selfish_rng,
        )
        random_state = random_allocation(topology, model, random_rng, gains_true=gt)
        _, missing = discovery_complete(kb, topology)
        changes = int(np.sum(game_state.channels != prev_game_channels))
        prev_game_channels = game_state.channels.copy()
        series.rows.append([
            t,
            float(np.sum(satisfied_mask(topology, game_state, model, gains_true=gt))),
            float(np.sum(satisfied_mask(topology, selfish_state, model, gains_true=gt))),
            float(np.sum(satisfied_mask(topology, random_state, model, gains_true=gt))),
            float(np.sum(satisfied_mask(topology, bound_state, model, gains_true=gt))),
            float(game_run.iterations),
            float(selfish_run.iterations),
            float(missing),
            float(changes),
        ])
    return series


def domino_experiment(
    config: ScenarioConfig,
    num_inserted: int,
    insert_time: float,
) -> MetricsSeries:
    """Insert APs into a converged network and track the reallocation wave.

    Channel changes are counted among the APs that were already active at
    the previous timestamp, so the metric isolates the knock-on effect.
    """
    config.validate()
    if num_inserted < 0:
        raise ValueError("num_inserted must be nonnegative")
    if not 0 < insert_time < config.duration:
        raise ValueError("insert_time must fall inside the experiment duration")
    total = config.num_aps + num_inserted
    topology, model, gt, kb, dstate, streams = _setup(config, total)
    game_rng = streams[0]

    active = set(range(config.num_aps))
    state = AllocationState.all_off(total)
    _draw_allocation(state, sorted(active), topology, model, game_rng, gt)

    ticks_per_period = int(round(config.allocation_period))
    columns = ["time", "satisfied_game", "rounds_game", "missing_candidates",
               "channel_changes", "active_aps"]
    series = MetricsSeries(columns=columns)
    prev_channels = state.channels.copy()
    prev_active = set(active)
    inserted = False

    for t in _timestamps(config):
        if not inserted and t >= insert_time and num_inserted > 0:
            newcomers = range(config.num_aps, total)
            _draw_allocation(state, newcomers, topology, model, game_rng, gt)
            active |= set(newcomers)
            inserted = True
        if t > 0:
            for _ in range(ticks_per_period):
                discovery_tick(dstate, kb, topology, active=active)
        run = run_dynamics(
            topology, state, model, ROUND_ROBIN, BEST_RESPONSE,
            config.max_iterations, game_rng, knowledge=kb, active=active,
        )
        _, missing = discovery_complete(kb, topology, active=active)
        stable_ids = sorted(prev_active)
        changes = int(np.sum(state.channels[stable_ids] != prev_channels[stable_ids]))
        prev_channels = state.channels.copy()
        prev_active = set(active)
        sat = satisfied_mask(topology, state, model, gains_true=gt)
        series.rows.append([
            t,
            float(np.sum(sat[sorted(active)])),
            float(run.iterations),
            float(missing),
            float(changes),
            float(len(active)),
        ])
    return series


_FIGURE_FAMILIES = {
    "fig_satisfied.csv": lambda c: c.startswith("satisfied_"),
    "fig_iterations.csv": lambda c: c.startswith("rounds_"),
    "fig_discovery.csv": lambda c: c == "missing_candidates",
    "fig_changes.csv": lambda c: c == "channel_changes",
}


def export_results(series: MetricsSeries, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv plus one plot-data file per figure family."""
    out = Path(out_dir)
    written: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        main = out / "metrics.csv"
        main.write_text(series.to_csv_text())
        written.append(main)
        time_idx = series.columns.index("time")
        for name, wanted in _FIGURE_FAMILIES.items():
            cols = [c for c in series.columns if wanted(c)]
            if not cols:
                continue
            idxs = [series.columns.index(c) for c in cols]
            lines = [",".join(["time"] + cols)]
            for row in series.rows:
                lines.append(",".join(
                    format(row[j], ".12g") for j in [time_idx] + idxs
                ))
            path = out / name
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed to write results under {out}: {exc}") from exc
    return written
