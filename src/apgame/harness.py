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
import os
import pickle
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from .baselines import _draw_allocation, greedy_admission_bound, random_allocation
from .knowledge import DiscoveryState, KnowledgeBase, discovery_complete, discovery_tick
from .model import (
    AccessPoint,
    AllocationState,
    Network,
    PropagationModel,
    lognormal_mean_linear,
    satisfied_mask,
    shadowing_db,
)
from .schedulers import run_dynamics

T = TypeVar("T")

MAX_DURATION = 1_000_000.0  # longest accepted experiment, in one-second discovery ticks
# Largest accepted counts that size arrays: N x N matrices, per-channel sums,
# cluster centres and each tick's N x samples_per_tick probe draws.
MAX_COUNTS = {"num_aps": 10_000, "num_channels": 1_000, "num_clusters": 10_000,
              "samples_per_tick": 1_000}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def check_count(what: str, value: int, key: str) -> None:
    """Reject ``value`` above the ``MAX_COUNTS`` cap of config field ``key``."""
    if value > MAX_COUNTS[key]:
        raise ValueError(f"{what} must be at most {MAX_COUNTS[key]}, got {value}")


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
        if self.seed < 0:  # numpy's own message names no input
            raise ValueError(f"--seed must be nonnegative, got {self.seed}")
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
        if not math.isfinite(math.hypot(self.area_width, self.area_height)):
            raise ValueError("area_width and area_height give a diagonal that is not finite")
        if self.sinr_target_high < self.sinr_target_low:
            raise ValueError("sinr_target_high must be >= sinr_target_low")
        if self.coverage_radius_max < self.coverage_radius_min:
            raise ValueError("coverage_radius_max must be >= coverage_radius_min")
        if self.coordination_factor < 1:  # a coverage radius may reach coverage_radius_max
            raise ValueError("config field coordination_factor must be >= 1, "
                             f"got {self.coordination_factor}")
        if self.coverage_radius_max > min(self.area_width, self.area_height):
            raise ValueError("coverage radius exceeds the area scale")
        if self.shadow_std_db < 0:
            raise ValueError("shadow_std_db must be nonnegative")
        try:  # the edge gains fall from the smallest coverage radius to the largest
            mean = lognormal_mean_linear(self.shadow_mean_db, self.shadow_std_db)
            gains = [mean] + [r ** -self.path_loss_exponent * mean
                              for r in (self.coverage_radius_min, self.coverage_radius_max)]
        except OverflowError:
            gains = [math.inf]
        if not all(0 < g < math.inf for g in gains):
            raise ValueError("shadow_mean_db, shadow_std_db, path_loss_exponent and "
                             "coverage_radius_min/max give a shadowing mean gain or an edge "
                             "gain that is zero or not finite")
        for name in MAX_COUNTS:
            check_count(f"config field {name}", getattr(self, name), name)
        if self.duration > MAX_DURATION:
            raise ValueError(f"duration must be at most {MAX_DURATION:.0f} seconds")
        # a discovery tick is one second, and every period ends at a report
        if self.allocation_period % 1:
            raise ValueError("allocation_period must be a whole number of seconds")
        if self.duration % self.allocation_period:
            raise ValueError("duration must be a whole multiple of allocation_period")

    def apply(self, mapping: dict[str, str]) -> None:
        """Override fields from string key-value pairs (config file format)."""
        types = {f.name: f.type for f in fields(self)}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"unknown config key: {key}")
            current = getattr(self, key)
            if isinstance(current, bool):
                spelling = raw.strip().lower()
                if spelling not in _BOOLEANS:
                    raise ValueError(f"config field {key} must be true or false, got {raw!r}")
                value: object = _BOOLEANS[spelling]
            else:
                kind, name = (int, "an integer") if isinstance(current, int) else (float, "a float")
                try:
                    value = kind(raw)
                except ValueError:
                    raise ValueError(f"config field {key} must be {name}, got {raw!r}") from None
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
            if key.strip() == "seed":  # a file line would lose to the required flag unseen
                raise ValueError("config key seed is not read from a file; pass --seed")
            mapping[key.strip()] = value.strip()
        cfg = cls()
        cfg.apply(mapping)
        return cfg


def generate_topology(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[list[AccessPoint], PropagationModel]:
    """Seeded synthetic topology plus one sampled shadowing realization."""
    topology = _access_points(config, rng)
    model = PropagationModel.sample(len(topology), rng,
                                   path_loss_exponent=config.path_loss_exponent,
                                   shadow_mean_db=config.shadow_mean_db,
                                   shadow_std_db=config.shadow_std_db,
                                   noise_power=config.noise_power)
    return topology, model


def _access_points(config: ScenarioConfig, rng: np.random.Generator) -> list[AccessPoint]:
    """The APs of ``generate_topology``, drawn first from its stream."""
    config.validate()
    n = config.num_aps
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
    return [
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


@dataclass
class MetricsSeries:
    """A numeric table written as CSV; the experiments' first column is ``time``."""

    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format(v, ".12g") for v in row))
        return "\n".join(lines) + "\n"


def discovery_completion_ticks(
    config: ScenarioConfig, num_aps: int, rep: int, max_ticks: int
) -> int:
    """Discovery ticks until every AP knows all its candidates.

    Topology and probes come from the stream seeded with ``(config.seed,
    num_aps, rep)``: the probes follow ``generate_topology``'s draws, of which
    the shadowing is drawn but never converted. The count stops at the first
    tick past ``max_ticks``. A tick changes only the known rows of its hits'
    two ends, which it returns, so only those rows are checked again.
    """
    rng = np.random.default_rng((config.seed, num_aps, rep))
    topology = _access_points(replace(config, num_aps=num_aps), rng)
    shadowing_db(num_aps, rng, config.shadow_mean_db, config.shadow_std_db)
    kb = KnowledgeBase.from_topology(topology)
    dstate = DiscoveryState(rng=rng, samples_per_tick=config.samples_per_tick)
    incomplete = set(kb.missing(range(num_aps)))
    while incomplete:
        his, hjs = discovery_tick(dstate, kb, topology)
        touched = incomplete.intersection(his + hjs)  # either end, not both
        incomplete -= touched.difference(kb.missing(touched))
        if dstate.tick > max_ticks:
            break
    return dstate.tick


def _timestamps(config: ScenarioConfig) -> list[float]:
    steps = int(config.duration / config.allocation_period)
    return [t * config.allocation_period for t in range(steps + 1)]


def _setup(config: ScenarioConfig) -> tuple[
    Network, KnowledgeBase, DiscoveryState, list[np.random.Generator],
]:
    """Network, empty knowledge, discovery state and the four allocation streams.

    Six seeds drawn from ``config.seed`` seed, in order, the topology, discovery,
    game, selfish, random and bound streams; the last four are returned.
    """
    seeds = np.random.default_rng(config.seed).integers(2**63, size=6)
    topo_rng, discovery_rng, *streams = [np.random.default_rng(s) for s in seeds]
    network = Network(*generate_topology(config, topo_rng))
    kb = KnowledgeBase(network.candidates)
    dstate = DiscoveryState(rng=discovery_rng, samples_per_tick=config.samples_per_tick)
    return network, kb, dstate, streams


@contextmanager
def _forked(fn: Callable[..., T], *args: Any) -> Iterator[Callable[[], T]]:
    """Run ``fn(*args)`` in a forked worker; the context yields a wait for its value.

    The worker pickles ``("ok", value, None)`` or ``("error", exc, cause)``
    into a pipe, the cause being a ``RuntimeError`` with its traceback, and
    ends with ``os._exit``. The wait reads the pipe, reaps the worker and
    returns the value or raises the worker's exception with its type
    unchanged; one that does not pickle arrives as that ``RuntimeError``.
    Leaving the context before the wait kills and reaps the worker. A
    lifeline pipe, whose write end only the caller holds, ends the worker
    when the caller dies, even by a signal that runs no cleanup. Without
    ``os.fork``, or if it fails, the wait calls ``fn``.
    """
    pid = -1
    if hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        life_read, life_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: this one does the work
            for fd in (read_fd, write_fd, life_read, life_write):
                os.close(fd)
    if pid < 0:
        yield lambda: fn(*args)
        return
    if pid == 0:  # the worker: nothing it does may return into the caller's code
        status = 1
        try:
            os.close(read_fd)
            os.close(life_write)
            # the lifeline reads EOF, and the worker exits, once the caller is gone
            threading.Thread(target=lambda: os.read(life_read, 1) or os._exit(1),
                             daemon=True).start()
            try:
                message: tuple = ("ok", fn(*args), None)
            except BaseException as exc:  # every failure goes to the caller
                import traceback  # here, as `signal` below: `import apgame.cli` loads neither

                text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
                cause = RuntimeError(f"in the worker:\n{text}")
                message = ("error", exc, cause)
                try:
                    pickle.loads(pickle.dumps(message))
                except Exception:
                    message = ("error", cause, None)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    os.close(life_read)
    reaped = False

    def wait() -> T:
        nonlocal reaped
        with os.fdopen(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if status:
            raise RuntimeError(f"worker {pid} ended with exit code "
                               f"{os.waitstatus_to_exitcode(status)} and no result")
        kind, value, cause = pickle.loads(data)
        if kind == "error":
            raise value from cause
        return value

    try:
        yield wait
    finally:
        os.close(read_fd)
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(life_write)


def _satisfied(network: Network, state: AllocationState) -> float:
    """How many APs meet their SINR target under ``state``."""
    return float(np.sum(satisfied_mask(network, state)))


def _baseline_rows(
    network: Network, streams: list[np.random.Generator], config: ScenarioConfig
) -> list[list[float]]:
    """The schemes that never read the game's state, knowledge or discovery.

    Per timestamp: satisfied selfish (best response with ``knowledge=None``),
    random and bound APs, and the selfish rounds. Each scheme draws only
    from its own stream of ``_setup``, so this track runs apart from the game's.
    """
    _, selfish_rng, random_rng, bound_rng = streams
    selfish_state = random_allocation(network, selfish_rng)
    bound_state, _ = greedy_admission_bound(network, bound_rng)
    satisfied_bound = _satisfied(network, bound_state)  # the bound never changes
    rows = []
    for _ in _timestamps(config):
        selfish_run = run_dynamics(network, selfish_state, config.max_iterations, knowledge=None)
        random_state = random_allocation(network, random_rng)
        rows.append([_satisfied(network, selfish_state), _satisfied(network, random_state),
                     satisfied_bound, float(selfish_run.iterations)])
    return rows


def _game_rows(
    network: Network, kb: KnowledgeBase, dstate: DiscoveryState, rng: np.random.Generator,
    config: ScenarioConfig, insert_time: float,
) -> list[list[float]]:
    """The game's track: discovery and best response, period by period.

    APs ``0..config.num_aps-1`` start from a random allocation; the rest switch
    on the same way at the first timestamp at or after ``insert_time``, so
    the APs on are always a prefix of the ids (``active`` is None once all
    are). Per timestamp: time, satisfied APs, rounds, missing candidates,
    channel changes among the APs on at the previous timestamp, and APs on.
    """
    total = len(network.topology)
    state = AllocationState.all_off(total)
    _draw_allocation(state, range(config.num_aps), network, rng)
    on = prev_on = config.num_aps
    prev_channels = state.channels.copy()
    rows = []
    for t in _timestamps(config):
        if on < total and t >= insert_time:
            _draw_allocation(state, range(on, total), network, rng)
            on = total
        active = on if on < total else None
        if t > 0:
            for _ in range(int(config.allocation_period)):
                discovery_tick(dstate, kb, network.topology, active=active)
        run = run_dynamics(network, state, config.max_iterations, knowledge=kb, active=active)
        missing = discovery_complete(kb, active=active)
        changes = int(np.sum(state.channels[:prev_on] != prev_channels[:prev_on]))
        prev_on, prev_channels = on, state.channels.copy()
        rows.append([t, _satisfied(network, state), float(run.iterations), float(missing),
                     float(changes), float(on)])
    return rows


def run_experiment(config: ScenarioConfig) -> MetricsSeries:
    """Discovery-coupled comparison of the game against the baselines.

    Per reporting interval: advance discovery, evolve the game and the
    selfish scheme from their persistent states, redraw the one-shot random
    scheme, and record all metrics. The greedy bound uses global knowledge
    and is therefore constant over time. The baselines run in a forked
    worker (``_baseline_rows``) while this process runs discovery and the game.
    """
    config.validate()
    network, kb, dstate, streams = _setup(config)
    columns = [
        "time", "satisfied_game", "satisfied_selfish", "satisfied_random",
        "satisfied_bound", "rounds_game", "rounds_selfish",
        "missing_candidates", "channel_changes",
    ]
    with _forked(_baseline_rows, network, streams, config) as baseline_rows:
        game_rows = _game_rows(network, kb, dstate, streams[0], config, math.inf)
        rows = [
            [t, game, selfish, random, bound, rounds, rounds_selfish, missing, changes]
            for (t, game, rounds, missing, changes, _), (selfish, random, bound, rounds_selfish)
            in zip(game_rows, baseline_rows())
        ]
    return MetricsSeries(columns=columns, rows=rows)


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
    check_count("num_aps + num_inserted", total, "num_aps")
    network, kb, dstate, streams = _setup(replace(config, num_aps=total))
    columns = ["time", "satisfied_game", "rounds_game", "missing_candidates",
               "channel_changes", "active_aps"]
    return MetricsSeries(columns, _game_rows(network, kb, dstate, streams[0], config,
                                             insert_time))


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
        files = {"metrics.csv": series}
        for name, wanted in _FIGURE_FAMILIES.items():
            idxs = [j for j, c in enumerate(series.columns) if c == "time" or wanted(c)]
            if len(idxs) > 1:
                files[name] = MetricsSeries([series.columns[j] for j in idxs],
                                            [[row[j] for j in idxs] for row in series.rows])
        for name, table in files.items():
            path = out / name
            path.write_text(table.to_csv_text())
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed to write results under {out}: {exc}") from exc
    return written
