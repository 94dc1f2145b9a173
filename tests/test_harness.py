"""Scenario config, experiments, metrics export and the CLI."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgame import cli, knowledge
from apgame.harness import (
    MAX_COUNTS,
    MAX_DURATION,
    MetricsSeries,
    ScenarioConfig,
    discovery_completion_ticks,
    domino_experiment,
    export_results,
    generate_topology,
    run_experiment,
)
from apgame.knowledge import DiscoveryState, KnowledgeBase, discovery_complete, discovery_tick
from oracles import column, one_tick_completion_ticks


def small_config(**overrides):
    base = dict(num_aps=25, num_channels=5, area_width=400.0, area_height=400.0,
                duration=60.0, seed=1)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        ScenarioConfig().validate()

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_aps=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(noise_power=-1.0).validate()

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            ScenarioConfig(sinr_target_low=5.0, sinr_target_high=2.0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(coverage_radius_min=30.0, coverage_radius_max=10.0).validate()

    def test_apply_unknown_key_rejected(self):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            cfg.apply({"bandwidth": "20"})

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), (" Yes ", True), ("ON", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_apply_boolean_spellings(self, raw, value):
        cfg = ScenarioConfig(clustered=not value)
        cfg.apply({"clustered": raw})
        assert cfg.clustered is value

    @pytest.mark.parametrize("raw", ["yes-please", "", "2", "truee", "nan"])
    def test_apply_rejects_other_boolean_spellings(self, raw):
        with pytest.raises(ValueError, match="config field clustered must be true or false"):
            ScenarioConfig().apply({"clustered": raw})

    @pytest.mark.parametrize("name", sorted(MAX_COUNTS))
    def test_counts_capped(self, name):
        ScenarioConfig(**{name: MAX_COUNTS[name]}).validate()
        with pytest.raises(ValueError, match=f"config field {name} must be at most"):
            ScenarioConfig(**{name: MAX_COUNTS[name] + 1}).validate()

    def test_from_file_parses_flat_key_values(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment line\n"
            "num_aps = 42\n"
            "area_width=500\n"
            "clustered = true\n"
            "\n"
        )
        cfg = ScenarioConfig.from_file(path)
        assert cfg.num_aps == 42
        assert cfg.area_width == 500.0
        assert cfg.clustered is True

    def test_from_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_aps 42\n")
        with pytest.raises(ValueError):
            ScenarioConfig.from_file(path)


class TestGenerateTopology:
    def test_parameters_in_range(self):
        cfg = ScenarioConfig(seed=0)
        topo, model = generate_topology(cfg, np.random.default_rng(0))
        assert len(topo) == 305
        for ap in topo:
            assert 0 <= ap.position[0] <= 1000 and 0 <= ap.position[1] <= 1000
            assert cfg.sinr_target_low <= ap.sinr_target <= cfg.sinr_target_high
            assert cfg.coverage_radius_min <= ap.coverage_radius <= cfg.coverage_radius_max
            assert ap.coordination_radius == 2 * cfg.coverage_radius_max
            assert ap.channels == frozenset(range(13))
        assert model.shadow_samples.shape == (305, 305)

    def test_seed_determinism(self):
        cfg = small_config()
        a, ma = generate_topology(cfg, np.random.default_rng(8))
        b, mb = generate_topology(cfg, np.random.default_rng(8))
        assert a == b
        assert np.array_equal(ma.shadow_samples, mb.shadow_samples)

    def test_clustered_placement_stays_in_area(self):
        cfg = small_config(clustered=True, num_clusters=3, cluster_std=30.0)
        topo, _ = generate_topology(cfg, np.random.default_rng(2))
        for ap in topo:
            assert 0 <= ap.position[0] <= cfg.area_width
            assert 0 <= ap.position[1] <= cfg.area_height


class TestMetricsSeries:
    def test_twelve_significant_digits(self):
        series = MetricsSeries(columns=["time", "x"], rows=[[0.0, 1 / 3]])
        assert "0.333333333333" in series.to_csv_text()

    def test_empty_series_is_header_only(self):
        series = MetricsSeries(columns=["time", "x"])
        assert series.to_csv_text() == "time,x\n"


class TestRunExperiment:
    def test_metrics_sanity(self):
        cfg = small_config()
        series = run_experiment(cfg)
        n = cfg.num_aps
        times = column(series, "time")
        assert times == sorted(times)
        for name in ("satisfied_game", "satisfied_selfish", "satisfied_random",
                     "satisfied_bound"):
            assert all(0 <= v <= n for v in column(series, name))
        missing = column(series, "missing_candidates")
        assert all(a >= b for a, b in zip(missing, missing[1:]))

    def test_end_to_end_determinism(self):
        cfg = small_config(seed=9)
        a = run_experiment(cfg).to_csv_text()
        b = run_experiment(small_config(seed=9)).to_csv_text()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(seed=1)).to_csv_text()
        b = run_experiment(small_config(seed=2)).to_csv_text()
        assert a != b


class TestDominoExperiment:
    def test_insertion_adds_active_aps(self):
        cfg = small_config(duration=100.0)
        series = domino_experiment(cfg, 5, 50.0)
        active = column(series, "active_aps")
        assert active[0] == 25
        assert active[-1] == 30

    def test_zero_insertions_changes_settle_to_zero(self):
        cfg = small_config(duration=100.0)
        series = domino_experiment(cfg, 0, 50.0)
        changes = column(series, "channel_changes")
        times = column(series, "time")
        post = [c for t, c in zip(times, changes) if t >= 50.0]
        assert all(c == 0 for c in post)

    def test_invalid_insert_time_rejected(self):
        cfg = small_config(duration=100.0)
        with pytest.raises(ValueError):
            domino_experiment(cfg, 5, 150.0)
        with pytest.raises(ValueError):
            domino_experiment(cfg, -1, 50.0)

    @pytest.mark.parametrize("cfg", [
        small_config(duration=100.0),
        small_config(num_aps=60, num_channels=3, clustered=True, num_clusters=3,
                     duration=80.0, seed=4),
    ], ids=["uniform", "clustered"])
    def test_without_insertions_its_rows_are_run_experiments_game_columns(self, cfg):
        # one game loop serves both: no insertion leaves the game track of run
        game = ["time", "satisfied_game", "rounds_game", "missing_candidates", "channel_changes"]
        run = run_experiment(cfg)
        domino = domino_experiment(cfg, 0, cfg.duration / 2)
        for name in game:
            assert column(run, name) == column(domino, name)
        assert column(domino, "active_aps") == [cfg.num_aps] * len(domino.rows)


def full_scan_completion_ticks(config, num_aps, rep, max_ticks):
    """The completion loop that rescans every row after each tick."""
    rng = np.random.default_rng((config.seed, num_aps, rep))
    topology, _ = generate_topology(replace(config, num_aps=num_aps), rng)
    kb = KnowledgeBase.from_topology(topology)
    dstate = DiscoveryState(rng=rng, samples_per_tick=config.samples_per_tick)
    while discovery_complete(kb):
        discovery_tick(dstate, kb, topology)
        if dstate.tick > max_ticks:
            break
    return dstate.tick


@settings(max_examples=150, deadline=None)
@given(
    num_aps=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    rep=st.integers(0, 3),
    samples_per_tick=st.integers(1, 4),
    side=st.sampled_from([150.0, 400.0, 1000.0]),
    clustered=st.booleans(),
    max_ticks=st.sampled_from([0, 1, 3]) | st.integers(0, 400) | st.just(10_000),
)
def test_completion_ticks_equal_the_full_scan_loop(num_aps, seed, rep, samples_per_tick,
                                                   side, clustered, max_ticks):
    cfg = ScenarioConfig(area_width=side, area_height=side, seed=seed,
                         samples_per_tick=samples_per_tick, clustered=clustered)
    assert discovery_completion_ticks(cfg, num_aps, rep, max_ticks) \
        == full_scan_completion_ticks(cfg, num_aps, rep, max_ticks)


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("num_aps", [1, 2, 50, 300])
def test_completion_ticks_equal_the_one_tick_loop(num_aps, samples):
    # caps of 0 and 1 tick, caps inside a block of discovery_ticks and past every run
    cfg = ScenarioConfig(seed=2, samples_per_tick=samples)
    block = max(1, knowledge.PROBE_BLOCK // (num_aps * samples))
    for rep in range(3):
        uncapped = one_tick_completion_ticks(cfg, num_aps, rep, 10_000)
        for max_ticks in (0, 1, uncapped // 2, block + block // 2, 10_000):
            assert discovery_completion_ticks(cfg, num_aps, rep, max_ticks) \
                == one_tick_completion_ticks(cfg, num_aps, rep, max_ticks)


@pytest.mark.parametrize("num_aps", [1, 3])
def test_completion_without_candidates_takes_no_tick(num_aps):
    cfg = ScenarioConfig(area_width=1e6, area_height=1e6, seed=2)
    topology, _ = generate_topology(replace(cfg, num_aps=num_aps), np.random.default_rng(0))
    assert not KnowledgeBase.from_topology(topology).candidates.any()
    for max_ticks in (0, 1, 10_000):
        assert discovery_completion_ticks(cfg, num_aps, 0, max_ticks) == 0


class TestExportResults:
    def test_files_written_and_roundtrip(self, tmp_path):
        series = run_experiment(small_config())
        written = export_results(series, tmp_path / "out")
        names = {p.name for p in written}
        assert "metrics.csv" in names
        assert "fig_satisfied.csv" in names
        assert (tmp_path / "out" / "metrics.csv").read_text() == series.to_csv_text()

    def test_byte_identical_across_equal_seeds(self, tmp_path):
        export_results(run_experiment(small_config(seed=4)), tmp_path / "a")
        export_results(run_experiment(small_config(seed=4)), tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_io_error_carries_path_context(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        series = MetricsSeries(columns=["time"], rows=[[0.0]])
        with pytest.raises(OSError) as err:
            export_results(series, target)
        assert "blocked" in str(err.value)


class TestCli:
    def run_flags(self, tmp_path, extra=()):
        return [
            "run", "--seed", "3", "--num-aps", "20", "--num-channels", "4",
            "--area-width", "400", "--area-height", "400", "--duration", "40",
            "--out", str(tmp_path / "out"), *extra,
        ]

    def test_run_success_exit_zero(self, tmp_path, capsys):
        code = cli.main(self.run_flags(tmp_path))
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_config_file_plus_flag_overrides(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("num_aps=20\nnum_channels=4\narea_width=400\n"
                       "area_height=400\nduration=40\n")
        code = cli.main(["run", "--config", str(cfg), "--seed", "3",
                         "--duration", "30", "--out", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "metrics.csv").read_text()
        assert text.splitlines()[-1].startswith("30,")

    @pytest.mark.parametrize("line", ["seed=-4", "seed = 3"])
    def test_seed_in_config_file_exit_one(self, tmp_path, capsys, line):
        # the required --seed flag would silently override the file's value
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"num_aps=20\n{line}\n")
        code = cli.main(["run", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--seed" in err
        assert not (tmp_path / "out").exists()

    def test_coordination_factor_below_one_exit_one(self, tmp_path, capsys):
        # an AP's coverage radius may reach coverage_radius_max, above 0.95 of
        # it; seed 2 draws none that high, so only the config check catches it
        code = cli.main(["run", "--seed", "2", "--num-aps", "10", "--duration", "10",
                         "--coordination-factor", "0.95", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config field coordination_factor must be >= 1")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_one(self, tmp_path):
        code = cli.main(self.run_flags(tmp_path, extra=["--num-aps", "-5"]))
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--noise-power", "nan"),
        ("--max-power", "inf"),
        ("--area-width", "-inf"),
        ("--shadow-mean-db", "nan"),
    ])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, flag, value):
        code = cli.main(self.run_flags(tmp_path, extra=[f"{flag}={value}"]))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flag[2:].replace("-", "_") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (["run", "--allocation-period", "0.4"], "allocation_period"),
        (["run", "--duration", "25", "--allocation-period", "10"], "duration"),
        (["domino", "--duration", "25", "--insert-time", "24"], "duration"),
        (["run", "--duration", "1e9", "--allocation-period", "1e9"], "duration"),
    ])
    def test_fractional_period_or_duration_exit_one(self, tmp_path, capsys, argv, field):
        # a discovery tick is one second and every period ends at a report
        code = cli.main([*argv, "--seed", "3", "--num-aps", "20",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field} must") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, field", [
        (["--coverage-radius-min", "1e-300", "--coverage-radius-max", "1e-300"],
         "coverage_radius_min"),
        (["--shadow-std-db", "1e5"], "shadow_std_db"),
        (["--path-loss-exponent", "1e5"], "path_loss_exponent"),
        (["--max-power", "1e308", "--sinr-target-low", "1e300", "--sinr-target-high", "1e300",
          "--area-width", "50", "--area-height", "50"], "max_power"),
        (["--area-width", "1.7e308", "--area-height", "1.7e308"], "area_width"),
    ])
    def test_gain_that_overflows_or_vanishes_exit_one(self, tmp_path, capsys, extra, field):
        code = cli.main(["run", "--seed", "1", "--num-aps", "30", "--duration", "10", *extra,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--repeats", "0"),
        ("--sizes", "0"),
        ("--max-ticks", "-1"),
        ("--repeats", "1000000000000"),
        ("--repeats", str(cli.MAX_REPEATS + 1)),
        ("--max-ticks", str(int(MAX_DURATION) + 1)),
    ])
    def test_sweep_out_of_range_exit_one(self, capsys, flag, value):
        code = cli.main(["sweep", "--seed", "2", "--sizes", "10", "--repeats", "1",
                         f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--num-aps", "20", "--duration", "10", "--out", "unused"],
        ["domino", "--num-aps", "20", "--duration", "10", "--out", "unused"],
        ["sweep", "--sizes", "10", "--repeats", "1"],
        ["verify"],
    ], ids=["run", "domino", "sweep", "verify"])
    def test_negative_seed_exit_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = cli.main([*argv, "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: --seed must be nonnegative, got -1\n"
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--num-aps", "1.5", "config field num_aps must be an integer, got '1.5'"),
        ("--noise-power", "abc", "config field noise_power must be a float, got 'abc'"),
    ])
    def test_number_that_does_not_parse_names_its_field(self, tmp_path, capsys, flag, value,
                                                         message):
        code = cli.main(["run", "--seed", "1", flag, value, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_line_that_does_not_parse_names_its_field(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("num_aps=x\n")
        code = cli.main(["run", "--config", str(cfg), "--seed", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: config field num_aps must be an integer, got 'x'\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_size_that_does_not_parse_names_sizes(self, capsys):
        code = cli.main(["sweep", "--seed", "1", "--sizes", "5,,3", "--repeats", "1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: --sizes must be comma-separated integers, got '5,,3'\n"

    @pytest.mark.parametrize("extra, message", [
        (["--area-width", "10", "--area-height", "10"], "coverage radius exceeds the area scale"),
        (["--shadow-std-db", "-1"], "shadow_std_db must be nonnegative"),
    ])
    def test_radius_above_area_or_negative_shadowing_exit_one(self, tmp_path, capsys, extra,
                                                              message):
        code = cli.main(["run", "--seed", "1", *extra, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_unwritable_out_exit_two(self, tmp_path, capsys):
        blocked = tmp_path / "file"
        blocked.write_text("x")
        out = blocked / "sub" / "sweep.csv"
        code = cli.main(["sweep", "--seed", "2", "--sizes", "10", "--repeats", "1",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: failed to write {out}: ") and len(err.splitlines()) == 1

    def test_missing_seed_exit_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--out", str(tmp_path / "out")])
        assert err.value.code == 1

    def test_io_error_exit_two(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("x")
        code = cli.main(self.run_flags(tmp_path)[:-1] + [str(blocked / "sub")])
        assert code == 2

    def test_domino_exit_zero(self, tmp_path):
        code = cli.main([
            "domino", "--seed", "3", "--num-aps", "20", "--num-channels", "4",
            "--area-width", "400", "--area-height", "400", "--duration", "80",
            "--num-inserted", "3", "--insert-time", "40",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_domino_insert_time_defaults_to_half_the_duration(self, tmp_path):
        code = cli.main([
            "domino", "--seed", "3", "--num-aps", "20", "--num-channels", "4",
            "--area-width", "400", "--area-height", "400", "--duration", "40",
            "--num-inserted", "3", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "active_aps"
        assert [r.split(",")[-1] for r in rows[1:]] == ["20", "20", "23", "23", "23"]

    def test_non_boolean_spelling_exit_one(self, tmp_path, capsys):
        code = cli.main(self.run_flags(tmp_path, extra=["--clustered", "yes-please"]))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config field clustered") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--num-aps", "10001"]),
        ("run", ["--num-aps", "100000000000000000000"]),
        ("run", ["--num-channels", "1001"]),
        ("run", ["--clustered", "true", "--num-clusters", "10001"]),
        ("run", ["--samples-per-tick", "100000000000000"]),
        ("domino", ["--num-aps", "9999", "--num-inserted", "2"]),
        ("domino", ["--num-aps", "20", "--num-inserted", "100000000000000"]),
        ("sweep", ["--sizes", "5,10001"]),
        ("sweep", ["--sizes", "5", "--area-width", "50", "--area-height", "50",
                   "--samples-per-tick", "100000000000000"]),
    ])
    def test_oversized_counts_exit_one(self, tmp_path, capsys, command, flags):
        # each value is rejected before any array of that size is allocated
        extra = ["--repeats", "1"] if command == "sweep" else ["--out", str(tmp_path / "out")]
        code = cli.main([command, *flags, "--seed", "1", *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "must be at most" in err

    def test_verify_exit_zero(self):
        assert cli.main(["verify", "--seed", "1"]) == 0

    def test_verify_failure_exit_three(self, monkeypatch):
        monkeypatch.setattr(cli, "_verify_exactness",
                            lambda seed: (False, "forced failure"))
        assert cli.main(["verify", "--seed", "1"]) == 3

    def test_sweep_warns_about_capped_repetitions(self, capsys):
        # at 300 APs no repetition completes discovery within 10 ticks
        code = cli.main(["sweep", "--seed", "2", "--sizes", "300", "--repeats", "2",
                         "--max-ticks", "10"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out == "num_aps=300 mean_completion_ticks=11\n"
        assert err == ("warning: num_aps=300: 2 of 2 repetitions did not complete "
                       "discovery within 10 ticks; the mean counts each as 11\n")

    def test_sweep_without_capped_repetitions_warns_nothing(self, capsys):
        code = cli.main(["sweep", "--seed", "2", "--sizes", "10", "--repeats", "2"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_sweep_exit_zero_and_output(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--seed", "2", "--num-channels", "4", "--area-width", "300",
            "--area-height", "300", "--sizes", "10,20", "--repeats", "2",
            "--out", str(tmp_path / "sweep.csv"),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "num_aps,mean_completion_ticks"
        assert len(lines) == 3
