"""The forked worker of ``run`` and ``sweep``: failures surface, no process is
left behind, and the inline path (no ``os.fork``) writes the same bytes.

Every test ends with no child process at all, running or unreaped: the
autouse fixture requires ``os.waitpid(-1, os.WNOHANG)`` to raise
``ChildProcessError``.
"""

from __future__ import annotations

import errno
import os
import time

import pytest
from test_golden import CASES, run_case

from apgame import cli, harness
from apgame.harness import ScenarioConfig, _forked, run_experiment

SMALL_RUN = ["run", "--seed", "3", "--num-aps", "20", "--num-channels", "4",
             "--area-width", "400", "--area-height", "400", "--duration", "40"]
SMALL_SWEEP = ["sweep", "--seed", "2", "--sizes", "10,20", "--repeats", "2"]
CLUSTERED_RUN = ["run", "--seed", "1", "--num-aps", "60", "--num-channels", "3",
                 "--clustered", "true", "--num-clusters", "3", "--duration", "30"]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_config() -> ScenarioConfig:
    return ScenarioConfig(seed=3, num_aps=20, num_channels=4, area_width=400.0,
                          area_height=400.0, duration=40.0)


def fail_with(exc: BaseException):
    def fail(*args, **kwargs):
        raise exc
    return fail


def one_error_line(capsys, start: str) -> None:
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(start) and len(err.splitlines()) == 1


class TestWorkerFails:
    def test_run_experiment_reraises_the_workers_type(self, monkeypatch):
        monkeypatch.setattr(harness, "greedy_admission_bound",
                            fail_with(ValueError("bound failed")))
        with pytest.raises(ValueError, match="bound failed") as err:
            run_experiment(small_config())
        # the worker's traceback rides along as the cause
        assert isinstance(err.value.__cause__, RuntimeError)
        assert "_baseline_rows" in str(err.value.__cause__)

    @pytest.mark.parametrize("exc, code", [(ValueError("bound failed"), 1),
                                           (OSError("bound failed"), 2)])
    def test_run_exit_code_and_one_error_line(self, monkeypatch, capsys, tmp_path, exc, code):
        monkeypatch.setattr(harness, "greedy_admission_bound", fail_with(exc))
        assert cli.main([*SMALL_RUN, "--out", str(tmp_path / "out")]) == code
        one_error_line(capsys, "error: bound failed")
        assert not (tmp_path / "out").exists()

    def test_sweep_exit_one_and_one_error_line(self, monkeypatch, capsys):
        real = cli.discovery_completion_ticks

        def ticks(config, num_aps, rep, max_ticks):
            if rep == 1:  # every second pair is the worker's
                raise ValueError("discovery failed")
            return real(config, num_aps, rep, max_ticks)

        monkeypatch.setattr(cli, "discovery_completion_ticks", ticks)
        assert cli.main(SMALL_SWEEP) == 1
        one_error_line(capsys, "error: discovery failed")

    def test_unpicklable_exception_arrives_as_runtime_error(self):
        class Local(Exception):  # a class local to a function does not pickle
            pass

        with _forked(fail_with(Local("not picklable"))) as wait:
            with pytest.raises(RuntimeError, match="not picklable") as err:
                wait()
        assert "Traceback" in str(err.value) and "Local" in str(err.value)

    def test_worker_that_dies_without_a_result(self):
        with _forked(os._exit, 3) as wait:
            with pytest.raises(RuntimeError, match="exit code 3"):
                wait()


class TestParentFails:
    def test_run_kills_a_running_worker(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(harness, "greedy_admission_bound", lambda *a, **k: time.sleep(60))
        monkeypatch.setattr(harness, "discovery_tick", fail_with(ValueError("tick failed")))
        start = time.monotonic()
        with pytest.raises(ValueError, match="tick failed"):
            run_experiment(small_config())
        assert cli.main([*SMALL_RUN, "--out", str(tmp_path / "out")]) == 1
        one_error_line(capsys, "error: tick failed")
        assert time.monotonic() - start < 30

    def test_run_mid_game(self, monkeypatch, capsys, tmp_path):
        real, calls = harness.discovery_tick, []

        def tick(*args, **kwargs):
            calls.append(1)
            if len(calls) == 25:
                raise ValueError("tick failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "discovery_tick", tick)
        assert cli.main([*SMALL_RUN, "--out", str(tmp_path / "out")]) == 1
        one_error_line(capsys, "error: tick failed")
        assert len(calls) == 25

    def test_sweep_kills_a_running_worker(self, monkeypatch, capsys):
        def ticks(config, num_aps, rep, max_ticks):
            if rep == 0:
                raise ValueError("discovery failed")
            time.sleep(60)

        monkeypatch.setattr(cli, "discovery_completion_ticks", ticks)
        start = time.monotonic()
        assert cli.main(SMALL_SWEEP) == 1
        one_error_line(capsys, "error: discovery failed")
        assert time.monotonic() - start < 30

    def test_leaving_the_context_without_waiting(self):
        start = time.monotonic()
        with _forked(time.sleep, 60):
            pass
        assert time.monotonic() - start < 30


@pytest.mark.parametrize("no_fork", ["absent", "failing"])
@pytest.mark.parametrize("name", ["run", "sweep", "clustered-run"])
def test_inline_path_writes_the_same_bytes(name, no_fork, monkeypatch, tmp_path):
    monkeypatch.setitem(CASES, "clustered-run", CLUSTERED_RUN)
    forked = run_case(name, tmp_path / "forked")
    if no_fork == "absent":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fail_with(BlockingIOError(errno.EAGAIN, "no pids")))
    inline = run_case(name, tmp_path / "inline")
    assert ("sweep.csv" if name == "sweep" else "metrics.csv") in forked
    assert forked == inline
