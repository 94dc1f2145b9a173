"""Checks that need a fresh Python interpreter per run.

Outputs must be a pure function of ``(config, seed)``: two interpreters with
different string-hash seeds write the same bytes. The README's library
example must run as documented. A run must not import ``numpy.ma``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(args: list[str], cwd: Path, hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    commands = [
        ["run", "--seed", "5", "--num-aps", "30", "--num-channels", "4",
         "--duration", "40", "--out", "run"],
        ["sweep", "--seed", "2", "--sizes", "10,20", "--repeats", "2", "--out", "sweep.csv"],
    ]
    outputs = []
    for hash_seed in ("0", "4242"):
        work = tmp_path / f"hash-{hash_seed}"
        work.mkdir()
        stdout = []
        for argv in commands:
            proc = run_python(["-m", "apgame.cli", *argv], work, hash_seed)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        outputs.append((stdout, files))
    assert sorted(outputs[0][1]) == ["run/fig_changes.csv", "run/fig_discovery.csv",
                                     "run/fig_iterations.csv", "run/fig_satisfied.csv",
                                     "run/metrics.csv", "sweep.csv"]
    assert outputs[0] == outputs[1]


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path, "0")
    assert proc.returncode == 0, proc.stderr
    converged, iterations, nash = proc.stdout.split()
    # a converged best-response run ends at a Nash equilibrium
    assert (converged, nash) == ("True", "True")
    assert int(iterations) > 0


def test_a_run_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 8 ms and 1.4 MB to import; np.unique pulls it in
    code = ("import sys\nfrom apgame.cli import main\n"
            "main(['run', '--seed', '1', '--num-aps', '20', '--duration', '20', '--out', 'run'])\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = run_python(["-c", code], tmp_path, "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
