"""Golden outputs: small CLI invocations must reproduce committed files byte for byte.

Each case runs ``apgame.cli.main`` and compares its stdout and every file it
writes with ``tests/golden/<case>/``. The output directory in stdout is
replaced by ``<OUT>`` so the files do not depend on where the test runs.

A change that is meant to alter outputs regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in its log.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from apgame import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "run": [
        "run", "--seed", "3", "--num-aps", "40", "--num-channels", "4",
        "--area-width", "300", "--area-height", "300", "--duration", "40",
    ],
    "domino": [
        "domino", "--seed", "4", "--num-aps", "30", "--num-channels", "3",
        "--clustered", "true", "--num-clusters", "3", "--duration", "60",
        "--num-inserted", "5", "--insert-time", "30",
    ],
    "sweep": [
        "sweep", "--seed", "5", "--num-channels", "4", "--area-width", "300",
        "--area-height", "300", "--sizes", "20,40", "--repeats", "2",
    ],
    "verify": ["verify", "--seed", "1"],
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; return {file name: bytes}, stdout included."""
    out = workdir / "out"
    argv = list(CASES[name])
    if name == "sweep":
        argv += ["--out", str(out / "sweep.csv")]
    elif name != "verify":
        argv += ["--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, f"{name} exited with {code}"
    files = {"stdout.txt": buf.getvalue().replace(str(out), "<OUT>").encode()}
    if out.is_dir():
        files.update({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    actual = run_case(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for fname, data in expected.items():
        assert actual[fname] == data, f"{name}/{fname} differs from the golden file"


def regenerate() -> None:
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for fname, data in files.items():
            (target / fname).write_bytes(data)
        print(f"wrote {len(files)} files to {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
