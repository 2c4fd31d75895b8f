"""``python -m repro.workloads.sweep``: the one CLI for the three sweeps.

Bad arguments fail closed (usage on stderr, exit 2, nothing swept); a
good run prints the transcript, its ``sweep sha256:`` line and the
timings JSON.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.workloads import crashsweep, sweep


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosweep"],
        ["crashsweep", "0"],
        ["crashsweep", "-3"],
        ["schedsweep", "-5"],
        ["partsweep", "x"],
        ["partsweep", "1.5"],
        ["partsweep", "2", "3"],
        ["crashsweep", "2", "--jobs"],
        ["crashsweep", "2", "--jobs", "-1"],
        ["crashsweep", "2", "--timings"],
        ["schedsweep", "all"],
    ],
)
def test_bad_arguments_print_usage_and_exit_2(argv, capsys):
    assert sweep.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: python -m repro.workloads.sweep")


def test_small_crashsweep_run(tmp_path):
    timings = tmp_path / "timings.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.workloads.sweep", "crashsweep", "2",
         "--timings", str(timings)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = crashsweep.run_sweep(2)
    assert proc.stdout == (
        f"{report.text()}sweep sha256: {report.digest()}\n"
    )
    data = json.loads(timings.read_text())
    assert sorted(data) == ["cases", "jobs", "sweep", "wall_seconds"]
    assert (data["sweep"], data["jobs"], data["cases"]) == ("crashsweep", 1, 2)
