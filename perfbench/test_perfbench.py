"""Self-tests of the benchmark: fail-closed references, exact simulated
counts, and sensitivity to a deliberately slower layer.

They run the benchmark itself, for a few seconds per run, so they take
about ten minutes.  Run them from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import pinned  # noqa: E402

SEED = 1
#: Planted per-call delays (ms).  A snapshot clone is about half of a
#: sweeps op and absent from figures.  A figures op makes about 30 traps
#: per ms and a sweeps op about 2, so 15 us per trap adds about 45% to a
#: figures op and 3% to a sweeps op.
CLONE_DELAY_MS = 20.0
TRAP_DELAY_MS = 0.015
#: An op pinned at every seed.
PINNED_OP = "crash/0"


def run(workload, seconds, trace=0, plant="", cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace), "--plant", plant],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout.splitlines()[-1]), proc.stdout
    return proc


def metric(result, name):
    return result["metrics"][name]["value"]


# -- fail closed -----------------------------------------------------------------


@pytest.fixture
def checkout(tmp_path):
    """A scratch checkout: a copy of the benchmark, the program linked."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for name in ("src", "benchmarks"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    return tmp_path


def assert_refused(proc):
    assert proc.returncode != 0
    last = (proc.stdout.splitlines() or [""])[-1]
    assert '"correct"' not in last


def test_missing_reference_exits_without_a_result(checkout):
    os.remove(checkout / "perfbench" / "reference.json")
    assert_refused(run("sweeps", 1, cwd=checkout, check=False))


def test_corrupt_reference_exits_without_a_result(checkout):
    path = checkout / "perfbench" / "reference.json"
    text = path.read_text()
    digest = json.loads(text)["data"]["ops"]["sweeps"][PINNED_OP]
    path.write_text(text.replace(digest, "0" * len(digest)))
    assert_refused(run("sweeps", 1, cwd=checkout, check=False))


def test_missing_golden_exits_without_a_result(checkout):
    os.remove(checkout / "benchmarks")
    assert_refused(run("figures", 1, cwd=checkout, check=False))


def test_bare_benchmark_directory_exits_without_a_result(checkout):
    os.remove(checkout / "src")
    os.remove(checkout / "benchmarks")
    assert_refused(run("sweeps", 1, cwd=checkout, check=False))


def test_changed_output_fails_the_run(checkout):
    path = str(checkout / "perfbench" / "reference.json")
    data = pinned.load_reference(path)
    data["ops"]["sweeps"][PINNED_OP] = "0" * 64
    pinned.write_reference(data, path)
    proc = run("sweeps", 1, cwd=checkout, check=False)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "differs from the pinned reference" in proc.stdout


# -- exact simulated counts ------------------------------------------------------


def test_exact_counts_repeat_between_traced_runs():
    first, out1 = run("figures", 1, trace=1)
    second, out2 = run("figures", 1, trace=1)
    for name in ("sim.clock.charged_ps", "kernel.trap.count",
                 "sim.scheduler.spawn.count", "hw.machine.charge.count"):
        assert metric(first, name) == metric(second, name), name
        assert metric(first, name) > 0, name
    assert "simulation changed" not in out1 + out2


# -- sensitivity -----------------------------------------------------------------


@pytest.fixture(scope="module")
def untraced():
    """Interleaved untraced runs: baseline and each planted layer."""
    plan = {"base": "", "clone": f"sim.snapshot.clone={CLONE_DELAY_MS}",
            "trap": f"kernel.trap={TRAP_DELAY_MS}"}
    # Long enough (about 15 figures ops) that host drift between runs
    # stays inside the bounds.
    seconds = {"figures": 15, "sweeps": 8}
    results = {w: {name: [] for name in plan} for w in seconds}
    for _repeat in range(3):
        for workload, runs in results.items():
            for name, plant in plan.items():
                result, _out = run(workload, seconds[workload], plant=plant)
                runs[name].append(result)
    return results


def assert_attributed(workload, layer, delay_ms):
    """The traced run puts the added time in the planted layer."""
    base, _ = run(workload, 2, trace=1)
    planted, _ = run(workload, 2, trace=1, plant=f"{layer}={delay_ms}")
    count = metric(planted, f"{layer}.count")
    growth = {
        name: metric(planted, name) - metric(base, name)
        for name in base["metrics"] if name.endswith(".self_ms")
    }
    assert max(growth, key=growth.get) == f"{layer}.self_ms"
    assert growth[f"{layer}.self_ms"] >= 0.9 * count * delay_ms


@pytest.mark.parametrize("layer, delay_ms, loaded, bypass", [
    ("sim.snapshot.clone", CLONE_DELAY_MS, "sweeps", "figures"),
    ("kernel.trap", TRAP_DELAY_MS, "figures", "sweeps"),
])
def test_planted_delay_trips_only_where_the_layer_works(
    untraced, layer, delay_ms, loaded, bypass
):
    plan = "clone" if layer == "sim.snapshot.clone" else "trap"
    flagged = compare.regressions(untraced[loaded]["base"],
                                  untraced[loaded][plan])
    assert flagged, f"{layer} delay not flagged on {loaded}"
    # setup_s is left out on the bypass side: three set-up medians move by
    # more than its bound with host drift alone (it is also the one metric
    # whose run-to-run spread the benchmark does not bound).
    unflagged = compare.regressions(untraced[bypass]["base"],
                                    untraced[bypass][plan])
    assert [line for line in unflagged if not line.startswith("setup_s")] == []
    assert_attributed(loaded, layer, delay_ms)
