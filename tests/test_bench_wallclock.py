"""``benchmarks/bench_wallclock.py --check`` fails closed."""

import importlib.util
import json
import os

import pytest

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "benchmarks", "bench_wallclock.py",
)


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_wallclock", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_fails_without_a_reference_file(bench, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert bench.main(["--check", "--out", str(missing)]) != 0
    out = capsys.readouterr().out
    assert "no committed reference" in out
    assert "passed" not in out


def test_check_fails_on_a_scenario_without_an_entry(
    bench, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(
        bench, "SCENARIOS", {"known": lambda: 0.0, "unknown": lambda: 0.0}
    )
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"scenarios": {"known": {"seconds": 1.0}}}))
    argv = ["--check", "--out", str(reference), "--repeats", "1", "--no-isolate"]
    assert bench.main(argv) != 0
    out = capsys.readouterr().out
    assert "unknown" in out and "MISSING" in out
    assert "passed" not in out


def test_check_passes_when_every_scenario_is_within_tolerance(
    bench, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(bench, "SCENARIOS", {"known": lambda: 0.0})
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"scenarios": {"known": {"seconds": 1.0}}}))
    argv = ["--check", "--out", str(reference), "--repeats", "1", "--no-isolate"]
    assert bench.main(argv) == 0
    assert "wall-clock check passed" in capsys.readouterr().out
