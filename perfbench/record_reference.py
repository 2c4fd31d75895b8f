#!/usr/bin/env python3
"""Re-record ``reference.json``: every op's output, the sweep transcripts
and the exact simulated counts per op, at the default seed.

Run only when a change intends to move the simulator's output::

    python3 perfbench/record_reference.py

Each workload sets up and warms up as a run does, then runs one traced
round in this process.  The sweep transcripts are cross-checked against
the sweep harnesses' own reports (``run_sweep``), so the benchmark's
per-op decomposition is the sweep that users run.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pinned import DEFAULT_SEED, ROOT, digest, write_reference  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer  # noqa: E402
from worker import EXACT, Runner, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _record(name: str):
    workload = WORKLOADS[name](DEFAULT_SEED, {"ops": {}, "transcripts": {}})
    workload.expected_digest = lambda key: None
    workload.prepare()
    runner = Runner(workload)
    for unit in workload.warmup_units():  # as a run's set-up does
        workload.run_unit(unit, runner)
    units = workload.round_units()
    random.Random(DEFAULT_SEED).shuffle(units)
    tracer = Tracer().install()
    runner.tracer = tracer
    try:
        for unit in units:
            workload.run_unit(unit, runner)
    finally:
        tracer.uninstall()
    failures = [m for m in runner.messages if "no pinned" not in m]
    if failures:
        raise SystemExit(f"{name}: ops failed while recording: {failures}")
    metrics = layer_metrics(runner, workload, (0, 0))
    return workload, dict(runner.first), {key: metrics[key] for key in EXACT}


def _sweep_transcripts(workload) -> dict:
    """Per-sweep transcript digests, checked against ``run_sweep``."""
    from repro.workloads import crashsweep, partsweep, schedsweep

    bodies = {
        sweep: [lines[i] for i in range(workload.sizes[sweep])]
        for sweep, lines in workload.lines.items()
    }
    cli = {
        "partsweep": partsweep.run_sweep(None, seed=DEFAULT_SEED).lines[2:-1],
        "crashsweep": crashsweep.run_sweep(None).lines[2:-1],
        # schedsweep's report adds one verdict line per scenario, which
        # the benchmark checks separately.
        "schedsweep": [
            line for line in schedsweep.run_sweep().lines[1:-1]
            if ": expected " not in line
        ],
    }
    for sweep, body in bodies.items():
        if "\n".join(body).split("\n") != cli[sweep]:
            raise SystemExit(f"{sweep}: op outputs differ from run_sweep")
    return {sweep: digest("\n".join(body)) for sweep, body in bodies.items()}


def main() -> int:
    data = {"ops": {}, "transcripts": {}, "exact": {}}
    for name in WORKLOADS:
        workload, outputs, exact = _record(name)
        data["ops"][name] = outputs
        data["exact"][name] = exact
        if name == "sweeps":
            data["transcripts"] = _sweep_transcripts(workload)
        print(f"{name}: {len(outputs)} op output(s); {exact}")
    write_reference(data)
    print("recorded perfbench/reference.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
