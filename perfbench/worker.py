"""One workload in one fresh interpreter: set-up, warm-up, measurement.

``run.py`` starts this script once per set-up sample and once per
measuring client, so no workload's warmed caches or memory reach
another's figures.  ``--cpu`` pins the process (and every thread it
starts) to one CPU.  The worker prints ``@@READY {json}`` once set-up
(imports, preparation, one warm-up round) is done, with the set-up time
counted from ``--spawned`` (the parent's ``time.monotonic()`` when it
started the process), and, unless ``--phase setup``, ``@@RESULT {json}``
at the end.  Everything else it prints goes to stderr.

Phases:

* ``setup``   -- stop after the warm-up;
* ``measure`` -- then run the closed loop for ``--seconds`` and report
  every op's host time (``run.py`` pools the clients' figures);
* ``trace``   -- run the loop untraced for half the time, then install the
  all-threads tracer for the other half and report the per-layer figures.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from hostspeed import Probe  # noqa: E402
from pinned import DEFAULT_SEED, ROOT, ReferenceError, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Share of a measuring client's time spent in the host-speed probe.
PROBE_SHARE = 0.05
#: An op's host speed is the median of the probe calls made up to this
#: many calls before and after it: about 1.5 s either side on both
#: workloads.  Within a run the host's speed moves over seconds, and over
#: a window this narrow the scaling also steadied the tail of the
#: sweeps ops, which one run-wide probe median did not.
PROBE_NEAR = 5

#: Counts that must repeat exactly between runs at one seed.
EXACT = ("sim.clock.charged_ps", "kernel.trap.count",
         "sim.scheduler.spawn.count", "hw.machine.charge.count")


class OpFailed(Exception):
    """The op raised; the rest of its unit cannot run."""


class Runner:
    """Runs and checks ops; collects latencies and traced records."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.first: dict = {}
        self.latencies = None
        #: Host-speed probe while measuring: the probe, its call times,
        #: and for each op the number of calls made before it ended.
        self.probe = None
        self.probe_s: list = []
        self.probe_at: list = []
        self._busy_s = 0.0
        self._probe_total_s = 0.0
        self.tracer = None
        self.records: list = []
        self.exact_by_key: dict = {}
        self.changed: list = []
        self._last_failed = True

    def op(self, key: str, fn, check):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        error = None
        try:
            result = fn()
        except Exception:  # the op boundary: record it, keep measuring
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        record = tracer.end_op() if tracer is not None else None
        self.attempted += 1
        self._last_failed = False
        if self.latencies is not None:
            self.latencies.append(elapsed)
            self.probe_at.append(len(self.probe_s))
            self._busy_s += elapsed
            self._run_probe()
        if error is not None:
            self._fail(key, "raised:\n" + error)
            raise OpFailed(key)
        output, ok, why = check(result)
        problem = None
        if not ok:
            problem = f"failing verdict: {why}"
        else:
            try:
                expected = self.workload.expected_digest(key)
            except ReferenceError as exc:
                expected = None
                problem = str(exc)
            if expected is not None and output != expected:
                problem = "virtual-time output differs from the pinned reference"
            elif self.first.setdefault(key, output) != output:
                problem = "did not reproduce its first output"
        if problem is not None:
            self._fail(key, problem)
        if record is not None:
            self._record(key, record)
        return result

    def _run_probe(self) -> None:
        """Probe calls until they are PROBE_SHARE of the measured time."""
        if self.probe is None:
            return
        while self._probe_total_s < PROBE_SHARE * (
            self._busy_s + self._probe_total_s
        ):
            elapsed = self.probe.run()
            self.probe_s.append(elapsed)
            self._probe_total_s += elapsed

    def fail_last(self, message: str) -> None:
        """A check over several ops failed: count it against the last."""
        self.messages.append(message)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True

    def _fail(self, key: str, message: str) -> None:
        self.fail_last(f"op {key}: {message}")

    def _record(self, key: str, record) -> None:
        exact = (
            record.charged_ps,
            record.counts["kernel.trap"],
            record.counts["sim.scheduler.spawn"],
            record.counts["hw.machine.charge"],
        )
        first = self.exact_by_key.setdefault(key, exact)
        if first != exact:
            self.changed.append(
                f"simulation changed: op {key} repeated with different "
                f"(charged_ps, traps, spawns, charges) {first} -> {exact}"
            )
        self.records.append((key, record))


def measure(workload, runner, rng, seconds: float):
    """The closed loop, in whole rounds, so every op of the workload runs
    equally often: the mix of a sweeps run (and its percentiles) and the
    traced counts do not depend on where the time ran out.  A round starts
    only if one as long as the last still ends within ``seconds``, so the
    run never outlasts its budget by a round; the first always runs.
    Returns (ops completed, elapsed seconds)."""
    start = time.perf_counter()
    before = runner.attempted
    while True:
        round_start = time.perf_counter()
        units = workload.round_units()
        rng.shuffle(units)
        for unit in units:
            try:
                workload.run_unit(unit, runner)
            except OpFailed:
                pass
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return runner.attempted - before, time.perf_counter() - start


def layer_metrics(runner, workload, explored_before) -> dict:
    """Per-op means of every layer metric over the traced ops."""
    from tracing import COUNT_METRICS, TIMED_METRICS, WAIT_METRIC

    records = [record for _key, record in runner.records]
    n = len(records)
    metrics = {}
    for metric in COUNT_METRICS:
        metrics[f"{metric}.count"] = sum(r.counts[metric] for r in records) / n
    busy_ns = 0
    for metric in TIMED_METRICS:
        total = sum(r.self_ns[metric] for r in records)
        if metric == WAIT_METRIC:
            metrics[f"{metric}_ms"] = total / n / 1e6
        else:
            metrics[f"{metric}.self_ms"] = total / n / 1e6
            busy_ns += total
    wall_ns = sum(r.wall_ns for r in records)
    metrics["sim.clock.charged_ps"] = sum(r.charged_ps for r in records) / n
    metrics["sim.explore.schedules.count"] = sum(
        1 for key, _r in runner.records if key.startswith("sched/")
    ) / n
    fresh = workload.explored[0] - explored_before[0]
    total = workload.explored[1] - explored_before[1]
    metrics["sim.explore.fresh_ratio"] = fresh / total if total else 0.0
    metrics["trace.op_ms"] = wall_ns / n / 1e6
    metrics["trace.unattributed_ratio"] = max(0.0, 1 - busy_ns / wall_ns)
    return metrics


def measure_phase(workload, runner, rng, seconds: float) -> dict:
    """The closed loop's raw figures: every op's host time and the probe's
    median call time around it, and every probe call's time."""
    runner.latencies = []
    runner.probe = Probe()
    _ops, elapsed = measure(workload, runner, rng, seconds)
    probe_ms = [probe * 1e3 for probe in runner.probe_s]
    return {
        "elapsed_s": elapsed,
        "op_ms": [latency * 1e3 for latency in runner.latencies],
        "near_probe_ms": [
            statistics.median(probe_ms[max(0, at - PROBE_NEAR):at + PROBE_NEAR])
            for at in runner.probe_at
        ],
        "probe_ms": probe_ms,
        "tail_pct": workload.tail_pct,
    }


def trace_phase(workload, runner, rng, seconds, plant, delays, setup, seed):
    """Per-layer figures: untraced for half the time, traced for half."""
    from tracing import Tracer

    ops, elapsed = measure(workload, runner, rng, seconds / 2)
    untraced_rate = ops / elapsed
    if delays is not None:
        delays.uninstall()
    tracer = Tracer(plant=plant).install()
    runner.tracer = tracer
    explored_before = tuple(workload.explored)
    try:
        ops, elapsed = measure(workload, runner, rng, seconds / 2)
    finally:
        runner.tracer = None
        tracer.uninstall()
    metrics = layer_metrics(runner, workload, explored_before)
    metrics.update(setup)
    metrics["trace.overhead_ratio"] = untraced_rate / (ops / elapsed)
    if seed == DEFAULT_SEED:
        pinned = workload.reference["exact"].get(workload.name)
        if pinned is None:
            raise ReferenceError(f"no pinned exact counts for {workload.name}")
        for name in EXACT:
            if metrics[name] != pinned[name]:
                runner.changed.append(
                    f"simulation changed: {name} per op is {metrics[name]!r}, "
                    f"pinned {pinned[name]!r}"
                )
    return {"layers": metrics, "traced_ops": ops, "changed": runner.changed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--plant", default="")
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    if args.cpu >= 0:
        # Before any simulated thread exists: they inherit the mask.
        os.sched_setaffinity(0, {args.cpu})
    # Only protocol lines go to stdout; the simulation's prints to stderr.
    sys.stdout = sys.stderr
    plant = {}
    for item in filter(None, args.plant.split(",")):
        name, _, ms = item.partition("=")
        plant[name] = float(ms) / 1e3

    reference = load_reference()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cls = WORKLOADS[args.workload]
    for module in cls.modules:
        importlib.import_module(module)
    imported = time.perf_counter()

    from tracing import Tracer

    delays = Tracer(trace=False, plant=plant).install() if plant else None
    workload = cls(args.seed, reference)
    workload.prepare()
    prepared = time.perf_counter()
    runner = Runner(workload)
    for unit in workload.warmup_units():
        try:
            workload.run_unit(unit, runner)
        except OpFailed:
            pass
    warmed = time.perf_counter()
    setup = {
        "setup.import_ms": (imported - STARTED) * 1e3,
        "setup.prepare_ms": (prepared - imported) * 1e3,
        "setup.warmup_ms": (warmed - prepared) * 1e3,
    }
    # Peak memory of set-up and one warm-up round: a fixed amount of work,
    # so a faster simulator is not charged for the extra ops it completes
    # in the measuring window (a long-lived system grows with every run).
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = time.monotonic() - args.spawned
    _emit("READY", dict(setup, rss_mb=rss_mb, setup_s=setup_s))

    rng = random.Random(args.seed)
    if args.phase == "setup":
        result = {}
    elif args.phase == "measure":
        result = measure_phase(workload, runner, rng, args.seconds)
    else:
        result = trace_phase(workload, runner, rng, args.seconds, plant,
                             delays, setup, args.seed)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        messages=runner.messages[:20],
    )
    _emit("RESULT", result)
    return 0


def _emit(tag: str, payload: dict) -> None:
    sys.__stdout__.write(f"@@{tag} {json.dumps(payload)}\n")
    sys.__stdout__.flush()


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except ReferenceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
