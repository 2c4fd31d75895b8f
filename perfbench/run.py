#!/usr/bin/env python3
"""The simulator's wall-clock benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures|sweeps \\
        --seed N --seconds S --trace 0|1

Each workload runs in fresh interpreters (``worker.py``), one per CPU
(two at most), each pinned to its CPU: set-up is timed from process start
to the end of one warm-up round, in several rounds of fresh interpreters,
and the middle round goes on to measure, each interpreter as one
closed-loop client.  The clients' ops are pooled: on a shared host the
CPUs are slowed by other tenants mostly independently, so two clients
side by side halve the variance a run inherits from the host, where one
client running twice as long could not fit the time budget.  The op
timings are scaled to a nominal host speed by a probe the clients run
between ops (``hostspeed.py``).  With
``--trace 0`` the last line of stdout is a JSON object with every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric, from a separate traced run (one client).  Every op's
output is checked against ``reference.json`` (and Figure 5 against the
committed golden); a missing or corrupt reference exits non-zero without
a result, and any failed op makes the result ``"correct": false`` and the
exit status 1.

``--plant LAYER=MS[,...]`` adds a fixed busy wait to every call into a
traced layer (e.g. ``sim.snapshot.clone=20``); the self-test uses it to
check the benchmark notices a slower layer where, and only where, that
layer does work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import NOMINAL_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Measuring clients run side by side, one per CPU; fewer if the process
#: may use fewer CPUs.
CLIENTS = 2
#: Rounds of fresh interpreters (one per client CPU): set-up only, then
#: the measuring clients, then set-up only again, so the set-up samples
#: span the run rather than one moment of the host's drift.
#: ``setup_s`` and ``peak_rss_mb`` are medians over every round's
#: interpreters.
PHASES = ("setup", "measure", "setup")
#: Every worker is killed once the run has taken this many seconds.
CHILD_LIMIT_S = 170.0


SETUP_SPLIT = ("setup.import_ms", "setup.prepare_ms", "setup.warmup_ms")


class BenchError(RuntimeError):
    pass


def _spawn(args, phase: str, deadline: float, cpu: int):
    """Start one worker; returns (process, watchdog timer)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase,
        "--plant", args.plant, "--cpu", str(cpu),
        "--spawned", repr(time.monotonic()),
    ]
    # One string-hash layout for every run: it moves dict performance.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return proc, timer


def _read(proc, tag: str) -> dict:
    prefix = f"@@{tag} "
    for line in proc.stdout:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
        sys.stderr.write(line)
    raise BenchError(f"worker ended without {tag} (exit {proc.wait()})")


def _stop(proc, timer) -> int:
    """Wait for the worker to end (killing it at the deadline); its exit
    status."""
    try:
        for line in proc.stdout:
            sys.stderr.write(line)
        return proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_workers(args, phase: str, deadline: float, cpus) -> list:
    """Fresh interpreters side by side, one pinned to each CPU of ``cpus``
    (-1: not pinned): their (ready info, result) pairs."""
    workers = []
    try:
        for cpu in cpus:
            workers.append(_spawn(args, phase, deadline, cpu))
        outcomes = [
            (_read(proc, "READY"), _read(proc, "RESULT"))
            for proc, _timer in workers
        ]
    except BaseException:
        for proc, _timer in workers:
            proc.kill()
        for proc, timer in workers:
            _stop(proc, timer)
        raise
    codes = [_stop(proc, timer) for proc, timer in workers]
    if any(codes):
        raise BenchError(f"worker exit statuses {codes}")
    return outcomes


def tail(samples, pct: float):
    """(value, samples beyond it) of the ``pct`` percentile."""
    index = max(0, math.ceil(pct / 100 * len(samples)) - 1)
    return sorted(samples)[index], len(samples) - index - 1


def end_to_end(args, deadline: float):
    """Set-up and measuring rounds: (metric values, result)."""
    cpus = sorted(os.sched_getaffinity(0))[:CLIENTS]
    readies = []
    results = []
    for phase in PHASES:
        outcomes = run_workers(args, phase, deadline, cpus)
        readies += [ready for ready, _result in outcomes]
        results += [result for _ready, result in outcomes]
        if phase == "measure":
            clients = results[-len(outcomes):]
    raw_ms = [ms for client in clients for ms in client["op_ms"]]
    op_ms = [
        ms * NOMINAL_MS / near
        for client in clients
        for ms, near in zip(client["op_ms"], client["near_probe_ms"])
    ]
    probe_ms = statistics.median(
        ms for client in clients for ms in client["probe_ms"]
    )
    pct = clients[0]["tail_pct"]
    tail_ms, beyond = tail(op_ms, pct)
    result = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "messages": [m for r in results for m in r["messages"]],
    }
    setups = [ready["setup_s"] for ready in readies]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in readies),
        "ok_ratio": 1 - result["failed"] / result["attempted"],
    }
    print(
        f"{args.workload}: {len(op_ms)} ops by {len(clients)} client(s) on "
        f"CPUs {cpus} in "
        + ", ".join(f"{c['elapsed_s']:.2f}" for c in clients)
        + f" s; op_ms_tail is p{pct:g} of {len(op_ms)} samples "
        f"({beyond} beyond it)"
    )
    print(
        f"host speed: probe call median {probe_ms:.3f} ms over "
        f"{sum(len(c['probe_ms']) for c in clients)} calls (nominal "
        f"{NOMINAL_MS:g} ms); unscaled ops_per_s "
        f"{len(raw_ms) / (sum(raw_ms) / 1e3):.4f}, op_ms_p50 "
        f"{statistics.median(raw_ms):.3f}, op_ms_tail "
        f"{tail(raw_ms, pct)[0]:.3f}"
    )
    print(
        "setup_s samples "
        + ", ".join(f"{setup:.3f}" for setup in setups)
        + " (last split: "
        + ", ".join(f"{k}={readies[-1][k]:.1f}" for k in SETUP_SPLIT) + ")"
    )
    return values, result


def per_layer(args, deadline: float):
    """The traced worker: (metric values, result)."""
    [(_ready, result)] = run_workers(args, "trace", deadline, [-1])
    for line in result["changed"]:
        print(line)
    _print_shares(result["layers"])
    return result["layers"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from pinned import ReferenceError, load_json, load_reference

    try:
        spec = load_json(SPEC_PATH, "benchmark spec")
        load_reference()
    except ReferenceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_LIMIT_S

    try:
        if args.trace:
            values, result = per_layer(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, result = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for message in result["messages"]:
        print(f"FAILED {message}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            print(f"perfbench: no value for metric {name}", file=sys.stderr)
            return 2
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _print_shares(values: dict) -> None:
    """Each layer's share of the op's wall time (self time / op time)."""
    op_ms = values["trace.op_ms"]
    shares = sorted(
        ((v / op_ms, k[: -len(".self_ms")]) for k, v in values.items()
         if k.endswith(".self_ms")),
        reverse=True,
    )
    print(f"traced op: {op_ms:.3f} ms; layer shares of op wall time:")
    for share, layer in shares:
        print(f"  {layer:28s} {share:7.2%}")
    print(f"  {'(unattributed)':28s} {values['trace.unattributed_ratio']:7.2%}")


if __name__ == "__main__":
    raise SystemExit(main())
