#!/usr/bin/env python
"""Wall-clock benchmark harness: how fast does the *simulator* run?

Virtual time answers the paper's questions; this harness answers ours —
every PR replays the hot paths below millions of times, so the repo
keeps a recorded wall-clock trajectory in ``BENCH_wallclock.json``.

Scenarios (deterministic virtual work, wall seconds measured):

* ``trap_storm``       — tight getpid() loops through both personas
                         (Linux -errno ABI and the translated XNU ABI):
                         the ``Kernel.trap`` fast path.
* ``path_lookup_storm``— repeated ``VFS.resolve`` over deep framework
                         paths: the per-component lookup path.
* ``exec_storm``       — repeated execs of the same Mach-O image: dyld's
                         115-library walk (paper §6.2).
* ``fig5_mini``        — one-iteration Figure-5 run across all four
                         system configurations: the end-to-end harness.

Usage::

    python benchmarks/bench_wallclock.py                  # run + update JSON
    python benchmarks/bench_wallclock.py --record-baseline  # pre-PR anchor
    python benchmarks/bench_wallclock.py --check            # CI regression gate

The committed JSON holds a ``baseline`` section (recorded *before* the
hot-path engine landed, on the same machine that recorded ``scenarios``)
and a ``scenarios`` section (the current numbers).  ``--check`` re-runs
the suite and fails if any scenario is more than ``--tolerance`` (default
25%) slower than the committed ``scenarios`` numbers.  It fails closed:
a missing ``--out`` file, or a scenario with no committed entry, is an
error, never a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

TRAP_ITERS = 50_000
LOOKUP_ITERS = 120_000
EXEC_ITERS = 60
FIG5_ITERS = 2


# -- scenarios ----------------------------------------------------------------


def bench_trap_storm() -> float:
    """getpid() storms through both personas; boot excluded from timing."""
    from repro.binfmt import elf_executable, macho_executable
    from repro.cider.system import build_cider

    def storm(ctx, argv):
        getpid = ctx.libc.getpid
        for _ in range(TRAP_ITERS):
            getpid()
        return 0

    with build_cider() as system:
        system.kernel.vfs.install_binary(
            "/system/bin/trapstorm", elf_executable("trapstorm", storm)
        )
        system.kernel.vfs.install_binary(
            "/bin/trapstorm-ios", macho_executable("trapstorm-ios", storm)
        )
        start = time.perf_counter()
        assert system.run_program("/system/bin/trapstorm") == 0
        assert system.run_program("/bin/trapstorm-ios") == 0
        return time.perf_counter() - start


def bench_path_lookup_storm() -> float:
    """VFS.resolve over deep paths (the dyld-walk shape, paper §6.2)."""
    from repro.cider.system import build_cider

    with build_cider() as system:
        vfs = system.kernel.vfs
        paths = [
            p
            for p in vfs.walk("/System")
            if p.count("/") >= 4
        ][:12]
        assert len(paths) >= 4, "expected deep framework paths"
        start = time.perf_counter()
        for i in range(LOOKUP_ITERS):
            vfs.resolve(paths[i % len(paths)])
        return time.perf_counter() - start


def bench_exec_storm() -> float:
    """Repeated cold execs of the same Mach-O hello (115-library walks)."""
    from repro.cider.system import build_cider

    with build_cider() as system:
        start = time.perf_counter()
        for _ in range(EXEC_ITERS):
            assert system.run_program("/bin/hello-ios") == 0
        return time.perf_counter() - start


def bench_fig5_mini() -> float:
    """Small Figure 5 run across all four configurations."""
    from repro.workloads.harness import run_figure5

    start = time.perf_counter()
    run_figure5(iters=FIG5_ITERS)
    return time.perf_counter() - start


SCENARIOS: Dict[str, Callable[[], float]] = {
    "trap_storm": bench_trap_storm,
    "path_lookup_storm": bench_path_lookup_storm,
    "exec_storm": bench_exec_storm,
    "fig5_mini": bench_fig5_mini,
}


# -- harness ------------------------------------------------------------------


def run_suite(repeats: int, isolate: bool = True) -> Dict[str, Dict[str, float]]:
    """Each repeat runs in a forked child (``repro.sim.parallel
    .isolate_call``): scenarios measure a pristine process — no warm
    linker/zone caches, interned state, or allocator history leaking
    from previously-run scenarios — while still inheriting the parent's
    imports.  ``--no-isolate`` (or a fork-less platform) falls back to
    in-process measurement."""
    from repro.sim.parallel import fork_available, isolate_call

    isolate = isolate and fork_available()
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in SCENARIOS.items():
        runs = (
            [isolate_call(fn) for _ in range(repeats)]
            if isolate
            else [fn() for _ in range(repeats)]
        )
        best = min(runs)
        results[name] = {"seconds": round(best, 4)}
        print(f"  {name:>20}: {best:8.3f} s")
    return results


def load_json(path: str) -> Dict:
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run as the committed pre-optimisation baseline",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: fail if > tolerance slower than committed",
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--no-isolate",
        action="store_true",
        help="measure in-process instead of one forked child per repeat",
    )
    args = parser.parse_args(argv)
    if args.check and not os.path.exists(args.out):
        print(f"FAIL: no committed reference at {args.out}")
        return 2

    print(f"bench_wallclock: {args.repeats} repeats per scenario")
    results = run_suite(args.repeats, isolate=not args.no_isolate)
    committed = load_json(args.out)

    if args.check:
        reference = committed.get("scenarios", {})
        failures = []
        for name, entry in results.items():
            ref = reference.get(name, {}).get("seconds")
            if ref is None:
                print(f"  check {name:>20}: no committed entry MISSING")
                failures.append(name)
                continue
            limit = ref * (1.0 + args.tolerance)
            status = "ok" if entry["seconds"] <= limit else "REGRESSION"
            print(
                f"  check {name:>20}: {entry['seconds']:.3f}s vs committed "
                f"{ref:.3f}s (limit {limit:.3f}s) {status}"
            )
            if entry["seconds"] > limit:
                failures.append(name)
        if failures:
            print(f"FAIL: wall-clock regression or no reference in {failures}")
            return 1
        print("wall-clock check passed")
        return 0

    doc = {
        "schema": 1,
        "workload": {
            "trap_iters": TRAP_ITERS,
            "lookup_iters": LOOKUP_ITERS,
            "exec_iters": EXEC_ITERS,
            "fig5_iters": FIG5_ITERS,
        },
        "scenarios": results,
        "baseline": results if args.record_baseline else committed.get(
            "baseline", {}
        ),
    }
    baseline = doc["baseline"]
    if baseline and not args.record_baseline:
        doc["speedup_vs_baseline"] = {
            name: round(
                baseline[name]["seconds"] / entry["seconds"], 2
            )
            for name, entry in results.items()
            if name in baseline and entry["seconds"] > 0
        }
        for name, speedup in doc["speedup_vs_baseline"].items():
            print(f"  speedup {name:>18}: {speedup:5.2f}x vs baseline")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
