#!/usr/bin/env python3
"""Summarise benchmark runs and compare two sets against the bounds.

Each input file holds one result per line: the last stdout line of
``run.py --trace 0``, as the benchmark prints it.  ::

    python3 perfbench/compare.py base.jsonl            # medians, spreads
    python3 perfbench/compare.py base.jsonl new.jsonl  # + regressions

The spread of a metric is the distance between the first and the third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  A metric regresses when the second set's median is
worse than the first's by more than the metric's ``bound`` in
``BENCHMARK.json``.  Exits 1 when any metric regresses.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end() -> Dict[str, dict]:
    with open(SPEC_PATH) as fh:
        return {metric["name"]: metric for metric in json.load(fh)["end_to_end"]}


def values(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs]


def spread(samples: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def regressions(base_runs: List[dict], new_runs: List[dict]) -> List[str]:
    found = []
    for name, metric in end_to_end().items():
        base = statistics.median(values(base_runs, name))
        new = statistics.median(values(new_runs, name))
        worse = worsening(base, new, metric["better"])
        if worse > metric["bound"]:
            found.append(
                f"{name}: {base:.6g} -> {new:.6g} {metric['unit']} "
                f"({worse:+.1%} worse, bound {metric['bound']:.0%})"
            )
    return found


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_runs(path) for path in argv]
    for path, runs in zip(argv, sets):
        print(f"{path}: {len(runs)} run(s)")
        for name, metric in end_to_end().items():
            samples = values(runs, name)
            line = f"  {name:12s} median {statistics.median(samples):.6g} {metric['unit']}"
            if len(samples) >= 2:
                line += f"  spread {spread(samples):.2%} (bound {metric['bound']:.0%})"
            print(line)
    if len(sets) == 1:
        return 0
    found = regressions(*sets)
    for line in found:
        print(f"REGRESSION {line}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
