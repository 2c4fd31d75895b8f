#!/usr/bin/env python3
"""Fill in the measured part of ``layers.json`` from traced runs.

For each workload, one ``run.py --trace 1`` at the default seed; per
layer, its self time as a share of the traced op's wall time and every
metric's per-op value.  ::

    python3 perfbench/shares.py [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS_PATH = os.path.join(HERE, "layers.json")
WORKLOADS = ("figures", "sweeps")


def traced(workload: str, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args(argv)
    runs = {workload: traced(workload, args.seconds) for workload in WORKLOADS}
    with open(LAYERS_PATH) as fh:
        document = json.load(fh)
    for layer in document["layers"]:
        measured = {}
        for workload, values in runs.items():
            self_ms = sum(
                values[name] for name in layer["metrics"]
                if name.endswith(".self_ms")
            )
            entry = {name: round(values[name], 6) for name in layer["metrics"]}
            entry["share"] = round(self_ms / values["trace.op_ms"], 4)
            measured[workload] = entry
        layer["measured"] = measured
    with open(LAYERS_PATH, "w") as fh:
        fh.write("{\n")
        fh.write(f' "about": {json.dumps(document["about"])},\n')
        fh.write(' "layers": [\n')
        fh.write(",\n".join(
            "  " + json.dumps(layer) for layer in document["layers"]
        ))
        fh.write("\n ]\n}\n")
    for layer in document["layers"]:
        shares = ", ".join(
            f"{w} {m['share']:.1%}" for w, m in layer["measured"].items()
        )
        print(f"{layer['layer']:18s} {shares}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
