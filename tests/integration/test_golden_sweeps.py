"""The sweep transcripts, pinned against a committed golden.

Each sweep renders a byte-comparable transcript sealed by a SHA-256
digest; determinism across runs, ``PYTHONHASHSEED`` and ``--jobs`` is
checked elsewhere run-against-run, which cannot catch a change that
moves every run the same way.  This test compares each full sweep, run
serially, with the digest committed in
``benchmarks/golden_sweep_sha256.json``.  A missing golden fails the
test.

The golden keys are the CLI arguments of each sweep's full run.  If a
change *intends* to move a transcript, re-record its digest from the
``sweep sha256:`` line the CLI prints::

    PYTHONPATH=src python -m repro.workloads.sweep partsweep all
    PYTHONPATH=src python -m repro.workloads.sweep crashsweep all
    PYTHONPATH=src python -m repro.workloads.sweep schedsweep
"""

import importlib
import json
import os

import pytest

from repro.workloads import sweep

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "benchmarks", "golden_sweep_sha256.json",
)

#: The golden keys: each sweep's full run, as CLI arguments.
FULL_RUNS = sorted(
    f"{name} all" if every else name for name, every in sweep.SWEEPS.items()
)


@pytest.mark.parametrize("key", FULL_RUNS)
def test_sweep_transcript_matches_golden(key):
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh)[key]
    name, size, jobs, _timings = sweep.parse_args(key.split())
    module = importlib.import_module(f"repro.workloads.{name}")
    assert module.run_sweep(*size, jobs=jobs).digest() == expected
