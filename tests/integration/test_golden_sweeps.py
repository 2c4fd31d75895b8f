"""The sweep transcripts, pinned against a committed golden.

Each sweep renders a byte-comparable transcript sealed by a SHA-256
digest; determinism across runs, ``PYTHONHASHSEED`` and ``--jobs`` is
checked elsewhere run-against-run, which cannot catch a change that
moves every run the same way.  This test compares each full sweep, run
serially, with the digest committed in
``benchmarks/golden_sweep_sha256.json``.  A missing golden fails the
test.

If a change *intends* to move a transcript, re-record its digest from
the ``sweep sha256:`` line the CLI prints::

    PYTHONPATH=src python -m repro.workloads.partsweep all
    PYTHONPATH=src python -m repro.workloads.crashsweep all
    PYTHONPATH=src python -m repro.workloads.schedsweep
"""

import json
import os

import pytest

from repro.workloads import crashsweep, partsweep, schedsweep

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "..", "benchmarks", "golden_sweep_sha256.json",
)

#: Golden key -> the serial full sweep it pins.
SWEEPS = {
    "partsweep all": lambda: partsweep.run_sweep(max_cases=None, jobs=1),
    "crashsweep all": lambda: crashsweep.run_sweep(max_sites=None, jobs=1),
    "schedsweep": lambda: schedsweep.run_sweep(jobs=1),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_transcript_matches_golden(name):
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh)[name]
    assert SWEEPS[name]().digest() == expected
