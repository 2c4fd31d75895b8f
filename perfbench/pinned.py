"""Pinned references: the simulator's expected outputs, by op.

``reference.json`` holds one sha256 per op key (virtual-time results and
sweep report lines), the sha256 of each sweep transcript, and the exact
simulated counts per workload, all at :data:`DEFAULT_SEED`.  The file
carries a checksum of its own data, so a truncated or hand-edited file is
refused as unreadable instead of being read as a set of new expectations.
Regenerate it only when a change intends to move virtual time::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Figure 5 at the golden size, committed with the simulator itself.
GOLDEN_FIG5_PATH = os.path.join(ROOT, "benchmarks", "golden_fig5_virtual_ns.json")

#: The seed the references were recorded at.
DEFAULT_SEED = 0


class ReferenceError(RuntimeError):
    """A pinned reference is missing or unreadable."""


def canon(value):
    """JSON-safe canonical form: NaN becomes the string "NaN", tuples
    become lists (as a JSON round trip would make them)."""
    if isinstance(value, dict):
        return {str(key): canon(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(val) for val in value]
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def canonical_json(value) -> str:
    return json.dumps(canon(value), sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """sha256 of an output's canonical JSON (a str is hashed as is)."""
    text = value if isinstance(value, str) else canonical_json(value)
    return hashlib.sha256(text.encode()).hexdigest()


def load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReferenceError(f"{what} {path} is missing or unreadable: {exc}")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    document = load_json(path, "pinned reference")
    if not isinstance(document, dict) or set(document) != {"sha256", "data"}:
        raise ReferenceError(f"pinned reference {path} is malformed")
    if digest(document["data"]) != document["sha256"]:
        raise ReferenceError(
            f"pinned reference {path} fails its checksum (corrupted or "
            "edited by hand; re-record it with record_reference.py)"
        )
    return document["data"]


def write_reference(data: dict, path: str = REFERENCE_PATH) -> None:
    with open(path, "w") as fh:
        json.dump({"sha256": digest(data), "data": data}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def load_golden_fig5():
    """(iterations, raw virtual ns) of the committed golden Figure 5."""
    golden = load_json(GOLDEN_FIG5_PATH, "golden Figure 5")
    try:
        return golden["fig5_iters"], golden["fig5_virtual_ns"]
    except (KeyError, TypeError):
        raise ReferenceError(f"golden Figure 5 {GOLDEN_FIG5_PATH} is malformed")
