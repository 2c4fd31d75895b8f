"""sweep: the one report type and the one CLI for the three sweeps.

partsweep (DESIGN.md §13), crashsweep (§11) and schedsweep (§15) each
render a :class:`SweepReport`: one line per case, a pass count, and a
SHA-256 digest over the text.  The CLI runs one of them and prints the
transcript, then ``sweep sha256: <digest>``; ``--timings FILE`` writes
``{"sweep", "jobs", "cases", "wall_seconds"}`` as JSON.  The exit code
is 0 only when every case passed, and 2 (after the usage) on bad
arguments.

Run::

    PYTHONPATH=src python -m repro.workloads.sweep \
        NAME [N|all] [--jobs N] [--timings FILE]
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import List, Optional, Tuple

from ..kernel.recovery import _Document
from ..sim.parallel import parse_jobs

#: NAME -> whether its size may be ``all`` (every case).  schedsweep's
#: size is a per-scenario schedule budget, which bounds an open-ended
#: search, so its full run is the default budget.
SWEEPS = {"partsweep": True, "crashsweep": True, "schedsweep": False}

USAGE = (
    "usage: python -m repro.workloads.sweep NAME [N|all] [--jobs N] "
    "[--timings FILE]\n"
    "  NAME is partsweep, crashsweep or schedsweep; N >= 1; "
    "schedsweep takes no 'all'"
)


class SweepReport(_Document):
    """The byte-comparable sweep transcript and its pass count."""

    def __init__(self) -> None:
        super().__init__()
        self.cases = 0
        self.passed = 0

    def case(self, line: str, ok: bool) -> None:
        """Record one case's report line and whether it passed."""
        self.line(line)
        self.cases += 1
        if ok:
            self.passed += 1


def parse_args(
    argv: List[str],
) -> Tuple[str, Tuple[Optional[int], ...], int, Optional[str]]:
    """``(name, size, jobs, timings_path)`` from the CLI arguments, where
    ``size`` is the positional argument for ``run_sweep``: ``()`` for
    its default, ``(None,)`` for ``all``.  Raises ValueError on anything
    malformed."""
    args = list(argv)
    if not args or args[0] not in SWEEPS:
        raise ValueError("unknown or missing NAME")
    name = args.pop(0)
    size: Tuple[Optional[int], ...] = ()
    jobs = 1
    timings_path: Optional[str] = None
    while args:
        arg = args.pop(0)
        if arg in ("--jobs", "--timings"):
            if not args:
                raise ValueError(f"{arg} needs a value")
            value = args.pop(0)
            if arg == "--jobs":
                jobs = parse_jobs(value)
            else:
                timings_path = value
        elif size:
            raise ValueError("more than one size")
        elif arg == "all":
            if not SWEEPS[name]:
                raise ValueError(f"{name} takes no 'all'")
            size = (None,)
        else:
            count = int(arg)
            if count < 1:
                raise ValueError("N must be >= 1")
            size = (count,)
    return name, size, jobs, timings_path


def main(argv: Optional[List[str]] = None) -> int:
    try:
        name, size, jobs, timings_path = parse_args(
            sys.argv[1:] if argv is None else argv
        )
    except ValueError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"{__package__}.{name}")
    start = time.perf_counter()
    report = module.run_sweep(*size, jobs=jobs)
    wall_seconds = time.perf_counter() - start
    print(report.text(), end="")
    print(f"sweep sha256: {report.digest()}")
    if timings_path is not None:
        with open(timings_path, "w") as fh:
            json.dump(
                {
                    "sweep": name,
                    "jobs": jobs,
                    "cases": report.cases,
                    "wall_seconds": round(wall_seconds, 3),
                },
                fh,
                sort_keys=True,
            )
            fh.write("\n")
    return 0 if report.passed == report.cases else 1


if __name__ == "__main__":
    raise SystemExit(main())
