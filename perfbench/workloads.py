"""The benchmark's workloads.

Each client of a workload is a closed loop: the next op starts when the
previous one has returned.  A workload splits into *units*; a round
is one pass over every unit, shuffled by the seed, and most units are one
op.  The program receives only the inputs generated here.

* ``figures`` -- one op regenerates the paper's evaluation:
  ``run_figure5`` at the golden size, then ``run_figure6``, over android,
  cider_android, cider_ios and ios.  What a reader of the paper runs:
  per-op boot, exec, the dyld library walk, duct-tape links, VFS lookups,
  Dalvik, the GL diplomats and the GPU; no snapshots, network, explorer
  or journal.
* ``sweeps`` -- one op is one partsweep case, one crashsweep site or one
  schedsweep schedule (every case, site and explored schedule, at
  ``jobs=1``).  Each op builds a fresh world.  Loads world construction,
  the network fault and retry paths, the durable journal with fsync and
  reboot, and the schedule policies with the happens-before monitor.

A third workload, the lmbench syscall/IPC binaries on long-lived systems,
was left out: on a shared host, whose speed drifts by 20-40% over
minutes, three workloads only fit the benchmark's time budget with runs
too short to average that drift out, and every layer it loads (traps,
persona translation, thread handoffs) is also loaded by these two.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from pinned import (
    DEFAULT_SEED,
    ReferenceError,
    canonical_json,
    digest,
    load_golden_fig5,
)


class Workload:
    """Base: pinned-output lookup and the unit interface."""

    name = ""
    #: Program modules the workload imports before its preparation.
    modules: Tuple[str, ...] = ()
    #: Op-key prefixes whose outputs depend on the seed: pinned only at
    #: the default seed, elsewhere checked by verdict and by repetition.
    seed_dependent: Tuple[str, ...] = ()
    #: The percentile ``op_ms_tail`` reports: the highest that stays
    #: steady between runs on a shared host at the benchmark's run length
    #: (ten samples beyond it are too few: a handful of host stalls moved
    #: a p99 by 30% between runs).  Fixed per workload, so a faster or
    #: slower run does not switch percentiles.
    tail_pct = 90

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference
        self.pinned: Dict[str, str] = reference["ops"].get(self.name, {})
        #: (fresh signatures, explored schedules) over the explorations run.
        self.explored = [0, 0]

    def expected_digest(self, key: str) -> Optional[str]:
        """The pinned output of op ``key``; None where the output depends
        on a non-default seed.  A missing entry is an error, not a pass."""
        if self.seed != DEFAULT_SEED and key.startswith(self.seed_dependent):
            return None
        try:
            return self.pinned[key]
        except KeyError:
            raise ReferenceError(f"no pinned reference for op {key}")

    def prepare(self) -> None:
        """Preparation before the warm-up (installs, record passes)."""

    def warmup_units(self) -> List:
        return self.round_units()

    def round_units(self) -> List:
        raise NotImplementedError

    def run_unit(self, unit, runner) -> None:
        raise NotImplementedError


# -- figures -------------------------------------------------------------------


class Figures(Workload):
    name = "figures"
    tail_pct = 50  # about 60 ops a run: none above p50 is steady
    modules = ("repro.workloads.harness", "repro.workloads.passmark")

    def prepare(self) -> None:
        self.fig5_iters, self.golden_fig5 = load_golden_fig5()

    def round_units(self) -> List:
        return ["figures"]

    def run_unit(self, unit, runner) -> None:
        runner.op(unit, self._regenerate, self._check)

    def _regenerate(self):
        from repro.workloads.harness import run_figure5, run_figure6

        return run_figure5(iters=self.fig5_iters), run_figure6()

    def _check(self, result):
        fig5, fig6 = result
        output = digest({"fig5": fig5.raw, "fig6": fig6.raw})
        if canonical_json(fig5.raw) != canonical_json(self.golden_fig5):
            return output, False, (
                "Figure 5 virtual ns differ from "
                "benchmarks/golden_fig5_virtual_ns.json"
            )
        return output, True, ""


# -- sweeps --------------------------------------------------------------------


class Sweeps(Workload):
    name = "sweeps"
    modules = (
        "repro.workloads.partsweep", "repro.workloads.crashsweep",
        "repro.workloads.schedsweep", "repro.sim.explore",
    )
    seed_dependent = ("part/", "sched/")

    def prepare(self) -> None:
        from repro.workloads import crashsweep, partsweep, schedsweep

        self.partsweep = partsweep
        self.crashsweep = crashsweep
        self.schedsweep = schedsweep
        occurrences, self.first_fetch_ns = partsweep.record_pass(
            partsweep.DEFAULT_FETCHES, self.seed
        )
        self.cases = partsweep.build_cases(
            partsweep.sample_sites(occurrences), None
        )
        self.sites = crashsweep.sample_sites(crashsweep.record_sites(), None)
        self.scenarios = schedsweep.SCENARIOS
        budget = schedsweep.DEFAULT_BUDGET
        self.walk_seeds = range(self.seed * budget, (self.seed + 1) * budget)
        #: Transcript lines by sweep, filled as ops complete.
        self.lines: Dict[str, Dict[int, object]] = {
            "partsweep": {}, "crashsweep": {}, "schedsweep": {},
        }
        self.sizes = {
            "partsweep": len(self.cases),
            "crashsweep": len(self.sites),
            "schedsweep": len(self.scenarios),
        }
        self.checked: set = set()

    def warmup_units(self) -> List:
        return [("part", 0), ("crash", 0), ("sched-default", 0)]

    def round_units(self) -> List:
        return (
            [("part", index) for index in range(len(self.cases))]
            + [("crash", index) for index in range(len(self.sites))]
            + [("sched", index) for index in range(len(self.scenarios))]
        )

    def run_unit(self, unit, runner) -> None:
        kind, index = unit
        if kind == "part":
            schedule, site = self.cases[index]
            line = runner.op(
                f"part/{index}",
                lambda: self.partsweep.sweep_case(
                    schedule, site, self.first_fetch_ns,
                    self.partsweep.DEFAULT_FETCHES, self.seed,
                ),
                self._check_line,
            )
            self._transcript(runner, "partsweep", index, line[0])
        elif kind == "crash":
            line = runner.op(
                f"crash/{index}",
                lambda: self.crashsweep.sweep_site(*self.sites[index]),
                self._check_line,
            )
            self._transcript(runner, "crashsweep", index, line[0])
        elif kind == "sched-default":
            from repro.sim.explore import ReplayPolicy

            name, path = self.scenarios[index][:2]
            runner.op(
                f"sched/{name}/0",
                lambda: self.schedsweep.run_scenario_schedule(
                    path, ReplayPolicy({})
                ),
                self._check_schedule,
            )
        else:
            self._explore(index, runner)

    # -- schedsweep: explore() drives, one op per schedule it runs ------------

    def _explore(self, index: int, runner) -> None:
        from repro.sim.explore import explore

        name, path, mode, kwargs, check = self.scenarios[index]
        calls = itertools.count()

        def run(policy):
            return runner.op(
                f"sched/{name}/{next(calls)}",
                lambda: self.schedsweep.run_scenario_schedule(path, policy),
                self._check_schedule,
            )

        if mode == "random":
            kwargs = dict(kwargs, seeds=self.walk_seeds)
        result = explore(
            run, mode=mode, budget=self.schedsweep.DEFAULT_BUDGET, **kwargs
        )
        self.explored[0] += len(result.signatures)
        self.explored[1] += result.explored
        ok, expectation = check(result)
        if not ok:
            runner.fail_last(f"schedsweep[{name}]: expected {expectation}")
        self._transcript(
            runner, "schedsweep", index,
            "\n".join(result.lines(f"schedsweep[{name}]")),
        )

    # -- checks ---------------------------------------------------------------

    @staticmethod
    def _check_line(result):
        line, ok = result
        return digest(line), ok, "" if ok else line

    @staticmethod
    def _check_schedule(result):
        status = result["status"]
        ok = not status.startswith("error")
        return digest(result), ok, "" if ok else status

    def _transcript(self, runner, sweep: str, index: int, text: str) -> None:
        """Once every case of a sweep has run, compare the whole
        transcript (its case lines in case order) with the pinned one."""
        lines = self.lines[sweep]
        lines[index] = text
        if (
            self.seed != DEFAULT_SEED
            or sweep in self.checked
            or len(lines) < self.sizes[sweep]
        ):
            return
        self.checked.add(sweep)
        body = "\n".join(lines[i] for i in range(self.sizes[sweep]))
        pinned = self.reference["transcripts"].get(sweep)
        if pinned is None:
            runner.fail_last(f"no pinned {sweep} transcript")
        elif digest(body) != pinned:
            runner.fail_last(f"{sweep} transcript differs from the pinned one")


WORKLOADS = {cls.name: cls for cls in (Figures, Sweeps)}
