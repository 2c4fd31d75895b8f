"""A fixed reference workload that measures the host's current speed.

On a shared host other tenants slow a CPU by up to a half, for seconds to
minutes at a time: as long as a benchmark run, so two runs of the same
code can differ by more than a change worth measuring.  Each measuring
client runs this probe between its ops, on the same CPU, and each op's
time is scaled by how much slower than nominal the probe ran around it
(``worker.py``, ``run.py``).

The probe is interpreted Python of the kinds the simulator runs most: a
walk over a large and a small heap of small objects (attribute reads,
integer- and string-keyed dict lookups, method calls, short-lived dicts)
and a syscall-style dispatch loop over process objects followed by a
deep copy of a process table.  No single kernel slows with the host the
way the simulator does (within a run, the ops moved 0.4 to 2 times as
much as any one kernel did); their sum tracked the ops best.  The probe belongs to the
benchmark, not the program, so a change to the simulator does not move
it, and the cyclic collector is off while it runs, so it never pays for
the simulator's garbage.
"""

from __future__ import annotations

import copy
import gc
import time

#: Host ms of one probe call that the scaled timings are relative to:
#: about what a call takes on an idle 2.1 GHz Xeon VM.
NOMINAL_MS = 15.0
#: Steps of each heap walk per call.
WALK_STEPS = 12000
#: Dispatched calls per call.
DISPATCHES = 3000


class _Node:
    __slots__ = ("key", "links", "value")

    def __init__(self, index: int) -> None:
        self.key = f"n{index}"
        self.value = index
        self.links = {}

    def weigh(self, total: int) -> int:
        return (total + self.value) & 0xFFFFFF


class _Heap:
    """Nodes linked at pseudo-random: a walk misses in cache like the
    simulator's object graph does."""

    def __init__(self, size: int) -> None:
        nodes = [_Node(index) for index in range(size)]
        for index, node in enumerate(nodes):
            for link in range(4):
                node.links[link] = nodes[(index * 7919 + link * 104729) % size]
        self.nodes = nodes
        self.index = {node.key: node for node in nodes}

    def walk(self) -> int:
        node = self.nodes[0]
        index = self.index
        total = 0
        for step in range(WALK_STEPS):
            node = node.links[step & 3]
            total = node.weigh(total)
            if step & 7 == 0:
                record = {"key": index[node.key].key, "total": total}
                total += len(record["key"])
        return total


class _Proc:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.name = f"proc{pid}"
        self.fds = {}
        self.charged = 0

    def charge(self, ps: int) -> int:
        self.charged += ps
        return self.charged


class _Dispatch:
    """A trap table over process objects, then a process-table copy."""

    TABLE = {"procs": [
        {"pid": pid, "name": f"proc{pid}", "fds": list(range(8)),
         "env": {f"K{key}": f"v{key}" for key in range(6)}}
        for pid in range(12)
    ]}

    def __init__(self) -> None:
        self.procs = [_Proc(pid) for pid in range(64)]
        self.handlers = (self._charge, self._store, self._load, self._name)

    @staticmethod
    def _charge(proc: _Proc, arg: int) -> int:
        return proc.charge(arg + 1)

    @staticmethod
    def _store(proc: _Proc, arg: int) -> int:
        proc.fds[arg & 31] = arg
        return len(proc.fds)

    @staticmethod
    def _load(proc: _Proc, arg: int) -> int:
        return proc.fds.get(arg & 31, 0) + proc.charge(2)

    @staticmethod
    def _name(proc: _Proc, arg: int) -> int:
        return len(proc.name) + arg

    def run(self) -> int:
        procs = self.procs
        handlers = self.handlers
        total = 0
        for call in range(DISPATCHES):
            total += handlers[call & 3](procs[call & 63], call)
        return total + len(copy.deepcopy(self.TABLE)["procs"])


class Probe:
    def __init__(self) -> None:
        self.large = _Heap(30000)
        self.small = _Heap(3000)
        self.dispatch = _Dispatch()

    def run(self) -> float:
        """One probe call: its host seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.large.walk()
            self.small.walk()
            self.dispatch.run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
