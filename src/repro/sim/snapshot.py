"""Boot snapshots: deep-copy a quiescent booted world.

A :class:`Snapshot` captures the thread-free part of a boot and hands
out deep clones; every clone then finishes its own boot (launchd,
supervised services) on its private copy.  The sweep harnesses do *not*
use it: a warm ``build_cider(start_services=False)`` costs a few
milliseconds, several times less than a deep copy of the same world, so
each sweep case builds its world from scratch (DESIGN.md §14).  What
remains here is the clone itself, kept for the tests that hold a clone
bit-identical to a fresh build and for the wall-clock benchmark's
tracer, which probes :meth:`Snapshot.clone` and :func:`snapshot_systems`.

The quiescence rule
-------------------

Simulated threads are backed by real OS threads (see
``repro.sim.scheduler``), and an OS thread's stack cannot be cloned.  A
snapshot is therefore only legal at a *quiescent point*: no live
:class:`~repro.sim.scheduler.SimThread` on any captured machine, an
empty ready queue, and the controller holding the token.  The system
builders expose exactly such a point (``build_cider(...,
start_services=False)``); :func:`snapshot_systems` enforces it and
raises :class:`SnapshotError` otherwise.  The same rule is what makes
snapshots fork-safe: a fork-server worker (``repro.sim.parallel``)
inherits a captured snapshot through ``fork`` and clones from it without
ever touching an OS thread that did not survive the fork.

Determinism contract
--------------------

A clone is bit-identical simulation state: finishing a clone's boot and
running a workload charges exactly the same virtual picoseconds as
running the same steps on a freshly built system
(``tests/test_parallel.py`` asserts equality of ``clock.charged_ps``).
Cloning copies everything reachable from the captured systems *except*
process-wide immutables: modules are shared (they cannot be deep-copied
and hold no per-run simulation state), and plain functions — syscall
handlers, workload bodies — are shared by ``copy.deepcopy``'s normal
atomic-function rule.
"""

from __future__ import annotations

import copy
import sys
from typing import Dict, Iterable, Tuple


class SnapshotError(RuntimeError):
    """The object graph is not at a snapshot-safe quiescent point."""


def assert_quiescent(machine) -> None:
    """Raise :class:`SnapshotError` unless ``machine`` can be snapshot.

    Quiescent means: no live simulated thread (each would be a real OS
    thread whose stack a clone cannot reproduce), nothing on the ready
    queue, and the scheduler token held by the controller.
    """
    scheduler = machine.scheduler
    live = [t for t in scheduler._threads if t.alive]
    if live:
        names = ", ".join(repr(t.name) for t in live[:8])
        raise SnapshotError(
            f"{machine!r} has {len(live)} live simulated thread(s) "
            f"({names}); snapshot before services start "
            "(build_cider(start_services=False))"
        )
    if scheduler._ready:
        raise SnapshotError(f"{machine!r} has queued ready work")
    if scheduler._current is not scheduler._controller:
        raise SnapshotError(f"{machine!r} is mid-dispatch")


def _module_memo() -> Dict[int, object]:
    """A deepcopy memo pre-seeded with every imported module.

    Modules are process-wide immutables from the simulation's point of
    view and cannot be deep-copied; seeding the memo makes any module
    reference inside the captured graph copy as itself.
    """
    return {id(module): module for module in list(sys.modules.values())}


class Snapshot:
    """A re-cloneable image of one or more quiescent systems.

    The captured payload is pristine and private — callers only ever see
    deep clones, so every :meth:`clone` starts from exactly the same
    simulation state no matter how many cases ran before it.
    """

    def __init__(self, payload: Tuple, machines: Iterable = ()) -> None:
        self._machines = tuple(machines)
        for machine in self._machines:
            assert_quiescent(machine)
        self._payload = payload
        #: How many clones were handed out (diagnostics only).
        self.clones = 0

    def clone(self) -> Tuple:
        """A deep copy of the captured payload, ready to finish booting."""
        for machine in self._machines:
            # The payload is never run, but guard against callers that
            # reached in and mutated the pristine copy.
            assert_quiescent(machine)
        self.clones += 1
        return copy.deepcopy(self._payload, _module_memo())


def snapshot_systems(*systems) -> Snapshot:
    """Capture one snapshot of ``systems`` (cider ``System`` handles).

    ``clone()`` returns a tuple of the same arity::

        snap = snapshot_systems(client, origin)
        client, origin = snap.clone()
    """
    if not systems:
        raise ValueError("snapshot_systems needs at least one system")
    return Snapshot(
        tuple(systems), machines=[system.machine for system in systems]
    )

