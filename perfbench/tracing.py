"""All-threads layer tracer: spans around calls into each layer's public
functions, installed from the benchmark's own files.

Every simulated thread is a real OS thread, so a profiler started in the
main thread sees little but lock waits.  This tracer instead wraps the
layer entry points themselves (class attributes and module-level
functions, rebound in every loaded ``repro`` module that imported them by
name), so a call is recorded on whichever OS thread makes it:

* a *span* probe records ``.count`` and ``.self_ns`` (duration minus the
  child spans on the same thread);
* a *wait* probe is a blocking scheduler call or a controller handoff.
  Waits become ``sim.scheduler.wait`` spans, so a trap that blocks on a
  pipe is not charged for the time its peer ran; nested waits (``join``
  over ``block_on``, ``run_world`` over ``run_ready``) count once;
* a *count* probe only counts (``Machine.charge`` is too hot to time),
  optionally through a function of the call's result.

The simulator runs one thread at a time (token handoff), so the self time
of the non-wait spans summed over all threads is the part of an op's wall
time that some layer accounts for; the rest is ``unattributed``.

Spans are aggregated per op: all calls between :meth:`Tracer.begin_op`
and :meth:`Tracer.end_op`, on any thread, share that op's id.  Durations
are clipped to the op's start, so a daemon that blocked during an earlier
op does not carry that op's time into this one.

A probe may also carry a *planted* per-call delay (a busy wait inside the
span), which the benchmark's self-test uses to check that a slower layer
shows up on the workload that loads it and not on the one that bypasses
it.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
WAIT = "wait"
COUNT = "count"

WAIT_METRIC = "sim.scheduler.wait"

#: (metric, kind, targets, result counter).  A target is
#: ``"module:attr"`` or ``"module:Class.attr"``; a result counter maps the
#: wrapped call's return value to the number to add (default 1 per call).
PROBES: Tuple = (
    ("cider.boot", SPAN, (
        "repro.cider.system:build_cider",
        "repro.cider.system:build_vanilla_android",
        "repro.cider.system:build_ipad_mini",
        "repro.cider.system:System.start_services",
    ), None),
    ("cider.reboot", SPAN, ("repro.cider.system:System.reboot",), None),
    ("cider.shutdown", SPAN, ("repro.cider.system:System.shutdown",), None),
    ("sim.snapshot.clone", SPAN, ("repro.sim.snapshot:Snapshot.clone",), None),
    ("sim.snapshot.capture", SPAN,
     ("repro.sim.snapshot:snapshot_systems",), None),
    ("sim.scheduler.spawn", COUNT,
     ("repro.sim.scheduler:Scheduler.spawn",), None),
    (WAIT_METRIC, WAIT, (
        "repro.sim.scheduler:Scheduler.block_on",
        "repro.sim.scheduler:Scheduler.block_on_timeout",
        "repro.sim.scheduler:Scheduler.block_on_any",
        "repro.sim.scheduler:Scheduler.sleep",
        "repro.sim.scheduler:Scheduler.yield_control",
        "repro.sim.scheduler:Scheduler.join",
        "repro.sim.scheduler:Scheduler.run_until_done",
        "repro.sim.scheduler:Scheduler.run",
        "repro.sim.scheduler:Scheduler.run_ready",
        "repro.cider.system:run_world",
    ), None),
    ("kernel.trap", SPAN, ("repro.kernel.kernel:Kernel.trap",), None),
    ("kernel.exec_image", SPAN,
     ("repro.kernel.kernel:Kernel.exec_image",), None),
    ("kernel.vfs.resolve", SPAN, ("repro.kernel.vfs:VFS.resolve",), None),
    ("compat.macho_loader.load", SPAN,
     ("repro.compat.macho_loader:MachOLoader.load",), None),
    ("kernel.do_set_persona", COUNT,
     ("repro.kernel.kernel:Kernel.do_set_persona",), None),
    # The library walk of Dyld.bootstrap; the entry point it then calls
    # is the app's own time, as it is for an ELF binary.
    ("ios.dyld.bootstrap", SPAN,
     ("repro.ios.dyld:Dyld._load_libraries",), None),
    ("ducttape.linker.link", SPAN,
     ("repro.ducttape.linker:DuctTapeLinker.link",), None),
    ("ducttape.zones.check", SPAN,
     ("repro.ducttape.zones:check_foreign_subsystem",), None),
    ("binfmt.image", SPAN, ("repro.binfmt.image:BinaryImage.__init__",), None),
    ("android.dalvik.invoke", SPAN,
     ("repro.android.dalvik:DalvikVM.invoke",), None),
    ("diplomacy.call", SPAN,
     ("repro.diplomacy.diplomat:Diplomat.__call__",), None),
    ("hw.gpu.submit", SPAN, ("repro.hw.gpu:GPU.submit",), None),
    ("hw.storage.fsync", SPAN, (
        "repro.hw.storage:JournalDevice.fsync",
        "repro.hw.storage:JournalDevice.fdatasync",
        "repro.hw.storage:JournalDevice.sync_all",
    ), None),
    ("hw.machine.charge", COUNT, ("repro.hw.machine:Machine.charge",), None),
    ("net.segments", COUNT, ("repro.net.netstack:NetStack.log_segment",), None),
    # A flight _charge_tx reports lost is one the sender retransmits.
    ("net.retransmits", COUNT, ("repro.net.sockets:INetSocket._charge_tx",),
     lambda delivered: 0 if delivered else 1),
    ("net.resilience.retries", COUNT,
     ("repro.net.resilience:ResilienceEngine.fetch",),
     lambda result: max(0, result.attempts - 1)),
    ("sim.faults.check", COUNT, ("repro.sim.faults:FaultPlan.check",), None),
    ("sim.faults.fired", COUNT, ("repro.sim.faults:FaultPlan.check",),
     lambda outcome: 0 if outcome is None else 1),
    ("sim.explore.hb_edges", COUNT,
     ("repro.sim.explore:HBMonitor._join",), None),
)

#: Calls that tell which machines an op runs, so the op's charged
#: virtual time can be read off their clocks: every machine booted or
#: cloned, except those only captured into a snapshot (a template that
#: never runs; its clones carry its boot charge).
_MACHINE_SOURCES = (
    ("repro.hw.machine:DeviceProfile.boot", "boot"),
    ("repro.sim.snapshot:Snapshot.clone", "clone"),
    ("repro.sim.snapshot:snapshot_systems", "capture"),
)


TIMED_METRICS = tuple(
    metric for metric, kind, _t, _c in PROBES if kind in (SPAN, WAIT)
)
COUNT_METRICS = tuple(metric for metric, _k, _t, _c in PROBES)


def _spin(seconds: float) -> None:
    """Busy-wait: a fixed per-call cost that sleeps cannot give at µs
    resolution."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class OpRecord:
    """What one op did, on every thread."""

    __slots__ = ("op_id", "counts", "self_ns", "machines", "wall_ns",
                 "charged_ps")

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts: Dict[str, int] = dict.fromkeys(COUNT_METRICS, 0)
        self.self_ns: Dict[str, int] = dict.fromkeys(TIMED_METRICS, 0)
        self.machines: list = []
        self.wall_ns = 0
        self.charged_ps = 0


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner object, attr name, original)."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Installs probe wrappers and aggregates what they see per op.

    ``trace=False`` installs only the planted-delay probes (an untraced
    run with a deliberately slower layer).
    """

    def __init__(
        self,
        trace: bool = True,
        plant: Optional[Dict[str, float]] = None,
    ) -> None:
        self.trace = trace
        self.plant = dict(plant or {})
        unknown = set(self.plant) - set(TIMED_METRICS)
        if unknown:
            raise ValueError(f"cannot plant a delay in {sorted(unknown)}")
        self._local = threading.local()
        self._sink = OpRecord(-1)
        self._op = self._sink
        self._op_start = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._rebinds: List[Tuple[object, str, object]] = []
        self._next_op = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers: Dict[Tuple[int, str], Callable] = {}
        for metric, kind, targets, counter in PROBES:
            delay = self.plant.get(metric, 0.0)
            if not self.trace and not delay:
                continue
            for target in targets:
                owner, attr, original = _resolve(target)
                key = (id(owner), attr)
                inner = wrappers.get(key)
                if inner is None:
                    inner = original
                    if isinstance(inner, staticmethod):
                        inner = inner.__func__
                    self._patches.append((owner, attr, original))
                if not self.trace:
                    wrapped = self._delay_wrapper(inner, delay)
                elif kind == COUNT:
                    wrapped = self._count_wrapper(inner, metric, counter)
                else:
                    wrapped = self._span_wrapper(
                        inner, metric, kind == WAIT, delay
                    )
                wrappers[key] = wrapped
        if self.trace:
            for target, role in _MACHINE_SOURCES:
                owner, attr, original = _resolve(target)
                key = (id(owner), attr)
                inner = wrappers.get(key)
                if inner is None:
                    inner = original
                    self._patches.append((owner, attr, original))
                wrappers[key] = self._machine_wrapper(inner, role)
        originals = {}
        for owner, attr, original in self._patches:
            wrapped = wrappers[(id(owner), attr)]
            if isinstance(original, staticmethod):
                setattr(owner, attr, staticmethod(wrapped))
            else:
                setattr(owner, attr, wrapped)
            if isinstance(owner, type(sys)):
                originals[id(original)] = wrapped
        # Module-level functions are also reachable through every module
        # that did ``from x import f``: rebind those names too.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._rebinds.append((module, attr, value))
                    setattr(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebinds):
            setattr(module, attr, value)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._rebinds.clear()
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    @staticmethod
    def _delay_wrapper(fn: Callable, delay: float) -> Callable:
        def planted(*args, **kwargs):
            _spin(delay)
            return fn(*args, **kwargs)

        return planted

    def _count_wrapper(
        self, fn: Callable, metric: str, counter: Optional[Callable]
    ) -> Callable:
        tracer = self

        if counter is None:
            def counted(*args, **kwargs):
                tracer._op.counts[metric] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._op.counts[metric] += counter(result)
                return result

        return counted

    def _span_wrapper(
        self, fn: Callable, metric: str, wait: bool, delay: float
    ) -> Callable:
        tracer = self
        local = self._local
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if wait and stack and stack[-1][2]:
                return fn(*args, **kwargs)  # nested wait counts once
            frame = [clock(), 0, wait]  # start, child ns, is a wait
            stack.append(frame)
            try:
                if delay:
                    _spin(delay)
                return fn(*args, **kwargs)
            finally:
                now = clock()
                stack.pop()
                start = frame[0]
                op_start = tracer._op_start
                duration = now - (start if start > op_start else op_start)
                if duration < 0:
                    duration = 0
                if stack:
                    stack[-1][1] += duration
                op = tracer._op
                op.counts[metric] += 1
                own = duration - frame[1]
                if own > 0:
                    op.self_ns[metric] += own

        return spanned

    def _machine_wrapper(self, fn: Callable, role: str) -> Callable:
        tracer = self

        def registered(*args, **kwargs):
            result = fn(*args, **kwargs)
            machines = tracer._op.machines
            if role == "boot":  # -> the machine
                machines.append(result)
            elif role == "clone":  # -> the cloned systems
                machines.extend(system.machine for system in result)
            else:  # capture(*systems): the templates never run
                captured = {id(system.machine) for system in args}
                machines[:] = [m for m in machines if id(m) not in captured]
            return result

        return registered

    # -- ops ------------------------------------------------------------------

    def begin_op(self) -> None:
        self._op = OpRecord(self._next_op)
        self._next_op += 1
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> OpRecord:
        """Close the op.  Its charged virtual time is the whole clock of
        every machine it booted or cloned (a clone carries its boot
        charge, exactly as a fresh boot would)."""
        op = self._op
        op.wall_ns = time.perf_counter_ns() - self._op_start
        self._op = self._sink
        op.charged_ps = sum(machine.clock.charged_ps for machine in op.machines)
        op.machines = []
        return op
