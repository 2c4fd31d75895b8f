"""partsweep: every network injection point x link schedule, no hangs.

The resilience claim (DESIGN.md §13) is that a degraded, partitioned, or
corrupting link can make requests *fail*, but only ever in a bounded,
typed way: each fetch either succeeds or surfaces a typed errno within
its deadline, nothing blocks forever, and nothing leaks.  This harness
proves it the same way crashsweep proves crash recovery — by sweeping
the whole matrix instead of hand-picking cases:

1. **Record pass** — build the two-machine netbench world (Cider client,
   vanilla-Android origin on one segment), attach an *empty*
   :class:`~repro.sim.faults.FaultPlan` to the client, and run the fetch
   workload clean.  The plan's occurrence counters map every ``net.*``
   injection point the workload actually crosses, and the workload
   reports the virtual instant of its first fetch — the anchor all link
   schedules are scripted against (schedule lookups charge nothing, so
   the boot timeline of every later case replays this one exactly).
2. **Case matrix** — every link schedule alone, every sampled fault site
   (first and last occurrence per visited ``net.*`` point, errno and
   delay outcomes alternating) under a clean link, then the full
   schedule x site cross product.
3. **Sweep** — each case boots a fresh world, installs the scheduled
   link conditions and/or one single-shot fault rule, and runs the fetch
   storm through ``NSURLSession`` + the shared resilience engine.  The
   case passes only if the world ran to completion (a deadlock is a
   failed case, never a hung sweep), every request succeeded or failed
   with a *typed* errno inside ``REQUEST_DEADLINE_NS``, and the client's
   socket-buffer RAM reservations and port tables returned to their
   pre-workload baselines.

The sweep report is byte-comparable with a SHA-256 digest: two same-seed
runs must print identical documents (the ``sweeps`` CI job diffs two
hash-seed-flipped runs).

Each case builds its own world from scratch (a warm build costs a few
milliseconds, less than deep-copying a booted one), and independent
cases fan across fork-server workers (``repro.sim.parallel``):
``--jobs N`` changes wall-clock only — the transcript and its digest are
byte-identical for every jobs value.

Run::

    PYTHONPATH=src python -m repro.workloads.sweep partsweep \
        [max_cases|all] [--jobs N] [--timings FILE]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt import macho_executable
from ..kernel.errno import (
    EAGAIN,
    ECONNREFUSED,
    ECONNRESET,
    EHOSTUNREACH,
    EIO,
    ENETUNREACH,
    EPIPE,
    ETIMEDOUT,
    errno_name,
)
from ..kernel.process import UserContext
from ..net.conditions import DIR_IN, LinkSchedule, LinkWindow
from ..net.http import ORIGIN_HOST
from ..sim.errors import DeadlockError, MachinePanic
from ..sim.faults import FaultOutcome, FaultPlan, FaultRule
from ..sim.parallel import run_cases
from .sweep import SweepReport

MACHO_PATH = "/data/partsweep/partfetch"

DEFAULT_FETCHES = 6
DEFAULT_MAX_CASES = 16

#: SO_RCVTIMEO/SO_SNDTIMEO armed on every request socket (virtual ns).
REQUEST_TIMEOUT_NS = 20_000_000.0
#: Every request must resolve — success or typed errno — within this
#: much virtual time (the no-hang budget the sweep asserts per fetch).
REQUEST_DEADLINE_NS = 1_000_000_000.0

#: The errnos a request is *allowed* to fail with.  Anything else (or a
#: failure with errno 0) fails the case.
TYPED_ERRNOS = frozenset(
    (EAGAIN, ECONNREFUSED, ECONNRESET, EHOSTUNREACH, EIO, ENETUNREACH,
     EPIPE, ETIMEDOUT)
)

#: errno / delay outcome per sweepable injection point.
POINT_OUTCOMES: Dict[str, Tuple[int, float]] = {
    "net.connect": (ECONNREFUSED, 2_000_000.0),
    "net.send": (ECONNRESET, 1_000_000.0),
    "net.partition": (EHOSTUNREACH, 1_500_000.0),
    "net.degrade": (ENETUNREACH, 500_000.0),
    "net.corrupt": (EIO, 0.0),
}

_MS = 1_000_000.0

SCHEDULE_NAMES = (
    "clean", "part-mid", "oneway-in", "flap", "degrade", "corrupt",
)


def build_schedule(name: str, base_ns: float) -> Optional[LinkSchedule]:
    """The named link schedule anchored at the workload's first fetch.
    Built fresh per case — schedules carry the corruption counter."""
    if name == "clean":
        return None
    if name == "part-mid":
        # Full blackout from the third fetch-ish to mid-run.
        return LinkSchedule(
            [LinkWindow.partition(base_ns + 10 * _MS, base_ns + 40 * _MS)]
        )
    if name == "oneway-in":
        # Requests leave the client; responses die on the way back.
        return LinkSchedule(
            [LinkWindow.partition(base_ns, base_ns + 30 * _MS, direction=DIR_IN)]
        )
    if name == "flap":
        return LinkSchedule(
            [LinkWindow.flap(base_ns, base_ns + 120 * _MS, period_ns=16 * _MS)]
        )
    if name == "degrade":
        return LinkSchedule(
            [LinkWindow.degrade(
                base_ns, base_ns + 300 * _MS, latency_x=6.0, bandwidth_x=3.0,
            )]
        )
    if name == "corrupt":
        return LinkSchedule(
            [LinkWindow.corrupt(base_ns, base_ns + 300 * _MS, every=4)]
        )
    raise ValueError(f"unknown schedule {name!r}")


def _params(argv: List[str]) -> Dict:
    return argv[1] if len(argv) > 1 and isinstance(argv[1], dict) else {}


# -- the fetch workload (NSURLSession through the resilience engine) -----------


def partfetch_ios(ctx: UserContext, argv: List[str]) -> int:
    from ..ios.cfnetwork import NSURLSession
    from ..net.resilience import ResilienceEngine, ResiliencePolicy

    params = _params(argv)
    out = params.get("out", {})
    fetches = params.get("fetches", DEFAULT_FETCHES)
    policy = ResiliencePolicy(
        request_timeout_ns=REQUEST_TIMEOUT_NS,
        seed=int(params.get("seed", 0)),
    )
    engine = ResilienceEngine.shared(ctx, policy)
    session = NSURLSession.shared(ctx)
    machine = ctx.machine
    out["first_fetch_ns"] = machine.clock.now_ns
    results: List[Tuple[int, int, int]] = []
    for _index in range(fetches):
        start_ns = machine.clock.now_ns
        task = session.data_task_with_url(
            f"http://{ORIGIN_HOST}/hello"
        ).resume()
        elapsed_ns = int(machine.clock.now_ns - start_ns)
        status = (
            task.response.status_code if task.response is not None else -1
        )
        err = 0
        if task.error is not None and "errno=" in task.error:
            err = int(task.error.rsplit("=", 1)[1])
        results.append((status, err, elapsed_ns))
    out["results"] = results
    out["resilience"] = engine.summary()
    out["transitions"] = engine.transition_log()
    return 0


# -- world plumbing ------------------------------------------------------------

def build_world():
    """The quiescent two-machine world: Cider client (services not yet
    started) + vanilla-Android origin (httpd not yet started) on one
    segment, workload binary installed, resource envelope attached.
    Everything here is pure data — no simulated thread exists yet."""
    from ..cider.system import build_cider, build_vanilla_android
    from .netbench import ORIGIN_NET_IP

    client = build_cider(start_services=False)
    origin = build_vanilla_android(start_services=False)
    origin.machine.net_host_ip = ORIGIN_NET_IP
    client.machine.net.connect_peer(origin.machine.net)
    client.machine.net.register_host(ORIGIN_HOST, ORIGIN_NET_IP)
    vfs = client.kernel.vfs
    vfs.makedirs("/data/partsweep")
    vfs.install_binary(
        MACHO_PATH, macho_executable("partfetch", partfetch_ios)
    )
    client.machine.install_resources()
    return client, origin


def _build_world():
    """One fresh world per case: build it, then finish each machine's
    boot (launchd on the client, the httpd accept loop on the origin —
    the thread-bearing half).  The world is bare: no observatories —
    reports must not depend on them."""
    from ..net.http import start_httpd_android

    client, origin = build_world()
    client.start_services()
    start_httpd_android(origin)
    origin.run_until_idle()  # let the origin reach its accept loop
    return client, origin


def _run_world_workload(client, origin, fetches: int, seed: int) -> Dict:
    from ..cider.system import run_world

    out: Dict[str, object] = {}
    params = {"out": out, "fetches": fetches, "seed": seed}
    process = client.kernel.start_process(MACHO_PATH, [MACHO_PATH, params])
    thread = process.main_thread().sim_thread
    result = run_world([client, origin], thread)
    code = result if isinstance(result, int) else 0
    if code != 0:
        raise RuntimeError(f"partfetch exited {code}")
    return out


def record_pass(fetches: int = DEFAULT_FETCHES, seed: int = 0):
    """Clean run: which ``net.*`` points does the workload cross (and how
    often), and when does its first fetch start?"""
    client, origin = _build_world()
    plan = client.machine.install_fault_plan(FaultPlan(seed=seed))
    out = _run_world_workload(client, origin, fetches, seed)
    occurrences = {
        point: count
        for point, count in plan.occurrences.items()
        if point.startswith("net.")
    }
    client.machine.faults = None
    for status, err, _elapsed in out["results"]:
        if status != 200:
            raise RuntimeError(
                f"clean record pass failed a fetch (status={status} "
                f"errno={err})"
            )
    first_fetch_ns = float(out["first_fetch_ns"])
    client.shutdown()
    origin.shutdown()
    return occurrences, first_fetch_ns


def sample_sites(
    occurrences: Dict[str, int]
) -> List[Tuple[str, int, str]]:
    """Deterministic ``(point, nth, kind)`` sample: first and last
    occurrence per crossed point, errno and delay outcomes alternating."""
    candidates: List[Tuple[str, int]] = []
    for point in sorted(occurrences):
        if point not in POINT_OUTCOMES:
            continue
        count = occurrences[point]
        candidates.append((point, 1))
        if count > 1:
            candidates.append((point, count))
    return [
        (point, nth, "delay" if index % 2 else "errno")
        for index, (point, nth) in enumerate(candidates)
    ]


def build_cases(
    sites: List[Tuple[str, int, str]],
    max_cases: Optional[int] = DEFAULT_MAX_CASES,
) -> List[Tuple[str, Optional[Tuple[str, int, str]]]]:
    """The sweep matrix, most-informative first: each schedule alone,
    each fault site under a clean link, then the full cross product."""
    cases: List[Tuple[str, Optional[Tuple[str, int, str]]]] = []
    for name in SCHEDULE_NAMES:
        cases.append((name, None))
    for site in sites:
        cases.append(("clean", site))
    for name in SCHEDULE_NAMES:
        if name == "clean":
            continue
        for site in sites:
            cases.append((name, site))
    if max_cases is not None:
        cases = cases[:max_cases]
    return cases


def sweep_case(
    schedule_name: str,
    site: Optional[Tuple[str, int, str]],
    first_fetch_ns: float,
    fetches: int = DEFAULT_FETCHES,
    seed: int = 0,
) -> Tuple[str, bool]:
    """One world under one (schedule, fault site) pair; returns the
    byte-comparable report line and pass/fail."""
    client, origin = _build_world()
    machine = client.machine
    stack = machine.net
    schedule = build_schedule(schedule_name, first_fetch_ns)
    if schedule is not None:
        stack.install_schedule(schedule)
    fired = 0
    if site is not None:
        point, nth, kind = site
        errno_val, delay_ns = POINT_OUTCOMES[point]
        outcome = (
            FaultOutcome.errno(errno_val)
            if kind == "errno"
            else FaultOutcome.delay(delay_ns)
        )
        plan = FaultPlan(seed=seed)
        plan.add_rule(
            FaultRule(
                point,
                outcome,
                rule_id=f"sweep:{point}#{nth}:{kind}",
                nth=nth,
                max_fires=1,
            )
        )
        machine.install_fault_plan(plan)
        label = f"{schedule_name}/{point}#{nth}:{kind}"
    else:
        plan = None
        label = f"{schedule_name}/-"

    res = machine.resources
    assert res is not None
    base_ram = res.ram_used
    base_tcp = len(stack.tcp_ports)
    base_udp = len(stack.udp_ports)

    status_line: Optional[str] = None
    ok_count = fail_count = 0
    errnos: List[int] = []
    max_elapsed = 0
    transitions = 0
    try:
        out = _run_world_workload(client, origin, fetches, seed)
    except DeadlockError:
        status_line = "HUNG (deadlock)"
    except MachinePanic:
        status_line = "PANICKED"
    except RuntimeError as exc:
        status_line = str(exc)
    if status_line is None:
        for status, err, elapsed_ns in out["results"]:
            max_elapsed = max(max_elapsed, elapsed_ns)
            if status == 200:
                ok_count += 1
            else:
                fail_count += 1
                errnos.append(err)
        transitions = len(out["transitions"])
    client.run_until_idle()
    origin.run_until_idle()
    if plan is not None:
        fired = plan.fired
    leak_bits = []
    if res.ram_used != base_ram:
        leak_bits.append(f"ram={res.ram_used - base_ram:+d}")
    if len(stack.tcp_ports) != base_tcp:
        leak_bits.append(f"tcp_ports={len(stack.tcp_ports) - base_tcp:+d}")
    if len(stack.udp_ports) != base_udp:
        leak_bits.append(f"udp_ports={len(stack.udp_ports) - base_udp:+d}")
    leaks = ",".join(leak_bits) if leak_bits else "none"
    client.shutdown()
    origin.shutdown()

    if status_line is not None:
        return f"partsweep: {label}: {status_line} -> FAILED", False
    typed = all(err in TYPED_ERRNOS for err in errnos)
    in_deadline = max_elapsed <= REQUEST_DEADLINE_NS
    passed = typed and in_deadline and leaks == "none"
    names = "+".join(sorted({errno_name(e) for e in errnos})) or "-"
    line = (
        f"partsweep: {label}: ok={ok_count} fail={fail_count} "
        f"errnos={names} fired={fired} transitions={transitions} "
        f"max_req_ns={max_elapsed} leaks={leaks} "
        f"-> {'PASS' if passed else 'FAILED'}"
    )
    return line, passed


def run_sweep(
    max_cases: Optional[int] = DEFAULT_MAX_CASES,
    fetches: int = DEFAULT_FETCHES,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """The full sweep.  ``jobs > 1`` fans the independent cases out
    across a fork-server worker pool (``repro.sim.parallel``); the
    merged report is byte-identical to a serial run — the report text
    never mentions ``jobs``, and results are merged in case order."""
    occurrences, first_fetch_ns = record_pass(fetches, seed)
    sites = sample_sites(occurrences)
    cases = build_cases(sites, max_cases)
    report = SweepReport()
    report.line(
        f"partsweep: workload crosses {len(occurrences)} net point(s), "
        f"{sum(occurrences.values())} occurrence(s); first fetch at "
        f"{int(first_fetch_ns)}ns"
    )
    report.line(
        f"partsweep: sweeping {len(cases)} case(s) "
        f"({len(SCHEDULE_NAMES)} schedule(s) x {len(sites)} site(s))"
    )

    def one_case(index: int):
        schedule_name, site = cases[index]
        return sweep_case(schedule_name, site, first_fetch_ns, fetches, seed)

    # The record pass above already warmed this process's first-boot
    # caches, so forked workers inherit them.
    results = run_cases(len(cases), one_case, jobs=jobs)
    for line, ok in results:
        report.case(line, ok)
    report.line(f"partsweep: {report.passed}/{report.cases} case(s) passed")
    return report
