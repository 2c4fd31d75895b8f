"""crashsweep: crash every reachable injection point, prove recovery.

The whole-machine recovery claim (DESIGN.md §11) is only credible if it
holds at *every* crash point, not just the hand-picked ones in the unit
tests.  This harness automates the sweep:

1. **Record pass** — build a durable Cider system, attach an *empty*
   :class:`~repro.sim.faults.FaultPlan` (rules never fire, occurrences
   are still counted) and run the golden *notes* workload in both
   personas.  The plan's per-point occurrence counters are the map of
   every injection point the workload actually visits.
2. **Sample** — for each visited point take the first and the last
   occurrence (the boundary cases: mid-boot of the program vs. steady
   state), alternating kernel-panic and power-loss outcomes, capped at
   ``max_sites`` sites.
3. **Crash → reboot → fsck → verify** — for each sampled site, build a
   fresh durable system, arm exactly one single-shot rule (explicit
   ``rule_id`` so reports are run-independent), run the workload until
   the machine crashes, then :meth:`~repro.cider.system.System.reboot`
   and assert: fsck is clean, the lenient verifier accepts the surviving
   files (rename-committed notes are exact wherever they exist), the
   workload re-runs to completion, and the strict verifier then finds
   every note intact.

The *notes* workload is the canonical durability litmus: a durable note
(``write``+``fsync``), a rename-committed note (write to ``.tmp``,
``fsync``, ``rename`` — the classic atomic-commit idiom), and a careless
draft that is never synced (and is therefore allowed to be lost or torn
by a power cut).  Both personas run the identical sequence through their
own libc facades — Bionic's Linux numbers and libSystem's XNU numbers
land in the same shared kernel implementation.

The sweep report is a byte-comparable document with a SHA-256 digest:
two same-configuration runs must print identical text
(``tests/test_crash_recovery.py`` asserts it).

Each site builds its own system from scratch and independent sites fan
across fork-server workers (``repro.sim.parallel``): ``--jobs N``
changes wall-clock only — the transcript and its digest are
byte-identical for every jobs value.

Run::

    PYTHONPATH=src python -m repro.workloads.sweep crashsweep \
        [max_sites|all] [--jobs N] [--timings FILE]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt import elf_executable, macho_executable
from ..kernel.process import UserContext
from ..sim.errors import DeadlockError, MachinePanic
from ..sim.faults import FaultOutcome, FaultPlan, FaultRule
from ..sim.parallel import run_cases
from .sweep import SweepReport

ELF_NOTES = "/data/notes/notesd"
ELF_VERIFY = "/data/notes/notesck"
MACHO_NOTES = "/data/notes-ios/notesd"
MACHO_VERIFY = "/data/notes-ios/notesck"

ANDROID_DIR = "/data/notes/store"
IOS_DIR = "/var/mobile/notes"

SYNCED_TEXT = b"synced note: survives any crash after its fsync\n"
COMMIT_TEXT = b"committed note: exact wherever it exists (rename barrier)\n"
DRAFT_TEXT = b"careless draft: never synced, may be lost or torn\n"

DEFAULT_MAX_SITES = 8


def _params(argv: List[str]) -> Dict:
    return argv[1] if len(argv) > 1 and isinstance(argv[1], dict) else {}


# -- the notes workload (both personas run the same body) ----------------------


def _notes_body(libc, base_dir: str) -> int:
    libc.mkdir(base_dir)  # EEXIST on a re-run is fine

    # 1. The durable note: fsync before close.
    fd = libc.creat(base_dir + "/synced.txt")
    if fd == -1:
        return 1
    libc.write(fd, SYNCED_TEXT)
    libc.fsync(fd)
    libc.close(fd)

    # 2. The atomic commit: write + fsync a temp file, then rename over
    #    the final name.  After the rename barrier the committed name is
    #    either absent or byte-exact — never torn.
    fd = libc.creat(base_dir + "/commit.tmp")
    if fd == -1:
        return 1
    libc.write(fd, COMMIT_TEXT)
    libc.fsync(fd)
    libc.close(fd)
    libc.rename(base_dir + "/commit.tmp", base_dir + "/committed.txt")

    # 3. The careless draft: no sync at all.
    fd = libc.creat(base_dir + "/draft.txt")
    if fd == -1:
        return 1
    libc.write(fd, DRAFT_TEXT)
    libc.close(fd)
    return 0


def _verify_body(libc, base_dir: str, strict: bool) -> int:
    """Check the notes directory's post-recovery invariants.

    Lenient (post-crash): ``committed.txt`` and ``commit.tmp`` must be
    byte-exact *if present* (the rename-commit guarantee); other notes
    may be absent or torn by the power cut.  Strict (after a clean
    re-run): every note exists with exact content.
    """
    expected = (
        ("synced.txt", SYNCED_TEXT, strict),
        ("committed.txt", COMMIT_TEXT, strict),
        ("commit.tmp", COMMIT_TEXT, False),
        ("draft.txt", DRAFT_TEXT, strict),
    )
    for name, text, required in expected:
        fd = libc.open(base_dir + "/" + name)
        if fd == -1:
            if required:
                return 1
            continue
        data = libc.read(fd, 65536)
        libc.close(fd)
        exact = isinstance(data, (bytes, bytearray)) and bytes(data) == text
        if required and not exact:
            return 1
        # The rename-commit guarantee holds at *every* crash point.
        if name in ("committed.txt", "commit.tmp") and not exact:
            return 1
        # Unsynced notes may be torn after a power cut — but strict mode
        # (after a clean re-run) already required exactness above.
    return 0


def notes_android(ctx: UserContext, argv: List[str]) -> int:
    return _notes_body(ctx.libc, ANDROID_DIR)


def notes_ios(ctx: UserContext, argv: List[str]) -> int:
    return _notes_body(ctx.libc, IOS_DIR)


def verify_android(ctx: UserContext, argv: List[str]) -> int:
    return _verify_body(ctx.libc, ANDROID_DIR, bool(_params(argv).get("strict")))


def verify_ios(ctx: UserContext, argv: List[str]) -> int:
    return _verify_body(ctx.libc, IOS_DIR, bool(_params(argv).get("strict")))


def install_notes(system) -> None:
    """Install the notes workload into both personas' trees."""
    vfs = system.kernel.vfs
    vfs.install_binary(
        ELF_NOTES, elf_executable("notesd", notes_android, deps=["libc.so"])
    )
    vfs.install_binary(
        ELF_VERIFY, elf_executable("notesck", verify_android, deps=["libc.so"])
    )
    vfs.install_binary(MACHO_NOTES, macho_executable("notesd", notes_ios))
    vfs.install_binary(MACHO_VERIFY, macho_executable("notesck", verify_ios))


# -- sweep machinery -----------------------------------------------------------


def build_system():
    """The quiescent durable system with the notes workload's boot task
    registered — pure data, no simulated thread exists yet."""
    from ..cider.system import build_cider

    system = build_cider(durable=True, start_services=False)
    system.add_boot_task(install_notes)
    return system


def _build_system():
    """One fresh durable system per site: build it, then finish the boot
    (launchd, boot tasks)."""
    system = build_system()
    system.start_services()
    return system


def _run_workload(system) -> int:
    rc = system.run_program(ELF_NOTES, [ELF_NOTES])
    rc |= system.run_program(MACHO_NOTES, [MACHO_NOTES])
    return rc


def _run_verify(system, strict: bool) -> int:
    params = {"strict": strict}
    rc = system.run_program(ELF_VERIFY, [ELF_VERIFY, params])
    rc |= system.run_program(MACHO_VERIFY, [MACHO_VERIFY, params])
    return rc


def record_sites() -> Dict[str, int]:
    """The record pass: which injection points does the golden workload
    visit, and how often?  (An empty plan counts occurrences without
    firing anything, and charges no virtual time.)"""
    system = _build_system()
    plan = system.machine.install_fault_plan(FaultPlan(seed=0))
    rc = _run_workload(system)
    if rc != 0:
        raise RuntimeError("golden notes workload failed in record pass")
    # Snapshot *before* the verifier runs: the sweep arms rules against
    # the workload alone, so its counters must match the workload alone.
    occurrences = dict(plan.occurrences)
    system.machine.faults = None
    if _run_verify(system, strict=True) != 0:
        raise RuntimeError("golden notes workload left bad files")
    system.shutdown()
    return occurrences


def sample_sites(
    occurrences: Dict[str, int], max_sites: Optional[int] = DEFAULT_MAX_SITES
) -> List[Tuple[str, int, str]]:
    """Deterministic ``(point, nth, kind)`` sample: first and last
    occurrence per visited point, panic and power-loss alternating."""
    candidates: List[Tuple[str, int]] = []
    for point in sorted(occurrences):
        count = occurrences[point]
        candidates.append((point, 1))
        if count > 1:
            candidates.append((point, count))
    if max_sites is not None:
        candidates = candidates[:max_sites]
    return [
        (point, nth, "power_loss" if index % 2 else "panic")
        for index, (point, nth) in enumerate(candidates)
    ]


def sweep_site(point: str, nth: int, kind: str) -> Tuple[str, bool]:
    """One crash–reboot–fsck–verify cycle; returns (report line, ok)."""
    system = _build_system()
    outcome = (
        FaultOutcome.power_loss()
        if kind == "power_loss"
        else FaultOutcome.panic()
    )
    plan = FaultPlan(seed=0)
    plan.add_rule(
        FaultRule(
            point,
            outcome,
            rule_id=f"sweep:{point}#{nth}",
            nth=nth,
            max_fires=1,
        )
    )
    system.machine.install_fault_plan(plan)

    label = f"{point}#{nth} {kind}"
    crashed = False
    try:
        _run_workload(system)
    except MachinePanic:
        crashed = True
    except DeadlockError:
        # The panic may unwind a service thread first; the scheduler then
        # reports the workload as stuck.  The machine state is the truth.
        if not system.machine.crashed:
            raise
        crashed = True
    if system.machine.crashed:
        crashed = True
    if not crashed:
        system.shutdown()
        return f"crashsweep: {label}: NOT-REACHED", False

    system.reboot(reason=f"crashsweep {label}")
    fsck_ok = system.fsck_report is not None and system.fsck_report.ok
    lenient_ok = _run_verify(system, strict=False) == 0
    rerun_ok = _run_workload(system) == 0
    strict_ok = _run_verify(system, strict=True) == 0
    ok = fsck_ok and lenient_ok and rerun_ok and strict_ok
    system.shutdown()
    line = (
        f"crashsweep: {label}: fsck={'clean' if fsck_ok else 'DIRTY'} "
        f"verify={'ok' if lenient_ok else 'BAD'} "
        f"rerun={'ok' if rerun_ok else 'BAD'} "
        f"strict={'ok' if strict_ok else 'BAD'} "
        f"-> {'RECOVERED' if ok else 'FAILED'}"
    )
    return line, ok


def run_sweep(
    max_sites: Optional[int] = DEFAULT_MAX_SITES, jobs: int = 1
) -> SweepReport:
    """The full sweep; returns the byte-comparable report.  ``jobs > 1``
    fans the independent sites across a fork-server worker pool; results
    merge in site order, so the report is byte-identical to a serial
    run (the text never mentions ``jobs``)."""
    occurrences = record_sites()
    sites = sample_sites(occurrences, max_sites)
    report = SweepReport()
    report.line(
        f"crashsweep: workload visits {len(occurrences)} injection "
        f"point(s), {sum(occurrences.values())} occurrence(s)"
    )
    report.line(f"crashsweep: sweeping {len(sites)} sampled crash site(s)")

    def one_site(index: int):
        point, nth, kind = sites[index]
        return sweep_site(point, nth, kind)

    # The record pass above already warmed this process's first-boot
    # caches, so forked workers inherit them.
    results = run_cases(len(sites), one_site, jobs=jobs)
    for line, ok in results:
        report.case(line, ok)
    report.line(
        f"crashsweep: {report.passed}/{report.cases} site(s) recovered"
    )
    return report
