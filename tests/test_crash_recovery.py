"""Crash–reboot resilience: panic containment, journaled durability,
whole-machine recovery, and the crash-point sweep (ISSUE 6 tentpole)."""

import pytest

from repro.cider.system import build_cider, build_vanilla_android
from repro.hw.machine import MACHINE_CRASHED, MACHINE_RUNNING
from repro.sim.errors import MachinePanic
from repro.sim.faults import FaultOutcome, FaultPlan, FaultRule
from repro.workloads import crashsweep
from repro.workloads.crashsweep import (
    ANDROID_DIR,
    COMMIT_TEXT,
    DRAFT_TEXT,
    ELF_NOTES,
    IOS_DIR,
    MACHO_NOTES,
    SYNCED_TEXT,
    install_notes,
)


def durable_system():
    system = build_cider(durable=True)
    system.add_boot_task(install_notes)
    return system


def run_notes(system):
    rc = system.run_program(ELF_NOTES, [ELF_NOTES])
    rc |= system.run_program(MACHO_NOTES, [MACHO_NOTES])
    return rc


def read_file(system, path):
    node = system.kernel.vfs.resolve(path)
    return bytes(node.data)


def crash_with(system, point, nth, outcome, rule_id="crash-test"):
    plan = FaultPlan(seed=0)
    plan.add_rule(
        FaultRule(point, outcome, rule_id=rule_id, nth=nth, max_fires=1)
    )
    system.machine.install_fault_plan(plan)
    with pytest.raises(MachinePanic):
        run_notes(system)
    assert system.machine.crashed
    return plan


# -- panic containment ---------------------------------------------------------


def test_panic_moves_machine_to_crashed_state():
    system = durable_system()
    crash_with(system, "syscall.enter", 5, FaultOutcome.panic("test panic"))
    assert system.machine.state == MACHINE_CRASHED
    assert "test panic" in system.machine.panic_reason
    assert "syscall.enter" in system.machine.panic_reason


def test_panic_writes_kernel_tombstone():
    system = durable_system()
    crash_with(system, "vfs.lookup", 3, FaultOutcome.panic())
    reports = [r for r in system.kernel.crash_reports if r.name == "kernel"]
    assert len(reports) == 1
    assert reports[0].pid == 0
    assert reports[0].detail["power_loss"] is False


def test_further_traps_raise_after_crash():
    system = durable_system()
    crash_with(system, "syscall.enter", 5, FaultOutcome.panic())
    with pytest.raises(MachinePanic):
        system.run_program(ELF_NOTES, [ELF_NOTES])


def test_plain_panic_does_not_cut_power():
    system = durable_system()
    crash_with(system, "syscall.enter", 5, FaultOutcome.panic())
    assert system.machine.power_cut_stats is None


def test_power_loss_records_cut_statistics():
    system = durable_system()
    crash_with(system, "syscall.exit", 20, FaultOutcome.power_loss())
    stats = system.machine.power_cut_stats
    assert stats is not None
    assert set(stats) == {
        "records_survived",
        "records_lost",
        "pages_survived",
        "pages_lost",
    }


def test_panic_works_without_durable_storage():
    system = build_cider()  # no journal at all
    plan = FaultPlan(seed=0)
    plan.add_rule(
        FaultRule(
            "syscall.enter",
            FaultOutcome.panic(),
            rule_id="np",
            nth=1,
            max_fires=1,
        )
    )
    system.machine.install_fault_plan(plan)
    with pytest.raises(MachinePanic):
        system.run_program("/bin/hello-ios")
    assert system.machine.crashed


# -- durability: fsync vs power loss ------------------------------------------


def test_plain_panic_loses_nothing_after_reboot():
    """RAM survives a panic: the remount's emergency writeback saves even
    the never-synced draft."""
    system = durable_system()
    assert run_notes(system) == 0
    system.machine.install_fault_plan(FaultPlan(seed=0))
    with pytest.raises(MachinePanic):
        system.machine.panic("deliberate")
    system.reboot()
    assert system.fsck_report.ok
    for base in (ANDROID_DIR, IOS_DIR):
        assert read_file(system, base + "/synced.txt") == SYNCED_TEXT
        assert read_file(system, base + "/committed.txt") == COMMIT_TEXT
        assert read_file(system, base + "/draft.txt") == DRAFT_TEXT


def test_fsynced_data_survives_power_loss():
    system = durable_system()
    assert run_notes(system) == 0
    with pytest.raises(MachinePanic):
        system.machine.panic("power fail", power_loss=True)
    system.reboot()
    assert system.fsck_report.ok
    for base in (ANDROID_DIR, IOS_DIR):
        assert read_file(system, base + "/synced.txt") == SYNCED_TEXT
        assert read_file(system, base + "/committed.txt") == COMMIT_TEXT


def test_unsynced_draft_lost_to_power_cut_mid_write():
    """Crash on the draft's write (after both fsynced notes): the synced
    notes survive, the in-flight draft does not reach the media intact."""
    system = durable_system()
    crash_with(
        system,
        "vfs.write",
        6,  # the last write of the second persona's run = the iOS draft
        FaultOutcome.power_loss(),
    )
    stats = system.machine.power_cut_stats
    system.reboot()
    assert system.fsck_report.ok
    # Everything fsync'd before the cut is byte-exact.
    for base in (ANDROID_DIR, IOS_DIR):
        assert read_file(system, base + "/synced.txt") == SYNCED_TEXT
        assert read_file(system, base + "/committed.txt") == COMMIT_TEXT
    # The power cut genuinely lost in-flight state.
    assert stats["records_lost"] + stats["pages_lost"] > 0


# -- journal replay & fsck -----------------------------------------------------


def test_journal_replay_covers_create_rename_unlink():
    system = build_vanilla_android(durable=True)

    def app(ctx, argv):
        libc = ctx.libc
        libc.mkdir("/data/app")
        fd = libc.creat("/data/app/old.txt")
        libc.write(fd, b"payload")
        libc.close(fd)
        fd = libc.creat("/data/app/gone.txt")
        libc.write(fd, b"doomed")
        libc.close(fd)
        libc.rename("/data/app/old.txt", "/data/app/new.txt")
        libc.unlink("/data/app/gone.txt")
        libc.sync()
        return 0

    from repro.binfmt import elf_executable

    def boot(sys_):
        sys_.kernel.vfs.install_binary(
            "/data/bin/app", elf_executable("app", app, deps=["libc.so"])
        )

    system.add_boot_task(boot)
    assert system.run_program("/data/bin/app") == 0
    system.reboot()
    assert system.fsck_report.ok
    assert read_file(system, "/data/app/new.txt") == b"payload"
    from repro.kernel.errno import SyscallError

    for missing in ("/data/app/old.txt", "/data/app/gone.txt"):
        with pytest.raises(SyscallError):
            system.kernel.vfs.resolve(missing)


def test_fsck_detects_injected_orphan_inode():
    system = durable_system()
    assert run_notes(system) == 0
    system.kernel.vfs  # mounted
    journal = system.machine.storage.journal
    journal.sync_all()
    journal.media_blocks[9999] = {0: b"\xde\xad"}
    from repro.kernel.recovery import run_fsck

    report = run_fsck(system.kernel)
    assert not report.ok
    assert any("orphan" in e for e in report.errors)


def test_fsck_detects_unconsumed_journal():
    system = durable_system()
    assert run_notes(system) == 0
    journal = system.machine.storage.journal
    journal.sync_all()
    journal.media_journal.append(("create", "/data/ghost", 424242))
    from repro.kernel.recovery import run_fsck

    report = run_fsck(system.kernel)
    assert not report.ok
    assert any("journal not consumed" in e for e in report.errors)


def test_recovery_log_is_byte_comparable_document():
    system = durable_system()
    assert run_notes(system) == 0
    log = system.reboot(reason="doc test")
    assert log.text().startswith("recovery: begin generation=1")
    assert log.text().endswith("state=running\n")
    assert len(log.digest()) == 64


# -- service re-supervision ----------------------------------------------------


def test_launchd_services_restart_after_reboot():
    system = durable_system()
    system.machine.trace.enabled = True
    crash_with(system, "syscall.enter", 5, FaultOutcome.panic())
    system.reboot()
    assert system.machine.state == MACHINE_RUNNING
    assert system.ios is not None and system.ios.launchd is not None
    events = system.machine.trace.events("launchd", "resupervise")
    assert events and events[-1].detail["generation"] == 1
    # The rebooted system runs programs again, end to end.
    assert run_notes(system) == 0


def test_boot_generation_counts_reboots():
    system = durable_system()
    assert run_notes(system) == 0
    system.reboot()
    system.reboot()
    assert system.machine.boot_generation == 2
    assert system.recovery_log.lines[0] == (
        "recovery: begin generation=2 reason=reboot"
    )


# -- the crash-point sweep -----------------------------------------------------


def test_sweep_sampling_is_deterministic():
    occ = {"vfs.open": 5, "syscall.enter": 1}
    sites = crashsweep.sample_sites(occ, max_sites=None)
    assert sites == [
        ("syscall.enter", 1, "panic"),
        ("vfs.open", 1, "power_loss"),
        ("vfs.open", 5, "panic"),
    ]
    assert crashsweep.sample_sites(occ, max_sites=2) == sites[:2]


def test_crash_point_sweep_recovers_every_sampled_site():
    report = crashsweep.run_sweep(max_sites=4)
    assert report.cases == 4
    assert report.passed == 4
    assert "RECOVERED" in report.lines[2]


def test_sweep_report_identical_across_runs():
    first = crashsweep.run_sweep(max_sites=2)
    second = crashsweep.run_sweep(max_sites=2)
    assert first.text() == second.text()
    assert first.digest() == second.digest()


# -- whole-run determinism -----------------------------------------------------


def crash_and_recover_artifacts():
    system = durable_system()
    plan = crash_with(
        system, "syscall.exit", 17, FaultOutcome.power_loss(), rule_id="det"
    )
    log = system.reboot()
    return (
        plan.fault_log(),
        log.text(),
        log.digest(),
        system.fsck_report.text(),
        system.fsck_report.digest(),
    )


def test_crash_recovery_is_deterministic_end_to_end():
    assert crash_and_recover_artifacts() == crash_and_recover_artifacts()
