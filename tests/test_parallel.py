"""Parallel deterministic sweep engine (ISSUE 9 tentpole): fork-server
workers, boot-snapshot cache, byte-identical merge.

The contract under test: worker count changes wall-clock only.  A sweep
run at ``--jobs 4`` must render the byte-identical transcript (and
SHA-256 digest) of a serial run, and a world booted from a snapshot
clone must be bit-identical — in charged virtual picoseconds — to a
freshly built one.
"""

import hashlib

import pytest

from repro.cider.system import build_cider
from repro.sim.parallel import (
    WorkerError,
    fork_available,
    parse_jobs,
    run_cases,
)
from repro.sim.snapshot import (
    SnapshotError,
    assert_quiescent,
    snapshot_systems,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires os.fork"
)


# -- run_cases: ordering, equivalence, failure propagation ---------------------


def test_run_cases_serial_matches_input_order():
    assert run_cases(5, lambda i: i * i, jobs=1) == [0, 1, 4, 9, 16]


@needs_fork
def test_run_cases_parallel_merges_in_case_order():
    # Uneven per-case work so shards finish out of order.
    def case(i):
        return (i, sum(range((5 - i) * 2000)))

    serial = run_cases(8, case, jobs=1)
    parallel = run_cases(8, case, jobs=4)
    assert parallel == serial
    assert [i for i, _total in parallel] == list(range(8))


@needs_fork
def test_run_cases_prime_runs_once_in_parent():
    calls = []

    def prime():
        calls.append("prime")

    run_cases(6, lambda i: i, jobs=3, prime=prime)
    assert calls == ["prime"]


@needs_fork
def test_run_cases_worker_exception_raises_worker_error():
    def case(i):
        if i == 5:
            raise ValueError("case five exploded")
        return i

    with pytest.raises(WorkerError) as excinfo:
        run_cases(8, case, jobs=4)
    assert "case 5" in str(excinfo.value)
    assert "case five exploded" in str(excinfo.value)


def test_parse_jobs():
    assert parse_jobs("3") == 3
    assert parse_jobs("0") >= 1  # 0 = all cores
    with pytest.raises(ValueError):
        parse_jobs("-1")


# -- snapshots: quiescence rule and bit-identical clones -----------------------


def test_snapshot_refuses_live_threads():
    # A fully booted system has supervised services — live sim threads.
    system = build_cider()
    with pytest.raises(SnapshotError):
        snapshot_systems(system)
    system.shutdown()


def test_pre_service_boot_is_quiescent():
    system = build_cider(start_services=False)
    assert_quiescent(system.machine)  # must not raise
    snapshot_systems(system)


def test_snapshot_clone_boot_bit_identical_to_fresh_boot():
    """Finishing a clone's boot charges exactly the virtual picoseconds
    a fresh full build charges — the determinism contract that makes the
    boot-snapshot cache invisible to every transcript."""
    fresh = build_cider(durable=True)
    snap = snapshot_systems(build_cider(durable=True, start_services=False))
    (cloned,) = snap.clone()
    cloned.start_services()
    assert cloned.machine.clock.charged_ps == fresh.machine.clock.charged_ps
    fresh.shutdown()
    cloned.shutdown()


def test_snapshot_clones_are_independent():
    snap = snapshot_systems(build_cider(start_services=False))
    (a,) = snap.clone()
    (b,) = snap.clone()
    a.start_services()
    a.kernel.vfs.makedirs("/data/only-in-a")
    with pytest.raises(Exception):
        b.kernel.vfs.resolve("/data/only-in-a")
    assert snap.clones == 2


# -- sweep transcripts: --jobs N is byte-invisible -----------------------------


@needs_fork
def test_partsweep_jobs_transcript_byte_identical():
    from repro.workloads.partsweep import run_sweep

    serial = run_sweep(max_cases=8, jobs=1)
    parallel = run_sweep(max_cases=8, jobs=4)
    assert parallel.text() == serial.text()
    assert parallel.digest() == serial.digest()
    assert parallel.cases == serial.cases == 8


@needs_fork
def test_crashsweep_jobs_transcript_byte_identical():
    from repro.workloads.crashsweep import run_sweep

    serial = run_sweep(max_sites=6, jobs=1)
    parallel = run_sweep(max_sites=6, jobs=4)
    assert parallel.text() == serial.text()
    assert parallel.digest() == serial.digest()
    assert parallel.cases == serial.cases == 6


@needs_fork
def test_netbench_replicas_byte_identical():
    from repro.workloads.netbench import format_report, run_netbench

    reports = run_cases(
        2, lambda _i: format_report(run_netbench()), jobs=2
    )
    assert reports[0] == reports[1]


# -- streaming packet-log digest -----------------------------------------------


def test_streaming_packet_log_digest_matches_joined_log():
    from repro.workloads.netbench import ELF_PATH, install_netbench

    system = build_cider(with_httpd=True)
    install_netbench(system)
    assert system.run_program(ELF_PATH, [ELF_PATH, {"out": {}}]) == 0
    net = system.machine.net
    assert net.packet_log()  # the workload logged traffic
    recomputed = hashlib.sha256(net.packet_log().encode()).hexdigest()
    assert net.log_digest() == recomputed
    system.shutdown()


def test_streaming_digest_of_empty_log():
    system = build_cider(start_services=False)
    net = system.machine.net
    assert net.log_digest() == hashlib.sha256(b"").hexdigest()
