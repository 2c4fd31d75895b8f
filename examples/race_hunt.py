#!/usr/bin/env python
"""Hunting a cross-persona race with the exploration engine.

A Linux (ELF/bionic) producer and an iOS (Mach-O) app share one piece of
VFS state, ``/data/race/counter``.  The producer seeds the counter and
signals the app over a unix socket; the app commits its update, then
hands the counter to its *pump* thread over Mach IPC — the paper's two
personas synchronizing through the duct-taped subsystems.  The app's
planted bug: after posting the Mach message it retries the counter
update itself if the pump has not acked by the time its yield returns.
Under the default FIFO schedule the pump always wins the yield and every
access is ordered through a sync edge (socket transfer, Mach message,
pipe); on schedules where the main thread beats the pump, ``app:retry``
is an unsynchronized write against ``pump:apply``.

The hunt: explore the schedule space (DFS over deviation prefixes),
print the deduped canonical race report with its minimized choice trace,
then replay that trace twice to show the race reproduces
deterministically.

Run:  PYTHONPATH=src python examples/race_hunt.py [--jobs N]
"""

import sys

from repro.binfmt import elf_executable, macho_executable
from repro.cider.system import build_cider
from repro.sim.errors import DeadlockError
from repro.sim.explore import ReplayPolicy, explore, schedule_result
from repro.sim.parallel import parse_jobs

APP_PATH = "/bin/race_app"
SEED_PATH = "/system/bin/race_seed"
COUNTER = "vfs:/data/race/counter"
SOCK_PATH = "/data/race/sock"


def _touch(ctx, label, write=True):
    hb = ctx.machine.hb
    if hb is not None:
        hb.access(COUNTER, write, label)


def seed_linux(ctx, argv):
    """The Linux-persona producer: seed the counter, then signal the app
    over the unix socket (retrying until the app has bound it)."""
    libc = ctx.libc
    fd = libc.creat("/data/race/counter")
    libc.write(fd, b"1")
    libc.close(fd)
    _touch(ctx, "producer:seed")
    sock = libc.socket()
    tries = 0
    while libc.connect(sock, SOCK_PATH) != 0:
        tries += 1
        if tries > 100:
            return 1
        libc.sched_yield()
    libc.write(sock, b"g")
    return 0


def app_ios(ctx, argv):
    """The iOS-persona consumer: commit the counter after the producer's
    signal, pass it to the pump thread over Mach IPC — and retry the
    commit itself when the pump has not acked in time (the planted bug)."""
    from repro.xnu.ipc import MachMessage

    libc = ctx.libc
    state = {"acked": False}
    server = libc.socket()
    libc.bind(server, SOCK_PATH)
    _kr, port = libc.mach_port_allocate()
    done_r, done_w = libc.pipe()

    def pump(tctx):
        tlibc = tctx.libc
        _code, _msg = tlibc.mach_msg_receive(port)
        fd = tlibc.creat("/data/race/counter")
        tlibc.write(fd, b"2")
        tlibc.close(fd)
        _touch(tctx, "pump:apply")
        state["acked"] = True
        tlibc.write(done_w, b"k")
        return 0

    libc.pthread_create(pump, "pump")
    conn = libc.accept(server)
    libc.read(conn, 1)  # the producer's "go": acquires its history
    _touch(ctx, "app:commit")
    libc.mach_msg_send(port, MachMessage(7, body="apply"))
    libc.sched_yield()
    if not state["acked"]:
        _touch(ctx, "app:retry")  # the planted schedule-dependent write
    libc.read(done_r, 1)  # pump's ack: acquires pump:apply
    _touch(ctx, "app:final", write=False)
    return 0


def build_world():
    """The quiescent world: both binaries installed, no thread yet."""
    system = build_cider(start_services=False)
    vfs = system.kernel.vfs
    vfs.makedirs("/data/race")
    vfs.install_binary(APP_PATH, macho_executable("race_app", app_ios))
    vfs.install_binary(SEED_PATH, elf_executable("race_seed", seed_linux))
    return system


def run_schedule(policy):
    """One schedule: fresh world, both personas, one policy."""
    system = build_world()
    system.start_services()
    machine = system.machine
    monitor = machine.install_hb_monitor()
    machine.scheduler.set_policy(policy)
    status = "ok"
    deadlocked = []
    try:
        app = system.kernel.start_process(APP_PATH, name="race_app")
        system.kernel.start_process(SEED_PATH, name="race_seed")
        code = system.wait_for(app)
        if code != 0:
            status = f"error: exit {code}"
    except DeadlockError:
        status = "deadlock"
        deadlocked = sorted(
            t.name for t in machine.scheduler.live_threads() if not t.daemon
        )
    finally:
        machine.scheduler.clear_policy()
        machine.clear_hb_monitor()
    try:
        system.shutdown()
    except Exception:
        pass
    return schedule_result(policy, status, monitor, deadlocked)


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    jobs = parse_jobs(args[1]) if args[:1] == ["--jobs"] else 1

    print("hunting: DFS over schedule deviations (2 preemptions deep)\n")
    result = explore(
        run_schedule,
        mode="dfs",
        budget=64,
        depth=14,
        preemptions=2,
        jobs=jobs,
        prime=build_world,
    )
    for line in result.lines("race_hunt"):
        print(line)

    races = [key for key in result.failures if key[0] == "race"]
    if not races:
        print("\nno race found — the planted bug is gone?")
        return 1
    record = result.failures[races[0]]
    print(f"\ncanonical report : {races[0][1]}")
    print(f"found on schedule : #{record['schedule']} (sig {record['sig']})")
    print(f"minimized trace   : {dict(sorted(record['minimized'].items()))}")

    print("\nreplaying the minimized trace twice:")
    sigs = []
    for attempt in (1, 2):
        out = run_schedule(ReplayPolicy(record["minimized"]))
        sigs.append(out["sig"])
        print(
            f"  replay {attempt}: sig={out['sig']} "
            f"races={out['races'] or ['(none)']}"
        )
    deterministic = sigs[0] == sigs[1] and record["reproduced"]
    print(
        "\nresult: the race "
        + (
            "reproduces deterministically from its choice trace"
            if deterministic
            else "did NOT reproduce — determinism is broken"
        )
    )
    return 0 if deterministic else 1


if __name__ == "__main__":
    raise SystemExit(main())
