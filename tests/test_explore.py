"""Tests for the concurrency exploration engine (repro.sim.explore)."""

import pytest

from repro.sim import (
    FifoPolicy,
    HBMonitor,
    ReplayPolicy,
    Scheduler,
    SeededRandomPolicy,
    VirtualClock,
    deviations,
    explore,
    trace_signature,
)
from repro.sim.explore import failure_keys, format_decisions
from repro.workloads import schedsweep


# -- scheduler-level policy behaviour ------------------------------------------


@pytest.fixture
def sched():
    scheduler = Scheduler(VirtualClock())
    yield scheduler
    scheduler.shutdown()


def _spawn_yielders(sched, log, count=3, rounds=3):
    """A workload with many multi-candidate choice points."""
    for i in range(count):
        def body(i=i):
            for r in range(rounds):
                log.append(f"t{i}.{r}")
                sched.yield_control()
        sched.spawn(body, name=f"t{i}")


def test_fifo_policy_matches_bare_schedule():
    bare_log, fifo_log = [], []
    bare = Scheduler(VirtualClock())
    _spawn_yielders(bare, bare_log)
    bare.run()
    bare.shutdown()

    policied = Scheduler(VirtualClock())
    policy = policied.set_policy(FifoPolicy())
    _spawn_yielders(policied, fifo_log)
    policied.run()
    policied.shutdown()

    assert fifo_log == bare_log
    # ... while also recording the trace the bare scheduler never keeps.
    assert policy.choices
    assert all(picked == names[0] for _cid, names, picked in policy.choices)


def test_seeded_random_policy_is_deterministic(sched):
    def run(seed):
        log = []
        scheduler = Scheduler(VirtualClock())
        policy = scheduler.set_policy(SeededRandomPolicy(seed))
        _spawn_yielders(scheduler, log)
        scheduler.run()
        scheduler.shutdown()
        return log, list(policy.choices)

    log_a, choices_a = run(7)
    log_b, choices_b = run(7)
    assert log_a == log_b
    assert choices_a == choices_b
    assert trace_signature(choices_a) == trace_signature(choices_b)


def test_preemption_bound_zero_degenerates_to_fifo():
    fifo_log, bounded_log = [], []
    for log, policy in (
        (fifo_log, FifoPolicy()),
        (bounded_log, SeededRandomPolicy(99, preemption_bound=0)),
    ):
        scheduler = Scheduler(VirtualClock())
        scheduler.set_policy(policy)
        _spawn_yielders(scheduler, log)
        scheduler.run()
        scheduler.shutdown()
    assert bounded_log == fifo_log


def test_replay_policy_reproduces_a_random_walk(sched):
    walk_log = []
    walker = Scheduler(VirtualClock())
    walk = walker.set_policy(SeededRandomPolicy(3, preemption_bound=4))
    _spawn_yielders(walker, walk_log)
    walker.run()
    walker.shutdown()

    replay_log = []
    replayer = Scheduler(VirtualClock())
    replay = replayer.set_policy(ReplayPolicy(deviations(walk.choices)))
    _spawn_yielders(replayer, replay_log)
    replayer.run()
    replayer.shutdown()

    assert replay_log == walk_log
    assert replay.signature() == walk.signature()
    assert not replay.mismatches


def test_replay_of_unknown_thread_falls_back_to_fifo(sched):
    log = []
    policy = sched.set_policy(ReplayPolicy({1: "no-such-thread"}))
    _spawn_yielders(sched, log)
    sched.run()
    assert policy.mismatches and policy.mismatches[0][0] == 1
    # FIFO fallback: the run completed with the default interleaving.
    assert log[0] == "t0.0"


def test_format_decisions():
    assert format_decisions({}) == "(none: default schedule)"
    assert format_decisions({3: "b", 1: "a"}) == "c1->a; c3->b"


# -- happens-before monitor (unit level) ---------------------------------------


class _FakeThread:
    def __init__(self, sid, name):
        self.sid = sid
        self.name = name


class _FakeSched:
    def __init__(self):
        self._current = None


@pytest.fixture
def hb():
    return HBMonitor(_FakeSched())


def _switch(hb, thread):
    hb._sched._current = thread


def test_channel_edge_orders_accesses(hb):
    sender = _FakeThread(1, "sender")
    receiver = _FakeThread(2, "receiver")
    channel = object()
    _switch(hb, sender)
    hb.access("var", write=True, label="send-side")
    hb.release(channel)
    _switch(hb, receiver)
    hb.acquire(channel)
    hb.access("var", write=True, label="recv-side")
    assert hb.race_reports() == []


def test_unsynchronized_writes_race(hb):
    _switch(hb, _FakeThread(1, "alpha"))
    hb.access("var", write=True, label="a")
    _switch(hb, _FakeThread(2, "beta"))
    hb.access("var", write=True, label="b")
    reports = hb.race_reports()
    assert reports == ["race on var: alpha write @a vs beta write @b"]
    # Canonical + deduplicated: the same pair reports once.
    hb.access("var", write=True, label="b")
    assert len(hb.race_reports()) == 1


def test_concurrent_reads_never_race(hb):
    _switch(hb, _FakeThread(1, "alpha"))
    hb.access("var", write=False)
    _switch(hb, _FakeThread(2, "beta"))
    hb.access("var", write=False)
    assert hb.race_reports() == []


def test_lock_order_cycle_detected(hb):
    lock_a, lock_b = object(), object()
    first = _FakeThread(1, "first")
    second = _FakeThread(2, "second")
    _switch(hb, first)
    hb.lock_acquire(lock_a, "A")
    hb.lock_acquire(lock_b, "B")
    hb.lock_release(lock_b, "B")
    hb.lock_release(lock_a, "A")
    _switch(hb, second)
    hb.lock_acquire(lock_b, "B")
    hb.lock_acquire(lock_a, "A")
    hb.lock_release(lock_a, "A")
    hb.lock_release(lock_b, "B")
    assert hb.lock_cycles() == ["lock-order cycle: A -> B -> A"]
    assert "A -> B (by first)" in hb.lock_edges()
    assert "B -> A (by second)" in hb.lock_edges()


def test_consistent_lock_order_has_no_cycle(hb):
    lock_a, lock_b = object(), object()
    for sid, name in ((1, "first"), (2, "second")):
        _switch(hb, _FakeThread(sid, name))
        hb.lock_acquire(lock_a, "A")
        hb.lock_acquire(lock_b, "B")
        hb.lock_release(lock_b, "B")
        hb.lock_release(lock_a, "A")
    assert hb.lock_cycles() == []


def test_failure_keys_cover_every_kind():
    result = {
        "races": ["race on var: a vs b"],
        "cycles": ["lock-order cycle: A -> B -> A"],
        "status": "deadlock",
        "deadlocked": ["t1", "t2"],
    }
    assert failure_keys(result) == [
        ("race", "race on var: a vs b"),
        ("lockdep", "lock-order cycle: A -> B -> A"),
        ("deadlock", "deadlock of t1+t2"),
    ]
    assert failure_keys(
        {"races": [], "cycles": [], "status": "error: exit 1"}
    ) == [("error", "error: exit 1")]


# -- whole-system exploration (the schedsweep scenarios) -----------------------


class TestScenarioExploration:
    def test_default_schedule_is_clean_for_racer(self):
        out = schedsweep.run_scenario_schedule(
            schedsweep.RACER_PATH, FifoPolicy()
        )
        assert out["status"] == "ok"
        assert out["races"] == []
        assert out["cycles"] == []

    def test_explorer_finds_and_minimizes_planted_race(self):
        result = explore(
            lambda policy: schedsweep.run_scenario_schedule(
                schedsweep.RACER_PATH, policy
            ),
            mode="dfs",
            budget=32,
            depth=12,
            preemptions=2,
        )
        assert result.explored <= 200
        keys = list(result.failures)
        assert len(keys) == 1, "the planted race dedupes to one report"
        kind, detail = keys[0]
        assert kind == "race"
        assert "main:flush" in detail and "consumer:add" in detail
        record = result.failures[keys[0]]
        assert len(record["minimized"]) <= 1
        assert record["reproduced"], "ReplayPolicy must reproduce the race"

    def test_explorer_finds_lock_cycle_and_deadlock(self):
        result = explore(
            lambda policy: schedsweep.run_scenario_schedule(
                schedsweep.LOCKER_PATH, policy
            ),
            mode="dfs",
            budget=32,
            depth=12,
            preemptions=2,
        )
        kinds = sorted(kind for kind, _detail in result.failures)
        assert kinds == ["deadlock", "lockdep"]
        for record in result.failures.values():
            assert record["reproduced"]

    def test_clean_scenario_reports_nothing(self):
        result = explore(
            lambda policy: schedsweep.run_scenario_schedule(
                schedsweep.CLEAN_PATH, policy
            ),
            mode="random",
            budget=8,
            preemptions=3,
        )
        assert result.explored == 8
        assert not result.failures

    def test_parallel_exploration_is_byte_identical(self):
        def hunt(jobs):
            return explore(
                lambda policy: schedsweep.run_scenario_schedule(
                    schedsweep.RACER_PATH, policy
                ),
                mode="dfs",
                budget=16,
                depth=12,
                preemptions=2,
                jobs=jobs,
                prime=schedsweep.build_world,
            )

        serial, parallel = hunt(1), hunt(2)
        assert serial.lines() == parallel.lines()
        assert [s["sig"] for s in serial.schedules] == [
            s["sig"] for s in parallel.schedules
        ]


class TestDeterministicWakeups:
    """Wakeup order must be stable across worlds — the same seeded
    policy on two freshly built worlds (and on a snapshot clone of one)
    makes identical decisions over identical ready sets."""

    def test_clones_run_identical_seeded_traces(self):
        policy_a = SeededRandomPolicy(5, preemption_bound=3)
        policy_b = SeededRandomPolicy(5, preemption_bound=3)
        out_a = schedsweep.run_scenario_schedule(
            schedsweep.RACER_PATH, policy_a
        )
        out_b = schedsweep.run_scenario_schedule(
            schedsweep.RACER_PATH, policy_b
        )
        assert out_a["choices"] == out_b["choices"]
        assert out_a["sig"] == out_b["sig"]
        assert out_a["races"] == out_b["races"]

    def test_fresh_world_matches_cloned_world(self):
        from repro.sim.snapshot import snapshot_systems

        fresh = schedsweep.run_scenario_schedule(
            schedsweep.RACER_PATH, SeededRandomPolicy(5, preemption_bound=3)
        )
        (cloned_system,) = snapshot_systems(schedsweep.build_world()).clone()
        cloned = schedsweep.run_schedule_on(
            cloned_system,
            schedsweep.RACER_PATH,
            SeededRandomPolicy(5, preemption_bound=3),
        )
        assert fresh["choices"] == cloned["choices"]
        assert fresh["sig"] == cloned["sig"]


class TestZeroCostWhenOff:
    def test_policy_and_monitor_charge_nothing(self):
        """The FIFO policy + monitor run the exact default schedule and
        charge the exact same virtual picoseconds as the bare scheduler
        (the golden Figure-5 capture guards the same invariant end to
        end)."""

        def run(instrumented):
            system = schedsweep.build_world()
            system.start_services()
            machine = system.machine
            if instrumented:
                machine.install_hb_monitor()
                machine.scheduler.set_policy(FifoPolicy())
            code = system.run_program(
                schedsweep.RACER_PATH, [schedsweep.RACER_PATH]
            )
            charged = machine.clock.charged_ps
            system.shutdown()
            return code, charged

        bare_code, bare_charged = run(False)
        inst_code, inst_charged = run(True)
        assert bare_code == inst_code == 0
        assert bare_charged == inst_charged

    def test_defaults_are_off(self):
        system = schedsweep.build_world()
        machine = system.machine
        assert machine.hb is None
        assert machine.scheduler.hb is None
        assert machine.scheduler._policy is None
        system.shutdown()
