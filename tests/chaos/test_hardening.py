"""Targeted scenarios for each hardening mechanism.

The sweep (:mod:`tests.chaos.test_chaos_sweep`) proves nothing breaks
under arbitrary plans; these tests pin each mechanism's *specific*
contract — watchdog reclamation, slot quarantine, spawn backoff, and
SMM brown-out — with hand-built single-purpose plans.
"""

import pytest

from repro.core import PagodaConfig, PagodaSession
from repro.core.errors import TaskError, TaskErrorGroup, retry_backoff_ns
from repro.core.validation import check_quiescent
from repro.faults import FaultPlan, FaultSpec
from repro.tasks import TaskResult, TaskSpec

from tests.chaos.harness import chaos_spec, const_kernel


def make_session(*specs, watchdog_ns=None, **config_kw):
    plan = FaultPlan(specs=list(specs)) if specs else None
    return PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False, fault_plan=plan,
        watchdog_deadline_ns=watchdog_ns, **config_kw,
    ))


def drive(session, body):
    """Spawn ``body`` as the host driver and run the engine, bounded."""
    proc = session.engine.spawn(body, name="driver")
    session.engine.run(until=5.0e7)
    return proc


def test_watchdog_reclaims_stuck_warp():
    """A warp wedged by ``gpu.stuck_warp`` is killed at the deadline,
    its resources reclaimed, and the failure surfaces from wait() —
    while healthy neighbours finish untouched."""
    session = make_session(
        FaultSpec(kind="gpu.stuck_warp", at_ns=0.0, target="hog"),
        watchdog_ns=50_000.0,
    )
    host, table, master = session.host, session.table, session.master
    caught = []

    def driver():
        yield from host.task_spawn(TaskSpec("hog", 32, 1, const_kernel(500)),
                                   TaskResult(0, "hog"))
        for i in range(1, 5):
            yield from host.task_spawn(
                TaskSpec(f"ok{i}", 32, 1, const_kernel(1000)),
                TaskResult(i, f"ok{i}"))
        try:
            yield from host.wait_all()
        except TaskError as exc:
            caught.append(exc)

    proc = drive(session, driver())
    assert not proc.alive, "waitAll hung on the wedged task"
    (err,) = caught
    assert err.name == "hog"
    assert "watchdog" in err.reason
    kills = master.watchdog_kills()
    assert len(kills) == 1 and kills[0].name == "hog"
    assert kills[0].deadline_ns == 50_000.0
    # the healthy companions all completed
    assert master.tasks_executed() == 4 and master.tasks_failed() == 1
    # the kill freed the warp slots / shared memory / barrier IDs
    check_quiescent(session, deep=True)
    session.shutdown()


def test_quarantine_retires_repeatedly_lethal_slot():
    """Three consecutive deaths in one slot retire it from the free
    list; the next spawn lands elsewhere and succeeds."""
    session = make_session(
        FaultSpec(kind="task.raise", at_ns=0.0, count=3),
    )
    host, table = session.host, session.table
    slots = []
    failures = []

    def driver():
        # serial spawn/wait reuses the same TaskTable slot each time
        # (freed entries go back on the end of the LIFO free queue)
        for i in range(4):
            tid = yield from host.task_spawn(
                TaskSpec(f"t{i}", 32, 1, const_kernel(800)),
                TaskResult(i, f"t{i}"))
            slots.append(table.id_map[tid])
            try:
                yield from host.wait(tid)
            except TaskError as exc:
                failures.append(exc)

    proc = drive(session, driver())
    assert not proc.alive
    # the first three died in the same slot...
    assert len(failures) == 3
    assert slots[0] == slots[1] == slots[2]
    # ...which is now quarantined, with the incident recorded
    assert slots[0] in table.quarantined
    (event,) = table.quarantine_events
    assert (event.column, event.row) == slots[0]
    assert event.failures == 3
    # the fourth spawn avoided the bad slot and completed cleanly
    assert slots[3] != slots[0]
    assert session.master.tasks_executed() == 1
    check_quiescent(session, deep=True)
    session.shutdown()


def test_backoff_is_capped_exponential():
    assert [retry_backoff_ns(k) for k in range(7)] == [
        2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0, 64_000.0,
    ]


def test_brownout_kills_resident_tasks_and_recovers():
    """An injected SMM brown-out kills whatever its column is running;
    the dead tasks surface as TaskErrors, the column keeps scheduling,
    and nothing leaks."""
    session = make_session(
        FaultSpec(kind="gpu.brownout", at_ns=30_000.0, target=0),
    )
    host, master = session.host, session.master
    caught = []

    def driver():
        # long tasks on every column so column 0 is mid-execution at
        # the 30us firing point
        for i in range(8):
            yield from host.task_spawn(
                TaskSpec(f"long{i}", 32, 1, const_kernel(100_000)),
                TaskResult(i, f"long{i}"))
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup) as exc:
            caught.append(exc)

    proc = drive(session, driver())
    assert not proc.alive, "waitAll hung after the brown-out"
    failed = master.tasks_failed()
    assert failed >= 1, "the brown-out killed nothing"
    assert caught, "brown-out deaths never surfaced from waitAll"
    errors = host.task_errors()
    assert all("gpu.brownout" in e.reason for e in errors)
    assert master.tasks_executed() + failed == 8
    assert session.faults.injected_count == 1  # the brown-out itself
    check_quiescent(session, deep=True)
    session.shutdown()
