"""Scheduler decisions, read back from the ``sched.mtb*`` obs instants."""

from repro.core import PagodaConfig, PagodaSession
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.tasks import TaskResult, TaskSpec

from tests.obs.decisions import sched_decisions


def kernel(task, block_id, warp_id):
    yield Phase(inst=500)


def run_traced(n_tasks=10, **config_kw):
    session = PagodaSession(config=PagodaConfig(obs=Obs(profile=False),
                                                **config_kw))
    eng, host = session.engine, session.host
    ids = []

    def driver():
        for i in range(n_tasks):
            tid = yield from host.task_spawn(
                TaskSpec(f"t{i}", 64, 1, kernel), TaskResult(i, "t"))
            ids.append(tid)
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    session.shutdown()
    return sched_decisions(session.obs), ids


def test_trace_records_full_lifecycle():
    trace, ids = run_traced(10)
    # the pipeline tail is promoted by the host's finalization, not a
    # scheduler warp: n-1 scheduler-side promotions
    assert len(trace["promote"]) == 9
    assert len(trace["schedule"]) == 10
    assert len(trace["task_done"]) == 10
    # every spawned task appears in the terminal stage
    assert sorted(tid for _t, tid in trace["task_done"]) == sorted(ids)


def test_trace_event_ordering_per_task():
    trace, ids = run_traced(6)
    promotes = dict((v, t) for t, v in trace["promote"])
    for tid in ids:
        t_sched = next(t for t, v in trace["schedule"] if v == tid)
        t_done = next(t for t, v in trace["task_done"] if v == tid)
        assert t_sched <= t_done
        if tid in promotes:  # the tail task is host-finalized instead
            assert promotes[tid] <= t_sched


def test_defer_events_recorded():
    """A wide flood on the deferred scheduler produces defer events."""
    session = PagodaSession(config=PagodaConfig(
        obs=Obs(profile=False), deferred_scheduling=True))
    eng, host = session.engine, session.host

    def heavy(task, block_id, warp_id):
        yield Phase(inst=200_000)

    def driver():
        for i in range(600):
            yield from host.task_spawn(
                TaskSpec(f"t{i}", 256, 1, heavy), TaskResult(i, "t"))
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    trace = sched_decisions(session.obs)
    session.shutdown()
    assert len(trace["defer"]) > 0
    assert len(trace["task_done"]) == 600


def test_task_fail_instants_match_task_errors():
    """Every failed task, whether its kernel raised or the watchdog
    killed it, leaves exactly one ``task_fail`` instant carrying the
    task id its TaskError reports."""
    from repro.core.errors import TaskError, TaskErrorGroup
    from repro.faults import FaultPlan, FaultSpec

    from tests.chaos.harness import chaos_spec, const_kernel

    def boom(task, block_id, warp_id):
        yield Phase(inst=100)
        raise RuntimeError("kernel fault")

    plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.stuck_warp", at_ns=0.0, target="hog")])
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False, obs=Obs(profile=False),
        fault_plan=plan, watchdog_deadline_ns=50_000.0))
    host = session.host
    specs = [TaskSpec("hog", 32, 1, const_kernel(500)),
             TaskSpec("boom0", 32, 1, boom),
             TaskSpec("ok0", 32, 1, const_kernel(1000)),
             TaskSpec("boom1", 32, 1, boom),
             TaskSpec("ok1", 32, 1, const_kernel(1000))]

    def driver():
        for i, spec in enumerate(specs):
            yield from host.task_spawn(spec, TaskResult(i, spec.name))
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup):
            pass

    session.engine.spawn(driver(), name="driver")
    session.engine.run(until=5.0e7)
    errors = host.task_errors()
    trace = sched_decisions(session.obs)
    session.shutdown()
    assert sorted(e.name for e in errors) == ["boom0", "boom1", "hog"]
    assert any("watchdog" in e.reason for e in errors)
    fail_ids = [tid for _t, tid in trace["task_fail"]]
    assert sorted(fail_ids) == [e.task_id for e in errors]
    assert len(trace["task_done"]) == 2
