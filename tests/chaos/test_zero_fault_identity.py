"""The control arm: a zero-fault plan must not perturb the schedule.

Wiring a :class:`~repro.faults.FaultInjector` into every layer is only
admissible if carrying one with an *empty* plan is free: every hook is
a guarded dict probe that makes no engine calls.  This test pins that
property at full strength — not just end-to-end task times, but the
scheduler's entire decision stream and the buddy allocator's placement
stream must be bit-identical between an uninstrumented session and one
carrying ``FaultPlan.zero()``.
"""

from repro.core import PagodaConfig, PagodaSession
from repro.faults import FaultPlan
from repro.obs import Obs
from repro.tasks import TaskResult

from tests.chaos.harness import chaos_spec, chaos_tasks
from tests.obs.decisions import sched_decisions


def _traced_run(fault_plan):
    """Run the seed-0 chaos workload recording every scheduler decision
    and per-task timing; returns a replay-comparable fingerprint."""
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False, obs=Obs(profile=False),
        fault_plan=fault_plan,
    ))
    tasks = chaos_tasks(0)
    eng, host = session.engine, session.host
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]

    def driver():
        for task, result in zip(tasks, results):
            yield from host.task_spawn(task, result)
        yield from host.wait_all()

    eng.spawn(driver(), name="driver")
    eng.run(raise_on_deadlock=True)
    decisions = sched_decisions(session.obs)
    timings = tuple(
        (r.name, r.spawn_time, r.sched_time, r.start_time, r.end_time)
        for r in results
    )
    injector = session.faults
    session.shutdown()
    return decisions, timings, eng.now, injector


def test_zero_fault_plan_is_schedule_identical():
    base_dec, base_times, base_end, base_inj = _traced_run(None)
    zero_dec, zero_times, zero_end, zero_inj = _traced_run(FaultPlan.zero())
    # the control arm really did carry an injector, and it fired nothing
    assert base_inj is None and zero_inj is not None
    assert zero_inj.plan.is_zero
    assert zero_inj.fingerprint() == ()
    # bit-identical: same decisions, same times, same final clock
    assert zero_dec == base_dec
    assert zero_times == base_times
    assert zero_end == base_end
    assert any(base_dec.values()), (
        "scheduler trace is empty — the comparison proved nothing"
    )


def test_generated_plan_is_seed_replayable():
    """Same seed -> same plan, different seed -> different plan (the
    property that makes any chaos failure replayable)."""
    a = FaultPlan.generate(13, n_faults=10, columns=4, gpus=2)
    b = FaultPlan.generate(13, n_faults=10, columns=4, gpus=2)
    c = FaultPlan.generate(14, n_faults=10, columns=4, gpus=2)
    assert a.specs == b.specs
    assert a.specs != c.specs
    assert all(x.at_ns <= y.at_ns for x, y in zip(a.specs, a.specs[1:]))
