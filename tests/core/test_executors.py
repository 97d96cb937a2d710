"""MasterKernel executor warps: one callback object per WarpTable slot.

A new executor starts from a ready-ring record, where a spawned process
would have.  If a sibling warp kills the task before that record runs,
the slot is already retired when it does: the executor must find the
slot idle, do nothing, and take the slot's next dispatch cleanly.
"""

import pytest

from repro.core import PagodaConfig, PagodaSession
from repro.core.errors import TaskError, TaskErrorGroup
from repro.core.masterkernel import _Executor
from repro.core.validation import check_quiescent
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.tasks import TaskResult, TaskSpec

from tests.chaos.harness import CHAOS_COLUMNS, chaos_spec


def _kernel(pulled, raising):
    def kernel(task, block_id, warp_id):
        pulled.append((task.name, warp_id))
        if raising and warp_id == 0:
            raise RuntimeError("warp 0 bug")
        yield Phase(300.0, 128.0)
    return kernel


@pytest.mark.parametrize("fault", ["kernel", "poison"])
def test_slot_retired_before_its_first_start(monkeypatch, fault):
    runs = []
    run = _Executor.run

    def logged(self):
        runs.append((self.index, self.slot.exec_flag))
        run(self)

    monkeypatch.setattr(_Executor, "run", logged)
    plan = (FaultPlan(specs=[FaultSpec(kind="task.poison", at_ns=0.0,
                                       target="bad")])
            if fault == "poison" else None)
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False, fault_plan=plan))
    # one MTB column: every task lands on the same WarpTable
    for column in range(1, CHAOS_COLUMNS):
        session.table.close_column(column)
    host = session.host
    pulled = []
    caught = []
    results = {}

    def spawn(name, threads, raising=False):
        results[name] = TaskResult(len(results), name)
        task = TaskSpec(name, threads, 1, _kernel(pulled, raising))
        yield from host.task_spawn(task, results[name])

    def driver():
        # slot 0 gets a started executor
        yield from spawn("warm", 32)
        yield from host.wait_all()
        # its warp 0 starts at once and kills the task; slots 1-3 are
        # retired before their new executors' first records run
        yield from spawn("bad", 128, raising=fault == "kernel")
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup) as exc:
            caught.append(exc)
        # the same four slots, every executor already started
        yield from spawn("good", 128)
        try:
            yield from host.wait_all()
        except TaskError as exc:  # bad's failure, reported again
            caught.append(exc)

    proc = session.engine.spawn(driver(), name="driver")
    session.engine.run(until=1.0e7)
    assert not proc.alive
    # warm's start, bad's warp 0 at once, the three queued starts, and
    # good's four dispatches at once
    assert runs == ([(0, True), (0, True), (1, False), (2, False),
                     (3, False)] + [(w, True) for w in range(4)])
    err = caught[0]
    assert caught == [err, err] and err.name == "bad"
    assert err.reason == ("kernel exception: RuntimeError: warp 0 bug"
                          if fault == "kernel"
                          else "injected fault task.poison")
    assert pulled == [("warm", 0)] + (
        [("bad", 0)] if fault == "kernel" else []) + [
        ("good", w) for w in range(4)]
    assert results["good"].end_time > results["good"].start_time > 0
    master = session.master
    assert master.tasks_executed() == 2 and master.tasks_failed() == 1
    (mtb,) = [m for m in master.mtbs if m.column == 0]
    assert all(e is not None and e.alive for e in mtb._executors[:4])
    check_quiescent(session, deep=True)
    session.shutdown()
