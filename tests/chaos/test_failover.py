"""Multi-GPU graceful degradation: losing a device mid-run.

A ``gpu.die`` fault kills one of two GPUs while work is in flight.
The node must re-spawn the dead device's tasks on the survivor, record
a :class:`~repro.core.errors.DegradationEvent`, and finish every task
— degraded throughput, never a deadlock.
"""

import pytest

from repro.bench import harness
from repro.core import PagodaConfig
from repro.core.errors import GpuDeadError
from repro.core.multigpu import MultiGpuPagoda, run_multi_gpu_pagoda
from repro.faults import FaultPlan, FaultSpec
from repro.tasks import TaskSpec

from tests.chaos.harness import chaos_spec, const_kernel


def long_tasks(count=16, inst=60_000):
    return [TaskSpec(f"t{i}", 32, 1, const_kernel(inst))
            for i in range(count)]


def test_gpu_death_fails_over_to_survivor():
    plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.die", at_ns=40_000.0, target=0),
    ])
    config = PagodaConfig(copy_inputs=False, copy_outputs=False,
                          fault_plan=plan)
    tasks = long_tasks()
    stats = run_multi_gpu_pagoda(tasks, num_gpus=2, spec=chaos_spec(),
                                 config=config)
    # every task completed despite losing half the node mid-run
    assert all(r.end_time > 0 for r in stats.results)
    assert stats.meta["dead_gpus"] == [0]
    (event,) = stats.meta["degradation_events"]
    assert event["gpu_index"] == 0
    assert event["when_ns"] == 40_000.0
    assert event["survivors"] == [1]
    assert event["reason"] == "gpu.die"
    # work really was in flight on the dead device and got re-spawned
    assert event["resubmitted"] > 0
    # after the death, nothing was (re-)placed on the corpse
    placements = stats.meta["placements"]
    assert all(p in (0, 1) for p in placements)
    assert any(p == 1 for p in placements)


def test_gpu_death_run_is_deterministic():
    """Failover is part of the simulation: same plan -> same schedule."""
    def run():
        plan = FaultPlan(specs=[
            FaultSpec(kind="gpu.die", at_ns=40_000.0, target=0),
        ])
        config = PagodaConfig(copy_inputs=False, copy_outputs=False,
                              fault_plan=plan)
        stats = run_multi_gpu_pagoda(long_tasks(), num_gpus=2,
                                     spec=chaos_spec(), config=config)
        return (stats.makespan, tuple(stats.meta["placements"]),
                tuple(r.end_time for r in stats.results))

    assert run() == run()


def test_node_refuses_to_kill_last_survivor():
    node = MultiGpuPagoda(num_gpus=2, spec=chaos_spec())
    assert node.kill_gpu(0) is True
    assert node.survivors == [1]
    # the last GPU standing cannot be killed (nothing to fail over to)
    assert node.kill_gpu(1) is False
    assert node.survivors == [1]
    # killing an already-dead device is a no-op, not a double-kill
    assert node.kill_gpu(0) is False
    node.shutdown()


def test_dead_host_raises_instead_of_spinning():
    node = MultiGpuPagoda(num_gpus=2, spec=chaos_spec())
    node.kill_gpu(0)
    host = node.sessions[0].host
    with pytest.raises(GpuDeadError):
        # spawn on a dead device must fail fast, not wedge the driver
        gen = host.task_spawn(TaskSpec("t", 32, 1, const_kernel(100)))
        next(gen)
    # placement keeps working, routed to the survivor
    assert node.pick_gpu() == 1
    node.shutdown()


def test_launch_failure_is_retried_not_fatal():
    """An injected cudaErrorLaunchFailure costs the multi-GPU runner a
    backoff and a re-issue, as it does run_pagoda, never the run."""
    tasks = harness.make_tasks("mb", 64, 128, 0)
    plan = FaultPlan(specs=[FaultSpec(kind="cuda.launch_fail")])
    stats = run_multi_gpu_pagoda(tasks, num_gpus=2,
                                 config=PagodaConfig(fault_plan=plan))
    assert all(r.end_time > 0 for r in stats.results)
    assert stats.meta["tasks_failed"] == 0
    assert stats.meta["degradation_events"] == []
    assert stats.meta["dead_gpus"] == []
    assert sorted(set(stats.meta["placements"])) == [0, 1]
    # the failures were real: the retry backoff moved the schedule
    clean = run_multi_gpu_pagoda(tasks, num_gpus=2)
    assert stats.makespan != clean.makespan
