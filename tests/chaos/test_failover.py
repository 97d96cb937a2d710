"""Multi-GPU graceful degradation: losing a device mid-run.

A ``gpu.die`` fault kills one of two GPUs of a serve node while work
is in flight.  The server must put the dead device's requests back at
its queue front for the survivor, record a
:class:`~repro.core.errors.DegradationEvent`, and answer every
request — degraded throughput, never a deadlock.
"""

import pytest

from repro.bench import harness
from repro.core import PagodaConfig
from repro.core.errors import GpuDeadError
from repro.faults import FaultPlan, FaultSpec
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec
from repro.serve.server import TaskServer
from repro.tasks import TaskSpec

from tests.chaos.harness import chaos_spec, const_kernel, serve_batch


def long_tasks(count=16, inst=60_000):
    return [TaskSpec(f"t{i}", 32, 1, const_kernel(inst))
            for i in range(count)]


def death_config(at_ns=40_000.0):
    plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.die", at_ns=at_ns, target=0),
    ])
    return PagodaConfig(copy_inputs=False, copy_outputs=False,
                        fault_plan=plan)


def test_gpu_death_fails_over_to_survivor():
    tasks = long_tasks()
    server, report = serve_batch(tasks, 2, death_config(), chaos_spec())
    # every request completed despite losing half the node mid-run
    assert report.completed == report.admitted == len(tasks)
    assert report.faults_injected == 1
    assert server.dead_gpus == {0}
    (event,) = server.degradation_events
    assert event.gpu_index == 0
    assert event.when_ns == 40_000.0
    assert event.survivors == (1,)
    assert event.reason == "gpu.die"
    # work really was in flight on the dead device and got re-posted
    assert event.resubmitted > 0
    # after the death, nothing was (re-)placed on the corpse
    late = [r for r in report.requests if r.dispatch_ns >= 40_000.0]
    assert late and all(r.gpu_index == 1 for r in late)


def test_gpu_death_keeps_dispatch_off_the_dead_gpu():
    """32 mb tasks, both copies on, GPU 0 dies at 20 us: every request
    is answered and none is dispatched to GPU 0 after its death."""
    plan = FaultPlan(specs=[FaultSpec(kind="gpu.die", at_ns=20_000.0,
                                      target=0)])
    server, report = serve_batch(harness.make_tasks("mb", 32, 128, 0), 2,
                                 PagodaConfig(fault_plan=plan))
    assert report.completed == report.admitted == 32
    assert report.faults_injected == 1
    assert not [r for r in report.requests
                if r.gpu_index == 0 and r.dispatch_ns >= 20_000.0]
    (event,) = server.degradation_events
    assert event.resubmitted > 0


def test_gpu_death_after_the_last_post_restarts_the_dispatcher():
    """The dispatcher has returned when the GPU dies: a fresh one
    posts the re-queued requests."""
    tasks = long_tasks(count=8, inst=400_000)
    server, report = serve_batch(tasks, 2, death_config(100_000.0),
                                 chaos_spec())
    assert server._dispatch_proc.name == "serve-redispatch.0"
    (event,) = server.degradation_events
    assert event.resubmitted > 0
    assert report.completed == len(tasks)
    assert report.spawns == len(tasks) + event.resubmitted


def test_gpu_death_during_a_post_reposts_the_batch():
    """GPU 0 dies while an entry is being posted to it: the post raises
    and the dispatcher hands the batch to the survivor."""
    server = TaskServer(
        [TenantSpec("batch", harness.make_tasks("mb", 48, 128, 0),
                    DeterministicArrivals(0.0))],
        ServeConfig(pagoda=death_config(1_000.0), num_gpus=2))
    server.start()
    # bounded: a batch stranded on the corpse would poll forever
    server.engine.run(max_events=500_000)
    report = server.finish()
    assert report.completed == 48
    assert all(r.gpu_index == 1 for r in report.requests
               if r.dispatch_ns >= 1_000.0)


def test_gpu_death_run_is_deterministic():
    """Failover is part of the simulation: same plan -> same schedule."""
    def run():
        _, report = serve_batch(long_tasks(), 2, death_config(),
                                chaos_spec())
        return (report.to_json(),
                tuple((r.gpu_index, r.dispatch_ns, r.result.end_time)
                      for r in report.requests))

    assert run() == run()


def _two_gpu_server():
    return TaskServer(
        [TenantSpec("batch", long_tasks(2), DeterministicArrivals(0.0))],
        ServeConfig(num_gpus=2), chaos_spec())


def test_node_refuses_to_kill_last_survivor():
    server = _two_gpu_server()
    assert server.kill_gpu(0) is True
    assert server.survivors == [1]
    # the last GPU standing cannot be killed (nothing to fail over to)
    assert server.kill_gpu(1) is False
    assert server.survivors == [1]
    # killing an already-dead device is a no-op, not a double-kill
    assert server.kill_gpu(0) is False
    server.shutdown()


def test_dead_host_raises_instead_of_spinning():
    server = _two_gpu_server()
    server.kill_gpu(0)
    host = server.sessions[0].host
    with pytest.raises(GpuDeadError):
        # spawn on a dead device must fail fast, not wedge the driver
        gen = host.task_spawn(TaskSpec("t", 32, 1, const_kernel(100)))
        next(gen)
    # placement keeps working, routed to the survivor
    assert server.pick_gpu() == 1
    server.shutdown()


def test_launch_failure_is_retried_not_fatal():
    """An injected cudaErrorLaunchFailure costs the multi-GPU server a
    backoff and a re-issue, as it does run_pagoda, never the run."""
    tasks = harness.make_tasks("mb", 64, 128, 0)
    plan = FaultPlan(specs=[FaultSpec(kind="cuda.launch_fail")])
    server, report = serve_batch(tasks, 2, PagodaConfig(fault_plan=plan))
    assert report.completed == len(tasks)
    assert report.failed == 0
    assert report.faults_injected > 0
    assert server.degradation_events == []
    assert server.dead_gpus == set()
    assert {r.gpu_index for r in report.requests} == {0, 1}
    # the failures were real: the retry backoff moved the schedule
    _, clean = serve_batch(tasks, 2, PagodaConfig())
    assert report.makespan_ns != clean.makespan_ns
