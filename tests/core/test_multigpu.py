"""Multi-GPU Pagoda extension tests, driven through the serve node
(a :class:`TaskServer` over ``num_gpus`` sessions)."""

import hashlib

import pytest

from repro.bench import harness
from repro.core import PagodaConfig
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec
from repro.serve.server import TaskServer
from repro.tasks import TaskSpec

from tests.chaos.harness import serve_batch

NO_COPIES = PagodaConfig(copy_inputs=False, copy_outputs=False)


def const_kernel(inst):
    def kernel(task, block_id, warp_id):
        yield Phase(inst=float(inst))
    return kernel


def make_tasks(n, inst=50_000):
    return [TaskSpec(f"t{i}", 128, 1, const_kernel(inst)) for i in range(n)]


def _server(num_gpus):
    return TaskServer(
        [TenantSpec("batch", make_tasks(4), DeterministicArrivals(0.0))],
        ServeConfig(num_gpus=num_gpus))


def test_validation():
    with pytest.raises(ValueError, match="num_gpus must be >= 1"):
        _server(0)


def test_all_tasks_complete_across_two_gpus():
    _, report = serve_batch(make_tasks(200), 2, NO_COPIES)
    assert report.num_gpus == 2
    assert report.completed == 200
    assert all(r.status == "done" for r in report.requests)


def test_tasks_spread_over_both_gpus():
    _, report = serve_batch(make_tasks(100), 2, NO_COPIES)
    assert {r.gpu_index for r in report.requests} == {0, 1}


def test_single_gpu_degenerates_to_pagoda():
    from repro.core import run_pagoda
    tasks = make_tasks(60)
    _, single = serve_batch(tasks, 1, NO_COPIES)
    baseline = run_pagoda(tasks, config=NO_COPIES)
    # identical scheduling stack; only the host loops differ
    assert single.makespan_ns == pytest.approx(baseline.makespan, rel=0.2)


def test_two_gpus_speed_up_gpu_bound_work():
    """Heavy narrow tasks that saturate one GPU split ~2x across two."""
    tasks = make_tasks(600, inst=200_000)
    _, one = serve_batch(tasks, 1, NO_COPIES)
    _, two = serve_batch(tasks, 2, NO_COPIES)
    assert two.makespan_ns < one.makespan_ns
    assert one.makespan_ns / two.makespan_ns > 1.3


def test_pick_gpu_prefers_shorter_queue():
    server = _server(3)
    server._outstanding = [5, 2, 7]
    assert server.pick_gpu() == 1
    server.shutdown()


#: sha256 of ``ServeReport.to_json()`` for 64 mb tasks on two GPUs
#: with both copies on.  The clean pin was recorded before the server
#: took over ``gpu.die`` failover, so a run without one moves no byte;
#: the failover pin (GPU 0 dies at 120 us) was recorded with it.
CLEAN_PIN = (
    "2bcb04d0eb9b0beee41d23d1f4674e57276683bf4e8194427a960b1fc77a37ec")
FAILOVER_PIN = (
    "b7880b07fbd7c0548946d49c62a9d8cbdd054df23e9d304d032eeaeafe438a6d")


def _pin(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_clean_two_gpu_run_matches_recording():
    _, report = serve_batch(harness.make_tasks("mb", 64, 128, 0), 2,
                            PagodaConfig())
    assert _pin(report) == CLEAN_PIN


def test_failover_run_matches_recording():
    plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.die", at_ns=120_000.0, target=0),
    ])
    server, report = serve_batch(harness.make_tasks("mb", 64, 128, 0), 2,
                                 PagodaConfig(fault_plan=plan))
    (event,) = server.degradation_events
    assert event.resubmitted > 0
    assert _pin(report) == FAILOVER_PIN
