"""Server wiring: loop modes, backpressure, SLO mapping, multi-GPU."""

import dataclasses

import pytest

from repro.core import PagodaConfig
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import (Backpressure, BurstyArrivals,
                         DeterministicArrivals, PoissonArrivals,
                         ServeConfig, SloClass, TenantSpec, apply_slo,
                         serve, slo_priority)
from repro.tasks import TaskSpec


def kernel(task, block_id, warp_id):
    yield Phase(inst=1000, mem_bytes=64)


def make_tasks(n, prefix="t"):
    return [TaskSpec(f"{prefix}{i}", 64, 1, kernel) for i in range(n)]


def test_open_loop_arrivals_follow_the_schedule():
    """Open loop means the feed does not slow down for the server:
    recorded arrivals are exactly the generator's schedule."""
    arrivals = PoissonArrivals(300_000.0, seed=2)
    rep = serve([TenantSpec("a", make_tasks(50), arrivals)])
    assert [r.arrival_ns for r in rep.requests] == arrivals.schedule(50)


def test_backpressure_blocks_closed_loop_source():
    """A source the policy holds back offers nothing until the queue
    drains: nothing is dropped and the queue stays bounded."""
    rep = serve(
        [TenantSpec("a", make_tasks(30), DeterministicArrivals(10.0))],
        ServeConfig(policy=Backpressure(max_depth=2)))
    assert rep.completed == 30
    assert rep.dropped == 0
    assert rep.max_queue_depth <= 2


def test_two_tenants_complete_independently():
    rep = serve([
        TenantSpec("fast", make_tasks(25, "f"),
                   DeterministicArrivals(2_000.0)),
        TenantSpec("slow", make_tasks(25, "s"),
                   BurstyArrivals(burst_size=5, gap_in_burst_ns=100.0,
                                  idle_gap_ns=20_000.0, seed=4)),
    ])
    assert rep.completed == 50
    assert rep.tenant_stats["fast"]["completed"] == 25
    assert rep.tenant_stats["slow"]["completed"] == 25


def test_multi_gpu_spreads_load():
    rep = serve([TenantSpec("a", make_tasks(60),
                            DeterministicArrivals(100.0))],
                ServeConfig(num_gpus=2))
    assert rep.completed == 60
    used = {r.gpu_index for r in rep.requests}
    assert used == {0, 1}


def test_gpu_death_on_one_gpu_is_rejected():
    """One GPU has no survivor to fail over to; node death is the
    cluster layer's."""
    plan = FaultPlan(specs=[FaultSpec(kind="gpu.die", at_ns=20_000.0)])
    with pytest.raises(ValueError, match="NodeSpec.fault_plan"):
        serve([TenantSpec("a", make_tasks(4), DeterministicArrivals(0.0))],
              ServeConfig(pagoda=PagodaConfig(fault_plan=plan)))


def test_multi_gpu_report_matches_single_seeds():
    config = ServeConfig(num_gpus=2)
    a = serve([TenantSpec("a", make_tasks(40),
                          PoissonArrivals(400_000.0, seed=6))], config)
    b = serve([TenantSpec("a", make_tasks(40),
                          PoissonArrivals(400_000.0, seed=6))],
              ServeConfig(num_gpus=2))
    assert a.to_json() == b.to_json()


# -- SLO mapping --------------------------------------------------------------


def test_slo_priority_boosts_when_deadline_near():
    slo = SloClass("svc", deadline_ns=1_000.0, priority=2)
    # young request: base priority
    assert slo_priority(slo, arrival_ns=0.0, now=100.0) == 2
    # waited past half the deadline: boosted
    assert slo_priority(slo, arrival_ns=0.0, now=600.0) == 3


@pytest.mark.parametrize("deadline_ns",
                         [0.0, -5.0, float("nan"), float("inf")])
def test_slo_rejects_a_deadline_its_readers_disagree_on(deadline_ns):
    """describe() and slo_priority read 0 as "no deadline" while
    goodput accounting reads it as one nothing meets; a negative one
    boosts every request at arrival."""
    with pytest.raises(ValueError, match="deadline_ns"):
        SloClass("svc", deadline_ns=deadline_ns)


def test_apply_slo_rewrites_priority_only_when_needed():
    spec = TaskSpec("t", 64, 1, kernel, priority=0)
    slo = SloClass("svc", deadline_ns=None, priority=0)
    assert apply_slo(spec, slo, 0.0, 0.0) is spec
    boosted = apply_slo(
        spec, SloClass("svc", deadline_ns=None, priority=3), 0.0, 0.0)
    assert boosted is not spec
    assert boosted.priority == 3
    assert dataclasses.replace(boosted, priority=0) == spec


def test_empty_tenant_list_rejected():
    with pytest.raises(ValueError):
        serve([])


def test_report_timeline_is_monotone_and_ends_drained():
    rep = serve([TenantSpec("a", make_tasks(30),
                            DeterministicArrivals(500.0))])
    times = [row[0] for row in rep.timeline]
    assert times == sorted(times)
    t, depth, inflight, dropped, finished = rep.timeline[-1]
    assert depth == 0 and inflight == 0
    assert finished == rep.completed + rep.failed
