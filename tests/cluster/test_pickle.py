"""Pickle round-trips for everything that crosses (or could cross) a
process boundary: fault plans, serve configs, reports, obs snapshots,
and the cluster's own wire types."""

import pickle

import pytest

from repro.cluster import Fabric, Message, NodeSpec, Topology
from repro.cluster.fabric import FORWARD
from repro.cluster.topology import ROUTER
from repro.core import PagodaConfig, run_pagoda
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.obs import Obs, validate_snapshot
from repro.serve import (
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    serve,
)
from repro.tasks import TaskSpec


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _kernel(task, block_id, warp_id):
    yield Phase(inst=5_000.0, mem_bytes=256)


def test_fault_plan_roundtrips():
    plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.die", at_ns=120_000.0),
        FaultSpec(kind="pcie.delay", at_ns=5_000.0, count=3,
                  magnitude_ns=400.0, target="H2D"),
    ], seed=42)
    clone = _roundtrip(plan)
    assert clone == plan
    assert [s.kind for s in clone] == ["gpu.die", "pcie.delay"]


def test_serve_config_roundtrips():
    config = ServeConfig(num_gpus=2, precision_bits=9, label="shard")
    clone = _roundtrip(config)
    assert clone.num_gpus == 2
    assert clone.precision_bits == 9
    assert clone.label == "shard"
    assert clone.pagoda == config.pagoda
    assert type(clone.policy) is type(config.policy)
    assert type(clone.batch) is type(config.batch)


def test_serve_report_roundtrips_byte_identically():
    tasks = [TaskSpec(f"k{i % 3}", 64, 1, _kernel) for i in range(12)]
    report = serve([TenantSpec("t", tasks,
                               PoissonArrivals(150_000.0, seed=3))])
    clone = _roundtrip(report)
    assert clone.to_json() == report.to_json()


def test_obs_snapshot_dict_roundtrips():
    tasks = [TaskSpec(f"k{i}", 64, 1, _kernel) for i in range(8)]
    obs = Obs()
    stats = run_pagoda(tasks, config=PagodaConfig(
        copy_inputs=False, copy_outputs=False, obs=obs))
    snap = stats.meta["stats_snapshot"]
    validate_snapshot(snap)
    clone = _roundtrip(snap)
    assert clone == snap
    validate_snapshot(clone)


def test_cluster_wire_types_roundtrip():
    plan = FaultPlan(specs=[FaultSpec(kind="gpu.die", at_ns=9_000.0)])
    topo = Topology(
        nodes=[NodeSpec("n0", fault_plan=plan), NodeSpec("n1", num_gpus=2)],
        link_ns=30_000.0, links={("n0", "n1"): 40_000.0})
    clone = _roundtrip(topo)
    assert clone.node_names == ["n0", "n1"]
    assert clone.lookahead_ns == topo.lookahead_ns
    assert clone.node("n0").fault_plan == plan

    msg = Fabric(topo).post(FORWARD, ROUTER, "n0", 12.5,
                            payload=(0, "t", TaskSpec("k", 64, 1, _kernel)))
    wire = _roundtrip(msg)
    assert wire == msg  # payload excluded from equality by design
    rid, tenant, spec = wire.payload
    assert (rid, tenant, spec.name) == (0, "t", "k")


def test_task_spec_with_local_kernel_does_not_pickle():
    # the reason every cluster/bench kernel is module-level
    def local_kernel(task, block_id, warp_id):
        yield Phase(inst=1.0)

    with pytest.raises(Exception):
        pickle.dumps(TaskSpec("k", 64, 1, local_kernel))
