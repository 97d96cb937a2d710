"""The cluster layer's headline contract: byte-identical fleet
reports for any worker count, including across a node death whose
failover traffic crosses shard (= process) boundaries."""

import json

from repro.cluster import (
    ConsistentHashRouter,
    NodeSpec,
    Topology,
    run_cluster,
)
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

REQUESTS = 24  # per tenant


def _kernel(task, block_id, warp_id):
    # module-level so specs pickle into worker processes
    yield Phase(inst=8_000.0, mem_bytes=512)


def _tenants():
    def tasks(prefix):
        return [TaskSpec(f"{prefix}{i % 4}", 64, 2, _kernel)
                for i in range(REQUESTS)]
    return [
        TenantSpec("lat", tasks("lat"), PoissonArrivals(150_000.0, seed=7),
                   slo=SloClass(deadline_ns=3_000_000.0)),
        TenantSpec("bat", tasks("bat"), PoissonArrivals(120_000.0, seed=9),
                   slo=SloClass()),
    ]


def _topology(die_node=None, die_at=None):
    nodes = []
    for i in range(8):
        plan = None
        if die_node == f"n{i}":
            plan = FaultPlan(specs=[FaultSpec(kind="gpu.die",
                                              at_ns=die_at)])
        nodes.append(NodeSpec(f"n{i}", fault_plan=plan))
    return Topology(nodes=nodes, link_ns=50_000.0)


def _run(workers, die_node=None, die_at=None):
    topo = _topology(die_node, die_at)
    return run_cluster(
        _tenants(), topo,
        router=ConsistentHashRouter(topo, key="request"),
        workers=workers, label="identity",
    )


def test_eight_node_fleet_bytes_match_across_worker_counts():
    seq = _run(workers=0).to_json()
    par = _run(workers=3).to_json()
    assert seq == par
    digest = json.loads(seq)
    assert digest["totals"]["completed"] == 2 * REQUESTS
    assert digest["totals"]["offered"] == 2 * REQUESTS
    assert set(digest["nodes"]) == {f"n{i}" for i in range(8)}
    assert sum(digest["routing"]["placed"].values()) == 2 * REQUESTS


def test_identity_holds_across_a_node_death_with_cross_shard_failover():
    seq = _run(workers=0, die_node="n0", die_at=120_000.0)
    par_json = _run(workers=3, die_node="n0",
                    die_at=120_000.0).to_json()
    assert seq.to_json() == par_json

    # the death actually exercised failover: requests the dead node
    # never answered were re-routed and completed on survivors
    assert seq.respawned > 0
    totals = seq.totals()
    assert totals["completed"] == 2 * REQUESTS
    dead = seq.node_reports["n0"]
    assert dead.completed < seq.routed["n0"]
    assert totals["failed_over"] > 0
    # offered counts re-offers on failover targets, never fewer than
    # the unique request count
    assert totals["offered"] >= 2 * REQUESTS


def test_identity_with_obs_aggregation():
    topo = _topology()
    kwargs = dict(router=ConsistentHashRouter(topo, key="request"),
                  obs=True, label="identity-obs")
    seq = run_cluster(_tenants(), topo, workers=0, **kwargs)
    par = run_cluster(_tenants(), _topology(), workers=2, **kwargs)
    assert seq.to_json() == par.to_json()
    agg = seq.to_dict()["obs"]
    assert agg["schema"] == "repro.obs/aggregate/2"
    assert agg["nodes"] == [f"n{i}" for i in range(8)]
