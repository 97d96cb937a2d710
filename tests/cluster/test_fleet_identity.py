"""The cluster layer's headline contract: a fleet report is a pure
function of its inputs, including across a node death whose failover
traffic crosses shard boundaries.

Each run is pinned to the sha256 of its ``to_json()`` bytes and its
summed engine event count.  Both were recorded while shards could
still be hosted in worker processes, when ``workers=0`` and
``workers=3`` (``workers=2`` for the obs run) emitted these exact
bytes, so the pins prove the sequential coordinator did not move.
"""

import json

import pytest

from repro.cluster import (
    ConsistentHashRouter,
    NodeSpec,
    Topology,
    run_cluster,
)
from repro.cluster.fabric import ANSWER
from repro.cluster.node import NodeShard
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

from tests.differential.harness import run_pinned

REQUESTS = 24  # per tenant

#: run -> (sha256 of ``to_json()``, summed engine events)
PINNED = {
    "fleet": (
        "b560e80e1154024c8e1be474b71f8c9f2219bc70b96c6b4918bbcf3e575b631f",
        1761),
    "node_death": (
        "c6729d9cbb6e98243dbd721469cd3c749d1ab59fcb9e0bcba890cb8138186ea5",
        1770),
    "obs": (
        "369b84fc9dfb0690a5847bff3803f242590dba10e587ebe993464b5732301b08",
        1761),
}


def _kernel(task, block_id, warp_id):
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


def _run(die_node=None, die_at=None):
    topo = _topology(die_node, die_at)
    return run_cluster(
        _tenants(), topo,
        router=ConsistentHashRouter(topo, key="request"),
        label="identity",
    )


def _pinned(name, run):
    """Run once, assert the recorded pin, hand back the report."""
    report, pin = run_pinned(run)
    assert pin == PINNED[name]
    return report


def test_eight_node_fleet_bytes_match_across_worker_counts():
    digest = json.loads(_pinned("fleet", _run).to_json())
    assert digest["totals"]["completed"] == 2 * REQUESTS
    assert digest["totals"]["offered"] == 2 * REQUESTS
    assert set(digest["nodes"]) == {f"n{i}" for i in range(8)}
    assert sum(digest["routing"]["placed"].values()) == 2 * REQUESTS


def test_identity_holds_across_a_node_death_with_cross_shard_failover():
    report = _pinned("node_death",
                     lambda: _run(die_node="n0", die_at=120_000.0))

    # the death actually exercised failover: requests the dead node
    # never answered were re-routed and completed on survivors
    assert report.respawned > 0
    totals = report.totals()
    assert totals["completed"] == 2 * REQUESTS
    dead = report.node_reports["n0"]
    assert dead.completed < report.routed["n0"]
    assert totals["failed_over"] > 0
    # offered counts re-offers on failover targets, never fewer than
    # the unique request count
    assert totals["offered"] >= 2 * REQUESTS


def test_identity_with_obs_aggregation():
    topo = _topology()
    report = _pinned("obs", lambda: run_cluster(
        _tenants(), topo, router=ConsistentHashRouter(topo, key="request"),
        obs=True, label="identity-obs"))
    agg = report.to_dict()["obs"]
    assert agg["schema"] == "repro.obs/aggregate/2"
    assert agg["nodes"] == [f"n{i}" for i in range(8)]


def test_clean_lane_nodes_hold_no_answer_state(monkeypatch):
    """Without the reliable lane a node sends no ``ANSWER`` and keeps
    none: the only place a terminal outcome could go is the current
    step's outbox, and on the clean lane that never carries one."""
    step = NodeShard.step
    answers = []

    def checked(self, epoch_end, deliveries):
        outbox, status = step(self, epoch_end, deliveries)
        assert self._outbox is outbox
        answers.extend(entry for entry in outbox if entry[0] == ANSWER)
        return outbox, status

    monkeypatch.setattr(NodeShard, "step", checked)
    report = _run()
    assert report.totals()["completed"] == 2 * REQUESTS
    assert answers == []


@pytest.mark.parametrize("workers", (1, 2))
def test_run_cluster_accepts_only_zero_workers(workers):
    """Shards step in-process; the keyword survives for callers that
    pass ``workers=0``, and any other value is refused."""
    with pytest.raises(ValueError, match="workers"):
        run_cluster(_tenants(), _topology(), workers=workers)
