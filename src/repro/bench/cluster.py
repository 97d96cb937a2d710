"""``repro.bench`` "cluster" experiment — a fleet, clean and lossy.

The cell runs one seeded fleet scenario twice on the sequential
coordinator (:func:`repro.cluster.run_cluster`):

- over a clean fabric, reporting the fleet totals, routing counts,
  epochs and wall time;
- over a 1%-lossy fabric, reporting the goodput the reliability lane
  preserves (completions per simulated second), after asserting that
  the answer ledger balances.

The scenario is compute-heavy per shard (wide blocks, several phases
per warp), so its wall time is dominated by the node engines rather
than by the coordinator.
"""

from __future__ import annotations

import json
import time
from typing import Dict

from repro.cluster import ConsistentHashRouter, NodeSpec, Topology, run_cluster
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase, phase_table
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

#: fleet size of the benchmark scenario.
FLEET_NODES = 4
#: requests per tenant.
REQUESTS = 480
#: one-way link latency; doubles as the barrier epoch, so a longer
#: link means fewer coordinator epochs per virtual second.
LINK_NS = 200_000.0
#: wire-loss probability of the degraded-fleet scenario.
DEGRADED_DROP_RATE = 0.01


@phase_table()
def _bench_kernel(task, block_id, warp_id):
    # several phases per warp so shard compute dominates each epoch
    for _ in range(4):
        yield Phase(inst=20_000.0, mem_bytes=1_024)


def fleet_tenants() -> list:
    """Two seeded open-loop tenants with kernel variety (so consistent
    hashing spreads them over the fleet)."""
    def tasks(prefix: str, seed: int):
        return [
            TaskSpec(f"{prefix}{i % 8}", 128, 4, _bench_kernel)
            for i in range(REQUESTS)
        ]
    return [
        TenantSpec("latency", tasks("lat", 1),
                   PoissonArrivals(150_000.0, seed=11),
                   slo=SloClass(deadline_ns=4_000_000.0)),
        TenantSpec("batch", tasks("bat", 2),
                   PoissonArrivals(100_000.0, seed=23),
                   slo=SloClass()),
    ]


def fleet_topology(nodes: int = FLEET_NODES) -> Topology:
    return Topology(nodes=[NodeSpec(f"node{i}") for i in range(nodes)],
                    link_ns=LINK_NS)


def run_fleet(nodes: int = FLEET_NODES) -> str:
    """One fleet run; returns the canonical report JSON."""
    topology = fleet_topology(nodes)
    report = run_cluster(
        fleet_tenants(), topology,
        router=ConsistentHashRouter(topology, key="request"),
        label="bench-cluster",
    )
    return report.to_json()


def degraded_plan() -> FaultPlan:
    """The degraded-fabric scenario: every message on every link is
    lost with probability :data:`DEGRADED_DROP_RATE` (a rate-based
    ``fabric.link.drop`` — hash-derived per message id, so the loss
    pattern is seed-stable)."""
    return FaultPlan(specs=[
        FaultSpec(kind="fabric.link.drop",
                  meta={"rate": DEGRADED_DROP_RATE}),
    ], seed=1)


def measure_degraded() -> Dict[str, float]:
    """The fleet scenario over a 1%-lossy fabric.

    ``fleet_degraded_throughput`` is *virtual-time* throughput
    (completions per simulated second), so it is deterministic — it
    measures how much fleet goodput the reliability layer preserves
    under wire loss, not host speed.  Conservation is asserted before
    any number is returned: a degraded fleet that loses a request has
    no throughput worth reporting.
    """
    topology = fleet_topology()
    start = time.perf_counter()
    rep = run_cluster(
        fleet_tenants(), topology,
        router=ConsistentHashRouter(topology, key="request"),
        label="bench-cluster-degraded",
        fabric_plan=degraded_plan(),
    )
    wall = time.perf_counter() - start
    frontier = rep.frontier
    answered = (frontier["completed"] + frontier["failed"]
                + frontier["dropped"])
    if frontier["offered"] != answered:
        raise RuntimeError(
            f"degraded fleet lost requests: {frontier}")
    return {
        "fleet_degraded_throughput": round(rep.throughput_per_s, 3),
        "degraded_wall_s": round(wall, 4),
        "retransmits": rep.fabric_retransmits,
        "wire_dropped": rep.fabric_wire_dropped,
    }


def run() -> Dict:
    """The bench-CLI cell: the clean fleet, then the lossy one."""
    start = time.perf_counter()
    digest = json.loads(run_fleet())
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "degraded": measure_degraded(),
        "totals": digest["totals"],
        "routing": digest["routing"],
        "epochs": digest["sync"]["epochs"],
    }


def report(results: Dict) -> str:
    """Human-readable summary of one cluster cell."""
    totals = results["totals"]
    deg = results["degraded"]
    return (
        "Cluster fleet: "
        f"{FLEET_NODES} nodes, {totals['offered']} requests offered, "
        f"{totals['completed']} completed over {results['epochs']} "
        f"epochs in {results['wall_s']:.2f} s wall\n"
        f"Degraded fabric ({DEGRADED_DROP_RATE:.0%} wire loss): "
        f"{deg['fleet_degraded_throughput']:,.0f} completions/vs, "
        f"{deg['wire_dropped']} drops recovered by "
        f"{deg['retransmits']} retransmits"
    )
