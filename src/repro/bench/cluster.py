"""``repro.bench`` "cluster" experiment — fleet sharding, verified.

Two claims ride on the cluster layer, and this cell measures both:

- **Determinism**: the same fleet scenario run in one process and
  across worker processes must produce byte-identical
  :meth:`~repro.cluster.FleetReport.to_json` output.  The experiment
  *asserts* this before reporting any number — a speedup of a
  different simulation is not a speedup.
- **Scale-out**: with one engine per node in its own process, wall
  time should approach ``seq / workers`` on a machine with that many
  cores.  ``scripts/bench.py`` tracks the ratio as ``cluster_speedup``
  and guards a >=2x floor at 4 workers (on hosts with >= 4 cores; a
  1-core container cannot demonstrate parallel speedup and records
  the ratio unguarded).

The scenario is deliberately compute-heavy per shard (wide blocks,
long kernels) so the measurement exercises the sharding, not the
coordinator's pipe chatter.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro.bench.reporting import format_table
from repro.cluster import ConsistentHashRouter, NodeSpec, Topology, run_cluster
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase, phase_table
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

#: fleet size of the benchmark scenario (and the speedup worker count).
FLEET_NODES = 4
#: requests per tenant.
REQUESTS = 480
#: one-way link latency; doubles as the barrier epoch, so a longer
#: link means fewer coordinator round-trips per virtual second —
#: the measurement wants per-epoch shard compute, not pipe chatter.
LINK_NS = 200_000.0
#: wire-loss probability of the degraded-fleet scenario.
DEGRADED_DROP_RATE = 0.01


@phase_table()
def _bench_kernel(task, block_id, warp_id):
    # module-level so task specs pickle under the spawn start method;
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


def run_fleet(workers: int, nodes: int = FLEET_NODES) -> str:
    """One fleet run; returns the canonical report JSON."""
    topology = fleet_topology(nodes)
    report = run_cluster(
        fleet_tenants(), topology,
        router=ConsistentHashRouter(topology, key="request"),
        workers=workers, label="bench-cluster",
    )
    return report.to_json()


def degraded_plan() -> FaultPlan:
    """The degraded-fabric scenario: every message on every link is
    lost with probability :data:`DEGRADED_DROP_RATE` (a rate-based
    ``fabric.link.drop`` — hash-derived per message id, so the loss
    pattern is seed-stable and worker-count-free)."""
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
        workers=0, label="bench-cluster-degraded",
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


def measure_speedup(workers: int = FLEET_NODES) -> Dict[str, float]:
    """Time the scenario sequentially and sharded; verify identity.

    Returns ``{seq_wall_s, par_wall_s, cluster_speedup, workers}``.
    Raises if the two runs' report bytes differ — the determinism
    contract outranks the perf number.
    """
    start = time.perf_counter()
    seq_json = run_fleet(workers=0)
    seq_wall = time.perf_counter() - start
    start = time.perf_counter()
    par_json = run_fleet(workers=workers)
    par_wall = time.perf_counter() - start
    if seq_json != par_json:
        raise RuntimeError(
            "cluster byte-identity broken: 1-process and "
            f"{workers}-worker runs disagree"
        )
    return {
        "seq_wall_s": round(seq_wall, 4),
        "par_wall_s": round(par_wall, 4),
        "cluster_speedup": round(seq_wall / par_wall, 2),
        "workers": workers,
    }


def run(workers: Optional[int] = None) -> Dict:
    """The bench-CLI cell: identity check + speedup measurement."""
    if workers is None:
        workers = min(FLEET_NODES, max(1, os.cpu_count() or 1))
    measured = measure_speedup(workers)
    import json
    digest = json.loads(run_fleet(workers=0))
    return {
        "measured": measured,
        "degraded": measure_degraded(),
        "totals": digest["totals"],
        "routing": digest["routing"],
        "epochs": digest["sync"]["epochs"],
        "cores": os.cpu_count() or 1,
    }


def report(results: Dict) -> str:
    """Human-readable summary of one cluster cell."""
    m = results["measured"]
    totals = results["totals"]
    rows = [
        ["sequential (workers=0)", f"{m['seq_wall_s']:.2f}", ""],
        [f"sharded (workers={m['workers']})", f"{m['par_wall_s']:.2f}",
         f"{m['cluster_speedup']:.2f}x"],
    ]
    table = format_table(["configuration", "wall s", "speedup"], rows)
    deg = results.get("degraded")
    degraded_line = ""
    if deg:
        degraded_line = (
            f"\nDegraded fabric ({DEGRADED_DROP_RATE:.0%} wire loss): "
            f"{deg['fleet_degraded_throughput']:,.0f} completions/vs, "
            f"{deg['wire_dropped']} drops recovered by "
            f"{deg['retransmits']} retransmits"
        )
    return (
        "Cluster fleet: "
        f"{FLEET_NODES} nodes, {totals['offered']} requests offered, "
        f"{totals['completed']} completed over {results['epochs']} "
        f"epochs (byte-identity verified, {results['cores']} cores)\n"
        f"{table}{degraded_line}"
    )
