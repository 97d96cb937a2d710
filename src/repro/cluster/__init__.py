"""``repro.cluster`` — fleet simulation in conservative lockstep.

The cluster layer scales the single-box serve stack out to a fleet:
``N`` GPU nodes, each a :class:`~repro.cluster.node.NodeShard` (the
single-box serve pipeline: a :class:`~repro.serve.TaskServer` on its
own engine and one-GPU Pagoda runtime, with no load generators),
coupled *only* through a simulated network fabric with explicit
per-link latency.  Shards advance in conservative lockstep epochs
(epoch length <= the fabric lookahead), exchanging messages at epoch
boundaries only — which makes the run exact, deterministic, and
byte-replayable from ``(tenants, topology, router, seeds)``.  The
coordinator steps every shard itself, one after another.

The fabric doesn't have to be reliable: arm a seeded ``fabric.*``
:class:`~repro.faults.FaultPlan` (drops, duplicates, delay spikes,
partitions, gray-failure pauses) and the coordinator switches to
at-least-once messaging with ack/retransmit, an answer ledger,
digest-visibility health suspicion (suspect → quarantine →
probation, :mod:`repro.cluster.health`), and hedged re-routing —
still byte-replayable from the plan's seed.

Entry point: :func:`run_cluster`.  Routing policies live in
:mod:`repro.cluster.router`; see ``docs/INTERNALS.md`` §12-§13 for
the synchronization protocol, the determinism argument, and the
fault/self-healing machinery, and ``docs/EXTENDING.md`` for the
custom-router and fabric-fault recipes.
"""

from repro.cluster.driver import run_cluster
from repro.cluster.fabric import (ACK, ANSWER, FORWARD, RESPAWN, Fabric,
                                  Message)
from repro.cluster.health import DegradationEvent, HealthTracker
from repro.cluster.node import NodeShard
from repro.cluster.report import FleetReport
from repro.cluster.report import SCHEMA as FLEET_SCHEMA
from repro.cluster.report import SCHEMA_RELIABLE as FLEET_SCHEMA_RELIABLE
from repro.cluster.router import (
    ConsistentHashRouter,
    FleetView,
    RouteRequest,
    RouterPolicy,
)
from repro.cluster.topology import ROUTER, NodeSpec, Topology
from repro.cluster.worker import InProcessHost

__all__ = [
    "run_cluster",
    "FleetReport",
    "FLEET_SCHEMA",
    "FLEET_SCHEMA_RELIABLE",
    "Topology",
    "NodeSpec",
    "ROUTER",
    "Fabric",
    "Message",
    "FORWARD",
    "RESPAWN",
    "ANSWER",
    "ACK",
    "NodeShard",
    "HealthTracker",
    "DegradationEvent",
    "RouterPolicy",
    "RouteRequest",
    "FleetView",
    "ConsistentHashRouter",
    "InProcessHost",
]
