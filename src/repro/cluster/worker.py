"""The shard host: every node's shard, stepped in the coordinator.

The coordinator (:mod:`repro.cluster.driver`) never talks to a
:class:`~repro.cluster.node.NodeShard` directly; it talks to an
:class:`InProcessHost`, which builds every shard in the coordinator's
own interpreter and steps them sequentially, in topology order, once
per epoch.  The host is a pure transport: every routing and ordering
decision is made coordinator-side, and each shard's evolution is a
pure function of its deliveries.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.fabric import Message
from repro.cluster.node import NodeShard, Outbound
from repro.cluster.topology import Topology

#: per-node step result: ``(outbox, status)``.
StepResult = Tuple[List[Outbound], Dict[str, int]]


class InProcessHost:
    """Sequential shard stepping inside the coordinator process."""

    def __init__(self, topology: Topology, tenant_slos: Sequence[tuple],
                 obs: bool, reliable: bool = False) -> None:
        self.shards = {
            spec.name: NodeShard(spec, tenant_slos, obs, reliable=reliable)
            for spec in topology.nodes
        }
        self._order = topology.node_names

    def step(self, epoch_end: float,
             inboxes: Dict[str, List[Message]]) -> Dict[str, StepResult]:
        return {
            name: self.shards[name].step(epoch_end, inboxes.get(name, []))
            for name in self._order
        }

    def finish(self) -> Dict[str, tuple]:
        return {name: self.shards[name].finish() for name in self._order}
