"""One fleet shard: a self-contained GPU node behind a frontend.

A :class:`NodeShard` owns everything a simulated box owns — its own
:class:`~repro.sim.Engine`, one-GPU Pagoda runtime stack, and a
:class:`~repro.serve.remote.NodeFrontend` — and exposes exactly the
epoch protocol the coordinator speaks: *deliver, step, report*.
Shards are constructed **from plain data** (a
:class:`~repro.cluster.topology.NodeSpec` and the tenant contracts;
each builds its own default :class:`~repro.serve.ServeConfig`), never
shared, so a shard's evolution depends only on its own deliveries —
the root of the fleet report's byte-replayability.

Node-scoped faults: the spec's :class:`~repro.faults.FaultPlan` rides
into the node's own runtime minus its ``gpu.die`` specs, which the
shard owns as *node death* (one box, one failure domain): at the
spec's ``at_ns`` the shard freezes its engine, reports every
unanswered request back over the fabric for cross-shard failover, and
answers all later deliveries with a bounce.  The serve node never sees
them: in a cluster the box dies whole.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.fabric import ANSWER, RESPAWN, Message
from repro.cluster.topology import NodeSpec
from repro.faults import FaultPlan
from repro.serve.remote import NodeFrontend, remote_tenants
from repro.serve.server import ServeConfig

#: outbox entry: ``(kind, send_ns, payload)`` — the coordinator owns
#: the fabric, so shards describe sends instead of posting them.
Outbound = Tuple[str, float, object]


def _die_schedule(fault_plan) -> Optional[float]:
    """Earliest ``gpu.die`` arming time in the plan (node death)."""
    if fault_plan is None:
        return None
    times = [spec.at_ns for spec in fault_plan
             if spec.kind == "gpu.die"]
    return min(times) if times else None


def _without_deaths(fault_plan) -> Optional[FaultPlan]:
    """The node plan the serve config gets: ``gpu.die`` removed, the
    seed and the other specs kept in order."""
    if fault_plan is None:
        return None
    return FaultPlan(specs=[s for s in fault_plan if s.kind != "gpu.die"],
                     seed=fault_plan.seed)


class NodeShard:
    """The epoch-stepped wrapper around one node's serve frontend."""

    def __init__(self, spec: NodeSpec, tenant_slos: Sequence[tuple],
                 obs: bool = False, reliable: bool = False) -> None:
        self.name = spec.name
        config = ServeConfig(label=spec.name)
        config.pagoda.fault_plan = _without_deaths(spec.fault_plan)
        self.obs = None
        if obs:
            from repro.obs import Obs
            self.obs = Obs()
            config.pagoda.obs = self.obs
        self.config = config
        self.frontend = NodeFrontend(
            remote_tenants(copy.deepcopy(list(tenant_slos))), config)
        self.frontend.start()
        self.die_ns = _die_schedule(spec.fault_plan)
        self.dead = False
        self._report = None
        #: requests bounced off this node after death (fleet metric).
        self.bounced = 0
        #: reliable fabric lane on?  Then every terminal outcome goes
        #: back to the coordinator's answer ledger as an ``ANSWER``.
        self.reliable = reliable

    # -- the epoch protocol ---------------------------------------------------

    def step(self, epoch_end: float,
             deliveries: List[Message]) -> Tuple[List[Outbound], Dict]:
        """Ingest this epoch's deliveries, advance virtual time to
        ``epoch_end``, and return ``(outbox, status)``."""
        outbox: List[Outbound] = []
        if self.dead:
            # the box is gone: every delivery bounces straight back to
            # the router for re-placement (send time = arrival time —
            # a refused connection, not a served request)
            for msg in deliveries:
                self.bounced += 1
                outbox.append((RESPAWN, msg.arrive_ns, msg.payload))
            return outbox, self.status()
        for msg in deliveries:
            rid, tenant, spec = msg.payload
            self.frontend.inject(rid, tenant, spec, msg.arrive_ns)
        if self.die_ns is not None and self.die_ns < epoch_end:
            report, respawns = self.frontend.abort(self.die_ns)
            self.dead = True
            self._report = report
            self._drain_answers(outbox)
            for rid, tenant, spec in respawns:
                outbox.append((RESPAWN, self.die_ns, (rid, tenant, spec)))
            return outbox, self.status()
        self.frontend.step_until(epoch_end)
        self._drain_answers(outbox)
        return outbox, self.status()

    def _drain_answers(self, outbox: List[Outbound]) -> None:
        """Clear the frontend's log of terminal outcomes since the last
        drain; on the reliable lane each becomes one ``ANSWER`` for the
        coordinator's ledger."""
        answered = self.frontend.drain_answered()
        if self.reliable:
            for when_ns, rid, outcome in answered:
                outbox.append((ANSWER, when_ns, (rid, outcome)))

    def status(self) -> Dict[str, int]:
        s = self.frontend.status()
        s["bounced"] = self.bounced
        return s

    def busy(self) -> bool:
        return not self.dead and self.frontend.busy()

    # -- teardown -------------------------------------------------------------

    def finish(self) -> Tuple[object, Optional[dict]]:
        """Drain to quiescence (live nodes) and return
        ``(ServeReport, obs snapshot | None)``."""
        if self._report is None:
            self._report = self.frontend.close_and_drain()
        snapshot = None
        if self.obs is not None:
            snapshot = self.obs.snapshot(self.frontend.engine)
        return self._report, snapshot
