"""One fleet node: a one-GPU serve pipeline behind the epoch protocol.

A :class:`NodeShard` is a :class:`~repro.serve.server.TaskServer`
whose requests arrive over the simulated fabric instead of from local
load generators, advanced epoch by epoch by the coordinator.  It owns
everything a simulated box owns — its own :class:`~repro.sim.Engine`
and one-GPU Pagoda session — and speaks exactly the coordinator's
protocol: *deliver, step, report*.  Shards are constructed **from
plain data** (a :class:`~repro.cluster.topology.NodeSpec` and the
tenant contracts; each builds its own default
:class:`~repro.serve.ServeConfig`), never shared, so a shard's
evolution depends only on its own deliveries — the root of the fleet
report's byte-replayability.

- **Ingress is delivery.**  Each delivered request is scheduled at its
  arrival instant.  The arrival runs no process: a ready-ring callback
  offers the request to the admission gate, and a request the gate
  holds back retries inline on the dispatcher's next space pulse.  The
  gate, queue, dispatcher, collectors and latency accountant
  downstream are exactly the single-box serve pipeline.
- **Execution is stepped.**  :meth:`NodeShard.step` runs the engine to
  the epoch boundary (conservative lockstep — see
  ``docs/INTERNALS.md`` §12) and returns the step's outbox and status
  digest; :meth:`NodeShard.finish` drains to quiescence and builds the
  canonical :class:`~repro.serve.report.ServeReport`.

Node-scoped faults: the spec's :class:`~repro.faults.FaultPlan` rides
into the node's own runtime minus its ``gpu.die`` specs, which the
shard owns as *node death* (one box, one failure domain): at the
spec's ``at_ns`` the shard freezes its engine, reports every
unanswered request back over the fabric for cross-shard failover, and
answers all later deliveries with a bounce.  The serve pipeline never
sees them: in a cluster the box dies whole.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.fabric import ANSWER, RESPAWN, Message
from repro.cluster.topology import NodeSpec
from repro.faults import FaultPlan
from repro.serve.arrivals import ArrivalProcess
from repro.serve.report import build_report
from repro.serve.server import ServeConfig, TaskServer, TenantSpec

#: outbox entry: ``(kind, send_ns, payload)`` — the coordinator owns
#: the fabric, so shards describe sends instead of posting them.
Outbound = Tuple[str, float, object]

#: request states that count as "unanswered" when a node dies (the
#: caller never got a completion, a failure, or a drop for them).
_UNANSWERED = ("pending", "queued", "inflight")


class _FabricArrivals(ArrivalProcess):
    """A node tenant's arrival process.  Its schedule belongs to the
    cluster router, so it cannot be sampled; it only gives the node
    report a stable ``arrivals`` description."""

    def describe(self) -> str:
        return "remote(via=fabric)"


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


class NodeShard(TaskServer):
    """One fleet node, fed by fabric deliveries and stepped by epoch."""

    remote = True

    def __init__(self, spec: NodeSpec, tenant_slos: Sequence[tuple],
                 obs: bool = False, reliable: bool = False) -> None:
        config = ServeConfig(label=spec.name)
        config.pagoda.fault_plan = _without_deaths(spec.fault_plan)
        if obs:
            from repro.obs import Obs
            config.pagoda.obs = Obs()
        super().__init__(
            [TenantSpec(name=name, tasks=[], arrivals=_FabricArrivals(),
                        slo=slo)
             for name, slo in copy.deepcopy(list(tenant_slos))],
            config)
        self._tenant_by_name = {t.name: t for t in self.tenants}
        #: deliveries scheduled but not yet resolved by the admission
        #: gate (the node is busy while any are outstanding).
        self._pending_arrivals = 0
        #: rid -> (TenantSpec, spec, at_ns) for deliveries whose arrival
        #: instant has not been reached yet (needed for failover).
        self._undelivered: Dict[int, tuple] = {}
        #: the arrival callback, bound once (see :meth:`step`).
        self._arrive_cb = self._arrive
        #: request index -> rid (cluster-global request id).
        self._rid_of_index: Dict[int, int] = {}
        #: rids ever delivered here — at-least-once delivery upstream
        #: (fabric retransmits, hedged re-placements) must stay
        #: exactly-once at the node.
        self._seen_rids: set = set()
        #: duplicate deliveries refused (fleet metric).
        self.dup_suppressed = 0
        #: requests handed back for cross-shard failover at death.
        self.failed_over = 0
        #: requests bounced off this node after death (fleet metric).
        self.bounced = 0
        self.die_ns = _die_schedule(spec.fault_plan)
        self.dead = False
        #: :meth:`finish` has begun: no more deliveries.
        self._closed = False
        self._report = None
        #: reliable fabric lane on?  Then every terminal outcome goes
        #: back to the coordinator's answer ledger as an ``ANSWER``.
        self.reliable = reliable
        #: the latest step's outbox (the coordinator finishes a node
        #: only once it is idle, so finishing appends nothing).
        self._outbox: List[Outbound] = []
        self.start()

    def run(self):  # pragma: no cover - misuse guard
        raise TypeError(
            "NodeShard is stepped (step/finish); use TaskServer for "
            "run-to-quiescence serving"
        )

    # -- the epoch protocol ---------------------------------------------------

    def step(self, epoch_end: float,
             deliveries: List[Message]) -> Tuple[List[Outbound], Dict]:
        """Ingest this epoch's deliveries, advance virtual time to
        ``epoch_end``, and return ``(outbox, status)``.

        A delivery's arrival order at equal instants is its delivery
        order (engine sequence numbers).  A rid already delivered here
        is refused before it touches any state: an unreliable fabric
        can present the same request twice, and the node is the
        exactly-once boundary."""
        self._outbox = outbox = []
        if self.dead:
            # the box is gone: every delivery bounces straight back to
            # the router for re-placement (send time = arrival time —
            # a refused connection, not a served request)
            for msg in deliveries:
                self.bounced += 1
                outbox.append((RESPAWN, msg.arrive_ns, msg.payload))
            return outbox, self.status()
        if self._closed:
            raise RuntimeError("cannot deliver to a finished node")
        for msg in deliveries:
            rid, name, spec = msg.payload
            tenant = self._tenant_by_name[name]
            if rid in self._seen_rids:
                self.dup_suppressed += 1
                continue
            self._seen_rids.add(rid)
            self._pending_arrivals += 1
            self._undelivered[rid] = (tenant, spec, msg.arrive_ns)
            self.engine.call_at_with(msg.arrive_ns, self._arrive_cb, rid)
        if self.die_ns is not None and self.die_ns < epoch_end:
            self._die(self.die_ns)
        else:
            self.engine.run_until(epoch_end)
        return outbox, self.status()

    def status(self) -> Dict[str, int]:
        """Plain-int load/health digest shipped to the router every
        epoch (the routing policies' entire view of this node)."""
        return {
            "alive": 0 if self.dead else 1,
            "queued": len(self.queue),
            "inflight": self._inflight_count,
            "pending": self._pending_arrivals,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "failed_over": self.failed_over,
            "dup_suppressed": self.dup_suppressed,
            "bounced": self.bounced,
        }

    # -- ingress --------------------------------------------------------------

    def _generators_done(self) -> bool:
        # "the load is over" means finish() began and every delivered
        # arrival has cleared admission
        return self._closed and self._pending_arrivals == 0

    def _arrive(self, rid: int) -> None:
        tenant, spec, at_ns = self._undelivered.pop(rid)
        req = self._new_request(tenant, spec, at_ns)
        self._rid_of_index[req.index] = rid
        self.engine.call_soon_with(self._ingress, req)

    def _ingress(self, req) -> None:
        """Offer one arrived request; a request the gate holds back
        enrols a retry on the next space pulse, which runs it inline."""
        if self._offer(req):
            self._pending_arrivals -= 1
        else:
            self._space.wait()._add_waiter(lambda _: self._ingress(req))

    def _note_terminal(self, req) -> None:
        # on the reliable lane, feed the coordinator's answer ledger:
        # "done" reads as "completed" fleet-side (its vocabulary)
        if self.reliable:
            outcome = "completed" if req.status == "done" else req.status
            self._outbox.append((ANSWER, self.engine.now,
                                 (self._rid_of_index[req.index], outcome)))

    # -- death and teardown ---------------------------------------------------

    def _die(self, at_ns: float) -> None:
        """The node dies at ``at_ns``: run exactly to it, then hand
        every unanswered request back as a ``RESPAWN`` (rid order) for
        cross-shard failover and keep the partial report, in which
        failed-over requests stay admitted-but-unanswered."""
        self.engine.run_until(at_ns)
        self.dead = True
        respawns = [(rid, tenant.name, spec) for rid, (tenant, spec, _at)
                    in self._undelivered.items()]
        self._undelivered.clear()
        # requests stuck in admission, the queue, or on the dead GPU
        for req in self.requests:
            if req.status in _UNANSWERED:
                req.status = "failed_over"
                respawns.append(
                    (self._rid_of_index[req.index], req.tenant, req.spec))
        respawns.sort(key=lambda r: r[0])
        self.failed_over = len(respawns)
        self._pending_arrivals = 0
        self._inflight_count = 0
        self.queue.clear()
        self.makespan = at_ns
        self.shutdown()
        self._report = build_report(self)
        for payload in respawns:
            self._outbox.append((RESPAWN, at_ns, payload))

    def finish(self) -> Tuple[object, Optional[dict]]:
        """Drain to quiescence (a live node) and return
        ``(ServeReport, obs snapshot | None)``."""
        if self._report is None:
            if self._pending_arrivals:
                raise RuntimeError(
                    f"finishing with {self._pending_arrivals} arrivals "
                    "pending")
            self._closed = True
            self._work.pulse()
            self.engine.run(raise_on_deadlock=True)
            self._report = super().finish()
        snapshot = None
        if self.obs is not None:
            snapshot = self.obs.snapshot(self.engine)
        return self._report, snapshot
