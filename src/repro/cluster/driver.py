"""The fleet coordinator: conservative barrier-epoch lockstep.

:func:`run_cluster` is the cluster layer's single entry point.  It
pre-computes every tenant's arrival schedule (open-loop cluster load —
the schedule is fixed before the run, like the serve layer's load
generators), then advances the whole fleet one *epoch* at a time:

1. **deliver** — pull this epoch's fabric arrivals; re-route any
   failover ``RESPAWN`` back onto a live node, hand the ``FORWARD``
   traffic to its destination shard's inbox;
2. **route** — place every fresh arrival whose instant falls inside
   this epoch on a node (the :class:`~repro.cluster.router`
   policies see the *previous* boundary's status digests — one
   epoch of staleness, exactly a real balancer's view), and post it
   to the fabric at its arrival instant;
3. **step** — every shard ingests its inbox and advances its own
   engine to the epoch boundary, one shard after another in topology
   order;
4. **exchange** — shard outboxes (failover respawns, bounces,
   answers) go onto the fabric; status digests become the next
   epoch's router view.

Because the epoch length never exceeds the fabric lookahead (minimum
link latency), a message sent during epoch ``e`` cannot arrive before
epoch ``e+1`` — boundary-only exchange is *exact*, not an
approximation, and the run is a deterministic function of its inputs
(``docs/INTERNALS.md`` §12 gives the full argument).

**Unreliable fabric.**  Passing a non-zero ``fabric.*``
:class:`~repro.faults.FaultPlan` switches the fabric onto its
reliable lane and arms the coordinator's self-healing layer:

- every data message is acked on delivery and retransmitted with
  capped exponential backoff until acked (:meth:`Fabric.sweep`);
  receiver-side dedup keeps at-least-once exactly-once;
- nodes report each request's terminal outcome as an ``ANSWER``; the
  coordinator's **ledger** (first answer wins) is the fleet frontier
  — quiescence additionally requires every arrival answered;
- digest visibility drives a suspect → quarantine → probation health
  machine (:mod:`repro.cluster.health`); suspect/quarantined nodes
  are overlaid dead in the router's view, quarantined nodes' pending
  retransmits are abandoned (their requests get hedged instead);
- requests whose every placement has gone bad are **hedged** onto a
  good node; ``FORWARD``s that exhaust their retransmit budget are
  dead-lettered and re-routed; placements with no routable node at
  all are deferred and retried each epoch.

All of it runs coordinator-side from boundary-instant data, so a
fault-plan run is *still* byte-replayable from its seeds, and a
zero/absent plan leaves every legacy code path — and the report
bytes — untouched (asserted by ``tests/cluster/test_chaos.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.fabric import ACK, ANSWER, FORWARD, POLICY_DESC, Fabric
from repro.cluster.health import (HEALTH_DESC, QUARANTINED,
                                  DegradationEvent, HealthTracker)
from repro.cluster.report import FleetReport
from repro.cluster.router import (ConsistentHashRouter, FleetView,
                                  RouteRequest, RouterPolicy)
from repro.cluster.topology import ROUTER, Topology
from repro.cluster.worker import InProcessHost
from repro.faults.injector import FabricInjector
from repro.faults.plan import FaultPlan
from repro.serve.server import TenantSpec

#: blank per-node digest for epoch 0 (before any status exchange).
_FRESH_STATUS = {
    "alive": 1, "queued": 0, "inflight": 0, "pending": 0,
    "offered": 0, "admitted": 0, "completed": 0, "failed": 0,
    "dropped": 0, "failed_over": 0, "dup_suppressed": 0, "bounced": 0,
}

#: health transition -> DegradationEvent kind.
_TRANSITION_KIND = {
    ("healthy", "suspect"): "suspect",
    ("suspect", "quarantined"): "quarantine",
    ("suspect", "healthy"): "readmit",
    ("quarantined", "probation"): "probation",
    ("probation", "healthy"): "readmit",
    ("probation", "quarantined"): "relapse",
}


def _global_arrivals(tenants: List[TenantSpec]) -> List[tuple]:
    """The fleet's offered load: ``(t_ns, tenant, index, spec)`` rows
    sorted by ``(t_ns, tenant, index)``.  The sorted position *is* the
    cluster-global request id — stable across runs by construction."""
    rows = []
    for tenant in tenants:
        times = tenant.arrivals.schedule(len(tenant.tasks))
        for index, (spec, at) in enumerate(zip(tenant.tasks, times)):
            rows.append((at, tenant.name, index, spec))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def run_cluster(
    tenants: List[TenantSpec],
    topology: Topology,
    router: Optional[RouterPolicy] = None,
    workers: int = 0,
    obs: bool = False,
    label: str = "cluster",
    fabric_plan: Optional[FaultPlan] = None,
) -> FleetReport:
    """Run one fleet experiment; returns the :class:`FleetReport`.

    Every shard steps sequentially in this process.  ``workers`` is
    kept for callers that still pass it; only ``0`` is accepted.

    ``fabric_plan`` arms fabric-layer faults (``fabric.*`` kinds
    only) and, with them, the reliable messaging + self-healing
    routing lane; ``None`` or a zero plan runs the legacy fabric
    bit-identically to a plan-less build.
    """
    if workers != 0:
        raise ValueError(
            f"workers={workers}: shards step in-process only (workers=0)")
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {names}")
    for t in tenants:
        if not t.tasks:
            raise ValueError(f"tenant {t.name!r} has no tasks")
    router = router if router is not None else ConsistentHashRouter(topology)

    arrivals = _global_arrivals(tenants)
    deadline_of = {t.name: t.slo.deadline_ns for t in tenants}
    #: rid -> (tenant, per-tenant index) for re-routing respawns.
    identity: Dict[int, Tuple[str, int]] = {
        rid: (row[1], row[2]) for rid, row in enumerate(arrivals)
    }
    spec_of = {rid: row[3] for rid, row in enumerate(arrivals)}

    injector = None
    if fabric_plan is not None and not fabric_plan.is_zero:
        injector = FabricInjector(fabric_plan)
    reliable = injector is not None
    fabric = Fabric(topology, injector=injector)
    epoch_len = topology.epoch_length_ns
    tenant_slos = [(t.name, t.slo) for t in tenants]
    host = InProcessHost(topology, tenant_slos, obs, reliable=reliable)

    tracker = HealthTracker(topology.node_names) if reliable else None
    #: rid -> terminal outcome, first answer wins (the fleet frontier).
    ledger: Dict[int, str] = {}
    #: rid -> nodes it was placed on, in placement order.
    placements: Dict[int, List[str]] = {}
    #: placements waiting for any routable node: (RouteRequest, payload).
    deferred: List[tuple] = []
    deferred_rids: set = set()
    events: List[DegradationEvent] = []
    hedge_dups = 0
    hedges = 0
    rerouted = 0
    deferred_total = 0
    cobs = None
    if obs and reliable:
        from repro.obs import Obs
        cobs = Obs()

    # runaway bound: a fleet that has not quiesced this long after
    # its last arrival never will
    max_epochs = int(arrivals[-1][0] // epoch_len) + 10_000

    view = FleetView({name: dict(_FRESH_STATUS)
                      for name in topology.node_names})
    rview = view  # routing view: `view` with the health overlay
    routed = {name: 0 for name in topology.node_names}
    respawned = 0
    cursor = 0  # next undispatched row of `arrivals`
    statuses: Dict[str, Dict[str, int]] = view.statuses
    epoch = 0

    def _route_view() -> FleetView:
        if not reliable:
            return view
        overlay = {}
        for name, s in view.statuses.items():
            if tracker.routable(name):
                overlay[name] = s
            else:
                bad = dict(s)
                bad["alive"] = 0
                overlay[name] = bad
        return FleetView(overlay)

    def _forward(req: RouteRequest, dst: str, send_ns: float,
                 payload) -> None:
        fabric.post(FORWARD, ROUTER, dst, send_ns, payload)
        if reliable:
            placements.setdefault(req.rid, []).append(dst)
        if not req.respawn:
            routed[dst] += 1

    def _place(req: RouteRequest, send_ns: float, payload) -> Optional[str]:
        nonlocal deferred_total
        try:
            dst = router.route(req, rview)
        except RuntimeError:
            if not reliable:
                raise
            # nothing routable right now: park it, retry every epoch
            deferred.append((req, payload))
            deferred_rids.add(req.rid)
            deferred_total += 1
            events.append(DegradationEvent(send_ns, "defer", ROUTER,
                                           rid=req.rid))
            return None
        _forward(req, dst, send_ns, payload)
        return dst

    def _replay(rid: int) -> Tuple[RouteRequest, tuple]:
        tenant, index = identity[rid]
        spec = spec_of[rid]
        req = RouteRequest(rid=rid, tenant=tenant, index=index,
                           kernel=spec.name, num_blocks=spec.num_blocks,
                           deadline_ns=deadline_of[tenant], respawn=True)
        return req, (rid, tenant, spec)

    while True:
        boundary = (epoch + 1) * epoch_len
        epoch_start = epoch * epoch_len
        inboxes: Dict[str, list] = {}
        if reliable and deferred:
            # retry parked placements before this epoch's traffic
            parked, deferred = deferred, []
            for req, payload in parked:
                try:
                    dst = router.route(req, rview)
                except RuntimeError:
                    deferred.append((req, payload))
                    continue
                deferred_rids.discard(req.rid)
                _forward(req, dst, epoch_start, payload)
        for msg in fabric.deliver(epoch):
            if reliable:
                if msg.kind == ACK:
                    fabric.ack(msg.payload)
                    continue
                fabric.send_ack(msg)
                if not fabric.first_delivery(msg):
                    continue  # retransmit / fault duplicate
                if msg.kind == ANSWER:
                    rid, outcome = msg.payload
                    if rid in ledger:
                        hedge_dups += 1  # a hedge raced it home
                    else:
                        ledger[rid] = outcome
                    continue
            if msg.dst == ROUTER:
                # a node handed a request back (death failover or
                # dead-node bounce): re-place it on a live node
                rid = msg.payload[0]
                if reliable and rid in ledger:
                    continue  # already answered elsewhere
                respawned += 1
                req, payload = _replay(rid)
                _place(req, msg.arrive_ns, payload)
            else:
                inboxes.setdefault(msg.dst, []).append(msg)
        while cursor < len(arrivals) and arrivals[cursor][0] < boundary:
            at, tenant, index, spec = arrivals[cursor]
            _place(
                RouteRequest(rid=cursor, tenant=tenant, index=index,
                             kernel=spec.name,
                             num_blocks=spec.num_blocks,
                             deadline_ns=deadline_of[tenant]),
                at, (cursor, tenant, spec))
            cursor += 1

        results = host.step(boundary, inboxes)
        for name in topology.node_names:
            outbox, status = results[name]
            statuses[name] = status
            for kind, send_ns, payload in outbox:
                fabric.post(kind, name, ROUTER, send_ns, payload)
        view = FleetView(statuses)
        epoch += 1

        if reliable:
            # health: fold this boundary's digest visibility in
            heard = {name: not injector.blackout(name, boundary)
                     for name in topology.node_names
                     if statuses[name]["alive"]}
            for node, old, new in tracker.observe(heard):
                kind = _TRANSITION_KIND[(old, new)]
                events.append(DegradationEvent(boundary, kind, node))
                if cobs is not None:
                    cobs.instant("health", kind, boundary, node=node)
            # a quarantined node's retransmits are going nowhere —
            # abandon them (every epoch: gray nodes keep emitting)
            for node in tracker.bad_nodes():
                if tracker.state[node] == QUARANTINED:
                    fabric.abandon_from(node)
            rview = _route_view()
            # hedge: any unanswered request stuck entirely behind
            # bad (suspect/quarantined/dead) placements re-routes
            bad = set(tracker.bad_nodes()) | {
                n for n in topology.node_names
                if not statuses[n]["alive"]}
            if bad:
                for rid in sorted(placements):
                    if rid in ledger or rid in deferred_rids:
                        continue
                    if not all(n in bad for n in placements[rid]):
                        continue
                    hedges += 1
                    req, payload = _replay(rid)
                    dst = _place(req, boundary, payload)
                    events.append(DegradationEvent(
                        boundary, "hedge", dst or ROUTER, rid=rid))
            # retransmit sweep + dead-letter re-routing
            retried, dead = fabric.sweep(boundary)
            for rec in retried:
                events.append(DegradationEvent(
                    boundary, "retransmit", rec.dst, mid=rec.mid,
                    rid=rec.payload[0], detail=rec.kind))
            for rec in dead:
                rid = rec.payload[0]
                events.append(DegradationEvent(
                    boundary, "dead_letter", rec.dst, mid=rec.mid,
                    rid=rid))
                placed = placements.get(rid, [])
                if rec.dst in placed:
                    placed.remove(rec.dst)  # that placement failed
                if rid in ledger or rid in deferred_rids:
                    continue
                if any(statuses[n]["alive"] and tracker.routable(n)
                       for n in placed):
                    continue  # a surviving placement may still win
                rerouted += 1
                req, payload = _replay(rid)
                dst = _place(req, boundary, payload)
                events.append(DegradationEvent(
                    boundary, "reroute", dst or ROUTER, rid=rid))
            if cobs is not None:
                cobs.timeline("fabric.unacked").set(
                    boundary, fabric.unacked_count())
                cobs.timeline("cluster.bad_nodes").set(
                    boundary, len(bad))
        else:
            rview = view

        done = (cursor == len(arrivals)
                and fabric.pending() == 0
                and not deferred
                and (not reliable
                     or (fabric.unacked_count() == 0
                         and len(ledger) == len(arrivals)))
                and not any(
                    s["alive"] and (s["queued"] + s["inflight"]
                                    + s["pending"])
                    for s in statuses.values()))
        if done:
            break
        if epoch >= max_epochs:
            raise RuntimeError(
                f"fleet did not quiesce within {max_epochs} epochs "
                f"({fabric.pending()} messages in flight, "
                f"{fabric.unacked_count()} unacked, "
                f"{len(arrivals) - cursor} arrivals unrouted)"
            )

    finished = host.finish()

    node_reports = {name: finished[name][0]
                    for name in topology.node_names}
    obs_agg = None
    if obs:
        from repro.obs import aggregate_snapshots
        snaps = {name: finished[name][1]
                 for name in topology.node_names}
        if cobs is not None:
            for cname, value in (
                ("fabric.retransmits", fabric.retransmits),
                ("fabric.dead_lettered", fabric.dead_lettered),
                ("fabric.acked", fabric.acked),
                ("fabric.dup_suppressed", fabric.dup_suppressed),
                ("fabric.abandoned", fabric.abandoned),
                ("fabric.wire_dropped", fabric.wire_dropped),
                ("fabric.wire_held", fabric.wire_held),
                ("cluster.hedges", hedges),
                ("cluster.hedge_dups", hedge_dups),
                ("cluster.rerouted", rerouted),
                ("cluster.deferred", deferred_total),
            ):
                cobs.counter(cname).inc(value)
            snaps["@fabric"] = cobs.snapshot()
        obs_agg = aggregate_snapshots(snaps)

    frontier: Dict[str, int] = {}
    health_final: Dict[str, str] = {}
    fired: Dict[str, int] = {}
    plan_desc = ""
    if reliable:
        frontier = {"offered": len(arrivals)}
        for outcome in ("completed", "failed", "dropped"):
            frontier[outcome] = sum(
                1 for o in ledger.values() if o == outcome)
        frontier["hedge_dups_suppressed"] = hedge_dups
        health_final = tracker.final_states()
        fired = injector.by_kind()
        plan_desc = (f"fabric_plan(seed={fabric_plan.seed}, "
                     f"specs={len(fabric_plan)})")
    return FleetReport(
        label=label,
        router=router.describe(),
        topology=topology.describe(),
        epoch_ns=epoch_len,
        epochs=epoch,
        node_reports=node_reports,
        routed=routed,
        respawned=respawned,
        bounced=sum(s.get("bounced", 0) for s in statuses.values()),
        fabric_posted=fabric.posted,
        fabric_delivered=fabric.delivered,
        fabric_latency_sum_ns=fabric.latency_sum_ns,
        obs=obs_agg,
        reliable=reliable,
        fabric_retransmits=fabric.retransmits,
        fabric_dead_lettered=fabric.dead_lettered,
        fabric_acked=fabric.acked,
        fabric_dup_suppressed=fabric.dup_suppressed,
        fabric_abandoned=fabric.abandoned,
        fabric_wire_dropped=fabric.wire_dropped,
        fabric_wire_held=fabric.wire_held,
        fabric_faults=fired,
        fabric_plan_desc=plan_desc,
        fabric_policy_desc=POLICY_DESC if reliable else "",
        hedges=hedges,
        hedge_dups=hedge_dups,
        rerouted=rerouted,
        deferred=deferred_total,
        frontier=frontier,
        health_policy_desc=HEALTH_DESC if reliable else "",
        health_final=health_final,
        degradations=events,
    )
