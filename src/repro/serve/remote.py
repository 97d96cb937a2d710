"""Remote-node ingress: a steppable serve frontend for cluster shards.

A :class:`NodeFrontend` is a :class:`~repro.serve.server.TaskServer`
whose requests arrive over a (simulated) network instead of from local
load generators.  It starts and finishes as the server does
(:meth:`~repro.serve.server.TaskServer.start` spawns no load generator
for it), and adds only injection, stepping, answers, status and abort:

- **Ingress is injection.**  :meth:`NodeFrontend.inject` schedules a
  request at an absolute virtual arrival instant.  The arrival runs no
  process: a ready-ring callback offers the request to the admission
  gate, and a request the gate holds back retries inline on the
  dispatcher's next space pulse.  The gate, queue, dispatcher,
  collectors, and latency accountant downstream are exactly the
  single-box serve pipeline.
- **Execution is stepped.**  Instead of one ``engine.run()`` to
  quiescence, the owner advances the node epoch by epoch with
  :meth:`step_until` (conservative lockstep — see
  ``docs/INTERNALS.md`` §12), injecting each epoch's deliveries before
  stepping into it.  :meth:`close_and_drain` ends the run: no further
  injections, drain to quiescence, build the canonical
  :class:`~repro.serve.report.ServeReport`.

A frontend can also :meth:`abort` mid-run — the node died (a
node-scoped ``gpu.die``): every request not yet answered is handed
back to the caller for cross-shard failover and the partial report is
still built, byte-deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.serve.arrivals import ArrivalProcess
from repro.serve.server import TaskServer, TenantSpec
from repro.tasks import TaskSpec

#: request states that count as "unanswered" when a node dies (the
#: caller never got a completion, a failure, or a drop for them).
_UNANSWERED = ("pending", "queued", "inflight")


class RemoteArrivals(ArrivalProcess):
    """Placeholder arrival process for remotely fed tenants.

    A remote tenant's schedule belongs to the cluster router, not the
    node, so this process cannot be sampled — it exists to give the
    per-node report a stable ``arrivals`` description.
    """

    def __init__(self, via: str = "fabric") -> None:
        self.via = via

    def gaps(self, n: int) -> List[float]:
        raise TypeError("remote tenants receive arrivals by injection")

    def describe(self) -> str:
        return f"remote(via={self.via})"


def remote_tenants(names_slos) -> List[TenantSpec]:
    """Build the task-less :class:`TenantSpec` list a frontend needs
    for per-tenant accounting.  ``names_slos`` is an iterable of
    ``(name, SloClass)`` pairs."""
    return [
        TenantSpec(name=name, tasks=[], arrivals=RemoteArrivals(), slo=slo)
        for name, slo in names_slos
    ]


class NodeFrontend(TaskServer):
    """A serve frontend driven by injected arrivals and epoch steps."""

    remote = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tenant_by_name: Dict[str, TenantSpec] = {
            t.name: t for t in self.tenants
        }
        #: injections scheduled but not yet resolved by the admission
        #: gate (the frontend is "busy" while any are outstanding).
        self._pending_arrivals = 0
        #: rid -> (tenant, spec, at_ns) for injections whose arrival
        #: instant has not been reached yet (needed for failover).
        self._undelivered: Dict[int, Tuple[str, TaskSpec, float]] = {}
        #: the arrival callback, bound once (see :meth:`inject`).
        self._arrive_cb = self._arrive
        #: request index -> rid (cluster-global request id).
        self._rid_of_index: Dict[int, int] = {}
        self._closed = False
        self.aborted = False
        #: requests handed back for cross-shard failover by `abort`.
        self.failed_over = 0
        #: rids ever injected here — at-least-once delivery upstream
        #: (fabric retransmits, hedged re-placements) must stay
        #: exactly-once at the frontend.
        self._seen_rids: set = set()
        #: duplicate injections refused (fleet metric).
        self.dup_suppressed = 0
        #: ``(when_ns, rid, outcome)`` terminal events not yet drained
        #: by the owning shard (the cluster answer ledger's feed).
        self.answered_log: List[Tuple[float, int, str]] = []

    # -- lifecycle ------------------------------------------------------------

    def run(self):  # pragma: no cover - misuse guard
        raise TypeError(
            "NodeFrontend is stepped (start/step_until/close_and_drain); "
            "use TaskServer for run-to-quiescence serving"
        )

    def _generators_done(self) -> bool:
        # remote mode: "the load is over" means the owner closed the
        # frontend and every injected arrival has cleared admission.
        return self._closed and self._pending_arrivals == 0

    # -- ingress --------------------------------------------------------------

    def inject(self, rid: int, tenant: str, spec: TaskSpec,
               at_ns: float) -> bool:
        """Schedule one remote request to arrive at ``at_ns``.

        ``rid`` is the cluster-global request id (used to identify the
        request if it must be failed over to another node).  Injection
        order at equal ``at_ns`` is preserved (engine sequence
        numbers), so the caller's delivery order is the arrival order.

        Returns ``False`` (and changes nothing) when ``rid`` was
        already injected here — an unreliable fabric can present the
        same request twice (retransmit races, a dead-letter re-route
        landing next to the original), and the frontend is the
        exactly-once boundary.
        """
        if self._closed or self.aborted:
            raise RuntimeError("cannot inject into a closed frontend")
        if tenant not in self._tenant_by_name:
            raise KeyError(f"unknown tenant {tenant!r}")
        if rid in self._seen_rids:
            self.dup_suppressed += 1
            return False
        self._seen_rids.add(rid)
        self._pending_arrivals += 1
        self._undelivered[rid] = (tenant, spec, at_ns)
        self.engine.call_at_with(at_ns, self._arrive_cb, rid)
        return True

    def _arrive(self, rid: int) -> None:
        tenant_name, spec, at_ns = self._undelivered.pop(rid)
        tenant = self._tenant_by_name[tenant_name]
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
        # feed the cluster answer ledger: "done" reads as "completed"
        # fleet-side (the ledger's outcome vocabulary)
        outcome = "completed" if req.status == "done" else req.status
        self.answered_log.append(
            (self.engine.now, self._rid_of_index[req.index], outcome))

    def drain_answered(self) -> List[Tuple[float, int, str]]:
        """Hand over (and clear) the terminal events logged since the
        last drain — the shard turns them into ``ANSWER`` messages."""
        out = self.answered_log
        self.answered_log = []
        return out

    # -- stepping -------------------------------------------------------------

    def step_until(self, when: float) -> float:
        """Advance this node's virtual time to ``when`` (one epoch)."""
        if self._dispatch_proc is None:
            raise RuntimeError("start() the frontend before stepping")
        return self.engine.run_until(when)

    def busy(self) -> bool:
        """Whether any request is still somewhere in the pipeline."""
        return (self._pending_arrivals > 0 or len(self.queue) > 0
                or self._inflight_count > 0)

    def status(self) -> Dict[str, int]:
        """Plain-int load/health digest shipped to the router every
        epoch (the routing policies' entire view of this node)."""
        return {
            "alive": 0 if self.aborted else 1,
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
        }

    # -- teardown -------------------------------------------------------------

    def close_and_drain(self):
        """No more injections; drain to quiescence and build the
        node's canonical :class:`~repro.serve.report.ServeReport`."""
        if self.aborted:
            raise RuntimeError("frontend already aborted")
        if self._pending_arrivals:
            raise RuntimeError(
                f"closing with {self._pending_arrivals} arrivals pending"
            )
        self._closed = True
        self._work.pulse()
        self.engine.run(raise_on_deadlock=True)
        return self.finish()

    def abort(self, at_ns: float):
        """The node died at ``at_ns``: stop the engine right there and
        hand back every unanswered request for cross-shard failover.

        Returns ``(report, respawns)`` where ``respawns`` is a list of
        ``(rid, tenant, spec)`` in deterministic (rid) order.  The
        report is the node's partial ledger — requests that were
        failed over stay visible as admitted-but-unanswered.
        """
        if self.aborted:
            raise RuntimeError("frontend already aborted")
        self.engine.run_until(at_ns)
        self.aborted = True
        self._closed = True
        respawns = []
        # injections whose arrival instant was never reached
        for rid, (tenant, spec, _at) in self._undelivered.items():
            respawns.append((rid, tenant, spec))
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
        from repro.serve.report import build_report
        return build_report(self), respawns
