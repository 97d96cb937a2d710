"""The simulated network fabric: typed messages, explicit latency.

Shards never share state; everything that crosses a node boundary is a
:class:`Message` posted to the :class:`Fabric`.  The fabric stamps the
arrival instant (``send_ns`` + link latency), buckets messages by the
epoch that contains that instant, and hands each epoch's deliveries
out in one deterministic order — ``(arrive_ns, seq)``, with ``seq``
the global post order.  Because every link is at least one lookahead
long, a message posted during epoch ``e`` always lands in a bucket
``>= e+1``: delivery at epoch boundaries is exact, not approximate.

A fabric built with a :class:`~repro.faults.injector.FabricInjector`
(any non-zero ``fabric.*`` plan) runs the **reliable lane**: data
kinds (:data:`FORWARD`/:data:`RESPAWN`/:data:`ANSWER`) carry a stable
message id (``mid``, the seq of the first post) and attempt number,
the receiver acks every delivery, and unacked messages are
retransmitted with capped exponential backoff by the coordinator's
per-epoch :meth:`Fabric.sweep` — at-least-once on the wire, kept
exactly-once at the receiver by :meth:`Fabric.first_delivery` dedup.
A fabric with no injector is the legacy lane and behaves
bit-identically to the pre-fault fabric: no mids, no acks, no
reliability state ever touched.

Payloads are task specs, plain tuples, and ints only.  A message and
an unacked record are each a :class:`~typing.NamedTuple`: the
coordinator builds several per request, and a tuple costs one
allocation where a frozen dataclass paid a ``__setattr__`` per field.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cluster.topology import Topology
from repro.faults.injector import DROP, HOLD, FabricInjector

#: message kinds on the wire.
FORWARD = "forward"    # router -> node: one routed request
RESPAWN = "respawn"    # node -> router: failover re-spawn of a request
ANSWER = "answer"      # node -> router: terminal outcome of a request
ACK = "ack"            # receiver -> sender: delivery ack of one mid

#: kinds carried reliably (ack + retransmit) on a faulted fabric.
#: Acks themselves are fire-and-forget — a lost ack just costs one
#: redundant retransmit, which the receiver dedups.
DATA_KINDS = (FORWARD, RESPAWN, ANSWER)


class Message(NamedTuple):
    """One unit crossing the fabric.

    ``mid`` is the message's stable identity across retransmits (the
    ``seq`` of its first post); ``attempt`` counts transmissions of
    that identity.  Legacy-lane messages keep the defaults.  Being a
    tuple, a message compares (and hashes) by every field, payload
    included.
    """

    kind: str
    src: str
    dst: str
    send_ns: float
    arrive_ns: float
    seq: int
    payload: Any = None
    mid: int = -1
    attempt: int = 1


#: delivery order within an epoch bucket.
_ARRIVAL_ORDER = attrgetter("arrive_ns", "seq")


#: retransmit timeout = ``RTO_FACTOR`` x round-trip estimate (2 x
#: link latency), floored at one epoch so a message is retried at
#: most once per barrier epoch.
RTO_FACTOR = 2.0
#: exponential backoff multiplier cap: attempt *n* waits
#: ``rto x min(2^(n-1), BACKOFF_CAP)``.
BACKOFF_CAP = 8.0
#: router->node :data:`FORWARD`s dead-letter after this many
#: transmissions (the driver re-routes); node->router kinds retry
#: indefinitely (abandoned only by quarantine / ledger rules in the
#: driver).
MAX_ATTEMPTS = 5
#: the reliable lane's settings as the fleet report prints them.
POLICY_DESC = (f"at-least-once(rto={RTO_FACTOR:g}x, cap={BACKOFF_CAP:g}x, "
               f"max_attempts={MAX_ATTEMPTS})")


class _Pending(NamedTuple):
    """One unacked data message awaiting ack or retransmit (replaced
    whole on every retransmit, never updated in place)."""

    mid: int
    kind: str
    src: str
    dst: str
    payload: Any
    attempt: int
    due_ns: float


class Fabric:
    """Latency-stamping, epoch-bucketing message switch."""

    def __init__(self, topology: Topology,
                 injector: Optional[FabricInjector] = None) -> None:
        self.topology = topology
        self.epoch_ns = topology.epoch_length_ns
        self.injector = injector
        #: reliable lane on? (fault plans only; legacy lane otherwise)
        self.reliable = injector is not None
        self._seq = 0
        #: epoch index -> [Message, ...] in post order.
        self._buckets: Dict[int, List[Message]] = {}
        self.posted = 0
        self.delivered = 0
        #: total ns spent on the wire (for the fleet report).
        self.latency_sum_ns = 0.0
        # -- reliable-lane state (all zero/empty on the legacy lane) --
        #: mid -> unacked record awaiting ack or retransmit.
        self._unacked: Dict[int, _Pending] = {}
        #: (dst, mid) identities already delivered (receiver dedup).
        self._seen: Set[Tuple[str, int]] = set()
        self.retransmits = 0
        self.dead_lettered = 0
        self.acked = 0
        self.dup_suppressed = 0
        self.abandoned = 0
        #: messages a fault removed from / stalled on the wire.
        self.wire_dropped = 0
        self.wire_held = 0

    def epoch_of(self, t_ns: float) -> int:
        """Index of the epoch window containing ``t_ns``."""
        return int(t_ns // self.epoch_ns)

    # -- posting -------------------------------------------------------------

    def post(self, kind: str, src: str, dst: str, send_ns: float,
             payload: Any = None, mid: Optional[int] = None,
             attempt: int = 1) -> Optional[Message]:
        """Put one message on the wire.

        Returns the stamped message, or ``None`` when a fabric fault
        removed it from the wire (reliable lane only — the unacked
        record survives, so the sweep retransmits it).
        """
        latency = self.topology.latency_ns(src, dst)
        self._seq = seq = self._seq + 1
        self.posted += 1
        self.latency_sum_ns += latency
        if not self.reliable:
            arrive = round(send_ns + latency, 3)
            msg = Message(kind, src, dst, send_ns, arrive, seq, payload)
            self._buckets.setdefault(int(arrive // self.epoch_ns),
                                     []).append(msg)
            return msg
        if mid is None:
            mid = seq if kind in DATA_KINDS else -1
        if kind in DATA_KINDS:
            self._register(mid, kind, src, dst, payload, attempt,
                           send_ns, latency)
        inj = self.injector
        drawn = inj.drawn_kinds
        draw_id = mid if mid >= 0 else seq
        # fault pipeline: windows at the source, point drop, delay
        # spike, windows at the destination, duplication.
        fate, release, fkind = inj.node_fate(src, send_ns)
        if fate == DROP:
            inj.record(send_ns, fkind, (src, dst))
            self.wire_dropped += 1
            return None
        send_eff = send_ns
        if fate == HOLD:
            inj.record(send_ns, fkind, (src, dst))
            self.wire_held += 1
            send_eff = release
        if "fabric.link.drop" in drawn and inj.draw(
                "fabric.link.drop", send_ns, src, dst,
                draw_id, attempt) is not None:
            self.wire_dropped += 1
            return None
        delay = 0.0
        if "fabric.link.delay_spike" in drawn:
            spike = inj.draw("fabric.link.delay_spike", send_ns, src, dst,
                             draw_id, attempt)
            if spike is not None:
                delay = spike.magnitude_ns
        arrive = round(send_eff + latency + delay, 3)
        fate, release, fkind = inj.node_fate(dst, arrive)
        if fate == DROP:
            inj.record(arrive, fkind, (src, dst))
            self.wire_dropped += 1
            return None
        if fate == HOLD:
            inj.record(arrive, fkind, (src, dst))
            self.wire_held += 1
            arrive = round(release, 3)
        msg = Message(kind, src, dst, send_ns, arrive, seq, payload, mid,
                      attempt)
        bucket = self._buckets.setdefault(int(arrive // self.epoch_ns), [])
        bucket.append(msg)
        if "fabric.link.dup" in drawn and inj.draw(
                "fabric.link.dup", send_ns, src, dst,
                draw_id, attempt) is not None:
            self._seq += 1
            bucket.append(msg._replace(seq=self._seq))
        return msg

    def _register(self, mid: int, kind: str, src: str, dst: str,
                  payload: Any, attempt: int, send_ns: float,
                  latency: float) -> None:
        """(Re)arm the unacked record: due = rto × capped backoff,
        rto floored at one epoch so dues land at most one sweep out."""
        rto = max(RTO_FACTOR * 2.0 * latency, self.epoch_ns)
        backoff = min(2.0 ** (attempt - 1), BACKOFF_CAP)
        self._unacked[mid] = _Pending(
            mid, kind, src, dst, payload, attempt,
            round(send_ns + rto * backoff, 3))

    # -- delivery ------------------------------------------------------------

    def deliver(self, epoch: int) -> List[Message]:
        """Every message arriving during ``epoch``, in
        ``(arrive_ns, seq)`` order.  Consumes the bucket."""
        msgs = self._buckets.pop(epoch, [])
        msgs.sort(key=_ARRIVAL_ORDER)
        self.delivered += len(msgs)
        return msgs

    def first_delivery(self, msg: Message) -> bool:
        """Receiver-side dedup: True exactly once per ``(dst, mid)``.
        Retransmit and fault duplicates are counted and suppressed —
        this is what keeps at-least-once exactly-once downstream."""
        key = (msg.dst, msg.mid)
        if key in self._seen:
            self.dup_suppressed += 1
            return False
        self._seen.add(key)
        return True

    def send_ack(self, msg: Message) -> None:
        """Ack a delivered data message back to its sender, posted at
        the delivery instant (so it lands a future epoch).  Acks ride
        the same faulted wire; a lost ack costs one retransmit."""
        self.post(ACK, msg.dst, msg.src, msg.arrive_ns, payload=msg.mid)

    def ack(self, mid: int) -> None:
        """Retire the unacked record (idempotent — duplicate acks from
        retransmit round trips are no-ops)."""
        if self._unacked.pop(mid, None) is not None:
            self.acked += 1

    # -- retransmission ------------------------------------------------------

    def sweep(self,
              boundary_ns: float) -> Tuple[List[_Pending], List[_Pending]]:
        """Retransmit every unacked message due before ``boundary_ns``
        (the epoch boundary just stepped to).  :data:`FORWARD`s that
        exhausted :data:`MAX_ATTEMPTS` are dead-lettered
        instead.  Returns ``(retransmitted, dead_letters)`` — the
        records as they were *before* the action, for event logging
        and (dead letters) driver-side re-routing."""
        retried: List[_Pending] = []
        dead: List[_Pending] = []
        for mid in sorted(self._unacked):
            rec = self._unacked[mid]
            if rec.due_ns >= boundary_ns:
                continue
            if rec.kind == FORWARD and rec.attempt >= MAX_ATTEMPTS:
                del self._unacked[mid]
                self.dead_lettered += 1
                dead.append(rec)
                continue
            self.retransmits += 1
            retried.append(rec)
            self.post(rec.kind, rec.src, rec.dst, rec.due_ns,
                      rec.payload, mid=mid, attempt=rec.attempt + 1)
        return retried, dead

    def abandon_from(self, node: str) -> int:
        """Stop retrying everything originated by ``node`` (it was
        quarantined; the driver hedges its unanswered requests)."""
        gone = sorted(m for m, r in self._unacked.items()
                      if r.src == node)
        for mid in gone:
            del self._unacked[mid]
        self.abandoned += len(gone)
        return len(gone)

    def unacked_count(self) -> int:
        """Data messages still awaiting ack (quiescence gate)."""
        return len(self._unacked)

    # -- introspection -------------------------------------------------------

    def pending(self) -> int:
        """Messages still in flight (bucketed, not yet delivered)."""
        return sum(len(msgs) for msgs in self._buckets.values())

    def next_pending_epoch(self) -> int:
        """Earliest epoch with undelivered messages (-1 when empty)."""
        return min(self._buckets) if self._buckets else -1
