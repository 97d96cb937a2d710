"""The cluster router: pluggable request placement over the fleet.

The router is the fleet's front door: every request generated by a
cluster tenant is assigned to exactly one node frontend by a
:class:`RouterPolicy`.  A policy is a pure function of

- the request's stable identity (tenant, per-tenant index, kernel
  name, block count, SLO deadline), and
- the :class:`FleetView` — the per-node status digests collected at
  the *previous* epoch boundary (the router learns about a node with
  one fabric latency of staleness, like any physical load balancer).

Hashes use ``zlib.crc32`` on stable strings, never Python's salted
``hash()``, so placements replay across interpreter restarts — the
cluster's byte-identity contract depends on it.

The coordinator builds one :class:`RouteRequest` per placement, so it
is a :class:`~typing.NamedTuple` rather than a frozen dataclass (one
allocation, no per-field ``__setattr__``).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional

from repro.cluster.topology import Topology


class RouteRequest(NamedTuple):
    """What a policy may look at when placing one request."""

    rid: int            # cluster-global request id
    tenant: str
    index: int          # per-tenant arrival index
    kernel: str         # task spec name (affinity key material)
    num_blocks: int
    deadline_ns: Optional[float]
    respawn: bool = False  # True when re-routed after a node death


class FleetView:
    """The router's (boundary-stale) picture of every node."""

    def __init__(self, statuses: Dict[str, Dict[str, int]]) -> None:
        self.statuses = statuses

    def alive(self) -> List[str]:
        """Names of live nodes, in sorted order (tie-break basis)."""
        return sorted(n for n, s in self.statuses.items() if s["alive"])

    def load(self, name: str) -> int:
        """Requests somewhere in a node's pipeline."""
        s = self.statuses[name]
        return s["queued"] + s["inflight"] + s["pending"]


class RouterPolicy:
    """Base class: place one request on a live node."""

    def route(self, req: RouteRequest, view: FleetView) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _crc(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class ConsistentHashRouter(RouterPolicy):
    """Ring hashing with virtual points: stable kernel affinity.

    Each node owns ``replicas`` points on a 2^32 ring; a request maps
    to the first point clockwise of its key hash.  Dead nodes are
    skipped by walking the ring, so a node death only remaps the keys
    it owned — the property that keeps warm state (batcher runs,
    caches) on survivors intact.
    """

    def __init__(self, topology: Topology, replicas: int = 64,
                 key: str = "kernel") -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if key not in ("kernel", "tenant", "request"):
            raise ValueError(f"unknown hash key {key!r}")
        self.replicas = replicas
        self.key = key
        ring = sorted(
            (_crc(f"{name}#{v}"), name)
            for name in topology.node_names
            for v in range(replicas)
        )
        #: the sorted ring as two parallel lists: points and owners.
        self._points = [point for point, _ in ring]
        self._owners = [name for _, name in ring]

    def _key_of(self, req: RouteRequest) -> str:
        if self.key == "kernel":
            return f"{req.tenant}:{req.kernel}"
        if self.key == "tenant":
            return req.tenant
        return f"{req.tenant}:{req.index}"

    def route(self, req: RouteRequest, view: FleetView) -> str:
        alive = {n for n, s in view.statuses.items() if s["alive"]}
        if not alive:
            raise RuntimeError("no live node to route to")
        owners = self._owners
        n = len(owners)
        # the first ring point >= the key hash, then clockwise
        start = bisect_left(self._points, _crc(self._key_of(req)))
        for step in range(n):
            node = owners[(start + step) % n]
            if node in alive:
                return node
        raise RuntimeError("unreachable: ring exhausted")

    def describe(self) -> str:
        return (f"consistent_hash(replicas={self.replicas}, "
                f"key={self.key})")


class LeastLoadedRouter(RouterPolicy):
    """Send every request to the emptiest pipeline (name-ordered
    tie-break), using the boundary-stale load figures."""

    def route(self, req: RouteRequest, view: FleetView) -> str:
        alive = view.alive()
        if not alive:
            raise RuntimeError("no live node to route to")
        return min(alive, key=lambda n: (view.load(n), n))

    def describe(self) -> str:
        return "least_loaded"


class SloAwareRouter(RouterPolicy):
    """Deadline-urgency placement: tight-deadline requests go to the
    emptiest node (minimize queueing), relaxed ones keep consistent-
    hash affinity (maximize batching/locality).  Respawned requests
    are always treated as urgent — they already lost a node's worth
    of time."""

    def __init__(self, topology: Topology, urgent_ns: float = 500_000.0,
                 replicas: int = 64) -> None:
        if urgent_ns <= 0:
            raise ValueError("urgent_ns must be > 0")
        self.urgent_ns = urgent_ns
        self._hash = ConsistentHashRouter(topology, replicas=replicas)
        self._least = LeastLoadedRouter()

    def route(self, req: RouteRequest, view: FleetView) -> str:
        urgent = req.respawn or (
            req.deadline_ns is not None and req.deadline_ns <= self.urgent_ns
        )
        policy = self._least if urgent else self._hash
        return policy.route(req, view)

    def describe(self) -> str:
        return (f"slo_aware(urgent_ns={self.urgent_ns:g}, "
                f"affinity={self._hash.describe()})")
