"""The cluster router: pluggable request placement over the fleet.

The router is the fleet's front door: every request generated by a
cluster tenant is assigned to exactly one node frontend by a
:class:`RouterPolicy`.  A policy is a pure function of

- the request's stable identity (tenant, per-tenant index, kernel
  name, block count, SLO deadline), and
- the :class:`FleetView` — the per-node status digests collected at
  the *previous* epoch boundary (the router learns about a node with
  one fabric latency of staleness, like any physical load balancer).

The one policy shipped is :class:`ConsistentHashRouter`; the
statuses also carry per-node queue figures for custom policies
(docs/EXTENDING.md).

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
from typing import Dict, NamedTuple, Optional

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

