"""Fleet topologies: nodes, links, and the conservative lookahead.

A :class:`Topology` names the GPU nodes of a simulated fleet and the
latency of every link between them and the cluster router.  The
*lookahead* — the minimum latency of any link a message can cross — is
what makes conservative synchronization exact: a message sent during
epoch ``e`` (virtual window ``[e*L, (e+1)*L)``) cannot arrive before
``(e+1)*L``, so exchanging messages only at epoch boundaries never
violates causality (the approach of "Parallelizing a modern GPU
simulator", PAPERS.md).  The epoch length defaults to the lookahead
and may be shortened, never lengthened.

Everything here is plain data: each shard is built from its
:class:`NodeSpec` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: the router's reserved endpoint name on the fabric.
ROUTER = "@router"


@dataclass
class NodeSpec:
    """One GPU box of the fleet."""

    name: str
    #: node-scoped fault schedule.  ``gpu.die`` specs are interpreted
    #: by the *cluster* layer as node death at ``at_ns`` (the box is
    #: one failure domain; unanswered requests fail over across
    #: shards); every other kind is injected inside the node's own
    #: runtime exactly as in single-box serving.
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.name or self.name.startswith("@"):
            raise ValueError(f"bad node name {self.name!r} "
                             "(non-empty, '@' prefix is reserved)")


@dataclass
class Topology:
    """The fleet graph: nodes plus link latencies (ns)."""

    nodes: List[NodeSpec]
    #: latency of any link not explicitly overridden.
    link_ns: float = 25_000.0
    #: per-link overrides, keyed ``(src, dst)`` (directional; the
    #: router endpoint is :data:`ROUTER`).
    links: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: barrier epoch length; ``None`` = the lookahead.  Must not
    #: exceed the lookahead (conservative sync would miss messages).
    epoch_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a topology needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        # `0 < x < inf` is false for NaN as well
        if not 0 < self.link_ns < math.inf:
            raise ValueError(
                f"link_ns={self.link_ns!r} must be finite and > 0")
        for key, lat in self.links.items():
            if not 0 < lat < math.inf:
                raise ValueError(
                    f"link {key} latency {lat!r} must be finite and > 0")
        if self.epoch_ns is not None:
            if not 0 < self.epoch_ns < math.inf:
                raise ValueError(
                    f"epoch_ns={self.epoch_ns!r} must be finite and > 0")
            if self.epoch_ns > self.lookahead_ns:
                raise ValueError(
                    f"epoch_ns {self.epoch_ns} exceeds the lookahead "
                    f"{self.lookahead_ns}: messages could arrive mid-epoch"
                )

    @property
    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def lookahead_ns(self) -> float:
        """Minimum latency over every link (the sync window bound)."""
        return min([self.link_ns] + list(self.links.values()))

    @property
    def epoch_length_ns(self) -> float:
        """The barrier epoch actually used."""
        return self.epoch_ns if self.epoch_ns is not None \
            else self.lookahead_ns

    def latency_ns(self, src: str, dst: str) -> float:
        """One-way latency of the ``src -> dst`` link."""
        return self.links.get((src, dst), self.link_ns)

    def describe(self) -> str:
        """Stable one-line description (goes into the fleet report)."""
        extra = f", overrides={len(self.links)}" if self.links else ""
        return (f"fleet(nodes={len(self.nodes)}, "
                f"link_ns={self.link_ns:g}, "
                f"epoch_ns={self.epoch_length_ns:g}{extra})")
