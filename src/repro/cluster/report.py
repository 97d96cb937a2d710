"""The fleet's canonical deliverable: one merged cluster report.

A :class:`FleetReport` folds every node's
:class:`~repro.serve.report.ServeReport` plus the coordinator's own
ledgers (routing counts, fabric traffic, epochs) into a single
JSON-serializable digest with the same canonicalization discipline as
the serve layer: sorted keys, fixed separators, floats rounded at the
source:

    ``to_json()`` bytes are a pure function of
    ``(tenants, topology, router, seeds)`` — ``tests/cluster`` pins
    the sha256 of several fleets' bytes.

Two schemas share this class.  A legacy-lane run (no fabric fault
plan) emits ``repro.cluster/1`` — byte-for-byte the pre-fault digest,
so zero-fault runs stay comparable across repo versions.  A
reliable-lane run (any non-zero ``fabric.*`` plan) emits
``repro.cluster/2``, which adds the fabric reliability ledger
(retransmits, acks, dedup, faults fired), the self-healing routing
counters (hedges, re-routes, deferrals), the answer-ledger frontier,
and the health state machine's final states + degradation event log.

Latency histograms merge exactly (:meth:`LatencyHistogram.merge` is
bucket-wise integer addition), so fleet-level percentiles are computed
over the union of every node's samples, not averaged from per-node
percentiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.health import DegradationEvent
from repro.serve.histogram import LatencyHistogram
from repro.serve.report import ServeReport

#: JSON schema tag of the legacy (reliable=False) digest.
SCHEMA = "repro.cluster/1"
#: JSON schema tag of the reliable-lane digest.
SCHEMA_RELIABLE = "repro.cluster/2"

#: totals summed across nodes into the fleet ledger.
_SUM_FIELDS = ("offered", "admitted", "dropped", "completed", "failed",
               "spawns", "faults_injected")

#: degradation events serialized verbatim before the log is truncated
#: (the total count is always exact).
_EVENT_CAP = 1000


@dataclass
class FleetReport:
    """Everything one fleet run produced."""

    label: str
    router: str
    topology: str
    epoch_ns: float
    epochs: int
    #: node name -> that node's full ServeReport (order-stable by name).
    node_reports: Dict[str, ServeReport]
    #: node name -> requests the router placed there (first placement).
    routed: Dict[str, int]
    #: requests re-routed after a node death.
    respawned: int
    #: deliveries refused by an already-dead node.
    bounced: int
    fabric_posted: int
    fabric_delivered: int
    fabric_latency_sum_ns: float
    #: merged per-node obs snapshots (``None`` unless obs was on).
    obs: Optional[dict] = None
    #: reliable fabric lane (non-zero fault plan)?  Selects the schema.
    reliable: bool = False
    fabric_retransmits: int = 0
    fabric_dead_lettered: int = 0
    fabric_acked: int = 0
    fabric_dup_suppressed: int = 0
    fabric_abandoned: int = 0
    fabric_wire_dropped: int = 0
    fabric_wire_held: int = 0
    #: fault kind -> times it fired on the wire.
    fabric_faults: Dict[str, int] = field(default_factory=dict)
    fabric_plan_desc: str = ""
    fabric_policy_desc: str = ""
    hedges: int = 0
    hedge_dups: int = 0
    rerouted: int = 0
    deferred: int = 0
    #: answer-ledger conservation: offered == completed+failed+dropped.
    frontier: Dict[str, int] = field(default_factory=dict)
    health_policy_desc: str = ""
    #: node -> final health state.
    health_final: Dict[str, str] = field(default_factory=dict)
    #: every self-healing action, in occurrence order.
    degradations: List[DegradationEvent] = field(default_factory=list)

    # -- headline metrics -----------------------------------------------------

    @property
    def makespan_ns(self) -> float:
        """Fleet makespan: the slowest node's makespan."""
        return max(r.makespan_ns for r in self.node_reports.values())

    def totals(self) -> Dict[str, int]:
        out = {f: sum(getattr(r, f) for r in self.node_reports.values())
               for f in _SUM_FIELDS}
        out["failed_over"] = self.respawned
        out["bounced"] = self.bounced
        return out

    def merged_hist(self) -> LatencyHistogram:
        """All nodes' end-to-end samples, merged exactly."""
        merged = LatencyHistogram()
        for name in sorted(self.node_reports):
            merged.merge(self.node_reports[name].hist_total)
        return merged

    def merged_stage_hists(self) -> Dict[str, LatencyHistogram]:
        """Per-stage merged histograms, **key-sorted**: the stage set
        varies with what actually happened on each node (degradation
        stages appear on some nodes only), so insertion order would
        depend on node iteration — sorting here pins the report bytes
        regardless of which node contributed a stage first."""
        stages: Dict[str, LatencyHistogram] = {}
        for name in sorted(self.node_reports):
            for stage, hist in self.node_reports[name].stage_hists.items():
                stages.setdefault(stage, LatencyHistogram()).merge(hist)
        return dict(sorted(stages.items()))

    @property
    def p99_us(self) -> float:
        """Fleet-wide tail latency (merged samples), microseconds."""
        return self.merged_hist().percentile(99) / 1e3

    @property
    def throughput_per_s(self) -> float:
        """Fleet completions per virtual second of makespan."""
        span = self.makespan_ns
        if span <= 0:
            return 0.0
        return self.totals()["completed"] * 1e9 / span

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict:
        """The canonical JSON-ready digest."""
        totals = self.totals()
        totals["drop_pct"] = round(
            100.0 * totals["dropped"] / totals["offered"], 3
        ) if totals["offered"] else 0.0
        totals["throughput_per_s"] = round(self.throughput_per_s, 3)
        mean_link = (self.fabric_latency_sum_ns / self.fabric_posted
                     if self.fabric_posted else 0.0)
        digest = {
            "schema": SCHEMA_RELIABLE if self.reliable else SCHEMA,
            "label": self.label,
            "router": self.router,
            "topology": self.topology,
            "sync": {
                "epoch_ns": round(self.epoch_ns, 3),
                "epochs": self.epochs,
            },
            "fabric": {
                "posted": self.fabric_posted,
                "delivered": self.fabric_delivered,
                "mean_link_ns": round(mean_link, 3),
            },
            "routing": {
                "placed": dict(sorted(self.routed.items())),
                "respawned": self.respawned,
                "bounced": self.bounced,
            },
            "makespan_ms": round(self.makespan_ns / 1e6, 6),
            "totals": totals,
            "latency_us": {
                "total": self.merged_hist().summary_us(),
                "stages": {
                    stage: hist.summary_us()
                    for stage, hist in
                    sorted(self.merged_stage_hists().items())
                },
            },
            "nodes": {
                name: self.node_reports[name].to_dict()
                for name in sorted(self.node_reports)
            },
        }
        if self.reliable:
            digest["fabric"]["reliable"] = {
                "policy": self.fabric_policy_desc,
                "retransmits": self.fabric_retransmits,
                "dead_lettered": self.fabric_dead_lettered,
                "acked": self.fabric_acked,
                "dup_suppressed": self.fabric_dup_suppressed,
                "abandoned": self.fabric_abandoned,
                "wire_dropped": self.fabric_wire_dropped,
                "wire_held": self.fabric_wire_held,
            }
            digest["fabric"]["faults"] = {
                "plan": self.fabric_plan_desc,
                "fired": dict(sorted(self.fabric_faults.items())),
            }
            digest["routing"]["hedged"] = self.hedges
            digest["routing"]["rerouted"] = self.rerouted
            digest["routing"]["deferred"] = self.deferred
            digest["frontier"] = dict(sorted(self.frontier.items()))
            digest["health"] = {
                "policy": self.health_policy_desc,
                "final": dict(sorted(self.health_final.items())),
                "events_total": len(self.degradations),
                "events": [e.to_dict()
                           for e in self.degradations[:_EVENT_CAP]],
            }
        if self.obs is not None:
            digest["obs"] = self.obs
        return digest

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, fixed separators,
        pre-rounded floats."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
