"""The latency accountant's output: a replayable serving report.

A :class:`ServeReport` is the single deliverable of a serving run:
admission counters, goodput, and per-stage/per-tenant latency
histograms, serializable as JSON.  Serialization is deliberately
canonical — sorted keys, fixed separators, all floats rounded at the
source — so that two runs with the same seeds produce *byte-identical*
``to_json()`` output (asserted by ``tests/serve``), which is what makes
a report diffable evidence rather than a log file.

The report also keeps the raw material richer consumers need: the full
request list (for per-request trace spans) and the counter timeline
(queue depth / in-flight / drops over virtual time, for the
:mod:`repro.obs.perfetto` counter rows).  Neither is part of the JSON
digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.serve.histogram import LatencyHistogram
from repro.tasks import RunStats

#: JSON schema tag (bump when the digest's shape changes).
SCHEMA = "repro.serve/1"


@dataclass
class ServeReport:
    """Everything one serving run produced."""

    label: str
    policy: str
    batch: str
    num_gpus: int
    tenants_desc: Dict[str, str]
    makespan_ns: float
    offered: int
    admitted: int
    dropped: int
    completed: int
    failed: int
    spawns: int
    max_queue_depth: int
    max_inflight: int
    faults_injected: int
    hist_total: LatencyHistogram
    stage_hists: Dict[str, LatencyHistogram]
    tenant_stats: Dict[str, Dict]
    #: counter timeline rows: (t_ns, queue_depth, inflight, dropped,
    #: finished).  Not serialized into the JSON digest.
    timeline: List[tuple] = field(default_factory=list, repr=False)
    #: every request, in arrival order.  Not serialized.
    requests: List = field(default_factory=list, repr=False)

    # -- headline metrics -----------------------------------------------------

    @property
    def p99_us(self) -> float:
        """Tail latency of completed requests, microseconds."""
        return self.hist_total.percentile(99) / 1e3

    @property
    def drop_pct(self) -> float:
        """Share of offered requests rejected at admission."""
        return 100.0 * self.dropped / self.offered if self.offered else 0.0

    @property
    def goodput_per_s(self) -> float:
        """Deadline-meeting completions per (virtual) second."""
        if self.makespan_ns <= 0:
            return 0.0
        good = sum(s["good"] for s in self.tenant_stats.values())
        return good * 1e9 / self.makespan_ns

    @property
    def throughput_per_s(self) -> float:
        """All completions per (virtual) second."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.completed * 1e9 / self.makespan_ns

    def deadline_met_pct(self, tenant: str) -> float:
        """Share of a tenant's *offered* requests served in deadline —
        drops count against the SLO, exactly as a caller sees them."""
        stats = self.tenant_stats[tenant]
        if not stats["offered"]:
            return 0.0
        return 100.0 * stats["good"] / stats["offered"]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict:
        """The canonical JSON-ready digest."""
        tenants = {}
        for name, stats in sorted(self.tenant_stats.items()):
            tenants[name] = {
                "offered": stats["offered"],
                "dropped": stats["dropped"],
                "completed": stats["completed"],
                "failed": stats["failed"],
                "deadline_met_pct": round(self.deadline_met_pct(name), 3),
                "latency_us": stats["hist"].summary_us(),
            }
        return {
            "schema": SCHEMA,
            "label": self.label,
            "policy": self.policy,
            "batch": self.batch,
            "num_gpus": self.num_gpus,
            "arrivals": dict(sorted(self.tenants_desc.items())),
            "makespan_ms": round(self.makespan_ns / 1e6, 6),
            "totals": {
                "offered": self.offered,
                "admitted": self.admitted,
                "dropped": self.dropped,
                "completed": self.completed,
                "failed": self.failed,
                "spawns": self.spawns,
                "drop_pct": round(self.drop_pct, 3),
                "goodput_per_s": round(self.goodput_per_s, 3),
                "throughput_per_s": round(self.throughput_per_s, 3),
            },
            "queue": {
                "max_depth": self.max_queue_depth,
                "max_inflight": self.max_inflight,
            },
            "faults_injected": self.faults_injected,
            "latency_us": {
                "total": self.hist_total.summary_us(),
                "stages": {
                    name: hist.summary_us()
                    for name, hist in sorted(self.stage_hists.items())
                },
            },
            "tenants": tenants,
        }

    def to_json(self) -> str:
        """Canonical serialization: byte-identical across identical
        runs (sorted keys, fixed separators, pre-rounded floats)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def write_json(self, path: str) -> None:
        """Write the canonical digest (with a trailing newline)."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    # -- trace bridging -------------------------------------------------------

    def run_stats(self) -> RunStats:
        """The completed requests as a :class:`RunStats` (one result
        per request, batched requests sharing their fused task's
        timestamps) so every RunStats consumer — Perfetto spans,
        percentile helpers — works on a serving run unchanged."""
        results = []
        for req in self.requests:
            if req.status != "done" or req.result is None:
                continue
            res = req.result
            # per-request copy: fused members share timestamps but keep
            # their own identity and arrival-based spawn_time
            from repro.tasks import TaskResult
            results.append(TaskResult(
                task_id=req.index, name=req.spec.name,
                spawn_time=req.arrival_ns, post_time=res.post_time,
                sched_time=res.sched_time, start_time=res.start_time,
                end_time=res.end_time, spawn_site=res.spawn_site,
            ))
        return RunStats(
            runtime=self.label, makespan=self.makespan_ns,
            results=results,
            meta={"policy": self.policy, "dropped": self.dropped},
        )


def build_report(server) -> ServeReport:
    """Assemble the report from a finished :class:`TaskServer`."""
    return ServeReport(
        label=server.config.label,
        policy=server.policy.describe(),
        batch=server.config.batch.describe(),
        num_gpus=server.config.num_gpus,
        tenants_desc={t.name: t.arrivals.describe() for t in server.tenants},
        makespan_ns=server.makespan,
        offered=server.offered,
        admitted=server.admitted,
        dropped=server.dropped,
        completed=server.completed,
        failed=server.failed,
        spawns=server.spawns,
        max_queue_depth=server.queue.max_depth_seen,
        max_inflight=server.max_inflight,
        faults_injected=server.faults_injected(),
        hist_total=server.hist_total,
        stage_hists=server.stage_hists,
        tenant_stats=server.tenant_stats,
        timeline=server.timeline,
        requests=server.requests,
    )
