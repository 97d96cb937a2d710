#!/usr/bin/env python
"""Observability smoke: instrument a serve run end-to-end, then prove
the artifacts hold their contracts.

One instrumented serving run (multi-tenant, zero-gap arrivals so t=0
tasks are exercised), then:

- the Perfetto export parses back as JSON and carries per-SMM
  utilization counter tracks, serve counter tracks, per-task spans
  (including the zero-duration queued spans of t=0 tasks), and
  scheduler-decision instants;
- the stats snapshot validates against the ``repro.obs/2`` schema and
  its counters agree with the report's request accounting;
- the same run without an Obs attached produces a byte-identical
  ``ServeReport.to_json()`` — the overhead contract, checked on every
  CI run, not just in the test suite.

Exit 0 on success; any broken contract raises.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import PagodaConfig  # noqa: E402
from repro.gpu.phases import Phase  # noqa: E402
from repro.obs import Obs, export_serve_trace, validate_snapshot  # noqa: E402
from repro.serve import (  # noqa: E402
    DeterministicArrivals,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    serve,
)
from repro.tasks import TaskSpec  # noqa: E402


def kernel(task, block_id, warp_id):
    yield Phase(inst=2_000, mem_bytes=256)


def tenants(n=40):
    return [
        TenantSpec("burst", [TaskSpec(f"b{i}", 64, 1, kernel)
                             for i in range(n)],
                   DeterministicArrivals(0.0)),
        TenantSpec("steady", [TaskSpec(f"s{i}", 128, 1, kernel)
                              for i in range(n)],
                   PoissonArrivals(400_000.0, seed=7)),
    ]


def run(obs):
    return serve(tenants(), ServeConfig(pagoda=PagodaConfig(obs=obs)))


def main() -> int:
    obs = Obs()
    report = run(obs)

    # -- Perfetto trace round-trips and carries every layer ------------
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "serve_trace.json"
        count = export_serve_trace(report, str(path), obs=obs)
        events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == count, "event count mismatch"
    names = {e["name"] for e in events}
    for required in ("ingress queue", "queued", "exec",
                     "gpu.smm0.busy_warps", "serve.queue_depth"):
        assert required in names, f"missing trace track {required!r}"
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert "schedule" in instants and "task_done" in instants, \
        "scheduler decisions missing from the event stream"
    queued = [e for e in events if e["name"] == "queued"]
    assert any(e["ts"] == 0.0 for e in queued), \
        "t=0 tasks lost their queued spans"

    # -- snapshot validates and agrees with the report -----------------
    snap = validate_snapshot(obs.snapshot())
    counters = snap["counters"]
    assert counters["serve.offered"] == report.offered
    assert counters["serve.completed"] == report.completed
    assert counters["sched.tasks_done"] == report.completed

    # -- obs on/off: byte-identical report -----------------------------
    assert run(None).to_json() == report.to_json(), \
        "attaching Obs changed the report"

    print(f"obs smoke ok: {count} trace events, "
          f"{len(snap['counters'])} counters, "
          f"{report.completed} requests served, report byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
