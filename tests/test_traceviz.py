"""Chrome-trace export tests."""

import json

import pytest

from repro.tasks import RunStats, TaskResult
from repro.obs.perfetto import (
    chrome_trace_events,
    export_chrome_trace,
    export_serve_trace,
    serve_counter_events,
)


def make_stats(n=3):
    results = [
        TaskResult(i, f"t{i}", spawn_time=i * 100.0,
                   sched_time=i * 100.0 + 50.0,
                   start_time=i * 100.0 + 60.0,
                   end_time=i * 100.0 + 160.0)
        for i in range(n)
    ]
    return RunStats(runtime="pagoda", makespan=1000.0, results=results)


def test_events_contain_metadata_and_spans():
    events = chrome_trace_events(make_stats())
    kinds = {e["name"] for e in events}
    assert {"process_name", "thread_name", "queued", "exec"} <= kinds
    execs = [e for e in events if e["name"] == "exec"]
    assert len(execs) == 3
    assert execs[0]["dur"] == 0.1  # 100 ns in us
    assert execs[0]["ph"] == "X"


def test_queued_span_measures_spawn_to_sched():
    events = chrome_trace_events(make_stats(1))
    queued = next(e for e in events if e["name"] == "queued")
    assert queued["dur"] == 0.05


def test_t0_task_gets_zero_duration_queued_span():
    """Regression: a task spawned at t=0 and scheduled at t=0 *was*
    queued (for zero time); the seed's predicate dropped its span,
    making t=0 tasks look like they skipped the queue entirely."""
    results = [TaskResult(0, "t0", spawn_time=0.0, sched_time=0.0,
                          start_time=5.0, end_time=105.0)]
    stats = RunStats(runtime="pagoda", makespan=105.0, results=results)
    events = chrome_trace_events(stats)
    queued = [e for e in events if e["name"] == "queued"]
    assert len(queued) == 1
    assert queued[0]["ts"] == 0.0
    assert queued[0]["dur"] == 0.0


def test_unscheduled_task_emits_no_queued_span():
    """A record whose sched_time precedes spawn_time never got a real
    scheduling stamp (e.g. the default 0.0 on a task that died first);
    no span beats a negative- or clamp-faked one."""
    results = [TaskResult(0, "dead", spawn_time=300.0, sched_time=0.0,
                          start_time=0.0, end_time=0.0)]
    stats = RunStats(runtime="pagoda", makespan=300.0, results=results)
    events = chrome_trace_events(stats)
    assert not [e for e in events if e["name"] == "queued"]
    assert not [e for e in events if e["name"] == "exec"]


def test_max_tasks_caps_output_and_warns():
    with pytest.warns(UserWarning, match="trace truncated: 10 tasks"):
        events = chrome_trace_events(make_stats(10), max_tasks=2)
    execs = [e for e in events if e["name"] == "exec"]
    assert len(execs) == 2


def test_no_warning_when_under_cap(recwarn):
    chrome_trace_events(make_stats(3), max_tasks=3)
    assert not recwarn.list


def test_export_writes_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = export_chrome_trace(make_stats(), str(path))
    data = json.loads(path.read_text())
    assert len(data["traceEvents"]) == count
    assert data["displayTimeUnit"] == "ms"


def test_export_from_real_run(tmp_path):
    from repro.core import run_pagoda
    from repro.gpu.phases import Phase
    from repro.tasks import TaskSpec

    def kernel(task, block_id, warp_id):
        yield Phase(inst=500)

    tasks = [TaskSpec(f"t{i}", 64, 1, kernel) for i in range(10)]
    stats = run_pagoda(tasks)
    path = tmp_path / "run.json"
    count = export_chrome_trace(stats, str(path))
    assert count > 20
    json.loads(path.read_text())


def _serve_report(n=20):
    from repro.gpu.phases import Phase
    from repro.serve import DeterministicArrivals, TenantSpec, serve
    from repro.tasks import TaskSpec

    def kernel(task, block_id, warp_id):
        yield Phase(inst=500)

    tasks = [TaskSpec(f"t{i}", 64, 1, kernel) for i in range(n)]
    return serve([TenantSpec("a", tasks, DeterministicArrivals(500.0))])


def test_serve_counter_events_track_queue_and_drops():
    report = _serve_report()
    events = serve_counter_events(report)
    names = {e["name"] for e in events}
    assert {"ingress queue", "in flight", "drops/s"} <= names
    counters = [e for e in events if e["ph"] == "C"]
    assert len(counters) == 3 * len(report.timeline)
    # timestamps must be non-decreasing for the viewer
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)
    # no drops in this run: the rate track stays at zero
    assert all(e["args"]["rate"] == 0.0
               for e in counters if e["name"] == "drops/s")


def test_export_serve_trace_combines_counters_and_spans(tmp_path):
    report = _serve_report()
    path = tmp_path / "serve.json"
    count = export_serve_trace(report, str(path))
    data = json.loads(path.read_text())
    assert len(data["traceEvents"]) == count
    names = {e["name"] for e in data["traceEvents"]}
    assert {"ingress queue", "exec", "queued"} <= names
