"""The overhead contract: obs on vs off changes *nothing* observable.

Instrumentation must never take simulated time or perturb event
ordering; the snapshot rides in ``meta`` / alongside the report, never
inside it.  These tests pin the contract at the two public entry
points (run_pagoda and serve) — if a future hook yields, reorders a
signal, or leaks into ``to_json``, they fail.
"""

from repro.core import PagodaConfig, run_pagoda
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec, serve
from repro.tasks import TaskSpec


def kernel(task, block_id, warp_id):
    yield Phase(inst=2_000, mem_bytes=512)
    yield Phase(inst=1_000)


def _tasks(n):
    return [
        TaskSpec(f"t{i}", 96, 2, kernel, shared_mem_bytes=1024,
                 needs_sync=(i % 3 == 0), input_bytes=2048,
                 output_bytes=1024)
        for i in range(n)
    ]


def _timestamps(stats):
    return [(r.spawn_time, r.post_time, r.sched_time, r.start_time,
             r.end_time) for r in stats.results]


def test_run_pagoda_schedule_identical_with_obs():
    cfg = dict(spawn_gap_ns=200.0, deferred_scheduling=True)
    off = run_pagoda(_tasks(30), config=PagodaConfig(**cfg))
    on = run_pagoda(_tasks(30), config=PagodaConfig(obs=Obs(), **cfg))
    assert on.makespan == off.makespan
    assert _timestamps(on) == _timestamps(off)
    assert on.copy_time == off.copy_time
    assert on.mean_occupancy == off.mean_occupancy
    # the snapshot rides in meta on the instrumented run only
    assert "stats_snapshot" in on.meta
    assert "stats_snapshot" not in off.meta
    for key in ("entry_copies", "copy_backs"):
        assert on.meta[key] == off.meta[key]


def test_serve_report_byte_identical_with_obs():
    def run(obs):
        tasks = [TaskSpec(f"t{i}", 64, 1, kernel) for i in range(25)]
        tenants = [TenantSpec("a", tasks, DeterministicArrivals(400.0))]
        config = ServeConfig(pagoda=PagodaConfig(obs=obs))
        return serve(tenants, config).to_json()

    assert run(Obs()) == run(None)


def test_instrumented_run_actually_observed_something():
    """Guard against the trivial way to pass the identity tests:
    hooks that never fire."""
    obs = Obs()
    run_pagoda(_tasks(10), config=PagodaConfig(obs=obs))
    snap = obs.snapshot()
    assert snap["counters"]["sched.tasks_done"] == 10
    assert snap["counters"]["pcie.h2d.bytes"] > 0
    assert snap["counters"]["table.entry_posts"] == 10
    assert any(name.startswith("gpu.smm") for name in snap["series"])
