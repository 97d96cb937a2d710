"""``repro.bench`` "obs" experiment — the instrumented-run profile.

Not a figure from the paper: this cell runs one Pagoda workload with a
:class:`repro.obs.Obs` context attached and reports where the
simulation itself spends its events and virtual time — the
deterministic "sim profiler" view (top-N processes, heap depth) plus
the headline counters every layer recorded (PCIe bytes, scheduler
decisions, TaskTable churn).

Two uses: a quick sanity read on *what the simulator is doing* when a
reproduction number looks off, and a stable regression surface — the
snapshot is deterministic, so any diff between two commits' reports is
a real behaviour change, not noise.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import PagodaConfig, run_pagoda
from repro.gpu.phases import Phase, phase_table
from repro.obs import Obs
from repro.tasks import TaskSpec

#: counters surfaced in the report, in print order.
HEADLINE = (
    "pcie.h2d.bytes", "pcie.h2d.transactions",
    "pcie.d2h.bytes", "pcie.d2h.transactions",
    "table.entry_posts", "table.dirty_row_scans",
    "table.dirty_rows_visited", "table.copy_backs",
    "sched.decisions.schedule", "sched.decisions.promote",
    "sched.decisions.defer", "sched.tasks_done",
)


@phase_table()
def _kernel(task, block_id, warp_id):
    yield Phase(inst=2_000, mem_bytes=256)
    yield Phase(inst=1_000)


def run(num_tasks: Optional[int] = None, seed: int = 0) -> Dict:
    """One instrumented run; returns the validated stats snapshot."""
    n = num_tasks if num_tasks is not None else 512
    tasks = [
        TaskSpec(f"t{i}", 128, 1, _kernel, input_bytes=1024,
                 output_bytes=512)
        for i in range(n)
    ]
    obs = Obs()
    stats = run_pagoda(tasks, config=PagodaConfig(obs=obs))
    return {
        "num_tasks": n,
        "makespan_ns": stats.makespan,
        "snapshot": stats.meta["stats_snapshot"],
        "profiler_text": obs.profiler.format_report(),
    }


def report(results: Dict) -> str:
    snap = results["snapshot"]
    lines = [
        f"obs profile: {results['num_tasks']} tasks, "
        f"makespan {results['makespan_ns'] / 1e6:.3f} ms, "
        f"{snap['sim']['events_executed']} engine events",
        "",
        results["profiler_text"],
        "",
        "counters:",
    ]
    counters = snap["counters"]
    width = max(len(name) for name in HEADLINE)
    for name in HEADLINE:
        if name in counters:
            lines.append(f"  {name:<{width}}  {counters[name]:>12,}")
    return "\n".join(lines)
