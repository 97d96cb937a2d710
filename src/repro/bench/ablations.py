"""Ablations of Pagoda's individual design choices.

The paper motivates several mechanisms without isolating each one;
these experiments quantify them on the simulated stack:

- **spawn protocol** (§4.2.1): the pipelined one-copy-per-entry
  protocol vs the safe two-transaction strawman that "doubles the
  parameter copying overhead";
- **TaskTable rows** (§4.2): "having multiple rows in the TaskTable
  allows for high availability of tasks to schedule" — 1 vs 4 vs 32
  rows per MTB column;
- **parallel pSched** (Algorithm 2): warp-parallel executor search vs
  a serial scheduler placing one warp per pass;
- **lazy aggregate copy-backs** (§4.2.2): the wait()/waitAll() timeout
  trades completion-observation latency against D2H traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.bench.harness import make_tasks
from repro.bench.reporting import format_table
from repro.core import PagodaConfig, PagodaSession, run_pagoda
from repro.gpu.phases import Phase, phase_table
from repro.gpu.timing import DEFAULT_TIMING
from repro.tasks import TaskResult, TaskSpec

THREADS_PER_TASK = 128


def spawn_protocol_ablation(num_tasks: int = 512, seed: int = 0) -> Dict:
    """Pipelined vs two-transaction spawning, spawn-path bound."""
    tasks = make_tasks("mb", num_tasks, THREADS_PER_TASK, seed)
    out = {}
    for protocol in ("pipelined", "two-copies"):
        stats = run_pagoda(tasks, config=PagodaConfig(
            protocol=protocol, copy_inputs=False, copy_outputs=False,
        ))
        out[protocol] = stats.makespan
    out["overhead"] = out["two-copies"] / out["pipelined"]
    return out


def tasktable_rows_ablation(num_tasks: int = 768, seed: int = 0,
                            rows_list: Optional[List[int]] = None) -> Dict:
    """Task availability vs TaskTable depth (rows per column)."""
    rows_list = rows_list or [1, 4, 32]
    tasks = make_tasks("mb", num_tasks, THREADS_PER_TASK, seed)
    out = {}
    for rows in rows_list:
        stats = run_pagoda(tasks, config=PagodaConfig(
            rows=rows, copy_inputs=False, copy_outputs=False,
        ))
        out[rows] = {
            "makespan": stats.makespan,
            "copy_backs": stats.meta["copy_backs"],
        }
    return out


@phase_table()
def tiny_kernel(task, block_id, warp_id):
    """One instruction: placement, not execution, is measured."""
    yield Phase(inst=1.0)


def psched_ablation(warp_counts: Optional[List[int]] = None) -> Dict:
    """Placement latency of one task vs its warp count, with and
    without Algorithm 2's warp-parallel search."""
    warp_counts = warp_counts or [4, 8, 16]
    out: Dict[int, Dict[str, float]] = {}

    for warps in warp_counts:
        row = {}
        for mode, serial in (("parallel", False), ("serial", True)):
            session = PagodaSession(
                config=PagodaConfig(serial_psched=serial))
            result = TaskResult(0, "t")
            task = TaskSpec("t", warps * 32, 1, tiny_kernel)

            def driver():
                yield from session.host.task_spawn(task, result)
                yield from session.host.wait_all()

            session.engine.spawn(driver())
            session.engine.run()
            session.shutdown()
            row[mode] = result.end_time - result.sched_time
        out[warps] = row
    return out


def copyback_timeout_ablation(num_tasks: int = 512, seed: int = 0,
                              timeouts_us: Optional[List[float]] = None
                              ) -> Dict:
    """Lazy-update timeout sweep: D2H traffic vs observation latency."""
    timeouts_us = timeouts_us or [10.0, 50.0, 200.0]
    tasks = make_tasks("mb", num_tasks, THREADS_PER_TASK, seed)
    out = {}
    for timeout in timeouts_us:
        timing = dataclasses.replace(
            DEFAULT_TIMING, wait_timeout_ns=timeout * 1e3)
        stats = run_pagoda(tasks, timing=timing, config=PagodaConfig(
            copy_inputs=False, copy_outputs=False,
        ))
        out[timeout] = {
            "makespan": stats.makespan,
            "copy_backs": stats.meta["copy_backs"],
        }
    return out


def run(num_tasks: int = 512, seed: int = 0) -> Dict:
    """Execute the experiment; returns its structured results."""
    return {
        "protocol": spawn_protocol_ablation(num_tasks, seed),
        "rows": tasktable_rows_ablation(max(num_tasks, 256), seed),
        "psched": psched_ablation(),
        "copyback": copyback_timeout_ablation(num_tasks, seed),
    }


def report(results: Dict) -> str:
    """Render the experiment's paper-vs-measured text report."""
    sections = []
    proto = results["protocol"]
    sections.append(format_table(
        ["protocol", "makespan_ms"],
        [[p, round(proto[p] / 1e6, 3)] for p in ("pipelined", "two-copies")]
        + [["two-copies / pipelined", round(proto["overhead"], 2)]],
        title="ABLATION: spawn protocol (§4.2.1)",
    ))
    rows = results["rows"]
    sections.append(format_table(
        ["rows/column", "makespan_ms", "copy_backs"],
        [[r, round(v["makespan"] / 1e6, 3), v["copy_backs"]]
         for r, v in sorted(rows.items())],
        title="ABLATION: TaskTable rows (§4.2)",
    ))
    psched = results["psched"]
    sections.append(format_table(
        ["warps/task", "parallel_us", "serial_us"],
        [[w, round(v["parallel"] / 1e3, 2), round(v["serial"] / 1e3, 2)]
         for w, v in sorted(psched.items())],
        title="ABLATION: parallel pSched (Algorithm 2) placement latency",
    ))
    cb = results["copyback"]
    sections.append(format_table(
        ["timeout_us", "makespan_ms", "copy_backs"],
        [[t, round(v["makespan"] / 1e6, 3), v["copy_backs"]]
         for t, v in sorted(cb.items())],
        title="ABLATION: lazy copy-back timeout (§4.2.2)",
    ))
    return "\n\n".join(sections)
