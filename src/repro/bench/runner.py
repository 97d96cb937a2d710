"""Experiment registry and single-cell runner.

Shared by the serial CLI (:mod:`repro.bench.__main__`) and the
parallel sweep runner (:mod:`repro.bench.parallel`): both resolve an
experiment name to its module here and format reports identically, so
parallel and serial runs produce the same result tables.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.bench import (
    ablations,
    cluster,
    config_sweeps,
    fig5,
    latency_under_load,
    obs_profile,
    partition,
    priorities,
    scenarios,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    serve_load,
    tab3,
    tab5,
)

EXPERIMENTS = {
    "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
    "fig9": fig9, "fig10": fig10, "fig11": fig11,
    "tab3": tab3, "tab5": tab5, "ablations": ablations,
    "load": latency_under_load,
    "priorities": priorities,
    "sweeps": config_sweeps,
    "serve_p99_under_load": serve_load,
    "obs": obs_profile,
    "cluster": cluster,
    "partition_isolation": partition,
    "scenarios": scenarios,
}

#: experiments whose run() takes a num_tasks argument
TASK_SIZED = {"fig5", "fig7", "fig9", "fig11", "tab3", "tab5",
              "ablations", "load", "priorities", "sweeps",
              "serve_p99_under_load", "obs",
              "partition_isolation"}


def run_one(name: str, num_tasks: Optional[int]) -> str:
    """Run one named experiment and return its report text."""
    module = EXPERIMENTS[name]
    start = time.time()
    if name in TASK_SIZED and num_tasks is not None:
        results = module.run(num_tasks=num_tasks)
    else:
        results = module.run()
    report = module.report(results)
    wall = time.time() - start
    return f"{report}\n[{name}: {wall:.1f}s wall]"


def run_cell(job: Tuple[str, Optional[int]]) -> Tuple[str, str]:
    """Pool-friendly wrapper: ``(name, num_tasks) -> (name, report)``."""
    name, num_tasks = job
    return name, run_one(name, num_tasks)
