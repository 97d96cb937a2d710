"""Fig. 5 — Overall performance comparison.

Paper setup: every benchmark runs 32K tasks (SLUD 273K), 128 threads
per task; execution time includes data copies and compute.  Bars show
speedup over sequential CPU for PThreads (20 cores), CUDA-HyperQ,
GeMTC, and Pagoda.

Headline numbers to reproduce (shape, not absolutes): Pagoda achieves
geometric-mean speedups of **5.70x over PThreads**, **1.51x over
CUDA-HyperQ**, and **1.69x over GeMTC**.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench.harness import (
    default_num_tasks,
    geomean_speedup,
    make_tasks,
    run_tasks,
    speedups_vs,
)
from repro.bench.reporting import format_table, paper_vs_measured

WORKLOADS = ["mb", "fb", "bf", "conv", "dct", "mm", "slud", "3des", "mpe"]
RUNTIMES = ["pthreads", "hyperq", "gemtc", "pagoda"]
THREADS_PER_TASK = 128

PAPER_GEOMEANS = {"pthreads": 5.70, "hyperq": 1.51, "gemtc": 1.69}


def run(num_tasks: Optional[int] = None, seed: int = 0) -> Dict:
    """Execute the Fig. 5 grid; returns per-workload speedup maps."""
    per_workload: Dict[str, Dict[str, float]] = {}
    raw: Dict[str, Dict] = {}
    for workload in WORKLOADS:
        n = num_tasks if num_tasks is not None else default_num_tasks(workload)
        tasks = make_tasks(workload, n, THREADS_PER_TASK, seed)
        stats = {"sequential": run_tasks(tasks, "sequential")}
        for runtime in RUNTIMES:
            if workload == "slud" and runtime == "gemtc":
                continue  # GeMTC needs a static task count (§6.2)
            stats[runtime] = run_tasks(tasks, runtime)
        per_workload[workload] = speedups_vs(stats, "sequential")
        raw[workload] = stats
    geomeans = {}
    for runtime in RUNTIMES:
        contributing = {
            w: v for w, v in per_workload.items() if runtime in v
        }
        geomeans[runtime] = (
            geomean_speedup(contributing, "pagoda")
            / geomean_speedup(contributing, runtime)
        )
    return {"per_workload": per_workload, "geomeans": geomeans, "raw": raw}


def report(results: Dict) -> str:
    """Fig. 5 text rendering plus paper-vs-measured geomeans."""
    rows = []
    for workload, speeds in results["per_workload"].items():
        rows.append([workload] + [
            round(speeds.get(rt, float("nan")), 2) for rt in RUNTIMES
        ])
    bars = format_table(
        ["benchmark"] + RUNTIMES, rows,
        title="FIG5: speedup over sequential CPU (copies + compute)",
    )
    comparison = paper_vs_measured(
        "\nFIG5 headline: Pagoda geomean speedup over each scheme",
        [
            {"vs": rt, "paper": PAPER_GEOMEANS[rt],
             "measured": round(results["geomeans"][rt], 2)}
            for rt in PAPER_GEOMEANS
        ],
        keys=["vs"],
    )
    return bars + "\n" + comparison
