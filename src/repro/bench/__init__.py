"""Benchmark harness: one module per table/figure of the paper's §6.

Each experiment module exposes ``run(...) -> dict`` (structured
results) and ``report(results) -> str`` (text rendering with
paper-vs-measured rows).  The ``paper.*`` scenarios of
:mod:`repro.scenarios` run them at scaled task counts and check the
paper's claims; EXPERIMENTS.md's tables are generated from those
results, and ``python -m repro.bench paper.<artefact>`` prints one
artefact's report with its verdicts.

=========== ==========================================================
module      paper artefact
=========== ==========================================================
``fig5``    overall speedup vs PThreads / HyperQ / GeMTC
``fig6``    weak scaling with task count
``fig7``    compute time vs threads-per-task
``fig8``    input-size x thread-count sweep vs HyperQ (MM, CONV)
``fig9``    irregular tasks vs static fusion
``fig10``   average task latency vs task count
``fig11``   continuous-spawning / batching ablation
``tab3``    benchmark copy/compute characteristics under HyperQ
``tab5``    shared-memory management analysis (DCT, MM)
=========== ==========================================================
"""

from repro.bench import (  # noqa: F401
    ablations,
    config_sweeps,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    latency_under_load,
    priorities,
    tab3,
    tab5,
)
from repro.bench.harness import (
    RUNTIMES,
    copy_fraction,
    default_num_tasks,
    full_scale,
    make_tasks,
    run_benchmark,
    run_tasks,
)

__all__ = [
    "ablations", "config_sweeps", "latency_under_load", "priorities", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "tab3", "tab5",
    "RUNTIMES", "copy_fraction", "default_num_tasks", "full_scale",
    "make_tasks", "run_benchmark", "run_tasks",
]
