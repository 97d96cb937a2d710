"""Parallel sweep runner: fan experiment configs across worker processes.

Each figure/table reproduction is an *independent, deterministic,
single-threaded* simulation — no shared state, no RNG coupling, no
wall-clock dependence — so a sweep over artefacts is embarrassingly
parallel.  This module fans the cells of a sweep across a
``multiprocessing`` pool and reassembles the reports **in submission
order**, which is the determinism contract:

    for any worker count N >= 1, the report text of every experiment is
    byte-identical to a serial run (only the bracketed wall-time lines
    differ, as they measure the host, not the simulation).

Workers are plain processes; each cell re-runs the full simulation in
its own interpreter, so per-cell results can never observe another
cell's engine, caches, or module state.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple

from repro.bench.runner import EXPERIMENTS, run_cell, run_one

#: environment variables that re-trigger conda activation chatter.
_NOISY_VARS = ("CONDA_PROMPT_MODIFIER", "CONDA_SHLVL", "PROMPT")


def silence_conda() -> None:
    """Pool initializer: keep a worker's stdout byte-canonical.

    conda-wrapped pythons print ``WARNING conda ... condarc``
    diagnostics on *stdout* when a user-level ``.condarc`` is
    unreadable, and late activation hooks in a child process would
    interleave them with the reports.  Pointing ``CONDARC`` at the
    null device sidesteps the user config, and the prompt/shell-hook
    variables are dropped.
    """
    os.environ["CONDARC"] = os.devnull
    for noisy in _NOISY_VARS:
        os.environ.pop(noisy, None)


def default_jobs() -> int:
    """Worker count when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


def run_parallel(
    names: Sequence[str],
    num_tasks: Optional[int] = None,
    jobs: Optional[int] = None,
) -> List[Tuple[str, str]]:
    """Run the named experiments across ``jobs`` worker processes.

    Returns ``(name, report)`` pairs in the order of ``names``
    regardless of which worker finished first.  ``jobs=1`` (or a
    single experiment) degrades to an in-process serial run with no
    pool overhead.
    """
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; have {sorted(EXPERIMENTS)}"
        )
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = [(name, num_tasks) for name in names]
    if jobs == 1 or len(work) <= 1:
        return [(name, run_one(name, num_tasks)) for name, num_tasks in work]
    # fork keeps startup cheap on POSIX; spawn elsewhere.  Workers only
    # *read* imported module state, so either start method is safe.
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    with ctx.Pool(processes=min(jobs, len(work)),
                  initializer=silence_conda) as pool:
        # map() preserves submission order — the determinism contract
        return pool.map(run_cell, work)
